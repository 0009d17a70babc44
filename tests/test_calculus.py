import numpy as np
from conftest import random_points, random_polynomial

from heisenpde.calculus import full_hessian, h_hessian, lift_batch
from heisenpde.fields import NumericField, PolynomialField, parse_polynomial
from heisenpde.group import Point, frame_batch, p_matrix_batch
from heisenpde.rng import SplitMix64


def lift(a: np.ndarray, p: Point) -> np.ndarray:
    """lift_batch on a one-matrix stack."""
    return lift_batch(a[None], p.as_array()[None])[0]


def test_h_hessian_examples():
    r2 = parse_polynomial("x1^2 + x2^2")
    h = h_hessian(r2, Point(0.3, -0.7, 2.0))
    assert np.array_equal(h.mat, [[2.0, 0.0], [0.0, 2.0]])
    lin = parse_polynomial("3 x1 - 2 x2 + 0.5 x3")
    assert np.array_equal(h_hessian(lin, Point(1, 2, 3)).mat, np.zeros((2, 2)))
    # u = x3: X^2u = 0, Y^2u = 0, (XY+YX)u/2 = (-2+2)/2 = 0
    x3 = PolynomialField.coordinate(2)
    assert np.array_equal(h_hessian(x3, Point(5, -1, 0)).mat, np.zeros((2, 2)))


def test_full_hessian_example_and_linearity():
    u = parse_polynomial("x1 x3")
    m = full_hessian(u, Point(0.1, 0.2, 0.3)).mat
    assert np.array_equal(m, [[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    lin = parse_polynomial("x1 - x2 + x3")
    assert np.array_equal(full_hessian(lin, Point(1, 1, 1)).mat, np.zeros((3, 3)))


def test_commutator_is_minus_four_t_exactly():
    # [X, Y]u = -4 du/dx3, exact in rational arithmetic
    g = SplitMix64(41, "comm")
    for _ in range(100):
        u = random_polynomial(g, degree=6)
        xy = u.apply_y().apply_x()
        yx = u.apply_x().apply_y()
        commutator = xy - yx
        assert commutator == u.partial_field(2) * -4


def test_lift_of_full_hessian_is_h_hessian():
    g = SplitMix64(42, "lift")
    for _ in range(50):
        u = random_polynomial(g, degree=5)
        p = Point(*random_points(g, 1)[0])
        a = lift(full_hessian(u, p).mat, p)
        b = h_hessian(u, p).mat
        scale = max(1.0, np.abs(a).max(), np.abs(b).max())
        assert np.allclose(a, b, atol=1e-12 * scale)


def test_lift_identity_and_linearity():
    assert np.array_equal(lift(np.eye(3), Point(0, 0, 0)), np.eye(2))
    g = SplitMix64(43, "liftlin")
    a, b = g.symmetric(1, 3)[0], g.symmetric(1, 3)[0]
    p = Point(0.5, -1.5, 2.0)
    assert np.allclose(lift(a + b, p), lift(a, p) + lift(b, p), rtol=1e-14)


def test_quadratic_form_identity_polynomial():
    # <D^2u (aX+bY), (aX+bY)> = <D^{2,*}u (a,b), (a,b)>
    g = SplitMix64(45, "qform")
    worst = 0.0
    for _ in range(200):
        u = random_polynomial(g, degree=6)
        p = Point(*random_points(g, 1)[0])
        a, b = g.uniform(2, -2.0, 2.0)
        (x,), (y,) = frame_batch(p.as_array()[None])
        v = a * x + b * y
        d2 = full_hessian(u, p).mat
        lhs = float(v @ d2 @ v)
        h = h_hessian(u, p).mat
        rhs = float(np.array([a, b]) @ h @ np.array([a, b]))
        scale = max(1.0, abs(lhs), abs(rhs), np.abs(d2).max() * float(v @ v))
        worst = max(worst, abs(lhs - rhs) / scale)
    assert worst <= 1e-12


def test_trace_consistency_three_routes():
    g = SplitMix64(46, "trace")
    for _ in range(50):
        u = random_polynomial(g, degree=5)
        p = Point(*random_points(g, 1)[0])
        s1 = h_hessian(u, p).trace()
        s2 = float(np.trace(lift(full_hessian(u, p).mat, p)))
        s3 = float(np.trace(p_matrix_batch(p.as_array()[None])[0] @ full_hessian(u, p).mat))
        scale = max(1.0, abs(s1))
        assert abs(s1 - s2) <= 1e-12 * scale
        assert abs(s1 - s3) <= 1e-12 * scale


def test_sublaplacian_examples():
    # X^2u + Y^2u, the trace of the horizontal Hessian
    p = Point(1.2, -0.4, 3.0)
    assert np.isclose(h_hessian(parse_polynomial("x1^2 + x2^2"), p).trace(), 4.0, rtol=1e-14)
    assert h_hessian(PolynomialField.coordinate(2), p).trace() == 0.0
    assert np.isclose(h_hessian(parse_polynomial("x1 x2"), p).trace(), 0.0, atol=1e-14)


def test_dilation_homogeneity_exact():
    # X(u o dil_lam) = lam * (Xu) o dil_lam, and the sub-Laplacian scales by lam^2
    g = SplitMix64(47, "dil")
    for lam in (0.5, 2.0, 3.0):
        for _ in range(20):
            u = random_polynomial(g, degree=5)
            lhs_x = u.dilate(lam).apply_x()
            rhs_x = u.apply_x().dilate(lam) * lam
            assert lhs_x == rhs_x
            lhs_y = u.dilate(lam).apply_y()
            rhs_y = u.apply_y().dilate(lam) * lam
            assert lhs_y == rhs_y

            def sublap_poly(w):
                return w.apply_x().apply_x() + w.apply_y().apply_y()

            assert sublap_poly(u.dilate(lam)) == sublap_poly(u).dilate(lam) * (lam * lam)


def test_cross_provider_full_hessian_agreement():
    g = SplitMix64(48, "cross")
    for _ in range(10):
        u = random_polynomial(g, degree=4)
        numeric = NumericField(u.value_batch, h_fd=1e-4)
        p = Point(*random_points(g, 1, -1.0, 1.0)[0])
        a = full_hessian(u, p).mat
        b = full_hessian(numeric, p).mat
        assert np.allclose(a, b, atol=1e-6 * max(1.0, np.abs(a).max()))


def test_cross_provider_h_hessian_agreement():
    g = SplitMix64(49, "crossh")
    worst = 0.0
    for _ in range(10):
        u = random_polynomial(g, degree=4)
        numeric = NumericField(u.value_batch, h_fd=1e-4)
        p = Point(*random_points(g, 1, -1.0, 1.0)[0])
        a = h_hessian(u, p).mat
        b = h_hessian(numeric, p).mat
        scale = max(1.0, np.abs(a).max())
        worst = max(worst, np.abs(a - b).max() / scale)
    assert worst <= 1e-6
