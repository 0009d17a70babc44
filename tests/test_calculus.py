from fractions import Fraction

import numpy as np
import pytest
from conftest import random_points, random_polynomial

from heisenpde.calculus import full_hessian, h_hessian, h_second_fields, lift_batch
from heisenpde.fields import NumericField, PolynomialField, parse_polynomial, smooth_abs_field
from heisenpde.group import frame_batch, p_matrix_batch
from heisenpde.rng import SplitMix64


def lift(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """lift_batch on a one-matrix stack at the one-row point p."""
    return lift_batch(a[None], p)[0]


def test_h_hessian_examples():
    r2 = parse_polynomial("x1^2 + x2^2")
    pts = np.array([[0.3, -0.7, 2.0], [1.0, 2.0, 3.0]])
    assert np.array_equal(h_hessian(r2, pts), [2 * np.eye(2)] * 2)
    lin = parse_polynomial("3 x1 - 2 x2 + 0.5 x3")
    assert np.array_equal(h_hessian(lin, pts), np.zeros((2, 2, 2)))
    # u = x3: X^2u = 0, Y^2u = 0, (XY+YX)u/2 = (-2+2)/2 = 0
    x3 = PolynomialField.coordinate(2)
    assert np.array_equal(h_hessian(x3, np.array([[5.0, -1.0, 0.0]])), np.zeros((1, 2, 2)))
    assert h_hessian(r2, np.empty((0, 3))).shape == (0, 2, 2)


def test_full_hessian_example_and_linearity():
    u = parse_polynomial("x1 x3")
    m = full_hessian(u, np.array([[0.1, 0.2, 0.3]]))
    assert np.array_equal(m, [[[0, 0, 1], [0, 0, 0], [1, 0, 0]]])
    lin = parse_polynomial("x1 - x2 + x3")
    assert np.array_equal(full_hessian(lin, np.ones((4, 3))), np.zeros((4, 3, 3)))


def _ref_sum(field: PolynomialField, x) -> float:
    """The per-point loop: sum c x1^a x2^b x3^d over the sorted exact terms,
    each coefficient the float of its Fraction, in Python floats."""
    x1, x2, x3 = (float(v) for v in x)
    total = 0.0
    for (a, b, d), c in sorted(field.terms.items()):
        total += float(c) * x1**a * x2**b * x3**d
    return total


def _ref_h_hessian(u: PolynomialField, x) -> list[list[float]]:
    xx, xy, yx, yy = (_ref_sum(w, x) for w in h_second_fields(u))
    cross = 0.5 * (xy + yx)
    return [[xx, cross], [cross, yy]]


def _ref_partials(u: PolynomialField, x, pairs) -> list[float]:
    return [_ref_sum(u.partial_field(i).partial_field(j), x) for i, j in pairs]


def _ref_quotient(u, x, h: float, v, w=None) -> float:
    """The per-point centred quotient at the point x, (3,): three samples
    on the line when w is None, else four on the diagonals."""
    if w is None:
        vals = u.value_batch(np.array([x + h * v, x, x - h * v]))
        return float((vals[0] - 2 * vals[1] + vals[2]) / (h * h))
    pts = [x + h * (v + w), x + h * (v - w), x - h * (v - w), x - h * (v + w)]
    vals = u.value_batch(np.array(pts))
    return float((vals[0] - vals[1] - vals[2] + vals[3]) / (4 * h * h))


def _ref_numeric_h_hessian(u: NumericField, x) -> list[list[float]]:
    (xv,), (yv,) = frame_batch(x[None])
    cross = _ref_quotient(u, x, u.h_fd, xv, yv)
    return [[_ref_quotient(u, x, u.h_fd, xv), cross], [cross, _ref_quotient(u, x, u.h_fd, yv)]]


def _ref_numeric_partials(u: NumericField, x, pairs) -> list[float]:
    e = np.eye(3)
    return [_ref_quotient(u, x, u.h_fd, e[i], None if i == j else e[j]) for i, j in pairs]


PAIRS = ((0, 0), (2, 1), (1, 2), (2, 2), (0, 1))
ALL_PAIRS = tuple((i, j) for i in range(3) for j in range(3))
# full_hessian takes entry (i, j) from the quotient along e_min(i, j), e_max(i, j)
UPPER_OF_ALL = tuple((min(i, j), max(i, j)) for i, j in ALL_PAIRS)


@pytest.mark.parametrize("n", [1, 50])
def test_stacks_are_the_per_point_arithmetic_bitwise(n):
    g = SplitMix64(60 + n, "stack-bitwise")
    non_dyadic = PolynomialField(
        {(2, 1, 1): Fraction(1, 3), (1, 0, 2): Fraction(-7, 5), (0, 3, 0): Fraction(10, 3)}
    )
    for k in range(6):
        u = random_polynomial(g, degree=6)
        if k % 2:
            u = u + non_dyadic
        pts = random_points(g, n)
        want = np.array([_ref_h_hessian(u, x) for x in pts])
        assert h_hessian(u, pts).tobytes() == want.tobytes()
        want = np.array([_ref_partials(u, x, ALL_PAIRS) for x in pts]).reshape(n, 3, 3)
        assert full_hessian(u, pts).tobytes() == want.tobytes()
        want = np.array([_ref_partials(u, x, PAIRS) for x in pts])
        assert u.second_partials(pts, PAIRS).tobytes() == want.tobytes()
    # a numeric field's stack is its per-point quotients, and its one-row calls
    bump = smooth_abs_field(eps=0.3, scale=2.0)
    cubic = NumericField(lambda p: p[:, 0] ** 2 * p[:, 2] - np.sqrt(1.0 + p[:, 1] ** 2), h_fd=1e-3)
    pts = random_points(g, n, -1.0, 1.0)
    for u in (bump, cubic):
        cases = [
            (h_hessian, [_ref_numeric_h_hessian(u, x) for x in pts]),
            (full_hessian, [_ref_numeric_partials(u, x, UPPER_OF_ALL) for x in pts]),
            (
                lambda w, p: w.second_partials(p, PAIRS),
                [_ref_numeric_partials(u, x, PAIRS) for x in pts],
            ),
        ]
        for fn, want in cases:
            got = fn(u, pts)
            assert np.isfinite(got).all()
            assert got.tobytes() == np.array(want).tobytes()
            rows = np.concatenate([fn(u, pts[r : r + 1]) for r in range(n)])
            assert got.tobytes() == rows.tobytes()


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
        p = random_points(g, 1)
        a = lift(full_hessian(u, p)[0], p)
        b = h_hessian(u, p)[0]
        scale = max(1.0, np.abs(a).max(), np.abs(b).max())
        assert np.allclose(a, b, atol=1e-12 * scale)


def test_lift_identity_and_linearity():
    assert np.array_equal(lift(np.eye(3), np.zeros((1, 3))), np.eye(2))
    g = SplitMix64(43, "liftlin")
    a, b = g.symmetric(1, 3)[0], g.symmetric(1, 3)[0]
    p = np.array([[0.5, -1.5, 2.0]])
    assert np.allclose(lift(a + b, p), lift(a, p) + lift(b, p), rtol=1e-14)


def test_quadratic_form_identity_polynomial():
    # <D^2u (aX+bY), (aX+bY)> = <D^{2,*}u (a,b), (a,b)>
    g = SplitMix64(45, "qform")
    worst = 0.0
    for _ in range(200):
        u = random_polynomial(g, degree=6)
        p = random_points(g, 1)
        a, b = g.uniform(2, -2.0, 2.0)
        (x,), (y,) = frame_batch(p)
        v = a * x + b * y
        d2 = full_hessian(u, p)[0]
        lhs = float(v @ d2 @ v)
        h = h_hessian(u, p)[0]
        rhs = float(np.array([a, b]) @ h @ np.array([a, b]))
        scale = max(1.0, abs(lhs), abs(rhs), np.abs(d2).max() * float(v @ v))
        worst = max(worst, abs(lhs - rhs) / scale)
    assert worst <= 1e-12


def test_trace_consistency_three_routes():
    g = SplitMix64(46, "trace")
    for _ in range(50):
        u = random_polynomial(g, degree=5)
        p = random_points(g, 1)
        s1 = float(np.trace(h_hessian(u, p)[0]))
        s2 = float(np.trace(lift(full_hessian(u, p)[0], p)))
        s3 = float(np.trace(p_matrix_batch(p)[0] @ full_hessian(u, p)[0]))
        scale = max(1.0, abs(s1))
        assert abs(s1 - s2) <= 1e-12 * scale
        assert abs(s1 - s3) <= 1e-12 * scale


def test_sublaplacian_examples():
    # X^2u + Y^2u, the trace of the horizontal Hessian
    p = np.array([[1.2, -0.4, 3.0]])

    def sub(text):
        return np.trace(h_hessian(parse_polynomial(text), p), axis1=1, axis2=2)[0]

    assert np.isclose(sub("x1^2 + x2^2"), 4.0, rtol=1e-14)
    assert sub("x3") == 0.0
    assert np.isclose(sub("x1 x2"), 0.0, atol=1e-14)


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
        p = random_points(g, 1, -1.0, 1.0)
        a = full_hessian(u, p)[0]
        b = full_hessian(numeric, p)[0]
        assert np.allclose(a, b, atol=1e-6 * max(1.0, np.abs(a).max()))


def test_cross_provider_h_hessian_agreement():
    g = SplitMix64(49, "crossh")
    worst = 0.0
    for _ in range(10):
        u = random_polynomial(g, degree=4)
        numeric = NumericField(u.value_batch, h_fd=1e-4)
        p = random_points(g, 1, -1.0, 1.0)
        a = h_hessian(u, p)[0]
        b = h_hessian(numeric, p)[0]
        scale = max(1.0, np.abs(a).max())
        worst = max(worst, np.abs(a - b).max() / scale)
    assert worst <= 1e-6
