import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenpde.group import (
    ORIGIN,
    Point,
    dilate,
    frame,
    group_inv,
    group_mul,
    null_direction_batch,
    p_matrix,
    sigma,
    sqrt_p,
    sqrt_p_batch,
)
from heisenpde.rng import SplitMix64

coords = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coords, coords, coords)


def manual_matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise left-to-right dot products, fixing the float association."""
    return np.array([(m[i, 0] * v[0] + m[i, 1] * v[1]) + m[i, 2] * v[2] for i in range(3)])


def test_group_mul_identity_and_example():
    p = Point(0.3, -1.2, 2.0)
    assert group_mul(ORIGIN, p) == p
    assert group_mul(p, ORIGIN) == p
    # substitute into the group law: third slot 0+0+2*(0*0 - 1*1) = -2
    assert group_mul(Point(1, 0, 0), Point(0, 1, 0)) == Point(1, 1, -2)


def test_group_inverse():
    assert group_inv(ORIGIN) == ORIGIN
    assert group_inv(Point(1, 2, 3)) == Point(-1, -2, -3)
    g = SplitMix64(10, "inv")
    for row in g.uniform(30, -50, 50).reshape(10, 3):
        p = Point(*row)
        assert group_mul(p, group_inv(p)) == ORIGIN
        assert group_mul(group_inv(p), p) == ORIGIN


@settings(max_examples=200, deadline=None)
@given(points, points, points)
def test_associativity(a, b, c):
    lhs = group_mul(group_mul(a, b), c)
    rhs = group_mul(a, group_mul(b, c))
    scale = max(1.0, *(abs(v) for p in (a, b, c) for v in (p.x1, p.x2, p.x3))) ** 2
    assert abs(lhs.x1 - rhs.x1) <= 1e-12 * scale
    assert abs(lhs.x2 - rhs.x2) <= 1e-12 * scale
    assert abs(lhs.x3 - rhs.x3) <= 1e-12 * scale


def test_dilate_examples_and_semigroup():
    p = Point(0.5, -2.0, 7.0)
    assert dilate(1.0, p) == p
    assert dilate(2.0, Point(1, 1, 1)) == Point(2, 2, 4)
    q1 = dilate(1.5, dilate(2.0, p))
    q2 = dilate(3.0, p)
    assert np.allclose(q1.as_array(), q2.as_array(), rtol=1e-14)
    with pytest.raises(ValueError):
        dilate(0.0, p)
    with pytest.raises(ValueError):
        dilate(-1.0, p)


def test_point_rejects_nonfinite():
    with pytest.raises(ValueError):
        Point(np.nan, 0.0, 0.0)


def test_frame_values():
    x, y, t = frame(ORIGIN)
    assert np.array_equal(x, [1, 0, 0])
    assert np.array_equal(y, [0, 1, 0])
    assert np.array_equal(t, [0, 0, 1])
    x, y, _ = frame(Point(1, 2, 5))
    assert np.array_equal(x, [1, 0, 4])
    assert np.array_equal(y, [0, 1, -2])


def test_frame_differences_are_vertical():
    # X(p) - X(q) = (0, 0, 2(p2 - q2)); Y(p) - Y(q) = (0, 0, 2(q1 - p1))
    p, q = Point(1.5, -0.25, 3.0), Point(-2.0, 4.0, 0.5)
    xp, yp, _ = frame(p)
    xq, yq, _ = frame(q)
    assert np.array_equal(xp - xq, [0, 0, 2 * (p.x2 - q.x2)])
    assert np.array_equal(yp - yq, [0, 0, 2 * (q.x1 - p.x1)])


def test_sigma_rows_are_frame():
    p = Point(0.7, -1.1, 9.0)
    s = sigma(p).mat
    x, y, _ = frame(p)
    assert np.array_equal(s[0], x)
    assert np.array_equal(s[1], y)
    assert np.array_equal(s[0], [1, 0, 2 * p.x2])


def test_p_matrix_is_sigma_t_sigma():
    g = SplitMix64(20, "psigma")
    for row in g.uniform(60, -10, 10).reshape(20, 3):
        p = Point(*row)
        s = sigma(p).mat
        # entrywise sums with fixed association (BLAS may reassociate/FMA)
        sts = np.array(
            [[s[0, i] * s[0, j] + s[1, i] * s[1, j] for j in range(3)] for i in range(3)]
        )
        assert np.array_equal(p_matrix(p).mat, sts)


def test_p_matrix_origin_trace_and_smallest_eigenvalue():
    assert np.array_equal(p_matrix(ORIGIN).mat, np.diag([1.0, 1.0, 0.0]))
    g = SplitMix64(21, "ptrace")
    for row in g.uniform(60, -5, 5).reshape(20, 3):
        p = Point(*row)
        m = p_matrix(p)
        assert np.isclose(m.trace(), 2 + 4 * (p.x1**2 + p.x2**2), rtol=1e-14)
        evs = np.linalg.eigvalsh(m.mat)
        assert abs(evs[0]) <= 1e-12 * max(1.0, evs[-1])


def test_p_matrix_null_vector_exact():
    g = SplitMix64(22, "pnull")
    for row in g.uniform(300, -1000, 1000).reshape(100, 3):
        p = Point(*row)
        out = manual_matvec(p_matrix(p).mat, null_direction_batch(row[None])[0])
        assert np.array_equal(out, np.zeros(3))


def test_sqrt_p_origin_and_closed_form_entry():
    assert np.array_equal(sqrt_p(ORIGIN).mat, np.diag([1.0, 1.0, 0.0]))
    # at x' = (1, 0): s = sqrt(5), corner entry 4/sqrt(5); the x1-axis is
    # untouched there (a11 = 1) and the x2/x3 block carries the correction
    m = sqrt_p(Point(1.0, 0.0, 3.0))
    assert np.isclose(m.a33, 4 / np.sqrt(5), rtol=1e-15)
    assert m.a11 == 1.0
    assert np.isclose(m.a22, 1 - 4 / ((1 + np.sqrt(5)) * np.sqrt(5)), rtol=1e-15)
    assert np.isclose(m.a22, 1 / np.sqrt(5), rtol=1e-14)
    assert m.a12 == 0.0


def test_sqrt_p_squares_to_p():
    # oracle: P assembled from sigma
    g = SplitMix64(23, "sqrtp")
    pts = g.uniform(3000, -10, 10).reshape(1000, 3)
    for row in pts:
        p = Point(*row)
        r = sqrt_p(p).mat
        target = p_matrix(p).mat
        scale = max(1.0, np.abs(target).max())
        assert np.allclose(r @ r, target, atol=1e-10 * scale)


def test_sqrt_p_is_psd():
    g = SplitMix64(24, "sqrtpsd")
    for row in g.uniform(150, -100, 100).reshape(50, 3):
        m = sqrt_p(Point(*row)).mat
        evs = np.linalg.eigvalsh(m)
        assert evs[0] >= -1e-10 * max(1.0, np.abs(evs).max())


def test_sqrt_p_depends_only_on_horizontal_part():
    a = sqrt_p(Point(2.0, -3.0, 100.0))
    b = sqrt_p(Point(2.0, -3.0, -7.5))
    assert a == b


def test_sqrt_p_batch_matches_scalar():
    g = SplitMix64(25, "batch")
    xy = g.uniform(40, -8, 8).reshape(20, 2)
    batch = sqrt_p_batch(xy)
    for k, (x1, x2) in enumerate(xy):
        assert np.array_equal(batch[k], sqrt_p(Point(x1, x2, 0.0)).mat)
