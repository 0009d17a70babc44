import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenpde.group import (
    Point,
    dilate_batch,
    frame_batch,
    group_inv_batch,
    group_mul_batch,
    null_direction_batch,
    p_matrix_batch,
    sqrt_p_batch,
)
from heisenpde.rng import SplitMix64

coords = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
points = st.tuples(coords, coords, coords)


def row(*x) -> np.ndarray:
    """One point as a one-row (1, 3) stack."""
    return np.array([x], dtype=float)


def manual_matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise left-to-right dot products, fixing the float association."""
    return np.array([(m[i, 0] * v[0] + m[i, 1] * v[1]) + m[i, 2] * v[2] for i in range(3)])


def test_group_mul_identity_and_example():
    p, origin = row(0.3, -1.2, 2.0), np.zeros((1, 3))
    assert np.array_equal(group_mul_batch(origin, p), p)
    assert np.array_equal(group_mul_batch(p, origin), p)
    # substitute into the group law: third slot 0+0+2*(0*0 - 1*1) = -2
    assert np.array_equal(group_mul_batch(row(1, 0, 0), row(0, 1, 0)), row(1, 1, -2))


def test_group_inverse():
    assert np.array_equal(group_inv_batch(row(1, 2, 3)), row(-1, -2, -3))
    g = SplitMix64(10, "inv")
    p = g.uniform(30, -50, 50).reshape(10, 3)
    assert np.array_equal(group_mul_batch(p, group_inv_batch(p)), np.zeros((10, 3)))
    assert np.array_equal(group_mul_batch(group_inv_batch(p), p), np.zeros((10, 3)))


@settings(max_examples=200, deadline=None)
@given(points, points, points)
def test_associativity(a, b, c):
    a, b, c = row(*a), row(*b), row(*c)
    lhs = group_mul_batch(group_mul_batch(a, b), c)
    rhs = group_mul_batch(a, group_mul_batch(b, c))
    scale = max(1.0, np.abs(np.concatenate([a, b, c])).max()) ** 2
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def test_dilate_examples_and_semigroup():
    p = row(0.5, -2.0, 7.0)
    assert np.array_equal(dilate_batch(1.0, p), p)
    assert np.array_equal(dilate_batch(2.0, row(1, 1, 1)), row(2, 2, 4))
    q1 = dilate_batch(1.5, dilate_batch(2.0, p))
    q2 = dilate_batch(3.0, p)
    assert np.allclose(q1, q2, rtol=1e-14)
    with pytest.raises(ValueError):
        dilate_batch(0.0, p)
    with pytest.raises(ValueError):
        dilate_batch(-1.0, p)


def test_point_rejects_nonfinite():
    with pytest.raises(ValueError):
        Point(np.nan, 0.0, 0.0)


def test_frame_values():
    (x,), (y,) = frame_batch(np.zeros((1, 3)))
    assert np.array_equal(x, [1, 0, 0])
    assert np.array_equal(y, [0, 1, 0])
    (x,), (y,) = frame_batch(row(1, 2, 5))
    assert np.array_equal(x, [1, 0, 4])
    assert np.array_equal(y, [0, 1, -2])


def test_frame_differences_are_vertical():
    # X(p) - X(q) = (0, 0, 2(p2 - q2)); Y(p) - Y(q) = (0, 0, 2(q1 - p1))
    p, q = (1.5, -0.25, 3.0), (-2.0, 4.0, 0.5)
    (xp, xq), (yp, yq) = frame_batch(np.array([p, q]))
    assert np.array_equal(xp - xq, [0, 0, 2 * (p[1] - q[1])])
    assert np.array_equal(yp - yq, [0, 0, 2 * (q[0] - p[0])])


def test_p_matrix_is_sigma_t_sigma():
    g = SplitMix64(20, "psigma")
    pts = g.uniform(60, -10, 10).reshape(20, 3)
    xs, ys = frame_batch(pts)
    for x, y, p in zip(xs, ys, p_matrix_batch(pts)):
        # sigma has rows X, Y; entrywise sums with fixed association (BLAS
        # may reassociate/FMA)
        sts = np.array([[x[i] * x[j] + y[i] * y[j] for j in range(3)] for i in range(3)])
        assert np.array_equal(p, sts)


def test_p_matrix_origin_trace_and_smallest_eigenvalue():
    assert np.array_equal(p_matrix_batch(np.zeros((1, 3)))[0], np.diag([1.0, 1.0, 0.0]))
    g = SplitMix64(21, "ptrace")
    pts = g.uniform(60, -5, 5).reshape(20, 3)
    for p, m in zip(pts, p_matrix_batch(pts)):
        assert np.isclose(np.trace(m), 2 + 4 * (p[0] ** 2 + p[1] ** 2), rtol=1e-14)
        evs = np.linalg.eigvalsh(m)
        assert abs(evs[0]) <= 1e-12 * max(1.0, evs[-1])


def test_p_matrix_null_vector_exact():
    g = SplitMix64(22, "pnull")
    pts = g.uniform(300, -1000, 1000).reshape(100, 3)
    for m, v in zip(p_matrix_batch(pts), null_direction_batch(pts)):
        assert np.array_equal(manual_matvec(m, v), np.zeros(3))


def test_sqrt_p_origin_and_closed_form_entry():
    assert np.array_equal(sqrt_p_batch(np.zeros((1, 3)))[0], np.diag([1.0, 1.0, 0.0]))
    # at x' = (1, 0): s = sqrt(5), corner entry 4/sqrt(5); the x1-axis is
    # untouched there (a11 = 1) and the x2/x3 block carries the correction
    m = sqrt_p_batch(row(1.0, 0.0, 3.0))[0]
    assert np.isclose(m[2, 2], 4 / np.sqrt(5), rtol=1e-15)
    assert m[0, 0] == 1.0
    assert np.isclose(m[1, 1], 1 - 4 / ((1 + np.sqrt(5)) * np.sqrt(5)), rtol=1e-15)
    assert np.isclose(m[1, 1], 1 / np.sqrt(5), rtol=1e-14)
    assert m[0, 1] == m[1, 0] == 0.0


def test_sqrt_p_squares_to_p():
    # oracle: P assembled from sigma
    g = SplitMix64(23, "sqrtp")
    pts = g.uniform(3000, -10, 10).reshape(1000, 3)
    for r, target in zip(sqrt_p_batch(pts), p_matrix_batch(pts)):
        scale = max(1.0, np.abs(target).max())
        assert np.allclose(r @ r, target, atol=1e-10 * scale)


def test_sqrt_p_is_psd():
    g = SplitMix64(24, "sqrtpsd")
    for m in sqrt_p_batch(g.uniform(150, -100, 100).reshape(50, 3)):
        evs = np.linalg.eigvalsh(m)
        assert evs[0] >= -1e-10 * max(1.0, np.abs(evs).max())


def test_sqrt_p_depends_only_on_horizontal_part():
    a, b = sqrt_p_batch(np.array([[2.0, -3.0, 100.0], [2.0, -3.0, -7.5]]))
    assert np.array_equal(a, b)
