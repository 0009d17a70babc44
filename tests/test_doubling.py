import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenpde import doubling
from heisenpde.doubling import (
    MaxReport,
    PenaltyParams,
    block_gap_matrix,
    block_matrix,
    doubling_certificate,
    lifted_penalty_bound_batch,
    lifted_trace_gap_batch,
    make_admissible_batch,
    n_matrix_batch,
    n_norm_bound_batch,
    penalty_hessian_batch,
    penalty_hessian_sq_batch,
    sandwich_batch,
    sqrtp_ratio_batch,
    trace_gap_batch,
    vertical_obstruction_check,
)
from heisenpde.doubling import _psi_max, _refined_axes, _tensor_axes
from heisenpde.fields import NumericField, PolynomialField, parse_polynomial
from heisenpde.grid import Grid3, GridFunction, tensor_points
from heisenpde.group import sqrt_p_batch
from heisenpde.rng import SplitMix64


def fd_hessian_extended(fn, x, h=1e-5):
    """Centered FD Hessian in extended precision (the independent M oracle)."""
    x = np.asarray(x, dtype=np.longdouble)
    out = np.empty((3, 3), dtype=np.longdouble)
    for i in range(3):
        ei = np.zeros(3, dtype=np.longdouble)
        ei[i] = h
        out[i, i] = (fn(x + ei) - 2 * fn(x) + fn(x - ei)) / (h * h)
        for j in range(i + 1, 3):
            ej = np.zeros(3, dtype=np.longdouble)
            ej[j] = h
            out[i, j] = out[j, i] = (
                fn(x + ei + ej) - fn(x + ei - ej) - fn(x - ei + ej) + fn(x - ei - ej)
            ) / (4 * h * h)
    return np.asarray(out, dtype=float)


def random_pair(g, lo=0.1, hi=2.0):
    """Two points as one-row (1, 3) stacks, |x - y| drawn from [lo, hi]."""
    x = g.uniform(3, -2, 2)
    direction = g.unit_vectors(1)[0]
    dist = g.uniform(1, lo, hi)[0]
    return x[None], (x + dist * direction)[None]


def rows(*points):
    """Points as one-row (1, 3) stacks."""
    return tuple(np.array([p], dtype=float) for p in points)


def least_block_gap(a, b, n):
    """Least eigenvalue of [[N,-N],[-N,N]] - [[A,0],[0,-B]] for 3x3 arrays."""
    return np.linalg.eigvalsh(block_gap_matrix(a, b, n))[0]


def holds(lhs, rhs):
    """lhs <= rhs up to 1e-9 max(1, |lhs|, |rhs|), elementwise."""
    return lhs <= rhs + 1e-9 * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))


def test_penalty_params_validation():
    with pytest.raises(ValueError):
        PenaltyParams(L=0.0, alpha=0.5)
    for alpha in (0.0, 1.5, 2.0, float("nan")):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\]"):
            PenaltyParams(L=1.0, alpha=alpha)
    assert PenaltyParams(L=1.0, alpha=1.0).alpha == 1.0
    with pytest.raises(ValueError):
        PenaltyParams(L=1.0, alpha=0.5, delta=-1.0)
    # a NaN or infinite constant would let the certificate report
    # theta = -inf as certified
    for name in ("L", "delta", "eps"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                PenaltyParams(**dict({"L": 1.0, "alpha": 0.5}, **{name: value}))


def test_penalty_hessian_closed_cases():
    # alpha = 2 kills the rank-one term: M = 2 L I
    m = penalty_hessian_batch(*rows((1, 0, 2), (0, 1, 0)), 1.5, 2.0)[0]
    assert np.allclose(m, 2 * 1.5 * np.eye(3), rtol=1e-14)
    # alpha = 1 along e1: diag(0, 1, 1)
    m1 = penalty_hessian_batch(*rows((1, 0, 0), (0, 0, 0)), 1.0, 1.0)[0]
    assert np.allclose(m1, np.diag([0.0, 1.0, 1.0]), atol=1e-14)
    with pytest.raises(ValueError):
        penalty_hessian_batch(*rows((1, 1, 1), (1, 1, 1)), 1.0, 1.0)


def test_penalty_hessian_matches_fd_oracle():
    g = SplitMix64(60, "mfd")
    for alpha in (0.3, 0.5, 0.9, 1.0):
        for _ in range(10):
            L = float(g.uniform(1, 0.5, 2.0)[0])
            x, y = random_pair(g, 0.1, 2.0)
            yv = y[0].astype(np.longdouble)

            def phi(z):
                return L * np.sqrt(np.sum((z - yv) ** 2)) ** np.longdouble(alpha)

            ref = fd_hessian_extended(phi, x[0])
            ours = penalty_hessian_batch(x, y, L, alpha)[0]
            scale = np.abs(ours).max()
            assert np.abs(ours - ref).max() <= 1e-6 * scale


def test_penalty_hessian_extreme_eigenvalue():
    g = SplitMix64(61, "meig")
    for _ in range(20):
        alpha = float(g.uniform(1, 0.2, 1.0)[0])
        L = float(g.uniform(1, 0.5, 3.0)[0])
        x, y = random_pair(g)
        d = (x - y)[0]
        dist = np.linalg.norm(d)
        e = d / dist
        m = penalty_hessian_batch(x, y, L, alpha)[0]
        expected = L * alpha * (alpha - 1.0) * dist ** (alpha - 2.0)
        assert np.allclose(m @ e, expected * e, atol=1e-10 * max(1.0, abs(expected)))
        evs = np.linalg.eigvalsh(m)
        assert np.isclose(evs[0], expected, rtol=1e-10)


def test_penalty_hessian_sq_is_square():
    g = SplitMix64(62, "msq")
    for _ in range(30):
        alpha = float(g.uniform(1, 0.2, 2.0)[0])
        L = float(g.uniform(1, 0.5, 2.0)[0])
        x, y = random_pair(g)
        m = penalty_hessian_batch(x, y, L, alpha)[0]
        msq = penalty_hessian_sq_batch(x, y, L, alpha)[0]
        scale = max(1.0, np.abs(msq).max())
        assert np.abs(msq - m @ m).max() <= 1e-10 * scale
    msq2 = penalty_hessian_sq_batch(*rows((1, 0, 0), (0, 0, 0)), 2.0, 2.0)[0]
    assert np.allclose(msq2, 4 * 4.0 * np.eye(3), rtol=1e-14)


def test_penalty_hessian_sq_eigenvalue_along_e():
    L, alpha = 1.3, 0.7
    x, y = rows((1, 1, 0), (0, 0, 1))
    d = (x - y)[0]
    dist = np.linalg.norm(d)
    e = d / dist
    msq = penalty_hessian_sq_batch(x, y, L, alpha)[0]
    # alpha(alpha-2) + 1 = (alpha-1)^2
    expected = (L * alpha) ** 2 * dist ** (2 * alpha - 4) * (alpha - 1) ** 2
    assert np.allclose(msq @ e, expected * e, atol=1e-12 * max(1.0, expected))


def test_block_square_factor_two():
    # [[M,-M],[-M,M]]^2 = 2 [[M^2,-M^2],[-M^2,M^2]]
    g = SplitMix64(63, "factor2")
    for _ in range(20):
        alpha = float(g.uniform(1, 0.2, 1.0)[0])
        L = float(g.uniform(1, 0.5, 2.0)[0])
        x, y = random_pair(g)
        big = block_matrix(penalty_hessian_batch(x, y, L, alpha)[0])
        bigsq = block_matrix(penalty_hessian_sq_batch(x, y, L, alpha)[0])
        scale = max(1.0, np.abs(bigsq).max())
        assert np.abs(big @ big - 2 * bigsq).max() <= 1e-10 * scale


def test_n_matrix_examples_and_norm_bound():
    n = n_matrix_batch(*rows((1, 0, 0), (0, 0, 0)), 1.5, 2.0, 2.0)[0]
    assert np.allclose(n, (2 * 1.5 + 4 * 1.5**2) * np.eye(3), rtol=1e-14)
    # mu -> infinity recovers M
    x, y = rows((1, 2, 0), (0, 0, 1))
    m = penalty_hessian_batch(x, y, 1.5, 0.5)[0]
    nn = n_matrix_batch(x, y, 1.5, 0.5, 1e12)[0]
    assert np.abs(nn - m).max() <= 1e-10 * np.abs(m).max()
    g = SplitMix64(64, "nbound")
    for _ in range(50):
        alpha = float(g.uniform(1, 0.2, 1.0)[0])
        L = float(g.uniform(1, 0.5, 3.0)[0])
        mu = float(g.log_uniform(1, 0.1, 10.0)[0])
        x, y = random_pair(g)
        norm = np.abs(np.linalg.eigvalsh(n_matrix_batch(x, y, L, alpha, mu)[0])).max()
        bound = n_norm_bound_batch(x, y, L, alpha, mu)[0]
        assert norm <= bound * (1 + 1e-12)


def test_block_gap_examples():
    z = np.zeros((3, 3))
    assert abs(least_block_gap(z, z, z)) <= 1e-15
    one = np.eye(3)
    assert np.isclose(least_block_gap(-one, one, z), 1.0, rtol=1e-12)
    # A = N, B = -N with N > 0 must fail on the vector (xi, xi)
    n = np.diag([1.0, 2.0, 3.0])
    assert least_block_gap(n, -n, n) < -0.5


def test_make_admissible_pair_postcondition():
    g = SplitMix64(65, "admis")
    ns = g.symmetric(300, 3, scale=2.0)
    a, b = make_admissible_batch(ns, seed=7)
    w = np.zeros((300, 6, 6))
    w[:, :3, :3] = ns - a
    w[:, :3, 3:] = -ns
    w[:, 3:, :3] = -ns
    w[:, 3:, 3:] = ns + b
    evs = np.linalg.eigvalsh(w)
    scales = np.maximum(1.0, np.abs(w).max(axis=(1, 2)))
    assert (evs[:, 0] >= -1e-10 * scales).all()


def test_make_admissible_pair_single_and_zero_n():
    a, b = make_admissible_batch(np.zeros((1, 3, 3)), seed=3)
    # N = 0 forces A <= 0 <= B
    assert np.linalg.eigvalsh(a[0]).max() <= 1e-12
    assert np.linalg.eigvalsh(b[0]).min() >= -1e-12
    n = np.diag([0.5, -1.0, 2.0])
    a2, b2 = make_admissible_batch(n[None], seed=4)
    gap = block_gap_matrix(a2[0], b2[0], n)
    assert np.linalg.eigvalsh(gap)[0] >= -1e-10 * max(1.0, np.abs(gap).max())


def test_admissible_scalar_consequence():
    # <A xi, xi> - <B eta, eta> <= <N(xi - eta), xi - eta>
    g = SplitMix64(66, "scalar")
    ns = g.symmetric(20, 3, scale=1.5)
    a, b = make_admissible_batch(ns, seed=9)
    for k in range(20):
        xi = g.normal((50, 3))
        eta = g.normal((50, 3))
        lhs = np.einsum("ni,ij,nj->n", xi, a[k], xi) - np.einsum(
            "ni,ij,nj->n", eta, b[k], eta
        )
        d = xi - eta
        rhs = np.einsum("ni,ij,nj->n", d, ns[k], d)
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        assert (lhs <= rhs + 1e-9 * scale).all()


def test_admissible_weighted_consequence():
    # the weighted form with a, b >= 0 and two vector pairs
    g = SplitMix64(67, "weighted")
    ns = g.symmetric(10, 3, scale=1.0)
    amats, bmats = make_admissible_batch(ns, seed=11)
    for k in range(10):
        wa, wb = g.uniform(2, 0.0, 3.0)
        xi1, xi2, eta1, eta2 = g.normal((4, 3))
        lhs = (
            wa * xi1 @ amats[k] @ xi1
            + wb * xi2 @ amats[k] @ xi2
            - wa * eta1 @ bmats[k] @ eta1
            - wb * eta2 @ bmats[k] @ eta2
        )
        rhs = wa * (xi1 - eta1) @ ns[k] @ (xi1 - eta1) + wb * (xi2 - eta2) @ ns[k] @ (
            xi2 - eta2
        )
        assert lhs <= rhs + 1e-9 * max(1.0, abs(lhs), abs(rhs))


def test_trace_gap_cases():
    g = SplitMix64(68, "tgap")
    n = g.symmetric(1, 3)
    a, b = make_admissible_batch(n, seed=1)
    p, q = rows((0.5, -1.0, 2.0), (0.5, -1.0, -3.0))
    lhs, rhs = trace_gap_batch(a, b, n, p, p)
    assert rhs[0] == 0.0
    assert lhs[0] <= 1e-9
    assert holds(lhs, rhs).all()
    # equal horizontal parts, x' = y': the bound is 0 and still holds
    lhs2, rhs2 = trace_gap_batch(a, b, n, p, q)
    assert rhs2[0] == 0.0 and holds(lhs2, rhs2).all()


def test_trace_gap_randomized_holds():
    g = SplitMix64(69, "tgaprand")
    ns = g.symmetric(200, 3, scale=1.5)
    amats, bmats = make_admissible_batch(ns, seed=13)
    x, y = (np.concatenate(z) for z in zip(*(random_pair(g, 0.1, 3.0) for _ in range(200))))
    lhs, rhs = trace_gap_batch(amats, bmats, ns, x, y)
    assert holds(lhs, rhs).all(), np.nonzero(~holds(lhs, rhs))


def test_sqrtp_ratio_cases():
    r = sqrtp_ratio_batch(*rows((1, 0, 0), (0, 1, 5)))[0]
    assert np.isfinite(r) and r > 0
    # equal radii: the corner entries agree, so only off-corner parts differ
    mx, my = sqrt_p_batch(np.array([(1, 0, 0), (0, 1, 5)], dtype=float))
    assert mx[2, 2] == my[2, 2]
    # x' == y': sqrt(P) depends only on x', so the ratio is 0/0
    assert np.isnan(sqrtp_ratio_batch(*rows((1, 2, 3), (1, 2, -3)))[0])
    a, b = sqrt_p_batch(np.array([(1, 2, 3), (1, 2, -3)], dtype=float))
    assert np.array_equal(a, b)


def test_sqrtp_ratio_bounded_over_regime():
    g = SplitMix64(70, "ratio")
    n = 20_000
    x1 = g.uniform(n, -1000, 1000)
    x2 = g.uniform(n, -1000, 1000)
    dirs = g.unit_vectors(n, 2)
    dist = g.uniform(n, 0.1, 10.0)
    x = np.stack([x1, x2, np.zeros(n)], axis=1)
    y = np.stack([x1 + dist * dirs[:, 0], x2 + dist * dirs[:, 1], np.zeros(n)], axis=1)
    assert sqrtp_ratio_batch(x, y).max() < 10.0


def test_lifted_trace_gap_cases():
    g = SplitMix64(71, "lgap")
    n = g.symmetric(1, 3)
    a, b = make_admissible_batch(n, seed=2)
    p, q = rows((0.3, 0.8, -1.0), (1, -1, 0))
    lhs, rhs = lifted_trace_gap_batch(a, b, n, p, p)
    assert rhs[0] == 0.0
    assert lhs[0] <= 1e-9
    zero = np.zeros((1, 3, 3))
    # A = B = 0 is admissible iff N >= 0
    n_psd = g.spd(1, 3, 1e-1, 1e1)
    lhs0, rhs0 = lifted_trace_gap_batch(zero, zero, n_psd, p, q)
    assert lhs0[0] == 0.0 and holds(lhs0, rhs0).all()


def test_lifted_trace_gap_randomized_and_penalty_form():
    g = SplitMix64(72, "lgaprand")
    cases = []
    for _ in range(150):
        alpha = float(g.uniform(1, 0.2, 1.0)[0])
        L = float(g.uniform(1, 0.5, 2.0)[0])
        mu = float(g.log_uniform(1, 0.5, 5.0)[0])
        x, y = random_pair(g, 0.2, 2.0)
        cases.append((L, alpha, mu, x[0], y[0]))
    L, alpha, mu, x, y = (np.array(c) for c in zip(*cases))
    keep = np.hypot(x[:, 0] - y[:, 0], x[:, 1] - y[:, 1]) >= 1e-6
    L, alpha, mu, x, y = L[keep], alpha[keep], mu[keep], x[keep], y[keep]
    n = n_matrix_batch(x, y, L, alpha, mu)
    a, b = make_admissible_batch(n, seed=100)
    c2 = sqrtp_ratio_batch(x, y).max()
    lhs, rhs = lifted_trace_gap_batch(a, b, n, x, y)
    assert holds(lhs, rhs).all(), np.nonzero(~holds(lhs, rhs))
    rhs_penalty = lifted_penalty_bound_batch(x, y, L, alpha, mu, c2)
    assert holds(lhs, rhs_penalty).all(), np.nonzero(~holds(lhs, rhs_penalty))


def test_psd_sandwich():
    def least(p, gap):
        d = sandwich_batch(p, gap)
        return np.linalg.eigvalsh(d)[:, 0] / np.maximum(1.0, np.abs(d).max(axis=(1, 2)))

    g = SplitMix64(73, "sandwich")
    one = np.eye(3)[None]
    assert least(one, 0.0 * one)[0] >= -1e-9
    # P = 0, S1 = -2I, S2 = I
    assert least(0.0 * one, 3.0 * one)[0] >= -1e-9
    p = g.spd(100, 3, 1e-2, 1e2)
    s1 = g.symmetric(100, 3, scale=2.0)
    s2 = s1 + g.spd(100, 3, 1e-3, 1e1)
    assert (least(p, s2 - s1) >= -1e-9).all()


def test_vertical_obstruction():
    assert vertical_obstruction_check(1.0, -1.0)
    with pytest.raises(ValueError):
        vertical_obstruction_check(1.0, 1.0)


@pytest.mark.parametrize("entry", [(2, 0), (2, 1), (0, 2)], ids=["row-e1", "row-e2", "column"])
def test_vertical_obstruction_fails_on_a_nonzero_row_or_column(monkeypatch, entry):
    # the verdict is decided by the third row and by sqrt(P) e3: one nonzero
    # entry of either at one of the two points turns it
    def perturbed(xy):
        roots = sqrt_p_batch(xy)
        roots[1][entry] = 1e-300
        return roots

    monkeypatch.setattr(doubling, "sqrt_p_batch", perturbed)
    assert not vertical_obstruction_check(1.0, -1.0)


def test_doubling_certificate_constant():
    u = PolynomialField.constant(3.0)
    pp = PenaltyParams(L=1.0, alpha=0.5, delta=1e-6, eps=1e-6)
    domain = (np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0]))
    rep = doubling_certificate(u, pp, domain, per_axis=9)
    assert isinstance(rep, MaxReport)
    assert rep.certified
    assert np.isclose(rep.theta, -1e-6, rtol=1e-6)


def test_doubling_certificate_sqrt_profile():
    fn = lambda pts: np.sqrt(np.linalg.norm(pts, axis=1))
    u = NumericField(fn)
    pp = PenaltyParams(L=1.0, alpha=0.5, delta=1e-6, eps=1e-6)
    domain = (np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0]))
    rep = doubling_certificate(u, pp, domain, per_axis=9)
    # | |x|^(1/2) - |y|^(1/2) | <= |x-y|^(1/2) by concavity
    assert rep.certified, rep


def test_doubling_certificate_detects_failure():
    u = PolynomialField.coordinate(0)
    pp = PenaltyParams(L=0.1, alpha=0.5, delta=1e-6, eps=1e-6)
    domain = (np.array([-2.0, -2.0, -2.0]), np.array([2.0, 2.0, 2.0]))
    rep = doubling_certificate(u, pp, domain, per_axis=9)
    assert not rep.certified
    assert rep.theta > 0
    assert rep.gap > 3.0


def test_doubling_certificate_validation():
    u = PolynomialField.constant(0.0)
    domain = (np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        doubling_certificate(u, PenaltyParams(L=1.0, alpha=1.5), domain)
    with pytest.raises(ValueError):
        doubling_certificate(
            u, PenaltyParams(L=1.0, alpha=0.5), (domain[1], domain[0])
        )


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_doubling_certificate_rejects_non_finite_domain(side, bad):
    # NaN passed the ordering check upper <= lower, which is False for NaN
    domain = [np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0])]
    domain[side][1] = bad
    with pytest.raises(ValueError, match="nondegenerate box"):
        doubling_certificate(PolynomialField.constant(0.0), PenaltyParams(1.0, 0.5), domain)


@pytest.mark.parametrize("per_axis", [0, -1, 1])
def test_doubling_certificate_rejects_per_axis_below_two(per_axis):
    u = PolynomialField.constant(0.0)
    domain = (np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="per_axis"):
        doubling_certificate(u, PenaltyParams(L=1.0, alpha=0.5), domain, per_axis)


def chunked_psi_max(u, axes_x, axes_y, pp):
    """The all-pairs maximization that the blocked kernel replaced, kept as
    its oracle: (theta, ix, iy) over every pair of the tensor samples on
    axes_x and axes_y, indices in x3-fastest order, with no pruning.

    Each pair sees the operations of the direct evaluation
    ((ux - uy) - L |x - y|^alpha - delta |x|^2) - eps, with |x - y|^2 =
    (q1 + q2) + q3 from one table of squared differences per axis.  Per x
    pencil (j1, j2) the penalty is computed once per y column (k1, k2) and
    distinct value of q3, and gathered to every pair.  The chunks are the
    pencils, in x order; a chunk replaces the best only when strictly
    larger, with its first maximal pair in (ix, iy) order."""
    pts_x, pts_y = tensor_points(axes_x), tensor_points(axes_y)
    m = len(axes_x[0])
    # the tables index the samples as tensor_points lays them out
    for axes, pts in ((axes_x, pts_x), (axes_y, pts_y)):
        index = np.unravel_index(np.arange(m**3), (m, m, m))
        assert np.array_equal(pts, np.column_stack([a[j] for a, j in zip(axes, index)]))
    ux = np.asarray(u.value_batch(pts_x), dtype=float).reshape(m * m, m)
    uy = np.asarray(u.value_batch(pts_y), dtype=float)
    x_sq = np.sum(pts_x**2, axis=1).reshape(m * m, m)
    q1, q2, q3 = ((ax[:, None] - ay[None, :]) ** 2 for ax, ay in zip(axes_x, axes_y))
    v3, i3 = np.unique(q3, return_inverse=True)
    i3 = i3.reshape(m, m)
    best = -np.inf
    best_ix = best_iy = 0
    for pencil in range(m * m):
        j1, j2 = divmod(pencil, m)
        q12 = (q1[j1][:, None] + q2[j2][None, :]).ravel()  # per y column
        table = pp.L * np.sqrt(q12[:, None] + v3[None, :]) ** pp.alpha
        penalty = table[:, i3].transpose(1, 0, 2).reshape(m, -1)  # (j3, iy)
        psi = ux[pencil][:, None] - uy[None, :] - penalty
        psi = psi - pp.delta * x_sq[pencil][:, None] - pp.eps
        k = int(np.argmax(psi))
        val = float(psi.flat[k])
        if val > best:
            best = val
            best_ix = pencil * m + k // psi.shape[1]
            best_iy = k % psi.shape[1]
    return best, best_ix, best_iy


def cusp_grid_function(n=17):
    """sum |x_i - c_i|^0.6 on an off-centre, non-dyadic grid, cusp off-node."""
    grid = Grid3.box((-0.9, -1.1, -0.7), (1.3, 0.8, 1.2), (n, n + 2, n - 2))
    c = np.array([0.23, -0.31, 0.17])
    u = NumericField(lambda pts: np.sum(np.abs(pts - c) ** 0.6, axis=1))
    return GridFunction.from_field(grid, u)


BOX = (np.array([-0.7, -0.9, -0.5]), np.array([1.1, 0.6, 1.0]))


def psi_case(name, m):
    """(u, axes_x, axes_y, pp) of one oracle case with m points per axis."""
    axes = _tensor_axes(*BOX, m)
    if name == "cusp-off-diagonal":
        return cusp_grid_function(), axes, axes, PenaltyParams(0.3, 0.6, 1e-6, 1e-6)
    if name == "smooth-on-diagonal":
        grid = cusp_grid_function().grid
        u = GridFunction.from_field(grid, parse_polynomial("0.2 x1 + 0.1 x2 x3"))
        return u, axes, axes, PenaltyParams(1.1, 0.45, 1e-6, 1e-6)
    if name == "two-boxes":
        other = _tensor_axes(BOX[0] + 0.2, BOX[1] - 0.35, m)
        return cusp_grid_function(), axes, other, PenaltyParams(0.5, 0.45, 1e-3, 1e-6)
    if name == "offset-equal-boxes":
        # the refinement pass's geometry: equal widths, different clipped
        # centres, so a transposed gather of q3's distinct values shows
        fine_x = _refined_axes(*BOX, np.array([1.05, -0.8, 0.9]), m)
        fine_y = _refined_axes(*BOX, np.array([0.23, -0.31, 0.4]), m)
        return cusp_grid_function(), fine_x, fine_y, PenaltyParams(0.4, 0.6, 1e-6, 1e-6)
    if name == "x3-only":
        # the column bound ignores the x3 distance, so almost no column prunes
        u = GridFunction.from_field(cusp_grid_function().grid, parse_polynomial("x3^2 - 0.4 x3"))
        return u, axes, axes, PenaltyParams(0.3, 1.0, 1e-6, 1e-6)
    if name == "cusp-plus-1e6":
        # psi rounds in units of 1e6 * 2^-53, so the slack must scale with |u|
        cusp = cusp_grid_function()
        u = GridFunction(cusp.grid, cusp.values + 1e6)
        return u, axes, axes, PenaltyParams(0.3, 0.6, 1e-6, 1e-6)
    if name == "spike":
        # a dip at one sample point: once it is found only its column survives
        dip = tensor_points(axes)[spike_index(m)]
        u = NumericField(lambda pts: -np.exp(-np.sum((pts - dip) ** 2, axis=1) / 1e-4))
        return u, axes, axes, PenaltyParams(0.5, 0.5, 1e-6, 1e-6)
    if name == "cone":
        # u = L|x - c|^alpha, so psi <= -delta|x|^2 - eps and the bound is nearly tight
        c = np.array([0.23, -0.31, 0.17])
        u = NumericField(lambda pts: 0.8 * np.linalg.norm(pts - c, axis=1) ** 0.6)
        return u, axes, axes, PenaltyParams(0.8, 0.6, 1e-6, 1e-6)
    if name == "tie-across-columns":
        # x = sample 0 ties with y = sample 1 (its own column, k3 = 1) and
        # y = sample m (the next column, k3 = 0) at the distance 2/(m - 1);
        # the first in (ix, iy) order is the one in the earlier column
        cube = _tensor_axes(-np.ones(3), np.ones(3), m)
        values = np.zeros(m**3)
        values[0], values[1], values[m] = 1.0, -1.0, -1.0
        return SampleTable(values), cube, cube, PenaltyParams(0.01, 0.5, 0.0, 0.0)
    if name == "delta-below-ulp":
        # u = 1e6 and delta|x|^2 between ulp(1e6)/2 and ulp(1e6), largest at
        # the first sample: u - delta|x|^2 rounds to 1e6 - ulp, so a column
        # bound falls below later pencils' psi = -delta|x|^2 - eps by less
        # than one ulp of u; only a slack scaled by |u| keeps those columns
        box_axes = _tensor_axes(np.full(3, -1.3), np.full(3, -1.0), m)
        pp = PenaltyParams(0.3, 0.6, 0.55 * np.spacing(1e6) / 3.0, 1e-6)
        return PolynomialField.constant(1e6), box_axes, box_axes, pp
    # a constant field without the delta term: every diagonal pair ties
    return PolynomialField.constant(3.0), axes, axes, PenaltyParams(0.7, 1.0, 0.0, 1e-6)


class SampleTable:
    """A field given by its values at the tensor sample, in x3-fastest order."""

    def __init__(self, values):
        self.values = values

    def value_batch(self, pts):
        assert pts.shape == (self.values.size, 3)
        return self.values


def spike_index(m):
    """The sample index of the spike case's dip, in x3-fastest order."""
    return ((m // 2) * m + m // 3) * m + m - 1


CASES = [
    "cusp-off-diagonal",
    "smooth-on-diagonal",
    "two-boxes",
    "ties",
    "offset-equal-boxes",
    "x3-only",
    "cusp-plus-1e6",
    "spike",
    "cone",
    "tie-across-columns",
    "delta-below-ulp",
]


@pytest.mark.parametrize("m", [2, 9, 17])
@pytest.mark.parametrize("name", CASES)
def test_blocked_psi_max_matches_chunked_oracle(name, m):
    u, axes_x, axes_y, pp = psi_case(name, m)
    got = _psi_max(u, axes_x, axes_y, pp)
    want = chunked_psi_max(u, axes_x, axes_y, pp)
    assert got == want
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    theta, ix, iy = got
    if name == "cusp-off-diagonal" and m > 2:
        assert ix != iy and theta > 0
    if name == "smooth-on-diagonal":
        assert ix == iy
    if name == "ties":
        assert (ix, iy) == (0, 0) and theta == -1e-6
    if name == "spike":
        assert iy == spike_index(m) and theta > 0
    if name == "cone":
        assert theta < 0
    if name == "tie-across-columns":
        assert (ix, iy) == (0, 1)
    if name == "delta-below-ulp":
        assert ix == iy == m**3 - 1


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["grid-function", "integer-table"]),
    geometry=st.sampled_from(["same", "shifted", "other"]),
    L=st.floats(1e-3, 10.0),
    alpha=st.floats(0.05, 1.0),
    delta=st.sampled_from([0.0, 1e-9, 1e-6, 1e-2, 1.0]),
    eps=st.sampled_from([0.0, 1e-6, 0.5]),
)
def test_psi_max_equals_chunked_oracle_on_random_cases(
    m, seed, kind, geometry, L, alpha, delta, eps
):
    g = np.random.default_rng(seed)
    if kind == "integer-table":
        # few distinct values on a unit-spaced sample: many pairs tie exactly
        corner = g.integers(-3, 3, size=3).astype(float)
        axes_x = axes_y = _tensor_axes(corner, corner + m - 1, m)
        u = SampleTable(g.integers(-2, 3, size=m**3).astype(float))
    else:
        lower = g.uniform(-2.0, 1.0, 3)
        upper = lower + g.uniform(0.1, 3.0, 3)
        axes_x = _tensor_axes(lower, upper, m)
        if geometry == "same":
            axes_y = axes_x
        elif geometry == "shifted":
            shift = g.uniform(-1.0, 1.0, 3)
            axes_y = _tensor_axes(lower + shift, upper + shift, m)
        else:
            other = g.uniform(-2.0, 1.0, 3)
            axes_y = _tensor_axes(other, other + g.uniform(0.1, 3.0, 3), m)
        counts = g.integers(3, 8, size=3)
        grid = Grid3.box(lower - 0.5, upper + 0.5, counts)
        u = GridFunction(grid, g.normal(size=counts) * 10.0 ** g.uniform(-3.0, 6.0))
    pp = PenaltyParams(L, alpha, delta, eps)
    got = _psi_max(u, axes_x, axes_y, pp)
    want = chunked_psi_max(u, axes_x, axes_y, pp)
    assert got == want
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()


@pytest.mark.parametrize("m", [2, 9, 17])
def test_offset_equal_boxes_case_separates_q3_from_its_transpose(m):
    # the case catches a gather through i3.T only if q3 is not symmetric and
    # the maximizer pairs different x3 indices
    u, axes_x, axes_y, pp = psi_case("offset-equal-boxes", m)
    q3 = (axes_x[2][:, None] - axes_y[2][None, :]) ** 2
    assert not np.array_equal(q3, q3.T)
    _, ix, iy = _psi_max(u, axes_x, axes_y, pp)
    assert ix % m != iy % m


def test_certificate_rejects_non_finite_values():
    class NaNField:
        def value_batch(self, pts):
            out = np.zeros(pts.shape[0])
            out[pts.shape[0] // 2] = np.nan
            return out

    pp = PenaltyParams(L=1.0, alpha=0.5)
    with pytest.raises(ValueError, match="non-finite"):
        doubling_certificate(NaNField(), pp, BOX, per_axis=5)
