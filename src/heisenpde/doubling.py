"""Doubling-of-variables laboratory: penalty Hessians, block inequalities,
trace-gap bounds, the sqrt(P) Lipschitz ratio, and the Holder certificate.
Each lemma has one code path, over stacks of pairs (the *_batch functions,
which `heisenpde verify` checks); one pair is a one-row stack.  Least
eigenvalues come from numpy.linalg.eigvalsh.

The penalty is always Euclidean: phi(x, y) = L|x-y|^alpha, whose Hessian in x
is M = L*alpha*|x-y|^(alpha-2)*((alpha-2) e (x) e + I) along the unit
difference e, with the closed-form square M^2 and N = M + (2/mu) M^2.  A pair
(A, B) is admissible for N when [[A,0],[0,-B]] <= [[N,-N],[-N,N]], that is
when block_gap_matrix is positive semidefinite.  trace_gap_batch and
lifted_trace_gap_batch instantiate the two trace bounds that drive the
regularity proof, and doubling_certificate maximizes psi(x, y) = u(x) - u(y) -
L|x-y|^alpha - delta*|x|^2 - eps over a tensor product sample of a box: a
nonpositive maximum for all delta, eps certifies the Holder bound at (L,
alpha) at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import lift_batch
from .grid import tensor_points
from .group import Point, p_matrix_batch, sqrt_p_batch
from .rng import SplitMix64


@dataclass(frozen=True)
class PenaltyParams:
    """The certificate's finite constants: L > 0, alpha in (0, 1], and
    delta, eps >= 0."""

    L: float
    alpha: float
    delta: float = 0.0
    eps: float = 0.0

    def __post_init__(self):
        for name in ("L", "delta", "eps"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.L > 0:
            raise ValueError("L must be positive")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        if self.delta < 0 or self.eps < 0:
            raise ValueError("delta and eps must be nonnegative")


@dataclass(frozen=True)
class MaxReport:
    """Result of maximizing psi over the sample set.

    pairs_evaluated counts the sampled (x, y) pairs of both passes, m^6
    each: every one of them is either evaluated or bounded below the max
    (see _psi_max), so the count is the pairs the max is taken over, not
    the psi evaluations made.
    """

    theta: float
    argmax: tuple[Point, Point]
    gap: float
    certified: bool
    pairs_evaluated: int


def _col(v) -> np.ndarray:
    """A scalar or (n,) array as a (1, 1) or (n, 1, 1) multiplier of (n, 3, 3) stacks."""
    return np.asarray(v)[..., None, None]


def _distances(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d = x - y
    dist = np.linalg.norm(d, axis=1)
    if np.any(dist == 0.0):
        raise ValueError("the penalty derivatives are undefined at x == y")
    return d, dist


def _directions(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|x-y| and e (x) e for the unit differences e = (x-y)/|x-y|."""
    d, dist = _distances(x, y)
    e = d / dist[:, None]
    return dist, np.einsum("ni,nj->nij", e, e)


def penalty_hessian_batch(x: np.ndarray, y: np.ndarray, L, alpha) -> np.ndarray:
    """M = L*alpha*|x-y|^(alpha-2) * ((alpha-2) e(x)e + I) for (n, 3) point
    arrays x != y; L and alpha are scalars or (n,) arrays.  Result (n, 3, 3)."""
    dist, ee = _directions(x, y)
    scale = L * alpha * dist ** (alpha - 2.0)
    return _col(scale) * (_col(alpha - 2.0) * ee + np.eye(3))


def penalty_hessian_sq_batch(x: np.ndarray, y: np.ndarray, L, alpha) -> np.ndarray:
    """M^2 in closed form: L^2 a^2 |x-y|^(2(a-2)) * (a(a-2) e(x)e + I)."""
    dist, ee = _directions(x, y)
    scale = (L * alpha) ** 2 * dist ** (2.0 * (alpha - 2.0))
    return _col(scale) * (_col(alpha * (alpha - 2.0)) * ee + np.eye(3))


def n_matrix_batch(x: np.ndarray, y: np.ndarray, L, alpha, mu) -> np.ndarray:
    """N = M + (2/mu) M^2."""
    m = penalty_hessian_batch(x, y, L, alpha)
    return m + _col(2.0 / mu) * penalty_hessian_sq_batch(x, y, L, alpha)


def n_norm_bound_batch(x: np.ndarray, y: np.ndarray, L, alpha, mu) -> np.ndarray:
    """The operator-norm bound L a d^(a-2) + (2/mu) L^2 a^2 d^(2(a-2))."""
    _, dist = _distances(x, y)
    return L * alpha * dist ** (alpha - 2.0) + (2.0 / mu) * (L * alpha) ** 2 * dist ** (
        2.0 * (alpha - 2.0)
    )


def block_matrix(n: np.ndarray) -> np.ndarray:
    """[[N, -N], [-N, N]] as a 6x6 array, or an (k, 6, 6) stack for (k, 3, 3)."""
    return np.block([[n, -n], [-n, n]])


def block_gap_matrix(a: np.ndarray, b: np.ndarray, n: np.ndarray) -> np.ndarray:
    """[[N,-N],[-N,N]] - [[A,0],[0,-B]] for 3x3 arrays or (k, 3, 3) stacks."""
    gap = block_matrix(n)
    gap[..., :3, :3] -= a
    gap[..., 3:, 3:] += b
    return gap


def make_admissible_batch(ns: np.ndarray, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Random (A, B) with [[A,0],[0,-B]] <= [[N,-N],[-N,N]] by construction,
    for each N of the (k, 3, 3) stack ns; returns two (k, 3, 3) stacks.

    Writing the gap as [[U, -N], [-N, V]] with U = N - A and V = N + B, the
    Schur condition U > 0, V >= N U^-1 N guarantees positivity, so we sample
    U SPD and V = N U^-1 N + E with E PSD (E = 0 with probability ~1/3 to
    produce sharp pairs whose gap has a kernel).
    """
    g = SplitMix64(seed, "admissible-batch")
    k = ns.shape[0]
    u = g.spd(k, 3, 1e-2, 1e1)
    slack_a = g.spd(k, 3, 1e-3, 1e0)
    slack_b = g.spd(k, 3, 1e-3, 1e0)
    sharp_a = g.uniform(k) < 0.33
    sharp_b = g.uniform(k) < 0.33
    slack_a[sharp_a] = 0.0
    slack_b[sharp_b] = 0.0
    uinv = np.linalg.inv(u)
    uinv = 0.5 * (uinv + np.swapaxes(uinv, -1, -2))
    nun = np.einsum("kij,kjl,klm->kim", ns, uinv, ns)
    nun = 0.5 * (nun + np.swapaxes(nun, -1, -2))
    a = ns - u - slack_a
    b = nun + slack_b - ns
    return a, b


def trace_gap_batch(
    a: np.ndarray, b: np.ndarray, n: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) of the intrinsic trace-gap bound for (k, 3, 3) stacks A, B,
    N and (k, 3) points x, y: lhs = tr(lift(A,x)) - tr(lift(B,y)) and
    rhs = 4*((x2-y2)^2 + (x1-y1)^2) * n33 with n33 = <N e3, e3>.  lhs <= rhs
    for admissible (A, B, N): the frame differences X(x)-X(y) =
    (0,0,2(x2-y2)) and Y(x)-Y(y) = (0,0,2(y1-x1)) enter the scalar block
    consequence squared, which is where the factor 4 comes from."""
    la = lift_batch(a, x)
    lb = lift_batch(b, y)
    lhs = la[:, 0, 0] + la[:, 1, 1] - lb[:, 0, 0] - lb[:, 1, 1]
    s = (x[:, 1] - y[:, 1]) ** 2 + (x[:, 0] - y[:, 0]) ** 2
    return lhs, 4.0 * s * n[:, 2, 2]


def sqrtp_ratio_batch(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Frobenius ratios |sqrt(P)(x) - sqrt(P)(y)| / |x'-y'| for (n, 2) or
    (n, 3) arrays; nan where x' == y', since sqrt(P) depends only on the
    horizontal part and the difference vanishes identically there."""
    diff = sqrt_p_batch(x) - sqrt_p_batch(y)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.sqrt(np.einsum("nij,nij->n", diff, diff)) / np.hypot(
            x[:, 0] - y[:, 0], x[:, 1] - y[:, 1]
        )


def lifted_trace_gap_batch(
    a: np.ndarray, b: np.ndarray, n: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) of the lifted trace-gap bound for (k, 3, 3) stacks A, B, N
    and (k, 3) points: lhs = tr(P(x)A - P(y)B), rhs = 3 |N| |sqrt(P)x -
    sqrt(P)y|_F^2 with |N| the operator norm; lhs <= rhs for admissible
    (A, B, N)."""
    lhs = np.einsum("nij,nji->n", p_matrix_batch(x), a) - np.einsum(
        "nij,nji->n", p_matrix_batch(y), b
    )
    diff = sqrt_p_batch(x) - sqrt_p_batch(y)
    evs = np.linalg.eigvalsh(n)
    n_norm = np.maximum(np.abs(evs[:, 0]), np.abs(evs[:, -1]))
    return lhs, 3.0 * n_norm * np.einsum("nij,nij->n", diff, diff)


def lifted_penalty_bound_batch(x: np.ndarray, y: np.ndarray, L, alpha, mu, c2) -> np.ndarray:
    """Penalty form 3 c2^2 (L a d^a + (2/mu) L^2 a^2 d^(2a-2)) of the lifted
    bound, which bounds its lhs whenever N = n_matrix_batch(x, y, L, alpha,
    mu) and c2 bounds the sqrt(P) Lipschitz ratio."""
    _, dist = _distances(x, y)
    return 3.0 * c2**2 * (
        L * alpha * dist**alpha + (2.0 / mu) * (L * alpha) ** 2 * dist ** (2.0 * alpha - 2.0)
    )


def sandwich_batch(p: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """The symmetrized P (S2 - S1) P for (k, 3, 3) stacks P and S2 - S1: it
    is positive semidefinite, P S1 P <= P S2 P, whenever P >= 0 and
    S1 <= S2."""
    d = np.einsum("nij,njk,nkl->nil", p, gap, p)
    return 0.5 * (d + np.swapaxes(d, -1, -2))


def vertical_obstruction_check(x3: float, y3: float) -> bool:
    """On the vertical axis, sqrt(P) annihilates e3, so no xi1, xi2 make
    sqrt(P)(x) xi1 - sqrt(P)(y) xi2 equal (0, 0, +-1).

    The third component of that difference is r_x . xi1 - r_y . xi2, with
    r_x and r_y the third rows of sqrt(P) at x = (0, 0, x3) and
    y = (0, 0, y3), the remark's hypothesis x' = y' = 0.  So the check is
    that both rows, and sqrt(P) e3 at both points, are exactly zero; it
    draws no vectors, since none could change that verdict.  x3 != y3 is
    required.
    """
    if x3 == y3:
        raise ValueError("need x3 != y3")
    roots = sqrt_p_batch(np.array([[0.0, 0.0, x3], [0.0, 0.0, y3]], dtype=float))
    return not (roots[:, 2, :].any() or roots[:, :, 2].any())


def _tensor_axes(lower: np.ndarray, upper: np.ndarray, per_axis: int) -> list[np.ndarray]:
    return [np.linspace(lower[i], upper[i], per_axis) for i in range(3)]


def _refined_axes(
    lower: np.ndarray, upper: np.ndarray, center: np.ndarray, per_axis: int
) -> list[np.ndarray]:
    """Axes of the box of 1/4 the width of (lower, upper) around center,
    which is clipped so that the box stays inside."""
    width = (upper - lower) / 4.0
    center = np.clip(center, lower + width / 2, upper - width / 2)
    return _tensor_axes(center - width / 2, center + width / 2, per_axis)


def _psi_max(
    u, axes_x: list[np.ndarray], axes_y: list[np.ndarray], pp: PenaltyParams
) -> tuple[float, int, int]:
    """Max of psi over the product of the tensor samples on axes_x and
    axes_y (m points each), returning (theta, ix, iy) with ix, iy indices
    into the samples in x3-fastest order.

    |x-y|^2 = q1[j1, k1] + q2[j2, k2] + q3[j3, k3] with one m x m table of
    squared differences per axis, summed in that order.  The max is a
    branch and bound over x pencils (j1, j2 fixed, all j3) and y columns
    (k1, k2 fixed, all k3).  Every pair of pencil P and column C has

        psi <= bound = max_P(u(x) - delta|x|^2) - min_C u(y)
                       - L*sqrt(q1[j1, k1] + q2[j2, k2] + min q3)^alpha - eps,

    and the pencils run in x order, each evaluating psi only on the
    columns whose bound is at least the running best minus a slack.  The
    slack is 1e-9 * S, S = max|ux| + max|uy| + max delta|x|^2 + eps + the
    largest bound penalty.  Float psi cannot exceed the float bound by
    more than a few units of 2^-53 * S: each is a chain of at most four
    roundings of terms of size at most S (a pair's penalty above its
    bound penalty lowers psi by more than it adds to the rounding), and
    pow is monotone up to a few ulps.  So a skipped column holds no pair
    that ties or beats the best, and the result is that of evaluating
    every pair.

    q3 holds few distinct values (q3 = v3[i3], 38 of 289 on a 17-point
    margin box), so per pencil the penalty L*sqrt(q1 + q2 + v3)^alpha
    fills a (len(v3), columns kept) table, and i3 gathers its rows to
    every pair.  psi is laid out (j3, k3, column) so that every operation
    runs over contiguous rows; its buffer and the table's are sized for
    all m^2 columns and reused by every pencil.  Each pair sees the same
    operations on the same operands as if evaluated alone, so every value
    is bitwise the direct evaluation.  A pencil replaces the best only
    when strictly larger, with its first maximal pair in (ix, iy) order, so
    ties go to the first pair in (ix, iy) order."""
    pts_x, pts_y = tensor_points(axes_x), tensor_points(axes_y)
    ux = np.asarray(u.value_batch(pts_x), dtype=float)
    uy = np.asarray(u.value_batch(pts_y), dtype=float)
    if not (np.all(np.isfinite(ux)) and np.all(np.isfinite(uy))):
        raise ValueError("field evaluation produced non-finite values")
    penalty_x = pp.delta * np.sum(pts_x**2, axis=1)
    q1, q2, q3 = ((ax[:, None] - ay[None, :]) ** 2 for ax, ay in zip(axes_x, axes_y))
    m = q3.shape[0]
    v3, i3 = np.unique(q3, return_inverse=True)
    i3 = i3.reshape(m, m)
    ux_p = ux.reshape(m * m, m)
    uy_t = uy.reshape(m * m, m).T.copy()  # (k3, column)
    px_p = penalty_x.reshape(m * m, m)
    top = (ux_p - px_p).max(axis=1)
    low = uy_t.min(axis=0)
    largest = pp.L * math.sqrt(q1.max() + q2.max() + v3[0]) ** pp.alpha
    slack = 1e-9 * (np.abs(ux).max() + np.abs(uy).max() + penalty_x.max() + pp.eps + largest)
    table_buf = np.empty(v3.size * m * m)
    psi_buf = np.empty(m**4)
    best = -np.inf
    best_ix = best_iy = 0
    for pencil in range(m * m):
        j1, j2 = divmod(pencil, m)
        q12 = (q1[j1][:, None] + q2[j2][None, :]).ravel()
        bound = top[pencil] - low - pp.L * np.sqrt(q12 + v3[0]) ** pp.alpha - pp.eps
        cols = np.nonzero(bound >= best - slack)[0]
        s = cols.size
        if s == 0:
            continue
        table = table_buf[: v3.size * s].reshape(v3.size, s)
        np.add(v3[:, None], q12[cols], out=table)
        np.sqrt(table, out=table)
        table **= pp.alpha
        table *= pp.L
        psi = psi_buf[: m * m * s].reshape(m, m * s)  # (j3, k3 column)
        np.subtract(ux_p[pencil][:, None], uy_t[:, cols].ravel(), out=psi)
        psi -= table[i3].reshape(m, m * s)
        psi -= px_p[pencil][:, None]
        psi -= pp.eps
        val = float(psi.max())
        if val > best:
            j3, k3, c = np.nonzero(psi.reshape(m, m, s) == val)
            first = np.lexsort((k3, c, j3))[0]
            best = val
            best_ix = pencil * m + int(j3[first])
            best_iy = int(cols[c[first]]) * m + int(k3[first])
    return best, best_ix, best_iy


def doubling_certificate(
    u,
    pp: PenaltyParams,
    domain: tuple[np.ndarray, np.ndarray],
    per_axis: int = 17,
) -> MaxReport:
    """Maximize psi(x,y) = u(x) - u(y) - L|x-y|^alpha - delta|x|^2 - eps over
    a tensor product sample of the finite box with per_axis >= 2 points per
    axis, refining once (factor 4) around the incumbent; theta <= 0
    certifies the Holder bound at desk scale.

    Each pass is _psi_max's exact branch and bound: psi is evaluated only
    on the y columns whose bound can reach the running max, and theta and
    the argmax are bitwise those of evaluating every pair.  u is any object
    with a value_batch((n,3)) method (ScalarField or a grid function).  The
    sample is deterministic, so the report is reproducible.
    """
    if per_axis < 2:
        raise ValueError(f"per_axis must be at least 2, got {per_axis}")
    lower = np.asarray(domain[0], dtype=float)
    upper = np.asarray(domain[1], dtype=float)
    if (
        lower.shape != (3,)
        or upper.shape != (3,)
        or not np.isfinite([lower, upper]).all()
        or np.any(upper <= lower)
    ):
        raise ValueError("domain must be a nondegenerate box (lower, upper)")
    axes = _tensor_axes(lower, upper, per_axis)
    pts = tensor_points(axes)
    theta, ix, iy = _psi_max(u, axes, axes, pp)

    # one refinement pass around each incumbent point
    best_pair = (pts[ix], pts[iy])
    fine_x = _refined_axes(lower, upper, pts[ix], per_axis)
    fine_y = _refined_axes(lower, upper, pts[iy], per_axis)
    theta_f, jx, jy = _psi_max(u, fine_x, fine_y, pp)
    if theta_f > theta:
        theta = theta_f
        best_pair = (tensor_points(fine_x)[jx], tensor_points(fine_y)[jy])

    x_hat = Point(*best_pair[0])
    y_hat = Point(*best_pair[1])
    return MaxReport(
        theta=theta,
        argmax=(x_hat, y_hat),
        gap=float(np.linalg.norm(best_pair[0] - best_pair[1])),
        certified=theta <= 0.0,
        pairs_evaluated=2 * pts.shape[0] ** 2,
    )
