"""Holder-regularity measurement on grid functions.

Every statistic reads only the interior margin box (nodes within 10% of the
boundary are excluded: boxed computations carry artificial Dirichlet data,
so reports never claim whole-space fidelity).  The seminorm runs over seeded
pairs stratified by log-radius; the same seed and box reproduce the same
pairs regardless of grid resolution, which is what makes the
refinement-stability comparison meaningful.  Its distances are Euclidean,
matching the doubling penalty.  The modulus of continuity, and the exponent
fit to it, are exact over the box's node pairs, with distances in the sup
norm max_i |x_i - y_i|.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .grid import Grid3, GridFunction
from .operators import EllipticityBracket, HolderData
from .rng import SplitMix64

DEFAULT_MARGIN = 0.1
DEFAULT_PAIRS = 200_000
DEFAULT_RADII = 12


@dataclass(frozen=True)
class HolderReport:
    """check_theorem output: the fitted exponent, the seminorm at the
    theorem's candidate exponent, and the quantitative bound c0/(2 Lam).
    The spans are the [least, greatest] radius that each statistic read:
    the seminorm's sampled radius_span and the modulus's node_radii."""

    alpha_fit: float
    L_fit: float
    r_squared: float
    seminorm_at_target: float
    alpha_target: float
    bound_c0_2Lambda: float
    passed: bool
    seminorm_refined: float
    seminorm_rel_change: float
    c0: float
    c0_exceeds_8: bool
    degenerate_fit: bool
    stability_checked: bool
    seminorm_radius_span: tuple[float, float]
    fit_radius_span: tuple[float, float]

    def to_dict(self) -> dict:
        """Every field, with `passed` under the key "pass"."""
        out = asdict(self)
        out["pass"] = out.pop("passed")
        return out


def sample_pairs(
    box: tuple[np.ndarray, np.ndarray],
    radii: np.ndarray,
    per_radius: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stratified pairs (x, y) with |x - y| in [0.9 r, 1.1 r] per radius.

    Returns (xs, ys, stratum) with both endpoints inside the box.  The draw
    is index-addressable, so the pair set depends only on (box, radii,
    per_radius, seed).
    """
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    diam = float(np.linalg.norm(hi - lo))
    xs_all, ys_all, strata = [], [], []
    for k, r in enumerate(radii):
        if not 0 < r:
            raise ValueError("radii must be positive")
        if 0.9 * r > diam:
            raise ValueError(f"no admissible pairs for radius {r} in a box of diameter {diam}")
        g = SplitMix64(seed, f"pairs-{k}")
        need = per_radius
        got_x, got_y = [], []
        for _ in range(64):
            m = 2 * need
            x = np.stack([g.uniform(m, lo[i], hi[i]) for i in range(3)], axis=1)
            d = g.unit_vectors(m)
            ell = g.uniform(m, 0.9 * r, 1.1 * r)
            y = x + ell[:, None] * d
            ok = np.all((y >= lo) & (y <= hi), axis=1)
            got_x.append(x[ok])
            got_y.append(y[ok])
            need -= int(ok.sum())
            if need <= 0:
                break
        x = np.concatenate(got_x)[:per_radius]
        y = np.concatenate(got_y)[:per_radius]
        if x.shape[0] == 0:
            raise ValueError(f"no admissible pairs for radius {r}")
        xs_all.append(x)
        ys_all.append(y)
        strata.append(np.full(x.shape[0], k))
    return np.concatenate(xs_all), np.concatenate(ys_all), np.concatenate(strata)


def radius_span(grid: Grid3, margin: float = DEFAULT_MARGIN) -> tuple[float, float]:
    """[2h, diam/4], h the least spacing and diam the margin box's diameter; its
    ends must round to two distinct multiples of h, the fewest the fit takes."""
    lo, hi = grid.margin_box(margin)
    h = min(grid.spacings)
    r_min, r_max = 2.0 * h, float(np.linalg.norm(hi - lo)) / 4.0
    if np.floor(r_max / h + 0.5) < 3:
        raise ValueError(
            f"grid too coarse for margin {margin}: the radii span [2h, diam/4] = "
            f"[{r_min:.6g}, {r_max:.6g}] holds fewer than two node radii j*h"
        )
    return r_min, r_max


def default_radii(u: GridFunction, margin: float = DEFAULT_MARGIN):
    """DEFAULT_RADII log-spaced radii spanning radius_span, and the margin box."""
    return np.geomspace(*radius_span(u.grid, margin), DEFAULT_RADII), u.grid.margin_box(margin)


def node_radii(u: GridFunction, margin: float = DEFAULT_MARGIN) -> np.ndarray:
    """The distinct multiples j*h nearest the default_radii, h the least spacing."""
    radii, _ = default_radii(u, margin)
    h = min(u.grid.spacings)
    return np.unique(np.floor(radii / h + 0.5)) * h


def modulus(u: GridFunction, margin: float = DEFAULT_MARGIN) -> list[tuple[float, float]]:
    """Exact sup-norm modulus of continuity: omega(r) = max |u(x) - u(y)| over
    the margin box's node pairs with |x_i - y_i| <= r on every axis, at each
    of the node_radii r.

    M, the max of u over the nodes within r of each node, grows one node per
    axis step from radius to radius, and omega(r) = max(M - u).  Rounding is
    monotone, so this is bitwise the max over all node pairs; the cubes are
    nested, so omega is nondecreasing in r."""
    grid = u.grid
    lo, hi = grid.margin_box(margin)
    axes = [grid.axis_coordinates(i) for i in range(3)]
    box = u.values[np.ix_(*[(x >= a) & (x <= b) for x, a, b in zip(axes, lo, hi)])]
    m = box.copy()
    reach = [0, 0, 0]
    out = []
    for r in node_radii(u, margin):
        for axis, h in enumerate(grid.spacings):
            # the largest k with k h <= r, up to rounding, and no wider than the box
            k = min(int(r / h + 1e-9), box.shape[axis] - 1)
            a = np.moveaxis(m, axis, 0)
            for _ in range(k - reach[axis]):
                # numpy reads overlapping operands as if copied first
                np.maximum(a[1:], a[:-1], out=a[1:])
                np.maximum(a[:-1], a[1:], out=a[:-1])
            reach[axis] = k
        out.append((float(r), float((m - box).max())))
    return out


def holder_seminorm(u: GridFunction, alpha: float, pairs: tuple[np.ndarray, np.ndarray]) -> float:
    """max over the pairs (xs, ys) of |u(x)-u(y)| / |x-y|^alpha.

    The caller draws the pairs (check_theorem uses default_radii and
    sample_pairs).  Finite for every grid function; the meaningful check is
    stability under refinement, which callers obtain by reusing the same
    pair set.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    xs, ys = pairs
    if xs.shape[0] == 0:
        raise ValueError("empty pair sample")
    du = np.abs(u.value_batch(xs) - u.value_batch(ys))
    dist = np.linalg.norm(xs - ys, axis=1)
    return float((du / dist**alpha).max())


def fit_loglog(radii: np.ndarray, omegas: np.ndarray) -> tuple[float, float, float]:
    """Least-squares slope/intercept of log omega vs log r; returns
    (slope, exp(intercept), r_squared).  Exact on data L * r^a."""
    x = np.log(np.asarray(radii, dtype=float))
    y = np.log(np.asarray(omegas, dtype=float))
    xm, ym = x.mean(), y.mean()
    sxx = ((x - xm) ** 2).sum()
    sxy = ((x - xm) * (y - ym)).sum()
    slope = sxy / sxx
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    syy = ((y - ym) ** 2).sum()
    r2 = 1.0 if syy == 0 else max(0.0, 1.0 - (resid**2).sum() / syy)
    return float(slope), float(np.exp(intercept)), float(r2)


def fit_alpha(u: GridFunction, margin: float = DEFAULT_MARGIN) -> tuple[float, float, float, bool]:
    """Fit omega(r) ~ L r^alpha to the modulus at its nonzero values.

    Returns (alpha_fit, L_fit, r_squared, degenerate); alpha_fit is clamped
    to (0, 1.5] and L_fit is in sup-norm units of r.  A modulus with fewer
    than two nonzero values is flagged degenerate and reports alpha_fit = 1,
    L_fit = 0.
    """
    r, w = np.array(modulus(u, margin)).T
    keep = w > 0
    if keep.sum() < 2:
        return 1.0, 0.0, 0.0, True
    slope, amp, r2 = fit_loglog(r[keep], w[keep])
    return float(min(max(slope, 1e-12), 1.5)), float(amp), float(r2), False


def theorem_bound(hd: HolderData, bracket: EllipticityBracket) -> float:
    """The proof's exponent ceiling c0 / (2 Lam)."""
    return hd.c0 / (2.0 * bracket.Lam)


def alpha_target(hd: HolderData, bracket: EllipticityBracket) -> float:
    """The checked candidate exponent min(beta, beta', 0.9 c0/(2 Lam))."""
    return min(hd.beta, hd.beta_prime, 0.9 * theorem_bound(hd, bracket))


def check_theorem(
    coarse,
    fine,
    hd: HolderData,
    bracket: EllipticityBracket,
    margin: float = DEFAULT_MARGIN,
    n_pairs: int = DEFAULT_PAIRS,
    seed: int = 0,
) -> HolderReport:
    """Compare a solved u against the regularity theorem's prediction.

    coarse and fine are SolveResults of the same problem at two resolutions
    (fine may be None: the stability clause is then reported unchecked).
    pass requires the seminorm at the target exponent to move < 20% under
    refinement and alpha_fit >= 0.8 * alpha_target.
    """
    for result in (coarse, fine):
        if result is not None and hasattr(result, "converged") and not result.converged:
            raise ValueError("check_theorem requires converged solves")
    u = coarse.u if hasattr(coarse, "u") else coarse
    target = alpha_target(hd, bracket)
    radii, box = default_radii(u, margin)
    xs, ys, _ = sample_pairs(box, radii, max(1, n_pairs // radii.size), seed)
    semi = holder_seminorm(u, target, pairs=(xs, ys))
    afit, lfit, r2, degenerate = fit_alpha(u, margin)

    stability_checked = fine is not None
    if stability_checked:
        u_fine = fine.u if hasattr(fine, "u") else fine
        fine_box = u_fine.grid.margin_box(margin)
        if not (np.allclose(fine_box[0], box[0]) and np.allclose(fine_box[1], box[1])):
            raise ValueError("refined grid must cover the same box")
        semi_ref = holder_seminorm(u_fine, target, pairs=(xs, ys))
        rel = abs(semi_ref - semi) / max(semi, semi_ref, 1e-300)
    else:
        semi_ref = semi
        rel = 0.0

    passed = (
        np.isfinite(semi)
        and stability_checked
        and rel < 0.2
        and not degenerate
        and afit >= 0.8 * target
    )
    if degenerate and semi == 0.0:
        # constant fields are trivially Holder; the theorem holds vacuously
        passed = stability_checked and np.isfinite(semi_ref)
    return HolderReport(
        alpha_fit=afit,
        L_fit=lfit,
        r_squared=r2,
        seminorm_at_target=semi,
        alpha_target=target,
        bound_c0_2Lambda=theorem_bound(hd, bracket),
        passed=bool(passed),
        seminorm_refined=semi_ref,
        seminorm_rel_change=float(rel),
        c0=hd.c0,
        c0_exceeds_8=hd.c0 > 8.0,
        degenerate_fit=degenerate,
        stability_checked=stability_checked,
        seminorm_radius_span=(float(radii[0]), float(radii[-1])),
        fit_radius_span=tuple(node_radii(u, margin)[[0, -1]].tolist()),
    )
