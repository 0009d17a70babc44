"""Holder-regularity measurement on grid functions.

All statistics run over seeded pair samples inside the interior margin box
(nodes within 10% of the boundary are excluded: boxed computations carry
artificial Dirichlet data, so reports never claim whole-space fidelity).
Pairs are stratified by log-radius; the same seed and box reproduce the same
pairs regardless of grid resolution, which is what makes the
refinement-stability comparison meaningful.  Distances are Euclidean
throughout, matching the doubling penalty.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .grid import GridFunction
from .operators import EllipticityBracket, HolderData
from .rng import SplitMix64

DEFAULT_MARGIN = 0.1
DEFAULT_PAIRS = 200_000
DEFAULT_RADII = 12


@dataclass(frozen=True)
class HolderReport:
    """check_theorem output: the fitted exponent, the seminorm at the
    theorem's candidate exponent, and the quantitative bound c0/(2 Lam)."""

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


def default_radii(u: GridFunction, margin: float = DEFAULT_MARGIN):
    """DEFAULT_RADII log-spaced radii spanning [2h, interior-diameter/4]."""
    lo, hi = u.grid.margin_box(margin)
    diam = float(np.linalg.norm(hi - lo))
    h = min(u.grid.spacings)
    r_min = 2.0 * h
    r_max = diam / 4.0
    if r_min >= r_max:
        raise ValueError("grid too coarse for the requested radii span")
    return np.geomspace(r_min, r_max, DEFAULT_RADII), (lo, hi)


def _polish_pairs(
    u: GridFunction,
    xs: np.ndarray,
    ys: np.ndarray,
    vals: np.ndarray,
    strata: np.ndarray,
    radii: np.ndarray,
    box: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Pattern-search polish of the best pairs of every radius stratum, one
    polished maximum per stratum.

    Random sampling starves sup statistics near small features (a cusp hides
    in an O(r^3) volume); a short local search from the best starts recovers
    the stratum supremum.  The 6 best pairs (`top`) of each stratum move as
    one stack for 14 rounds, each row with its own step and distance range
    [0.9 r, 1.1 r]; moves keep both endpoints in the box and the pair
    distance in range."""
    top = 6
    lo, hi = box
    members = [np.nonzero(strata == k)[0] for k in range(radii.size)]
    order = np.concatenate([sel[np.argsort(vals[sel])[-top:]] for sel in members])
    x = xs[order].copy()
    y = ys[order].copy()
    best = vals[order].copy()
    r = radii[strata[order]]
    r_lo, r_hi = 0.9 * r, 1.1 * r
    step = 0.5 * r_hi
    moves = np.concatenate([np.eye(3), -np.eye(3)])
    for _ in range(14):
        for which in (0, 1):
            for m in moves:
                cx = x + step[:, None] * m if which == 0 else x.copy()
                cy = y + step[:, None] * m if which == 1 else y.copy()
                np.clip(cx, lo, hi, out=cx)
                np.clip(cy, lo, hi, out=cy)
                d = cy - cx
                dist = np.linalg.norm(d, axis=1)
                bad = dist < 1e-12
                dist[bad] = 1.0
                clipped = np.clip(dist, r_lo, r_hi)
                cy = cx + d * (clipped / dist)[:, None]
                ok = np.all((cy >= lo) & (cy <= hi), axis=1) & ~bad
                if not ok.any():
                    continue
                cand = np.abs(u.value_batch(cx[ok]) - u.value_batch(cy[ok]))
                rows_all = np.nonzero(ok)[0]
                improve = cand > best[rows_all]
                rows = rows_all[improve]
                best[rows] = cand[improve]
                x[rows] = cx[rows]
                y[rows] = cy[rows]
        step *= 0.6
    first = np.cumsum([0] + [min(top, sel.size) for sel in members[:-1]])
    return np.maximum.reduceat(best, first)


def modulus(
    u: GridFunction,
    radii,
    margin: float = DEFAULT_MARGIN,
    per_radius: int = 2000,
    seed: int = 0,
) -> list[tuple[float, float]]:
    """Empirical modulus of continuity: omega_r = max |u(x)-u(y)| over pairs
    with |x-y| near r, max-rectified to be nondecreasing in r."""
    radii = np.asarray(radii, dtype=float)
    if radii.size < 2:
        raise ValueError("need at least 2 radii")
    box = u.grid.margin_box(margin)
    xs, ys, strata = sample_pairs(box, radii, per_radius, seed)
    du = np.abs(u.value_batch(xs) - u.value_batch(ys))
    omegas = np.array([du[strata == k].max() for k in range(radii.size)])
    omegas = np.maximum(omegas, _polish_pairs(u, xs, ys, du, strata, radii, box))
    omegas = np.maximum.accumulate(omegas)
    return list(zip(radii.tolist(), omegas.tolist()))


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


def fit_alpha(
    u: GridFunction,
    margin: float = DEFAULT_MARGIN,
    per_radius: int = 2000,
    seed: int = 0,
) -> tuple[float, float, float, bool]:
    """Fit omega_r ~ L r^alpha over the default_radii.

    Returns (alpha_fit, L_fit, r_squared, degenerate); alpha_fit is clamped
    to (0, 1.5].  A flat (all-zero) modulus is flagged degenerate and reports
    alpha_fit = 1, L_fit = 0.
    """
    radii, _ = default_radii(u, margin)
    pts = modulus(u, radii, margin, per_radius, seed)
    r = np.array([p[0] for p in pts])
    w = np.array([p[1] for p in pts])
    keep = w > 0
    if keep.sum() < 2:
        return 1.0, 0.0, 0.0, True
    slope, amp, r2 = fit_loglog(r[keep], w[keep])
    alpha = min(max(slope, 1e-12), 1.5)
    return float(alpha), float(amp), float(r2), False


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
    per = max(1, n_pairs // radii.size)
    xs, ys, _ = sample_pairs(box, radii, per, seed)
    semi = holder_seminorm(u, target, pairs=(xs, ys))
    afit, lfit, r2, degenerate = fit_alpha(u, margin=margin, seed=seed)

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
    )
