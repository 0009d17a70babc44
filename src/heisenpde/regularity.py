"""Holder-regularity measurement on grid functions.

Every statistic reads only the interior margin box (nodes within 10% of the
boundary are excluded: boxed computations carry artificial Dirichlet data,
so reports never claim whole-space fidelity).  The seminorm, the modulus of
continuity and the exponent fit to it are exact over the box's node pairs,
all with distances in the sup norm max_i |x_i - y_i|.  That is at most the
Euclidean distance, so a seminorm in it bounds the Euclidean one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .grid import Grid3, GridFunction
from .operators import EllipticityBracket, HolderData

DEFAULT_MARGIN = 0.1
DEFAULT_RADII = 12


@dataclass(frozen=True)
class HolderReport:
    """check_theorem output: the fitted exponent, the seminorm at the
    theorem's candidate exponent, and the quantitative bound c0/(2 Lam).
    Each seminorm is the max over every node pair of its margin box, attained
    at the sup-norm distance seminorm_radius (seminorm_refined_radius on the
    refined grid); fit_radius_span is the [least, greatest] of the
    node_radii that the fit read."""

    alpha_fit: float
    L_fit: float
    r_squared: float
    seminorm_at_target: float
    alpha_target: float
    bound_c0_2Lambda: float
    passed: bool
    seminorm_refined: float
    seminorm_radius: float
    seminorm_refined_radius: float
    seminorm_rel_change: float
    c0: float
    c0_exceeds_8: bool
    degenerate_fit: bool
    stability_checked: bool
    fit_radius_span: tuple[float, float]

    def to_dict(self) -> dict:
        """Every field, with `passed` under the key "pass"."""
        out = asdict(self)
        out["pass"] = out.pop("passed")
        return out


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


def node_radii(u: GridFunction, margin: float = DEFAULT_MARGIN) -> np.ndarray:
    """The distinct multiples j*h nearest DEFAULT_RADII log-spaced radii over
    radius_span, h the least spacing."""
    radii = np.geomspace(*radius_span(u.grid, margin), DEFAULT_RADII)
    h = min(u.grid.spacings)
    return np.unique(np.floor(radii / h + 0.5)) * h


def _margin_values(u: GridFunction, margin: float) -> np.ndarray:
    """u at the margin box's nodes, as a 3-d array."""
    lo, hi = u.grid.margin_box(margin)
    axes = [u.grid.axis_coordinates(i) for i in range(3)]
    return u.values[np.ix_(*[(x >= a) & (x <= b) for x, a, b in zip(axes, lo, hi)])]


def _running_modulus(box: np.ndarray, spacings, radii):
    """Yield omega(r) = max |box[p] - box[q]| over the node pairs with
    |p_i - q_i| h_i <= r on every axis, at each of the ascending radii r in
    turn; a caller that stops early skips the growth to the later radii.

    M, the max of the box over the nodes within r of each node, grows one
    node per axis step from radius to radius, and omega(r) = max(M - box).
    Rounding is monotone, so this is bitwise the max over the node pairs."""
    m = box.copy()
    reach = [0, 0, 0]
    for r in radii:
        for axis, h in enumerate(spacings):
            # the largest k with k h <= r, up to rounding, and no wider than the box
            k = min(int(r / h + 1e-9), box.shape[axis] - 1)
            a = np.moveaxis(m, axis, 0)
            for _ in range(k - reach[axis]):
                # a[i] = max(a[i-1], a[i], a[i+1]) from the max of each adjacent pair
                pair = np.maximum(a[:-1], a[1:])
                np.maximum(pair[:-1], pair[1:], out=a[1:-1])
                a[0], a[-1] = pair[0], pair[-1]
            reach[axis] = k
        yield (m - box).max()


def modulus(u: GridFunction, margin: float = DEFAULT_MARGIN) -> list[tuple[float, float]]:
    """Exact sup-norm modulus of continuity: omega(r) = max |u(x) - u(y)| over
    the margin box's node pairs with |x_i - y_i| <= r on every axis, at each
    of the node_radii r.  The cubes are nested, so omega is nondecreasing in r."""
    radii = node_radii(u, margin)
    omega = _running_modulus(_margin_values(u, margin), u.grid.spacings, radii)
    return [(float(r), float(w)) for r, w in zip(radii, omega)]


def holder_seminorm(
    u: GridFunction, alpha: float, margin: float = DEFAULT_MARGIN
) -> tuple[float, float]:
    """The Holder seminorm max |u(x) - u(y)| / |x - y|^alpha over every pair
    of the margin box's nodes, |x - y| the sup norm max_i |x_i - y_i|, and
    the distance at which it is attained.

    The distances two box nodes realize are the multiples j h_i of the
    spacings.  At each such r, omega(r) / r^alpha bounds the ratio of every
    pair at distance r and is the ratio of a pair at most r apart, so the
    max of omega(r) / r^alpha over those r is the max over the pairs.

    The sweep over the ascending radii stops before the first radius from
    which on (max - min of the box) / r^alpha cannot beat the best ratio so
    far.  That stop is exact: omega(r) <= max - min in floats, since
    rounding is monotone, and the bound is taken against the least r^alpha
    of the remaining radii, so no later ratio exceeds the best; the first
    of tied ratios is kept, as argmax keeps it.  So the seminorm and its
    radius are bitwise those of the full sweep.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    box = _margin_values(u, margin)
    spacings = u.grid.spacings
    radii = np.unique(np.concatenate([np.arange(1, n) * h for n, h in zip(box.shape, spacings)]))
    if radii.size == 0:
        raise ValueError(f"the margin box of margin {margin} holds a single node")
    scale = radii**alpha
    # the bound on every ratio from radius j on: osc / min(scale[j:])
    bound = (box.max() - box.min()) / np.minimum.accumulate(scale[::-1])[::-1]
    ratio = np.empty(radii.size)
    best = 0
    for j, omega in enumerate(_running_modulus(box, spacings, radii)):
        ratio[j] = omega / scale[j]
        if ratio[j] > ratio[best]:
            best = j
        if j + 1 == radii.size or bound[j + 1] <= ratio[best]:
            break
    return float(ratio[best]), float(radii[best])


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
    u: GridFunction,
    fine: GridFunction | None,
    hd: HolderData,
    bracket: EllipticityBracket,
    margin: float = DEFAULT_MARGIN,
) -> HolderReport:
    """Compare a solved u against the regularity theorem's prediction.

    u and fine are solutions of the same problem on a grid and on its
    refinement (fine may be None: the stability clause is then reported
    unchecked).  fine must cover u's box, up to the rounding a CSV round
    trip leaves, with the counts 2n - 1 of u.grid.refine(); a ValueError
    names the mismatch.  pass requires the exact seminorm at the target
    exponent to move < 20% from the coarse grid's node pairs to the fine
    grid's, which hold them, and alpha_fit >= 0.8 * alpha_target.
    """
    stability_checked = fine is not None
    if stability_checked:
        box, fine_box = u.grid.margin_box(margin), fine.grid.margin_box(margin)
        if not (np.allclose(fine_box[0], box[0]) and np.allclose(fine_box[1], box[1])):
            raise ValueError(
                f"refined grid must cover the same box as the grid: it spans {fine.grid.lower} "
                f"to {fine.grid.upper}, the grid {u.grid.lower} to {u.grid.upper}"
            )
        want = u.grid.refine().counts
        if fine.grid.counts != want:
            raise ValueError(
                f"refined grid has counts {fine.grid.counts}, but the refinement of the "
                f"{u.grid.counts} grid has {want}"
            )
    fit_radii = node_radii(u, margin)
    target = alpha_target(hd, bracket)
    semi, semi_radius = holder_seminorm(u, target, margin)
    afit, lfit, r2, degenerate = fit_alpha(u, margin)

    if stability_checked:
        semi_ref, ref_radius = holder_seminorm(fine, target, margin)
        rel = abs(semi_ref - semi) / max(semi, semi_ref, 1e-300)
    else:
        semi_ref, ref_radius = semi, semi_radius
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
        seminorm_radius=semi_radius,
        seminorm_refined_radius=ref_radius,
        seminorm_rel_change=float(rel),
        c0=hd.c0,
        c0_exceeds_8=hd.c0 > 8.0,
        degenerate_fit=degenerate,
        stability_checked=stability_checked,
        fit_radius_span=tuple(fit_radii[[0, -1]].tolist()),
    )
