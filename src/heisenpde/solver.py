"""Monotone finite-difference solver for F(D^{2,*}u) - c u = f on a box.

The stencil is frame-aligned (semi-Lagrangian): second differences are taken
along straight lines p +- h X(p), p +- h Y(p) and the four diagonal
combinations, with off-node values obtained by trilinear interpolation, which
preserves degenerate ellipticity.  Samples that leave the box are evaluated
with the Dirichlet data (the boundary field extends u); a bare grid function
without boundary data falls back to clamping onto the box.

Accuracy forces the sample step rho away from the grid spacing h: linear
interpolation carries an O((h/rho)^2) bias into the second differences (pure
numerical diffusion along x3, where the frame tilts off the grid planes), so
rho = h would not converge at all on solutions with x3 curvature.  The
default rho ~ scale*sqrt(h), snapped to a half-integer multiple of h (see
sample_step), balances the O(rho^2) line-truncation error against that bias,
giving a monotone first-order scheme; on coarse grids it reduces to the
plain spacing step.

The basic iteration is the Jacobi-style pseudo-time step
    v = u + tau * (F(stencil) - c u - f)
with tau = 0.4 rho^2 / (Lam (4 + c_max rho^2)).  A single-level sweep needs
O(1/(tau * lambda_min)) iterations, which is far too slow on fine grids, so
solve() accelerates it with FAS-style V-cycles on nested coarser grids using
the same step as smoother; the stencil, tau rule, stopping test (fine-grid
residual below tol), and hence the fixed point are unchanged.  Set
multilevel=False for the plain single-level iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import config_section
from .fields import NumericField, PolynomialField, ScalarField, field_from_config
from .grid import Grid3, GridFunction, locate, trilinear
from .group import frame_batch
from .operators import INTRINSIC, OperatorSpec
from .symmetric import Sym2

# sample directions as coefficient pairs on the frame (X, Y)
_COMBOS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1))


@dataclass(frozen=True)
class ProblemSpec:
    """A full PDE instance: operator, data fields, grid, and stopping rule."""

    op: OperatorSpec
    c: ScalarField
    f: ScalarField
    boundary: ScalarField
    grid: Grid3
    tol: float = 1e-6
    max_iters: int = 200_000
    multilevel: bool = True
    stencil_scale: float = 0.5
    sample_width: float | None = None

    def __post_init__(self):
        if self.op.form != INTRINSIC:
            raise ValueError("the grid solver discretizes the intrinsic form")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.stencil_scale > 0:
            raise ValueError("stencil_scale must be positive")
        if self.sample_width is not None and not self.sample_width > 0:
            raise ValueError("sample_width must be positive")
        cvals = self.c.value_batch(self.grid.points())
        if cvals.min() < 0:
            raise ValueError(f"c must be nonnegative on the grid (min {cvals.min()})")

    @staticmethod
    def from_config(cfg: dict) -> "ProblemSpec":
        config_section(
            cfg,
            "problem",
            ("operator", "c", "f", "boundary", "grid"),
            ("tol", "max_iters", "multilevel", "stencil_scale", "sample_width"),
        )
        return ProblemSpec(
            op=OperatorSpec.from_config(cfg["operator"]),
            c=field_from_config(cfg["c"], "c"),
            f=field_from_config(cfg["f"], "f"),
            boundary=field_from_config(cfg["boundary"], "boundary"),
            grid=_grid_from_config(cfg["grid"]),
            tol=float(cfg.get("tol", 1e-6)),
            max_iters=int(cfg.get("max_iters", 200_000)),
            multilevel=bool(cfg.get("multilevel", True)),
            stencil_scale=float(cfg.get("stencil_scale", 0.5)),
            sample_width=(
                float(cfg["sample_width"]) if cfg.get("sample_width") is not None else None
            ),
        )


def _grid_from_config(cfg: dict) -> Grid3:
    config_section(cfg, "grid", ("lower", "counts"), ("upper", "spacings"))
    if ("upper" in cfg) == ("spacings" in cfg):
        raise ValueError("grid config needs exactly one of 'upper' or 'spacings'")
    if "upper" in cfg:
        return Grid3.box(cfg["lower"], cfg["upper"], cfg["counts"])
    return Grid3(
        tuple(float(v) for v in cfg["lower"]),
        tuple(int(n) for n in cfg["counts"]),
        tuple(float(h) for h in cfg["spacings"]),
    )


@dataclass
class SolveResult:
    u: GridFunction
    iterations: int
    residual: float
    converged: bool
    tau: float
    cycles: int = 0


def sample_step(grid: Grid3, scale: float = 0.5) -> float:
    """Frame-sample step rho ~ scale * sqrt(h), snapped to a half-integer
    multiple of the spacing h = min(h1, h2).

    The sqrt balances the O(rho^2) line-truncation error against the
    O((h/rho)^2) interpolation bias.  Integer ratios rho/h >= 2 are avoided:
    they put grid-scale oscillations in the stencil's kernel (samples an even
    number of cells apart see identical values), which stalls the iteration;
    at half-integer ratios the interpolation damps them instead.
    """
    h = min(grid.spacings[0], grid.spacings[1])
    ratio = scale * np.sqrt(h) / h
    if ratio < 1.25:
        return h
    return max(1.5, np.floor(ratio) + 0.5) * h


def cfl_tau(rho: float, Lam: float, c_max: float) -> float:
    """Pseudo-time step 0.4 rho^2 / (Lam (4 + c_max rho^2))."""
    return 0.4 * rho * rho / (Lam * (4.0 + c_max * rho * rho))


class _Stencil:
    """Precomputed frame-aligned sampling for one grid.

    For each of the 8 sample directions we store, per node (every interior
    node unless `nodes` lists an (k, 3) index subset), either the trilinear
    cell located by grid.locate (sample inside the box) or the frozen
    exterior value of the boundary field.  With boundary=None the sample
    coordinates are clamped onto the box instead.
    """

    def __init__(
        self,
        grid: Grid3,
        boundary: ScalarField | None,
        step: float | None = None,
        nodes: np.ndarray | None = None,
    ):
        _, n2, n3 = grid.counts
        self.grid = grid
        self.h = step if step is not None else sample_step(grid)
        if nodes is None:
            nodes = np.argwhere(grid.interior_mask())
        i1, i2, i3 = nodes.T
        self.center_flat = (i1 * n2 + i2) * n3 + i3
        lower = np.asarray(grid.lower)
        upper = np.asarray(grid.upper)
        spac = np.asarray(grid.spacings)
        pts = np.stack(
            [lower[0] + spac[0] * i1, lower[1] + spac[1] * i2, lower[2] + spac[2] * i3], axis=1
        )
        self.points = pts
        x_dir, y_dir = frame_batch(pts)

        self.families = []
        eps = 1e-12 * max(upper - lower)
        for cx, cy in _COMBOS:
            sample = pts + self.h * (cx * x_dir + cy * y_dir)
            if boundary is None:
                inside = np.ones(sample.shape[0], dtype=bool)
                sample = np.clip(sample, lower, upper)
            else:
                inside = np.all((sample >= lower - eps) & (sample <= upper + eps), axis=1)
            base, frac = locate(grid, sample[inside])
            out_rows = np.nonzero(~inside)[0]
            out_vals = (
                boundary.value_batch(sample[~inside])
                if boundary is not None and out_rows.size
                else np.zeros(0)
            )
            self.families.append((np.nonzero(inside)[0], base, frac, out_rows, out_vals))

    def hessian_components(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(X^2u, (XY+YX)u/2, Y^2u) at the stencil's nodes."""
        s = []
        # non-finite inputs propagate and are reported by the caller's check
        with np.errstate(invalid="ignore"):
            for in_rows, base, frac, out_rows, out_vals in self.families:
                out = np.empty(self.center_flat.shape[0])
                out[in_rows] = trilinear(flat, self.grid.counts, base, frac)
                out[out_rows] = out_vals
                s.append(out)
        uc = flat[self.center_flat]
        h2 = self.h * self.h
        hxx = (s[0] + s[1] - 2.0 * uc) / h2
        hyy = (s[2] + s[3] - 2.0 * uc) / h2
        hxy = (s[4] + s[5] - s[6] - s[7]) / (4.0 * h2)
        return hxx, hxy, hyy


class Discretization:
    """A ProblemSpec bound to its grid arrays: one level of the solver."""

    def __init__(self, prob: ProblemSpec, grid: Grid3 | None = None):
        self.prob = prob
        self.grid = grid or prob.grid
        if prob.sample_width is not None:
            h = min(self.grid.spacings[0], self.grid.spacings[1])
            self.rho = max(h, prob.sample_width)
        else:
            self.rho = sample_step(self.grid, prob.stencil_scale)
        self.stencil = _Stencil(self.grid, prob.boundary, self.rho)
        pts = self.stencil.points
        self.c_int = prob.c.value_batch(pts)
        self.f_int = prob.f.value_batch(pts)
        all_c = prob.c.value_batch(self.grid.points())
        self.tau = cfl_tau(self.rho, prob.op.bracket.Lam, float(all_c.max()))
        mask = self.grid.interior_mask().ravel()
        self.boundary_flat = np.nonzero(~mask)[0]
        self.boundary_vals = prob.boundary.value_batch(self.grid.points()[~mask])

    def initial_values(self) -> np.ndarray:
        return self.prob.boundary.value_batch(self.grid.points())

    def apply_nonlinearity(self, flat: np.ndarray) -> np.ndarray:
        """T(u) = F(stencil Hessian) - c u at interior nodes."""
        hxx, hxy, hyy = self.stencil.hessian_components(flat)
        return self.prob.op.apply_batch(hxx, hxy, hyy) - self.c_int * flat[self.stencil.center_flat]

    def residual_interior(self, flat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        return self.apply_nonlinearity(flat) - rhs

    def smooth(self, flat: np.ndarray, rhs: np.ndarray, sweeps: int) -> np.ndarray:
        """sweeps Jacobi pseudo-time steps toward T(u) = rhs; returns residual."""
        res = None
        for _ in range(sweeps):
            res = self.residual_interior(flat, rhs)
            upd = flat[self.stencil.center_flat] + self.tau * res
            if not np.all(np.isfinite(upd)):
                bad = int(np.nonzero(~np.isfinite(upd))[0][0])
                node = self.stencil.center_flat[bad]
                idx = np.unravel_index(node, self.grid.counts)
                raise ArithmeticError(f"non-finite update at node {tuple(int(v) for v in idx)}")
            flat[self.stencil.center_flat] = upd
        return res

    def enforce_boundary(self, flat: np.ndarray) -> None:
        flat[self.boundary_flat] = self.boundary_vals


def stencil_hessian(
    u: GridFunction, idx: tuple[int, int, int], step: float | None = None
) -> Sym2:
    """Frame-aligned second differences at one interior node of a bare grid
    function (off-box samples clamped); boundary indices are rejected."""
    if not u.grid.is_interior(idx):
        raise ValueError(f"index {idx} is not interior")
    stencil = _Stencil(u.grid, None, step, nodes=np.array([idx]))
    hxx, hxy, hyy = stencil.hessian_components(u.values.ravel())
    return Sym2(float(hxx[0]), float(hxy[0]), float(hyy[0]))


_DISC_CACHE: dict[int, Discretization] = {}


def _discretization(prob: ProblemSpec) -> Discretization:
    disc = _DISC_CACHE.get(id(prob))
    if disc is None or disc.prob is not prob:
        disc = Discretization(prob)
        _DISC_CACHE.clear()
        _DISC_CACHE[id(prob)] = disc
    return disc


def step(u: GridFunction, prob: ProblemSpec, tau: float) -> GridFunction:
    """One Jacobi pseudo-time step; boundary nodes reset to the Dirichlet data."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    disc = _discretization(prob)
    flat = u.values.ravel().copy()
    disc.enforce_boundary(flat)
    res = disc.residual_interior(flat, disc.f_int)
    upd = flat[disc.stencil.center_flat] + tau * res
    if not np.all(np.isfinite(upd)):
        bad = int(np.nonzero(~np.isfinite(upd))[0][0])
        node = disc.stencil.center_flat[bad]
        idx = np.unravel_index(node, disc.grid.counts)
        raise ArithmeticError(f"non-finite update at node {tuple(int(v) for v in idx)}")
    flat[disc.stencil.center_flat] = upd
    return GridFunction(u.grid, flat.reshape(u.grid.counts))


def residual_norm(u: GridFunction, prob: ProblemSpec) -> float:
    """max over interior nodes of |F(stencil) - c u - f|."""
    disc = _discretization(prob)
    flat = u.values.ravel()
    return float(np.abs(disc.residual_interior(flat, disc.f_int)).max())


def manufacture(u_star: ScalarField, op: OperatorSpec, c: ScalarField) -> ScalarField:
    """Right-hand side f with u_star as exact solution: f = F(D^{2,*}u*) - c u*.

    u_star must be polynomial so the horizontal Hessian is exact.
    """
    if not isinstance(u_star, PolynomialField):
        raise ValueError("manufacture needs a polynomial exact solution")
    if op.form != INTRINSIC:
        raise ValueError("manufacture targets the intrinsic form")
    ux = u_star.apply_x()
    uy = u_star.apply_y()
    xx = ux.apply_x()
    yy = uy.apply_y()
    cross_terms = ux.apply_y() + uy.apply_x()

    def fn(pts: np.ndarray) -> np.ndarray:
        hxx = xx.value_batch(pts)
        hyy = yy.value_batch(pts)
        hxy = 0.5 * cross_terms.value_batch(pts)
        return op.apply_batch(hxx, hxy, hyy) - c.value_batch(pts) * u_star.value_batch(pts)

    return NumericField(fn)


def _restrict_full_weight(fine: np.ndarray, coarse_counts: tuple[int, int, int]) -> np.ndarray:
    """Full-weighting restriction of a fine field that vanishes on the boundary."""
    out = np.zeros(coarse_counts)
    w1d = (0.25, 0.5, 0.25)
    nf = fine.shape
    for o1, v1 in zip((-1, 0, 1), w1d):
        for o2, v2 in zip((-1, 0, 1), w1d):
            for o3, v3 in zip((-1, 0, 1), w1d):
                w = v1 * v2 * v3
                out[1:-1, 1:-1, 1:-1] += w * fine[
                    2 + o1 : nf[0] - 2 + o1 + 1 : 2,
                    2 + o2 : nf[1] - 2 + o2 + 1 : 2,
                    2 + o3 : nf[2] - 2 + o3 + 1 : 2,
                ]
    return out


def _prolong(coarse: np.ndarray, fine_counts: tuple[int, int, int]) -> np.ndarray:
    """Trilinear prolongation onto the refined grid (counts 2n-1)."""
    out = np.zeros(fine_counts)
    out[::2, ::2, ::2] = coarse
    out[::2, ::2, 1::2] = 0.5 * (out[::2, ::2, :-2:2] + out[::2, ::2, 2::2])
    out[::2, 1::2, :] = 0.5 * (out[::2, :-2:2, :] + out[::2, 2::2, :])
    out[1::2, :, :] = 0.5 * (out[:-2:2, :, :] + out[2::2, :, :])
    return out


class _Multilevel:
    """FAS V-cycles over nested coarsenings, with the Jacobi step as smoother."""

    def __init__(
        self, prob: ProblemSpec, nu1: int = 3, nu2: int = 3, finest: Discretization | None = None
    ):
        self.prob = prob
        self.nu1 = nu1
        self.nu2 = nu2
        self.levels: list[Discretization] = [finest or Discretization(prob)]
        grid = prob.grid
        while grid.can_coarsen():
            grid = grid.coarsen()
            self.levels.append(Discretization(prob, grid))
        self.fine_steps = 0

    def _interior(self, disc: Discretization, full: np.ndarray) -> np.ndarray:
        return full.ravel()[disc.stencil.center_flat]

    def vcycle(self, l: int, flat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        disc = self.levels[l]
        if l == len(self.levels) - 1:
            for _ in range(60):
                res = disc.smooth(flat, rhs, 5)
                if np.abs(res).max() < 1e-14 * max(1.0, np.abs(rhs).max()):
                    break
            return flat
        disc.smooth(flat, rhs, self.nu1)
        if l == 0:
            self.fine_steps += self.nu1
        res = rhs - disc.apply_nonlinearity(flat)
        res_full = np.zeros(disc.grid.counts)
        res_full.ravel()[disc.stencil.center_flat] = res
        coarse = self.levels[l + 1]
        rc = self._interior(coarse, _restrict_full_weight(res_full, coarse.grid.counts))
        u_c = flat.reshape(disc.grid.counts)[::2, ::2, ::2].copy()
        uc_flat = u_c.ravel().copy()
        rhs_c = coarse.apply_nonlinearity(uc_flat) + rc
        v_flat = self.vcycle(l + 1, uc_flat.copy(), rhs_c)
        corr = np.zeros(coarse.grid.counts)
        corr.ravel()[coarse.stencil.center_flat] = (
            v_flat[coarse.stencil.center_flat] - uc_flat[coarse.stencil.center_flat]
        )
        flat += _prolong(corr, disc.grid.counts).ravel() * self._interior_mask(disc)
        disc.smooth(flat, rhs, self.nu2)
        if l == 0:
            self.fine_steps += self.nu2
        return flat

    def _interior_mask(self, disc: Discretization) -> np.ndarray:
        mask = np.zeros(disc.grid.n_nodes)
        mask[disc.stencil.center_flat] = 1.0
        return mask

    def fmg_initial(self) -> np.ndarray:
        """Nested iteration: solve coarse levels first, prolong upward."""
        coarsest = self.levels[-1]
        flat = coarsest.initial_values()
        coarsest.enforce_boundary(flat)
        for _ in range(80):
            res = coarsest.smooth(flat, coarsest.f_int, 5)
            if np.abs(res).max() < 0.01 * self.prob.tol:
                break
        for l in range(len(self.levels) - 2, -1, -1):
            disc = self.levels[l]
            coarse = self.levels[l + 1]
            flat = _prolong(
                flat.reshape(coarse.grid.counts), disc.grid.counts
            ).ravel()
            disc.enforce_boundary(flat)
            if l > 0:
                self.vcycle(l, flat, disc.f_int)
        return flat


def solve(prob: ProblemSpec) -> SolveResult:
    """Iterate toward max interior |F(stencil) - c u - f| < tol.

    With multilevel=True (default) the single-level Jacobi step is wrapped in
    FAS V-cycles; the fixed point and stopping rule are identical to the pure
    iteration, which remains available via multilevel=False.  Non-convergence
    returns the best iterate flagged, never raises.
    """
    disc = _discretization(prob)
    use_ml = prob.multilevel and prob.grid.can_coarsen()
    if not use_ml:
        flat = disc.initial_values()
        disc.enforce_boundary(flat)
        iters = 0
        while True:
            # check first so the returned iterate is the one verified
            rn = float(np.abs(disc.residual_interior(flat, disc.f_int)).max())
            if rn < prob.tol or iters >= prob.max_iters:
                u = GridFunction(prob.grid, flat.reshape(prob.grid.counts))
                return SolveResult(u, iters, rn, rn < prob.tol, disc.tau)
            disc.smooth(flat, disc.f_int, 1)
            iters += 1

    ml = _Multilevel(prob, finest=disc)
    flat = ml.fmg_initial()
    cycles = 0
    rn = float(np.abs(disc.residual_interior(flat, disc.f_int)).max())
    while rn >= prob.tol and ml.fine_steps < prob.max_iters and cycles < 500:
        ml.vcycle(0, flat, disc.f_int)
        cycles += 1
        rn = float(np.abs(disc.residual_interior(flat, disc.f_int)).max())
    u = GridFunction(prob.grid, flat.reshape(prob.grid.counts))
    return SolveResult(u, ml.fine_steps, rn, rn < prob.tol, disc.tau, cycles)


def refine_problem(prob: ProblemSpec) -> ProblemSpec:
    """The same problem on the once-refined grid."""
    return replace(prob, grid=prob.grid.refine())
