"""Finite-difference solver for F(D^{2,*}u) - c u = f on a box.

The stencil is frame-aligned (semi-Lagrangian): second differences are taken
along straight lines p +- h X(p), p +- h Y(p) and the four diagonal
combinations, with off-node values obtained by trilinear interpolation.  The
scheme is monotone only when F ignores h_xy: the cross term weighs two
diagonal samples by -1/(4 rho^2).  Samples that leave the box are evaluated
with the Dirichlet data (the boundary field extends u); stencil_hessian runs
the same stencil on a bare grid function, which is its own off-box field and
so clamps those samples onto the box.  Because the frame's horizontal step
is the same at every node and its vertical step depends only on the node's
column, the operator is evaluated from shifted x3 rows of u per column (see
_Stencil).  A problem's finest discretization is built once and kept by the
ProblemSpec itself; no module-level cache holds one.

Accuracy forces the sample step rho away from the grid spacing h: linear
interpolation carries an O((h/rho)^2) bias into the second differences (pure
numerical diffusion along x3, where the frame tilts off the grid planes), so
rho = h would not converge at all on solutions with x3 curvature.  The
default rho ~ 0.5*sqrt(h), snapped to a half-integer multiple of h (see
sample_step), balances the O(rho^2) line-truncation error against that bias,
giving a first-order scheme; on coarse grids it reduces to the
plain spacing step.

The basic iteration is the Jacobi-style pseudo-time step
    v = u + tau * (F(stencil) - c u - f)
with tau = 0.4 rho^2 / (Lam (4 + c_max rho^2)).  A single-level sweep needs
O(1/(tau * lambda_min)) iterations, which is far too slow on fine grids, so
solve() accelerates it with FAS-style V-cycles on nested coarser grids,
smoothing with the same step on every level but the coarsest; the stencil,
tau rule, stopping test (fine-grid residual below tol), and hence the fixed
point are unchanged.  A grid that cannot be coarsened runs the plain
single-level iteration.  Discretization.smooth is the only relaxation loop;
it returns the residual of its final iterate, which the V-cycle passes on
rather than evaluating the operator twice on one iterate (on the levels
below the finest no caller reads post-smoothing's final residual, so it is
not computed).

The V-cycle is a fixed-point map G on the fine interior values, and solve()
Anderson-mixes it (Anderson 1965; Walker and Ni 2011) with the fixed depth
_Multilevel.DEPTH = 3: after a cycle that has not met tol, the iterate
G(x) - dG gamma, gamma the least-squares fit of G(x) - x by the last three
differences of G(x) - x, is evaluated once.  Its residual passes on to the
next cycle if it is strictly smaller than G(x)'s; otherwise G(x) and its
residual are kept.  That evaluation is the only extra work, 8 fine
evaluations per mixed cycle instead of 7, and the buffers hold 2 DEPTH + 2
fine interior vectors (about 16 MB at 65^3).  To pay for them the stencil
adds each sample into the Hessian rows as it is taken rather than storing
all nine.

T computes only the Hessian rows that F reads (OperatorSpec.hessian_rows),
and the stencil takes no sample that none of those rows weighs.  The
sub-Laplacian and trace_linear with a12 = 0 ignore h_xy, so their T skips
the four diagonal directions, the four-corner gathers; the rows it does
compute are bitwise those of the full call.  On a 65^3 grid with one BLAS
thread this took one sub-Laplacian evaluation of T from 109 to 55 ns per
interior node (95 to 41 at 33^3).  stencil_hessian and the coarsest-level
probe compute all three rows.

The coarsest level is solved directly.  The stencil is affine in the
interior node values, so probing it once with the interior unit vectors
gives dense maps (hxx, hxy, hyy) = M u + b; the equation F(M u + b) - c u
= rhs is then solved by Newton's method with the Jacobian
sum_k diag(dF/dh_k) M_k - diag(c), the slopes dF/dh_k taken by central
differences of OperatorSpec.apply_batch, so every operator kind shares one
derivative path.  A coarsest level with more than _Multilevel.DENSE_MAX
interior nodes (reached only from non-dyadic grids) is smoothed instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .calculus import h_second_fields
from .config import config_number, config_section
from .fields import NumericField, PolynomialField, ScalarField, field_from_config
from .grid import Grid3, GridFunction, cells
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
    sample_width: float | None = None

    def __post_init__(self):
        if self.op.form != INTRINSIC:
            raise ValueError("the grid solver discretizes the intrinsic form")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.sample_width is not None and not self.sample_width > 0:
            raise ValueError("sample_width must be positive")
        cvals = self.c.value_batch(self.grid.points())
        if cvals.min() < 0:
            raise ValueError(f"c must be nonnegative on the grid (min {cvals.min()})")

    @cached_property
    def discretization(self) -> "Discretization":
        """The finest level of this problem, built on first use and freed
        with the problem."""
        return Discretization(self)

    @staticmethod
    def from_config(cfg: dict) -> "ProblemSpec":
        config_section(
            cfg,
            "problem",
            ("operator", "c", "f", "boundary", "grid"),
            ("tol", "max_iters", "sample_width"),
        )
        return ProblemSpec(
            op=OperatorSpec.from_config(cfg["operator"]),
            c=field_from_config(cfg["c"], "c"),
            f=field_from_config(cfg["f"], "f"),
            boundary=field_from_config(cfg["boundary"], "boundary"),
            grid=_grid_from_config(cfg["grid"]),
            tol=config_number(cfg, "problem", "tol", default=1e-6),
            max_iters=config_number(cfg, "problem", "max_iters", int, default=200_000),
            sample_width=(
                config_number(cfg, "problem", "sample_width")
                if cfg.get("sample_width") is not None
                else None
            ),
        )


def _grid_from_config(cfg: dict) -> Grid3:
    config_section(cfg, "grid", ("lower", "counts"), ("upper", "spacings"))
    if ("upper" in cfg) == ("spacings" in cfg):
        raise ValueError("grid config needs exactly one of 'upper' or 'spacings'")
    lower = config_number(cfg, "grid", "lower", length=3)
    counts = config_number(cfg, "grid", "counts", int, length=3)
    if "upper" in cfg:
        return Grid3.box(lower, config_number(cfg, "grid", "upper", length=3), counts)
    return Grid3(lower, counts, config_number(cfg, "grid", "spacings", length=3))


@dataclass
class SolveResult:
    u: GridFunction
    iterations: int
    residual: float
    converged: bool
    tau: float
    cycles: int = 0
    rho: float = 0.0  # the sample step on the finest grid
    levels: list = field(default_factory=list)  # grid counts, finest first
    level_evals: list = field(default_factory=list)  # evaluations of T per level, finest first
    coarse_newton_steps: int = 0  # Newton steps of the coarsest-level solves
    outside_fraction: float = 0.0  # share of finest-grid samples off the box
    cycle_residuals: list = field(default_factory=list)  # fine residual after each V-cycle
    level_sweeps: list = field(default_factory=list)  # smoothing sweeps per level, finest first
    anderson_accepted: int = 0  # mixed iterates kept
    anderson_rejected: int = 0  # mixed iterates dropped for the V-cycle's own result

    def to_dict(self) -> dict:
        """Every field but the solution u, plus rho_over_h: the diagnostics."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "u"}
        out["levels"] = [list(counts) for counts in self.levels]
        out["rho_over_h"] = self.rho / self.u.grid.horizontal_spacing
        return out


def sample_step(grid: Grid3) -> float:
    """Frame-sample step rho ~ 0.5 * sqrt(h), snapped to a half-integer
    multiple of the spacing h = min(h1, h2).

    The sqrt balances the O(rho^2) line-truncation error against the
    O((h/rho)^2) interpolation bias.  Integer ratios rho/h >= 2 are avoided:
    they put grid-scale oscillations in the stencil's kernel (samples an even
    number of cells apart see identical values), which stalls the iteration;
    at half-integer ratios the interpolation damps them instead.
    """
    h = grid.horizontal_spacing
    ratio = 0.5 * np.sqrt(h) / h
    if ratio < 1.25:
        return h
    return max(1.5, np.floor(ratio) + 0.5) * h


def cfl_tau(rho: float, Lam: float, c_max: float) -> float:
    """Pseudo-time step 0.4 rho^2 / (Lam (4 + c_max rho^2))."""
    return 0.4 * rho * rho / (Lam * (4.0 + c_max * rho * rho))


def _second_differences(rho: float) -> np.ndarray:
    """The (3, 9) map from the 8 samples along _COMBOS and the centre value
    to (X^2u, (XY+YX)u/2, Y^2u)."""
    return np.array(
        [
            [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -2.0],
            [0.0, 0.0, 0.0, 0.0, 0.25, 0.25, -0.25, -0.25, 0.0],
            [0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, -2.0],
        ]
    ) / (rho * rho)


def _interior(values: np.ndarray, counts) -> np.ndarray:
    """The interior-node view of node values, flat or shaped like the grid."""
    return values.reshape(counts)[1:-1, 1:-1, 1:-1]


def _embed(values: np.ndarray, counts) -> np.ndarray:
    """Node values equal to `values` (one per interior node) inside and 0 on
    the boundary."""
    full = np.zeros(counts)
    inner = _interior(full, counts)
    inner[...] = values.reshape(inner.shape)
    return full


class _Direction(NamedTuple):
    """The samples of one direction cx X + cy Y at every interior node."""

    rows1: np.ndarray  # (A, 1, n1-2, 1) x1 index of each corner with nonzero weight
    rows2: np.ndarray  # (1, B, 1, n2-2) x2 index of each corner with nonzero weight
    weights: np.ndarray  # (A, B) horizontal corner weights, the same in every column
    start: np.ndarray  # (n1-2, n2-2) first padded x3 index of each column's window
    fz: np.ndarray  # (n1-2, n2-2, 1) x3 fraction of each column
    out_rows: np.ndarray  # interior-node indices of the samples off the box
    out_vals: np.ndarray  # their frozen Dirichlet values


class _Stencil:
    """Frame-aligned sampling of one grid, stored per interior column.

    The direction cx X + cy Y moves a node by the horizontal step
    rho (cx, cy), the same for every node, and by the vertical step
    2 rho (cx x2 - cy x1), which depends only on the node's column (i1, i2).
    So per direction the horizontal corners and their weights are
    constants, and each column keeps one x3 cell shift and one x3 fraction,
    taken with grid.cells from the sample of the column's bottom node.  A
    column of samples is then a blend of at most four x3 rows of u, shifted
    alike.  Samples that leave the box keep the frozen values of the
    boundary field.  Storage is O(n1 n2 + off-box samples).
    """

    def __init__(self, grid: Grid3, boundary: ScalarField, step: float):
        n1, n2, n3 = grid.counts
        self.grid = grid
        self.shape = (n1 - 2, n2 - 2, n3 - 2)
        lower = np.asarray(grid.lower)
        upper = np.asarray(grid.upper)
        eps = 1e-12 * max(upper - lower)
        x1, x2, x3 = (grid.axis_coordinates(axis)[1:-1] for axis in range(3))
        cols = np.stack(np.broadcast_arrays(x1[:, None], x2[None, :], lower[2]), axis=-1)
        cols = cols.reshape(-1, 3)
        x_dir, y_dir = frame_batch(cols)

        found = []
        for cx, cy in _COMBOS:
            offset = step * (cx * x_dir + cy * y_dir)
            sample = cols + offset
            cell, frac = cells(grid, sample, clamp=False)
            s3 = x3 + offset[:, 2:]  # (columns, n3 - 2) sample heights
            xy = sample[:, :2]
            column_in = np.all((xy >= lower[:2] - eps) & (xy <= upper[:2] + eps), axis=1)
            inside = column_in[:, None] & (s3 >= lower[2] - eps) & (s3 <= upper[2] + eps)
            out_rows = np.flatnonzero(~inside)
            col = out_rows // (n3 - 2)
            off_box = np.column_stack((sample[col, 0], sample[col, 1], s3.ravel()[out_rows]))
            out_vals = boundary.value_batch(off_box) if out_rows.size else np.zeros(0)
            found.append((cell, frac, out_rows, out_vals))

        # zero x3 padding wide enough for every column with a sample in the box
        shifts = np.concatenate([cell[:, 2] for cell, _, _, _ in found])
        self.pad = min(int(np.abs(shifts).max()), n3 - 2) + 1
        self.directions = []
        for cell, frac, out_rows, out_vals in found:
            corner = cell[0, :2] - 1
            fx, fy = frac[0, :2]
            wx = [1 - fx, fx] if fx else [1.0]
            wy = [1 - fy, fy] if fy else [1.0]
            rows1 = np.arange(1, n1 - 1) + corner[0] + np.arange(len(wx))[:, None]
            rows2 = np.arange(1, n2 - 1) + corner[1] + np.arange(len(wy))[:, None]
            start = np.clip(1 + cell[:, 2] + self.pad, 0, 2 * self.pad + 1)
            self.directions.append(
                _Direction(
                    np.clip(rows1, 0, n1 - 1)[:, None, :, None],
                    np.clip(rows2, 0, n2 - 1)[None, :, None, :],
                    np.outer(wx, wy),
                    start.reshape(n1 - 2, n2 - 2),
                    frac[:, 2].reshape(n1 - 2, n2 - 2, 1),
                    out_rows,
                    out_vals,
                )
            )
        # per sample along _COMBOS, then the centre: (row, weight) of its nonzero weights
        self.row_weights = [
            [(k, w) for k, w in enumerate(column) if w] for column in _second_differences(step).T
        ]
        n_samples = len(_COMBOS) * (n1 - 2) * (n2 - 2) * (n3 - 2)
        self.outside_fraction = sum(d.out_rows.size for d in self.directions) / n_samples

    @property
    def nbytes(self) -> int:
        """Bytes held by the stored arrays."""
        return sum(a.nbytes for d in self.directions for a in d)

    def hessian_components(self, flat: np.ndarray, rows=(0, 1, 2)) -> np.ndarray:
        """(X^2u, (XY+YX)u/2, Y^2u) at the interior nodes, as a (3, n) array:
        each sample is added into the rows that weigh it as it is taken.
        Only the given rows are computed, the others are zero, and a sample
        that no given row weighs is not taken: rows (0, 2) skip the four
        diagonal directions."""
        hessian = np.zeros((3, int(np.prod(self.shape))))
        term = np.empty(hessian.shape[1])
        kept = [[(k, w) for k, w in column if k in rows] for column in self.row_weights]
        # non-finite inputs propagate and are reported by the caller's check
        with np.errstate(invalid="ignore"):
            for sample, column in zip(self._samples(flat, kept), filter(None, kept)):
                for k, w in column:
                    hessian[k] += np.multiply(sample, w, out=term)
        return hessian

    def _samples(self, flat: np.ndarray, taken: list):
        """The samples along _COMBOS, then the centre values, each flat over
        the interior nodes, for those of the nine whose entry in `taken` is
        true; the direction samples share one buffer."""
        u = flat.reshape(self.grid.counts)
        n3 = u.shape[2]
        padded = np.zeros(u.shape[:2] + (n3 + 2 * self.pad,))
        padded[:, :, self.pad : self.pad + n3] = u
        # rows[i1, i2, j]: the n3 - 1 values of column (i1, i2) from padded x3 index j
        rows = sliding_window_view(padded, n3 - 1, axis=2)
        out = np.empty(int(np.prod(self.shape)))
        s = out.reshape(self.shape)
        for d, take in zip(self.directions, taken):
            if not take:
                continue
            windows = np.tensordot(d.weights, rows[d.rows1, d.rows2, d.start], 2)
            np.multiply(windows[..., :-1], 1 - d.fz, out=s)
            s += windows[..., 1:] * d.fz
            del windows  # freed before the next direction gathers its rows
            out[d.out_rows] = d.out_vals
            yield out
        if taken[-1]:
            yield _interior(u, self.grid.counts).ravel()


class Discretization:
    """A ProblemSpec bound to its grid arrays: one level of the solver."""

    def __init__(self, prob: ProblemSpec, grid: Grid3 | None = None):
        self.op = prob.op
        self.boundary = prob.boundary
        self.grid = grid or prob.grid
        if prob.sample_width is not None:
            self.rho = max(self.grid.horizontal_spacing, prob.sample_width)
        else:
            self.rho = sample_step(self.grid)
        self.stencil = _Stencil(self.grid, prob.boundary, self.rho)
        pts = self.grid.points()
        inner = _interior(pts, self.grid.counts + (3,)).reshape(-1, 3)
        self.c_int = prob.c.value_batch(inner)
        self.f_int = prob.f.value_batch(inner)
        self.tau = cfl_tau(self.rho, prob.op.bracket.Lam, float(prob.c.value_batch(pts).max()))
        mask = self.grid.interior_mask().ravel()
        self.boundary_flat = np.flatnonzero(~mask)
        self.boundary_vals = prob.boundary.value_batch(pts[~mask])
        self.evals = 0  # evaluations of T on this level
        self.sweeps = 0  # smoothing sweeps on this level

    def initial_values(self) -> np.ndarray:
        return self.boundary.value_batch(self.grid.points())

    def apply_nonlinearity(self, flat: np.ndarray) -> np.ndarray:
        """T(u) = F(stencil Hessian) - c u at interior nodes, computing only
        the Hessian rows that F reads."""
        self.evals += 1
        hxx, hxy, hyy = self.stencil.hessian_components(flat, self.op.hessian_rows)
        uc = _interior(flat, self.grid.counts).ravel()
        return self.op.apply_batch(hxx, hxy, hyy) - self.c_int * uc

    def residual_interior(self, flat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        return self.apply_nonlinearity(flat) - rhs

    def advance(self, flat: np.ndarray, res: np.ndarray, tau: float) -> None:
        """u += tau * res at the interior nodes of `flat`, in place; a
        non-finite update raises ArithmeticError naming its node."""
        inner = _interior(flat, self.grid.counts)
        with np.errstate(invalid="ignore"):
            upd = inner + tau * res.reshape(inner.shape)
        if not np.all(np.isfinite(upd)):
            bad = np.argwhere(~np.isfinite(upd))[0] + 1
            raise ArithmeticError(f"non-finite update at node {tuple(int(v) for v in bad)}")
        inner[...] = upd

    def smooth(
        self, flat: np.ndarray, rhs: np.ndarray, sweeps: int, res=None, tol=0.0, final=True
    ):
        """Up to `sweeps` Jacobi steps toward T(u) = rhs in place, each with the
        residual T(u) - rhs of the iterate it moves (`res` for the first, if
        given), stopping before a sweep once max |res| < tol; returns the
        residual of the final iterate, or None if `final` is false, in which
        case the last sweep does not evaluate it."""
        if res is None:
            res = self.residual_interior(flat, rhs)
        for i in range(sweeps):
            if tol > 0 and np.abs(res).max() < tol:
                break
            self.advance(flat, res, self.tau)
            self.sweeps += 1
            res = self.residual_interior(flat, rhs) if final or i + 1 < sweeps else None
        return res

    def enforce_boundary(self, flat: np.ndarray) -> None:
        flat[self.boundary_flat] = self.boundary_vals


def stencil_hessian(
    u: GridFunction, idx: tuple[int, int, int], step: float | None = None
) -> Sym2:
    """The solver's frame-aligned second differences at one interior node of
    a bare grid function, which also serves as its own off-box field and so
    clamps those samples onto the box; boundary indices are rejected."""
    if not u.grid.is_interior(idx):
        raise ValueError(f"index {idx} is not interior")
    rho = step if step is not None else sample_step(u.grid)
    stencil = _Stencil(u.grid, u, rho)
    column = np.ravel_multi_index(tuple(i - 1 for i in idx), stencil.shape)
    return Sym2(*(float(v) for v in stencil.hessian_components(u.values.ravel())[:, column]))


def step(u: GridFunction, prob: ProblemSpec, tau: float) -> GridFunction:
    """One Jacobi pseudo-time step; boundary nodes reset to the Dirichlet data."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    disc = prob.discretization
    flat = u.values.ravel().copy()
    disc.enforce_boundary(flat)
    disc.advance(flat, disc.residual_interior(flat, disc.f_int), tau)
    return GridFunction(u.grid, flat.reshape(u.grid.counts))


def residual_norm(u: GridFunction, prob: ProblemSpec) -> float:
    """max over interior nodes of |F(stencil) - c u - f|."""
    disc = prob.discretization
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
    xx, xy, yx, yy = h_second_fields(u_star)

    def fn(pts: np.ndarray) -> np.ndarray:
        hxy = 0.5 * (xy.value_batch(pts) + yx.value_batch(pts))
        h = op.apply_batch(xx.value_batch(pts), hxy, yy.value_batch(pts))
        return h - c.value_batch(pts) * u_star.value_batch(pts)

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


def _probe(disc: Discretization) -> np.ndarray:
    """The (3, n, n) matrix M of disc's stencil over its n interior nodes:
    hessian_components(u) = M @ interior(u) + hessian_components(u with a
    zero interior), read off one interior unit vector at a time."""
    counts = disc.grid.counts
    flat = np.zeros(int(np.prod(counts)))
    inner = _interior(flat, counts)
    base = disc.stencil.hessian_components(flat)
    columns = []
    for idx in np.ndindex(inner.shape):
        inner[idx] = 1.0
        columns.append(disc.stencil.hessian_components(flat) - base)
        inner[idx] = 0.0
    return np.stack(columns, axis=-1)


def _values_and_slopes(op: OperatorSpec, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F at the (3, n) Hessian components h and its slopes dF/dh_k, (3, n),
    by central differences with steps 1e-7 max(1, |h_k|), from one
    apply_batch call on the centre and the six shifted copies of h."""
    n = h.shape[1]
    steps = 1e-7 * np.maximum(1.0, np.abs(h))
    up, down = h + steps, h - steps
    probes = np.repeat(h[:, None, :], 7, axis=1)  # centre, then (up, down) per component
    for k in range(3):
        probes[k, 1 + 2 * k] = up[k]
        probes[k, 2 + 2 * k] = down[k]
    vals = op.apply_batch(*probes.reshape(3, 7 * n)).reshape(7, n)
    return vals[0], (vals[1::2] - vals[2::2]) / (up - down)


class _Multilevel:
    """FAS V-cycles over nested coarsenings, with the Jacobi step as smoother
    and a direct solve on the coarsest level."""

    SWEEPS = 3  # smoothing sweeps before and after the coarse-grid correction
    DEPTH = 3  # (x, G(x)) differences mixed by Anderson acceleration of the V-cycle
    DENSE_MAX = 512  # largest coarsest level, in interior nodes, solved by Newton
    NEWTON_MAX = 20  # Newton steps per coarsest-level solve
    COARSE_SWEEPS = 300  # smoothing sweeps per solve on a coarsest level above DENSE_MAX

    def __init__(self, prob: ProblemSpec, finest: Discretization):
        self.levels: list[Discretization] = [finest]
        grid = prob.grid
        while grid.can_coarsen():
            grid = grid.coarsen()
            self.levels.append(Discretization(prob, grid))
        self.newton_steps = 0
        coarsest = self.levels[-1]
        self.dense = _probe(coarsest) if coarsest.c_int.size <= self.DENSE_MAX else None

    def coarse_solve(self, flat: np.ndarray, rhs: np.ndarray, res=None) -> None:
        """Solve T(u) = rhs on the coarsest level in place, stopping once
        max |T(u) - rhs| < 1e-14 max(1, max |rhs|): by Newton on the probed
        affine stencil, or with at most COARSE_SWEEPS smoothing sweeps from
        the residual `res` on a level above DENSE_MAX."""
        disc = self.levels[-1]
        tol = 1e-14 * max(1.0, np.abs(rhs).max())
        if self.dense is None:
            disc.smooth(flat, rhs, self.COARSE_SWEEPS, res, tol)
            return
        edge = flat.copy()
        _interior(edge, disc.grid.counts)[...] = 0.0
        offset = disc.stencil.hessian_components(edge)
        for _ in range(self.NEWTON_MAX):
            u = _interior(flat, disc.grid.counts).ravel()
            vals, slopes = _values_and_slopes(disc.op, self.dense @ u + offset)
            disc.evals += 1
            res = vals - disc.c_int * u - rhs
            if np.abs(res).max() < tol:
                break
            jac = np.einsum("kn,knm->nm", slopes, self.dense) - np.diag(disc.c_int)
            disc.advance(flat, -np.linalg.solve(jac, res), 1.0)
            self.newton_steps += 1

    def vcycle(self, l: int, flat: np.ndarray, rhs: np.ndarray, res=None) -> np.ndarray | None:
        """One V-cycle on level l above the coarsest, in place, from the
        residual res = T(u) - rhs if the caller has it; returns the
        residual of the result on the finest level (l = 0) and None on the
        others, whose callers have no use for it."""
        disc = self.levels[l]
        res = disc.smooth(flat, rhs, self.SWEEPS, res)
        fine = disc.grid.counts
        coarse = self.levels[l + 1]
        counts = coarse.grid.counts
        rc = _interior(_restrict_full_weight(_embed(-res, fine), counts), counts).ravel()
        del res  # not kept through the recursion
        uc_flat = flat.reshape(fine)[::2, ::2, ::2].flatten()
        res_c = coarse.apply_nonlinearity(uc_flat)
        rhs_c = res_c + rc
        res_c -= rhs_c  # T(u_c) - rhs_c
        v_flat = uc_flat.copy()
        if l + 1 < len(self.levels) - 1:
            self.vcycle(l + 1, v_flat, rhs_c, res_c)
        else:
            self.coarse_solve(v_flat, rhs_c, res_c)
        corr = _embed(_interior(v_flat, counts) - _interior(uc_flat, counts), counts)
        _interior(flat, fine)[...] += _interior(_prolong(corr, fine), fine)
        return disc.smooth(flat, rhs, self.SWEEPS, final=l == 0)

    def fmg_initial(self) -> np.ndarray:
        """Nested iteration: solve the coarsest level, then prolong upward
        with one V-cycle per intermediate level."""
        coarsest = self.levels[-1]
        flat = coarsest.initial_values()
        coarsest.enforce_boundary(flat)
        self.coarse_solve(flat, coarsest.f_int)
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


class _Anderson:
    """Anderson mixing (Anderson 1965; Walker and Ni 2011) of a fixed-point
    map G on arrays of one shape, over the last _Multilevel.DEPTH pairs
    (x, G(x)).

    Only differences are kept: those of f = G(x) - x and of G(x) between
    successive pairs, in two preallocated ring buffers of DEPTH arrays,
    plus the last f and G(x).  The mixed iterate is G(x) - dG gamma, with
    gamma the least-squares solution of dF gamma = f, solved on the
    DEPTH x DEPTH Gram matrix of dF, so no copy of dF is made."""

    def __init__(self, shape: tuple):
        self.df = np.empty((_Multilevel.DEPTH,) + shape)  # differences of f
        self.dg = np.empty((_Multilevel.DEPTH,) + shape)  # differences of G(x)
        self.f = np.empty(shape)  # f of the last pair
        self.g = np.empty(shape)  # G(x) of the last pair
        self.pairs = 0

    def _slot(self) -> int:
        return (self.pairs - 1) % len(self.df)

    def start(self, x: np.ndarray) -> None:
        """Keep x, the input of the next G, where its pair's f will go."""
        np.copyto(self.df[self._slot()] if self.pairs else self.f, x)

    def record(self, gx: np.ndarray) -> None:
        """Add the pair (x, G(x)) whose x start() kept."""
        if self.pairs:
            df, dg = self.df[self._slot()], self.dg[self._slot()]
            np.subtract(gx, df, out=df)  # this pair's f
            df -= self.f  # its difference from the last f, which it then becomes
            self.f += df
            np.subtract(gx, self.g, out=dg)
        else:
            np.subtract(gx, self.f, out=self.f)
        self.g[...] = gx
        self.pairs += 1

    def mix(self) -> np.ndarray:
        """The mixed iterate from every stored difference; needs two pairs."""
        count = min(self.pairs - 1, len(self.df))
        df = self.df[:count].reshape(count, -1)
        gamma = np.linalg.lstsq(df @ df.T, df @ self.f.ravel(), rcond=None)[0]
        return self.g - np.tensordot(gamma, self.dg[:count], 1)


def solve(prob: ProblemSpec) -> SolveResult:
    """Iterate toward max interior |F(stencil) - c u - f| < tol.

    On a grid that can be coarsened the single-level Jacobi step is wrapped
    in FAS V-cycles, and the V-cycle map is Anderson-mixed: after each cycle
    that has not met tol, the mix of the last DEPTH cycles replaces the
    cycle's result only if its residual is strictly smaller.  The fixed
    point and stopping rule are identical to the pure iteration, which runs
    on grids that cannot be coarsened.  Non-convergence returns the best
    iterate flagged, never raises.
    """
    disc = prob.discretization
    disc.evals = disc.sweeps = 0  # the problem keeps its finest level between solves
    history = []  # the fine residual after each V-cycle
    accepted = rejected = 0
    if prob.grid.can_coarsen():
        ml = _Multilevel(prob, disc)
        flat = ml.fmg_initial()
        inner = _interior(flat, prob.grid.counts)
        res = disc.residual_interior(flat, disc.f_int)
        rn = float(np.abs(res).max())
        aa = _Anderson(inner.shape)
        while rn >= prob.tol and disc.sweeps < prob.max_iters and len(history) < 500:
            aa.start(inner)
            res = ml.vcycle(0, flat, disc.f_int, res)
            rn = float(np.abs(res).max())
            aa.record(inner)
            if rn >= prob.tol and aa.pairs > 1:
                inner[...] = aa.mix()
                mixed = disc.residual_interior(flat, disc.f_int)
                mn = float(np.abs(mixed).max())
                if mn < rn:
                    res, rn = mixed, mn
                    accepted += 1
                else:
                    inner[...] = aa.g
                    rejected += 1
                del mixed  # a rejected residual is not kept through the next cycle
            history.append(rn)
        levels, newton = ml.levels, ml.newton_steps
    else:
        flat = disc.initial_values()
        disc.enforce_boundary(flat)
        res = disc.smooth(flat, disc.f_int, prob.max_iters, tol=prob.tol)
        rn = float(np.abs(res).max())
        levels, newton = [disc], 0
    u = GridFunction(prob.grid, flat.reshape(prob.grid.counts))
    return SolveResult(
        u, disc.sweeps, rn, rn < prob.tol, disc.tau, len(history), rho=disc.rho,
        levels=[level.grid.counts for level in levels],
        level_evals=[level.evals for level in levels],
        coarse_newton_steps=newton, outside_fraction=disc.stencil.outside_fraction,
        cycle_residuals=history, level_sweeps=[level.sweeps for level in levels],
        anderson_accepted=accepted, anderson_rejected=rejected,
    )


def refine_problem(prob: ProblemSpec) -> ProblemSpec:
    """The same problem on the once-refined grid."""
    return replace(prob, grid=prob.grid.refine())
