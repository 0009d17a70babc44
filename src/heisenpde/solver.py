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
_Stencil): the directions that share one horizontal weight table, a family,
share one horizontal interpolation of u, and each direction then takes one
x3 window of it per column.  Those rows are unpadded: each holds a column's
n3 values and one zero, in one flat buffer with slack only at its two ends.
The evaluation makes no BLAS call.  A problem's finest discretization is
built once and kept by the ProblemSpec itself; no module-level cache holds
one.

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
with tau = 0.8 rho^2 / (4 Lam + c_max rho^2), the damped-Jacobi weight 4/5
on a bound of the Jacobian's diagonal (cfl_tau).  Alone it needs
O(1/(tau * lambda_min)) sweeps, far too many on fine grids, so solve() runs
FAS-style V-cycles over the grid's coarsenings (Grid3.coarsen, one rule for
every grid) with linear transfers per axis (_transfers), smoothing with the
same step on every level but the coarsest; the stencil, tau rule, stopping
test (fine-grid residual below tol), and hence the fixed point are those of
the plain step.
Discretization.smooth is the only relaxation loop; it returns the residual
of its final iterate, which the V-cycle passes on rather than evaluating
the operator twice on one iterate (on the levels below the finest no caller
reads post-smoothing's final residual, so it is not computed).

The V-cycle is a fixed-point map G on the fine interior values, and solve()
Anderson-mixes it (Anderson 1965; Walker and Ni 2011) with the fixed depth
_Multilevel.DEPTH = 3: after a cycle that has not met tol, the iterate
G(x) - dG gamma, gamma the least-squares fit of G(x) - x by the last three
differences of G(x) - x, is evaluated once.  Its residual passes on to the
next cycle if it is strictly smaller than G(x)'s; otherwise G(x) and its
residual are kept, as they are without evaluating the mix if its fit
raises LinAlgError or its iterate is not finite.  That evaluation is the
only extra work, 8 fine evaluations per mixed cycle instead of 7, and the
buffers hold 2 DEPTH + 2 fine interior vectors (about 16 MB at 65^3).  To
pay for them the stencil adds each sample into the Hessian rows as it is
taken rather than storing all nine.

T computes only the Hessian rows that F reads (OperatorSpec.hessian_rows),
and the stencil takes no sample that none of those rows weighs.  The
sub-Laplacian and trace_linear with a12 = 0 ignore h_xy, so their T skips
the four diagonal directions and their four-corner blend; the rows it does
compute are bitwise those of the full call.  stencil_hessian and the
coarsest-level probe compute all three rows.

The coarsest level is solved directly.  The stencil is affine in the
interior node values, so probing it once with the interior unit vectors
gives dense maps (hxx, hxy, hyy) = M u + b; the equation F(M u + b) - c u
= rhs is then solved by Newton's method with the Jacobian
sum_k diag(dF/dh_k) M_k - diag(c), the slopes dF/dh_k taken by central
differences of OperatorSpec.apply_batch, so every operator kind shares one
derivative path.  Every coarsest level has at most 7 nodes per axis, 125
interior nodes.  On a grid with no axis of 8 nodes a V-cycle is this solve
alone and runs no sweep: SolveResult.iterations is 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

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
    sample_width: float | None = None

    def __post_init__(self):
        if self.op.form != INTRINSIC:
            raise ValueError("the grid solver discretizes the intrinsic form")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
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
            ("tol", "sample_width"),
        )
        return ProblemSpec(
            op=OperatorSpec.from_config(cfg["operator"]),
            c=field_from_config(cfg["c"], "c"),
            f=field_from_config(cfg["f"], "f"),
            boundary=field_from_config(cfg["boundary"], "boundary"),
            grid=_grid_from_config(cfg["grid"]),
            tol=config_number(cfg, "problem", "tol", default=1e-6),
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
    """Pseudo-time step tau = omega / D: the damped-Jacobi weight omega = 4/5
    on D = (4 Lam + c_max rho^2) / rho^2, which bounds the diagonal of the
    Jacobian J of T(u) = F(stencil) - c u, since J_ii = -2 (dF/dh_xx +
    dF/dh_yy) / rho^2 - c_i and the two slopes sum to at most 2 Lam.

    4/5 is the textbook weight for the 5-point (X, Y) operator (Trottenberg,
    Oosterlee and Schueller, Multigrid, 2001, 2.1): it damps high
    frequencies by 3/5 per sweep, where a weight of 0.4 damps them by 4/5.
    Below 1 it keeps tau |J_ii| <= 4/5, so the plain step u + tau T(u) is
    monotone wherever the scheme is (the sub-Laplacian, trace_linear with
    a12 = 0); undamped Jacobi (omega = 1) leaves the checkerboard mode
    undamped.
    """
    return 0.8 * rho * rho / (4.0 * Lam + c_max * rho * rho)


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


class _Direction(NamedTuple):
    """The samples of one direction cx X + cy Y at every interior node."""

    weights: np.ndarray  # (A, B) horizontal corner weights, the same in every column
    window: np.ndarray  # (n1-2, n2-2) flat buffer index of each column's x3 window
    wz: np.ndarray  # (2, n1-2 or 1, n2-2 or 1, 1) x3 weights 1 - f, f of each column's fraction f
    out_rows: np.ndarray  # interior-node indices of the samples off the box
    out_vals: np.ndarray  # their frozen Dirichlet values


def _blend(source: np.ndarray, terms: list, out: np.ndarray) -> None:
    """out[j] = sum of w source[j + offset] over the (offset, w) terms, added
    in their order, for every j whose every term lies in source; the first
    term is written in place."""
    n = source.size - max(offset for offset, _ in terms)
    (offset, w), *rest = terms
    np.multiply(source[offset : offset + n], w, out=out[:n])
    for offset, w in rest:
        out[:n] += w * source[offset : offset + n]


def _runs(buffer: np.ndarray, length: int) -> np.ndarray:
    """The read-only view of a flat buffer whose row j is buffer[j : j + length]."""
    step = buffer.strides[0]
    return as_strided(buffer, (buffer.size - length + 1, length), (step, step), writeable=False)


class _Stencil:
    """Frame-aligned sampling of one grid, stored per interior column.

    The direction cx X + cy Y moves a node by the horizontal step
    rho (cx, cy), the same for every node, and by the vertical step
    2 rho (cx x2 - cy x1), which depends only on the node's column (i1, i2).
    So per direction the horizontal corners and their weights are
    constants, and each column keeps one x3 cell shift and one x3 fraction,
    taken with grid.cells from the sample of the column's bottom node.  A
    column of samples is then one x3 window of the direction's horizontal
    blend of u, interpolated along x3.  Directions with the same weight
    table, a family, share that blend; the table [1] is the copy of u
    itself.  Samples that leave the box keep the frozen values of the
    boundary field.

    The copy of u, and the blend laid out as it, are flat buffers of x3
    rows, one per column of the grid and of one layer around it in x1 and
    x2, each row its n3 values and one zero.  A sample on the box face
    whose x3 fraction is a rounding residue reads the value one past its
    row with a weight near 1e-16, and the zero makes that term vanish.  A
    window that leaves its row by more reads the neighbouring rows; only
    samples off the box do that, and they then take their frozen values.
    So do the values that one family's blend leaves from another's, which
    are finite.  Zero slack at the buffers' two ends, for the most-shifted
    window, keeps every window in the buffer.  Storage is the copy, about
    n1 n2 n3 values, plus O(n1 n2 + off-box samples) per direction; a call
    that blends allocates the blend.
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

        # slack wide enough for every column with a sample in the box; a
        # column shifted further has every sample off the box, and its
        # window is clipped into the buffer
        shifts = np.concatenate([cell[:, 2] for cell, _, _, _ in found])
        slack = min(int(np.abs(shifts).max()), n3 - 2) + 1
        row = n3 + 1  # a column's x3 values and one zero
        self.directions = []
        for cell, frac, out_rows, out_vals in found:
            corner = cell[0, :2] - 1
            fx, fy = frac[0, :2]
            wx = [1 - fx, fx] if fx else [1.0]
            wy = [1 - fy, fy] if fy else [1.0]
            # buffer column clip(k, -1, n) + 1 holds node clip(k, 0, n - 1) of
            # axis length n, so every corner k is clipped onto the grid
            base1 = np.clip(np.arange(1, n1 - 1) + corner[0], -1, n1 - 1) + 1
            base2 = np.clip(np.arange(1, n2 - 1) + corner[1], -1, n2 - 1) + 1
            shift = np.clip(1 + cell[:, 2], -slack, slack + 1).reshape(n1 - 2, n2 - 2)
            window = slack + (base1[:, None] * (n2 + 2) + base2) * row + shift
            # f is kept once along an axis where it does not change: x1 for X+-,
            # x2 for Y+-, whose products then run over whole x2 rows of windows
            fz = frac[:, 2].reshape(n1 - 2, n2 - 2)
            for axis in (0, 1):
                if np.all(fz == fz.take([0], axis=axis)):
                    fz = fz.take([0], axis=axis)
            self.directions.append(
                _Direction(
                    np.outer(wx, wy),
                    window,
                    np.stack((1 - fz, fz))[..., None],
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
        # the copy of u, zeroed here only: each call writes u and one layer
        # around x1 and x2 that repeats the grid's edge, and no call writes
        # the zeros ending the rows or the slack
        self.slack = slack
        self.copy = np.zeros((n1 + 2) * (n2 + 2) * row + 2 * slack)
        self._copy_runs = _runs(self.copy, n3 - 1)
        self._plans = {}  # per tuple of Hessian rows, its _plan

    @property
    def nbytes(self) -> int:
        """Bytes held by the stored arrays."""
        return self.copy.nbytes + sum(a.nbytes for d in self.directions for a in d)

    def _body(self, buffer: np.ndarray) -> np.ndarray:
        """The buffer between its slack: the x3 rows of the grid and of the
        layer around it, flat."""
        return buffer[self.slack : buffer.size - self.slack]

    def _plan(self, rows: tuple) -> list:
        """(direction, terms, pairs) per sample that one of the Hessian
        rows weighs, along _COMBOS and then the centre (direction None).  A
        direction whose table is [1] reads its windows from the copy of u,
        any other from the blend, formed first from the copy by _blend with
        the (offset, weight) `terms` of its table unless the blend holds
        that table's already (terms None).  `pairs` are the (row, weight)
        that weigh the sample."""
        n2, n3 = self.grid.counts[1:]
        plan, family = [], None
        for d, column in zip([*self.directions, None], self.row_weights):
            pairs = [(k, w) for k, w in column if k in rows]
            if not pairs:
                continue
            terms = None
            if d is not None and d.weights.size > 1:
                key = (d.weights.shape, d.weights.tobytes())
                if key != family:
                    family = key
                    # corner (a, b) lies a (n2 + 2) + b rows of n3 + 1 values on
                    terms = [
                        ((a * (n2 + 2) + b) * (n3 + 1), w)
                        for (a, b), w in np.ndenumerate(d.weights)
                    ]
            plan.append((d, terms, pairs))
        return plan

    def hessian_components(self, flat: np.ndarray, rows=(0, 1, 2)) -> np.ndarray:
        """(X^2u, (XY+YX)u/2, Y^2u) at the interior nodes, as a (3, n) array:
        each sample is added into the rows that weigh it as it is taken.
        Only the given rows (a tuple) are computed, the others are zero, and
        a sample that no given row weighs is not taken: rows (0, 2) skip the
        four diagonal directions.  Calls on one stencil must not overlap:
        they share its copy of u."""
        plan = self._plans.get(rows)
        if plan is None:
            plan = self._plans[rows] = self._plan(rows)
        hessian = np.zeros((3, int(np.prod(self.shape))))
        term = np.empty(hessian.shape[1])
        # non-finite inputs propagate and are reported by the caller's check
        with np.errstate(invalid="ignore"):
            for sample, pairs in self._samples(flat, plan):
                for k, w in pairs:
                    hessian[k] += np.multiply(sample, w, out=term)
        return hessian

    def _samples(self, flat: np.ndarray, plan: list):
        """(sample, pairs) per entry of the plan, each sample flat over the
        interior nodes; the direction samples share one buffer.  A family of
        directions with one horizontal weight table (X+-, Y+- and the
        diagonals at the default rho) shares one blend, and only one
        family's blend is held at a time, in a buffer laid out as the copy
        and zeroed once per call that blends."""
        n1, n2, n3 = self.grid.counts
        u = flat.reshape(self.grid.counts)
        copy = self._body(self.copy).reshape(n1 + 2, n2 + 2, n3 + 1)
        copy[1:-1, 1:-1, :-1] = u
        copy[0], copy[-1] = copy[1], copy[-2]
        copy[:, 0], copy[:, -1] = copy[:, 1], copy[:, -2]
        out = np.empty(int(np.prod(self.shape)))
        s = out.reshape(self.shape)
        blend = None
        for d, terms, pairs in plan:
            if d is None:
                yield _interior(u, self.grid.counts).ravel(), pairs
                continue
            runs = self._copy_runs  # runs[j]: the n3 - 1 values from flat index j on
            if d.weights.size > 1:
                if blend is None:
                    blend = np.zeros(self.copy.size)
                    blend_runs = _runs(blend, n3 - 1)
                if terms is not None:
                    _blend(self._body(self.copy), terms, self._body(blend))
                runs = blend_runs
            windows = runs[d.window]  # (n1-2, n2-2, n3-1)
            np.multiply(windows[..., :-1], d.wz[0], out=s)
            np.multiply(windows, d.wz[1], out=windows)
            s += windows[..., 1:]
            del windows  # freed before the next direction gathers its windows
            out[d.out_rows] = d.out_vals
            yield out, pairs


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
        out = self.op.apply_batch(hxx, hxy, hyy)
        out -= self.c_int * uc
        return out

    def residual_interior(self, flat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        out = self.apply_nonlinearity(flat)
        out -= rhs
        return out

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

    def smooth(self, flat: np.ndarray, rhs: np.ndarray, sweeps: int, res=None, final=True):
        """`sweeps` Jacobi steps toward T(u) = rhs in place, each with the
        residual T(u) - rhs of the iterate it moves (`res` for the first, if
        given); returns the residual of the final iterate, or None if
        `final` is false, in which case the last sweep does not evaluate it."""
        if res is None:
            res = self.residual_interior(flat, rhs)
        for i in range(sweeps):
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


def _interpolation(n_from: int, n_to: int) -> np.ndarray:
    """The (n_to, n_from) matrix of linear interpolation from n_from to n_to
    equally spaced nodes over one interval; node i of n_to lies at
    i (n_from - 1) / (n_to - 1) nodes of n_from, a ratio taken exactly."""
    rows = np.arange(n_to)
    pos = rows * (n_from - 1)
    cell = np.minimum(pos // (n_to - 1), n_from - 2)
    frac = (pos - cell * (n_to - 1)) / (n_to - 1)
    out = np.zeros((n_to, n_from))
    out[rows, cell] = 1 - frac
    out[rows, cell + 1] = frac
    return out


def _along_axes(mats, values: np.ndarray) -> np.ndarray:
    """values with the 1-D matrix mats[k] applied along axis k, x3 first,
    then x2, then x1; each is a matrix product."""
    n1, n2, n3 = values.shape
    out = (values.reshape(-1, n3) @ mats[2].T).reshape(n1, n2, -1)
    return np.tensordot(mats[0], mats[1] @ out, 1)


def _transfers(fine: tuple, coarse: tuple) -> tuple[list, list, list]:
    """Per axis, prolongation P (n_f, n_c), the interpolation at the coarse
    nodes (n_c, n_f) that gives the FAS coarse iterate, and restriction, P^T
    with each row divided by its sum, on interior nodes (n_c - 2, n_f - 2).
    On odd counts: trilinear prolongation, injection and full weighting."""
    prolong = [_interpolation(nc, nf) for nf, nc in zip(fine, coarse)]
    inject = [_interpolation(nf, nc) for nf, nc in zip(fine, coarse)]
    restrict = [p.T[1:-1, 1:-1] / p.sum(axis=0)[1:-1, None] for p in prolong]
    return prolong, inject, restrict


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


def _gauss_jordan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b by Gauss-Jordan elimination with partial pivoting, in
    elementwise numpy operations: OpenBLAS factors LAPACK's LU on threads
    from 100 unknowns on, with results that depend on the thread count."""
    ab = np.column_stack((a, b))
    for k in range(len(b)):
        p = k + np.abs(ab[k:, k]).argmax()
        if p != k:
            ab[[k, p]] = ab[[p, k]]
        pivot = ab[k, k:] / ab[k, k]
        ab[:, k:] -= np.multiply.outer(ab[:, k], pivot)
        ab[k, k:] = pivot
    return ab[:, -1]


class _Multilevel:
    """FAS V-cycles over the grid's coarsenings, with the Jacobi step as
    smoother and a direct solve on the coarsest level, which has at most 7
    nodes per axis and is the only level of a grid with no axis of 8."""

    SWEEPS = 3  # smoothing sweeps before and after the coarse-grid correction
    DEPTH = 3  # (x, G(x)) differences mixed by Anderson acceleration of the V-cycle
    NEWTON_MAX = 20  # Newton steps per coarsest-level solve
    MAX_CYCLES = 500  # cycles per solve before it stops unconverged

    def __init__(self, prob: ProblemSpec, finest: Discretization):
        self.levels: list[Discretization] = [finest]
        self.transfers = []  # _transfers between levels l and l + 1
        grid = prob.grid
        while (coarse := grid.coarsen()).counts != grid.counts:
            self.transfers.append(_transfers(grid.counts, coarse.counts))
            self.levels.append(Discretization(prob, coarse))
            grid = coarse
        self.newton_steps = 0
        self.dense = _probe(self.levels[-1])

    def coarse_solve(self, flat: np.ndarray, rhs: np.ndarray, final=False):
        """Solve T(u) = rhs on the coarsest level in place by Newton on the
        probed affine stencil, stopping once max |T(u) - rhs| < 1e-14
        max(1, max |rhs|).  Returns the stencil residual of the result if
        `final`, else None."""
        disc = self.levels[-1]
        tol = 1e-14 * max(1.0, np.abs(rhs).max())
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
            disc.advance(flat, -_gauss_jordan(jac, res), 1.0)
            self.newton_steps += 1
        return disc.residual_interior(flat, rhs) if final else None

    def vcycle(self, l: int, flat: np.ndarray, rhs: np.ndarray, res=None) -> np.ndarray | None:
        """One V-cycle on level l in place, from the residual res = T(u) - rhs
        if the caller has it; on the coarsest level it is the coarse solve.
        Returns the residual of the result on the finest level (l = 0); the
        callers on the other levels have no use for it."""
        if l == len(self.levels) - 1:
            return self.coarse_solve(flat, rhs, final=l == 0)
        disc = self.levels[l]
        res = disc.smooth(flat, rhs, self.SWEEPS, res)
        fine = disc.grid.counts
        coarse = self.levels[l + 1]
        counts = coarse.grid.counts
        prolong, inject, restrict = self.transfers[l]
        rc = _along_axes(restrict, -res.reshape(disc.stencil.shape)).ravel()
        del res  # not kept through the recursion
        uc_flat = _along_axes(inject, flat.reshape(fine)).ravel()
        res_c = coarse.apply_nonlinearity(uc_flat)
        rhs_c = res_c + rc
        res_c -= rhs_c  # T(u_c) - rhs_c
        v_flat = uc_flat.copy()
        self.vcycle(l + 1, v_flat, rhs_c, res_c)
        corr = _interior(v_flat, counts) - _interior(uc_flat, counts)
        _interior(flat, fine)[...] += _along_axes([p[1:-1, 1:-1] for p in prolong], corr)
        return disc.smooth(flat, rhs, self.SWEEPS, final=l == 0)

    def fmg_initial(self) -> np.ndarray:
        """Nested iteration: solve the coarsest level, then prolong upward
        with one V-cycle per intermediate level; returns the finest-level
        iterate."""
        coarsest = self.levels[-1]
        flat = coarsest.initial_values()
        coarsest.enforce_boundary(flat)
        self.coarse_solve(flat, coarsest.f_int)
        for l in range(len(self.levels) - 2, -1, -1):
            disc = self.levels[l]
            prolong = self.transfers[l][0]
            flat = _along_axes(prolong, flat.reshape(self.levels[l + 1].grid.counts)).ravel()
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
        # einsum, not BLAS: its sums do not depend on the BLAS thread count
        gram = np.einsum("in,jn->ij", df, df)
        gamma = np.linalg.lstsq(gram, np.einsum("in,n->i", df, self.f.ravel()), rcond=None)[0]
        return self.g - np.tensordot(gamma, self.dg[:count], 1)


def solve(prob: ProblemSpec) -> SolveResult:
    """Iterate toward max interior |F(stencil) - c u - f| < tol.

    FAS V-cycles (on a grid with no axis of 8 nodes, the coarsest-level
    solve alone) are Anderson-mixed: after each cycle that has not met tol,
    the mix of the last DEPTH cycles replaces the cycle's result only if its
    residual is strictly smaller; a mix that raises LinAlgError or is not
    finite is rejected.  The fixed point and stopping rule are those of the
    pure iteration `step`.  The solve stops unconverged after
    _Multilevel.MAX_CYCLES cycles; non-convergence returns the last iterate
    flagged, never raises.
    """
    disc = prob.discretization
    disc.evals = disc.sweeps = 0  # the problem keeps its finest level between solves
    ml = _Multilevel(prob, disc)
    flat = ml.fmg_initial()
    inner = _interior(flat, prob.grid.counts)
    res = disc.residual_interior(flat, disc.f_int)
    rn = float(np.abs(res).max())
    aa = _Anderson(inner.shape)
    history = []  # the fine residual after each cycle
    accepted = rejected = 0
    while rn >= prob.tol and len(history) < ml.MAX_CYCLES:
        aa.start(inner)
        res = ml.vcycle(0, flat, disc.f_int, res)
        rn = float(np.abs(res).max())
        aa.record(inner)
        if rn >= prob.tol and aa.pairs > 1:
            mixed, mn = None, np.inf  # a mix that fails or is not finite is rejected
            try:
                inner[...] = aa.mix()
            except np.linalg.LinAlgError:  # no fit, as on a non-finite Gram matrix
                pass
            else:
                if np.isfinite(inner).all():
                    mixed = disc.residual_interior(flat, disc.f_int)
                    mn = float(np.abs(mixed).max())
            if mn < rn:
                res, rn = mixed, mn
                accepted += 1
            else:
                inner[...] = aa.g
                rejected += 1
            mixed = None  # a rejected residual is not kept through the next cycle
        history.append(rn)
    u = GridFunction(prob.grid, flat.reshape(prob.grid.counts))
    return SolveResult(
        u, disc.sweeps, rn, rn < prob.tol, disc.tau, len(history), rho=disc.rho,
        levels=[level.grid.counts for level in ml.levels],
        level_evals=[level.evals for level in ml.levels],
        coarse_newton_steps=ml.newton_steps, outside_fraction=disc.stencil.outside_fraction,
        cycle_residuals=history, level_sweeps=[level.sweeps for level in ml.levels],
        anderson_accepted=accepted, anderson_rejected=rejected,
    )


def refine_problem(prob: ProblemSpec) -> ProblemSpec:
    """The same problem on the once-refined grid."""
    return replace(prob, grid=prob.grid.refine())
