"""Finite-difference solver for F(D^{2,*}u) - c u = f on a box.

The stencil is frame-aligned (semi-Lagrangian): it returns one row per line
through the node, the directional second difference
    D_v = (u(p + rho v) + u(p - rho v) - 2 u(p)) / rho^2
for v in operators.DIRECTIONS (X, Y, X + Y and X - Y at the frame of p),
with off-node values obtained by trilinear interpolation, so every row has
nonnegative off-centre weights.  Each operator kind is a reduction of the
rows it reads (OperatorSpec.apply_batch).  The scheme is monotone when that
reduction is a nondecreasing function of the rows: the sub-Laplacian
D_X + D_Y and trace_linear with a12 = 0.  Pucci and trace_linear with
a12 != 0 rebuild h_xy = (D_{X+Y} - D_{X-Y}) / 4, which weighs the X - Y
samples by -1/(4 rho^2), so they are not.  Samples that leave the box are
evaluated with the Dirichlet data (the boundary field extends u).
Because the frame's horizontal step is the same at every node and its
vertical step depends only on the node's column, the operator is
evaluated from shifted x3 rows of u per column (see _Stencil): the
directions that share one horizontal weight table, a family, share one
horizontal interpolation of u, and each direction then takes one x3
window of it per column.  Those rows are unpadded: each holds a column's
n3 values and one zero, in one flat buffer with slack only at its two ends.
The evaluation makes no BLAS call.  A problem's solver, every level from
the finest down with the transfers between them (ProblemSpec.multilevel),
is built once and kept by the ProblemSpec itself, and a solve reuses it
with its counts reset; no module-level cache holds one.  Only a problem
solved more than once gains from that.

Each level's set-up (Discretization) evaluates every data field once: c on
all nodes, whose interior slice is c_int and whose max sets tau; f on the
interior nodes; the boundary field on the boundary nodes and, in the
stencil, at the samples off the box.  Each of those arrays must be finite,
and c nonnegative: a ValueError names the field and the first node where
it is not.

Accuracy forces the sample step rho away from the grid spacing h: linear
interpolation carries an O((h/rho)^2) bias into the second differences (pure
numerical diffusion along x3, where the frame tilts off the grid planes), so
rho = h would not converge at all on solutions with x3 curvature.  The
default rho ~ 0.5*sqrt(h), snapped to a half-integer multiple of h (see
sample_step), balances the O(rho^2) line-truncation error against that bias,
giving a first-order scheme; on coarse grids it reduces to the
plain spacing step.

The basic iteration is the Jacobi-style pseudo-time step
    v_i = u_i + omega tau_i * (F(stencil) - c u - f)_i
with tau_i = rho^2 / (2 S_i + c_max rho^2) the inverse of node i's own
Jacobian diagonal (cfl_tau), S_i the sum of F's slopes at the iterate
moved: one number for the linear kinds (2 for the sub-Laplacian, whose
step is the scalar cfl_tau(rho, 2, c_max, omega)), and for Pucci
g'(e_lo) + g'(e_hi), floored at lam + Lam, which OperatorSpec.apply_batch
writes per node.  Each evaluation of T leaves those sums on its level, and
a sweep steps with the sums of the evaluation whose residual it uses, the
level's last.  The weights omega of a level's sweeps are the Chebyshev
schedule (chebyshev_weights) on the interval [a, b] that the level's
Gershgorin bound puts around the spectrum of diag(J)^-1 J, cut at
b / _Multilevel.ALPHA (smoothing_interval).  Alone the step needs
O(1/(tau * lambda_min)) sweeps, far too many on fine grids, so solve()
runs FAS-style V-cycles over the grid's coarsenings (Grid3.coarsen, one
rule for every grid) with linear transfers per axis (_transfers),
smoothing with the same step rule on every level but the coarsest; the
stencil, stopping test (fine-grid residual below tol), and hence the
fixed point are those of the plain step: the weights move the
iteration's path only.  Discretization.smooth is the only relaxation loop.  A residual is only
handed down, never back up: a sweep takes the residual its caller hands in
or evaluates its own, and none is evaluated after the last sweep.  A
V-cycle evaluates the residual it restricts after pre-smoothing and none
of its result: 7 evaluations per visit to a level above the coarsest.

The V-cycle is a fixed-point map G on the fine interior values, and solve()
Anderson-mixes it (Anderson 1965; Walker and Ni 2011) with the fixed depth
_Multilevel.DEPTH = 4, chosen by measured fine evaluations over depths 3, 4
and 5: every cycle after the first is mixed, to the iterate
G(x) - dG gamma, gamma the least-squares fit of G(x) - x by the last four
differences of G(x) - x.  solve() evaluates the residual of the iterate it
keeps, and hands it to the next cycle.  The mix is kept if its residual is
strictly smaller than that of the cycle's input x.  Otherwise, or without
evaluating the mix if its fit raises LinAlgError or its iterate is not
finite, G(x) is restored and its residual evaluated; the first cycle's G(x)
is evaluated too.  So a mixed cycle costs the 7 fine evaluations of a plain
one and a rejected mix 1 more: a solve makes 7 per cycle, 1 for its first
residual and 1 per rejected mix that was evaluated.  The buffers hold
2 DEPTH + 2 fine interior vectors (about 20 MB at 65^3).  To pay for them,
the residual is handed from call to call rather than kept by a caller, so
no fine evaluation holds an earlier residual; and the stencil adds each
sample into its row as it is taken, rather than storing all eight, and
forms the centre term in a sample's buffer.

T computes only the direction rows that F reads (OperatorSpec.hessian_rows),
and the stencil takes no sample of a line that F does not read.  The
sub-Laplacian and trace_linear with a12 = 0 read D_X and D_Y only, so their
T skips the two diagonal lines and their four-corner blend; the rows it
does compute are bitwise those of the full call, which computes all four
rows (hessian_components with its default dirs).

The coarsest level is solved directly.  The stencil is affine in the
interior node values, so probing it once with the interior unit vectors
gives one dense map per row that F reads, D_k = M_k u + b_k; the equation
F(M u + b) - c u = rhs is then solved by Newton's method with the Jacobian
sum_k diag(dF/dD_k) M_k - diag(c), F's exact slopes from one
OperatorSpec.linearize call, so a linear kind's solve takes one step.
Every coarsest level has at most 7 nodes per axis, 125 interior nodes.  On
a grid with no axis of 8 nodes a V-cycle is this solve alone and runs no
sweep: SolveResult.iterations is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .calculus import h_second_fields
from .config import config_number, config_section
from .fields import NumericField, PolynomialField, ScalarField, field_from_config
from .grid import Grid3, GridFunction, cells
from .group import frame_batch
from .operators import DIRECTIONS, INTRINSIC, OperatorSpec

# the samples p + rho v and p - rho v of each direction v, as coefficient
# pairs on the frame (X, Y)
_COMBOS = tuple((s * cx, s * cy) for cx, cy in DIRECTIONS for s in (1, -1))


@dataclass(frozen=True)
class ProblemSpec:
    """A full PDE instance: operator, data fields, grid, and stopping rule.
    sample_width, if given, is a floor on the sample step, not a fixed step:
    every level takes rho = max(min(h1, h2), sample_width)."""

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
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if self.sample_width is not None:
            _check_step(self.sample_width, "sample_width")

    @cached_property
    def multilevel(self) -> "_Multilevel":
        """This problem's solver: every level, the finest first, the
        transfers and the coarsest dense probe, built on the first solve,
        kept for the next and freed with the problem."""
        return _Multilevel(self)

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
            grid=Grid3.from_config(cfg["grid"]),
            tol=config_number(cfg, "problem", "tol", default=1e-6),
            sample_width=(
                config_number(cfg, "problem", "sample_width")
                if cfg.get("sample_width") is not None
                else None
            ),
        )


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
    anderson_accepted: int = 0  # mixed iterates kept, the last cycle's included
    anderson_rejected: int = 0  # mixed iterates dropped for the V-cycle's own result
    smoothing_intervals: list = field(default_factory=list)  # (a, b) per level above the coarsest
    smoothing_weights: list = field(default_factory=list)  # its SWEEPS weights, ascending

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


def cfl_tau(rho: float, slope_sum, c_max: float, omega: float = 1.0):
    """Pseudo-time step tau = omega / D of a node: the sweep weight omega on
    D = (2 S + c_max rho^2) / rho^2, S = slope_sum the sum of F's slopes
    over the direction rows at the node, a number or an array of one per
    node (Pucci's g'(e_lo) + g'(e_hi), from OperatorSpec.apply_batch), which
    is overwritten with the steps and returned.  omega = 1, the default, is
    the plain Jacobi step, a level's tau; a sweep takes the weight that
    chebyshev_weights gives it.
    The Jacobian J of T(u) = F(stencil) - c u has J_ii = -2 S / rho^2 - c_i:
    each row's centre weight is -2 / rho^2, and the slopes of D_{X+Y} and
    D_{X-Y} cancel.  So D is |J_ii| where c_i = c_max and S is F's slope sum
    at the iterate, which is exact for the linear kinds (S = 2 for the
    sub-Laplacian, a11 + a22 for trace_linear) and at Pucci nodes
    with both eigenvalues on the Lam corner or one on each.  Where both sit
    on Pucci's lam corner, S = 2 lam is floored to lam + Lam, the saddle's:
    with the unfloored step the Pucci+ (1, 16) solve of x1^2 - x2^2 +
    0.5 x1 x3 (c = 1) at 9^3 and at 17^3 did not converge in 500 V-cycles,
    its residual stalling near 1e3, where the floored one takes 11 and 13.

    With omega <= 1 the step keeps tau |J_ii| <= 1, so u + tau T(u) is
    monotone wherever the scheme is (the sub-Laplacian, trace_linear with
    a12 = 0).  A step of Chebyshev weight above 1 is not a monotone map;
    the scheme, and so the fixed point, are the same whatever the weights.
    """
    if np.ndim(slope_sum) == 0:
        return omega * rho * rho / (2.0 * slope_sum + c_max * rho * rho)
    den = slope_sum
    den *= 2.0
    den += c_max * rho * rho
    return np.divide(omega * rho * rho, den, out=den)


def smoothing_interval(rho: float, slope_sum: float, c_max: float, alpha: float):
    """The interval (a, b) of diag(J)^-1 J's spectrum that a level's sweeps
    damp, S = slope_sum its largest slope sum (2 for the sub-Laplacian,
    a11 + a22 for trace_linear, 2 Lam for Pucci).  A monotone row i has
    off-diagonal weights summing to 2 S_i / rho^2, so Gershgorin puts the
    spectrum of diag(J)^-1 J, with the diagonal of cfl_tau at c_max, in
    [1 - r, 1 + r], r = 2 S / (2 S + c_max rho^2).  b = 1 + r, and a is
    b / alpha unless 1 - r is larger: the modes below b / alpha are the
    smooth ones that the coarse levels correct, and a large c_max rho^2
    shrinks the interval, which the smoother then damps whole."""
    r = 2.0 * slope_sum / (2.0 * slope_sum + c_max * rho * rho)
    b = 1.0 + r
    return max(1.0 - r, b / alpha), b


def chebyshev_weights(interval, sweeps: int) -> tuple:
    """The weights omega_k = 1 / ((b + a) / 2 + (b - a) / 2 cos((2k - 1) pi /
    (2 m))), k = 1 .. m = sweeps, of the Chebyshev smoother on [a, b]
    (Adams, Brezina, Hu and Tuminaro, J. Comput. Phys. 188, 2003), in
    ascending order: the reciprocals of the roots of T_m on [a, b], so the
    sweeps' error polynomial prod (1 - omega_k lambda) is the scaled T_m
    whose max over [a, b] is 1 / T_m((b + a) / (b - a)).  One sweep takes
    the single weight 2 / (a + b)."""
    a, b = interval
    mid, half = 0.5 * (b + a), 0.5 * (b - a)
    return tuple(
        1.0 / (mid + half * math.cos((2 * k - 1) * math.pi / (2 * sweeps)))
        for k in range(1, sweeps + 1)
    )


def _check_step(rho, key: str) -> None:
    """Reject the sample step or width `key` unless rho > 0 and rho^2 and
    1/rho^2 are finite, the weights of the second differences."""
    sq = float(rho) * float(rho)
    if not (rho > 0 and 0 < sq < np.inf and 1.0 / sq < np.inf):
        raise ValueError(
            f"{key} must be positive with finite square and inverse square, got {rho!r}"
        )


def _check_finite(values: np.ndarray, name: str, shape, rows=None, offset: int = 0) -> None:
    """Reject values of the field `name` that are not all finite, with a
    ValueError naming the first bad value and its grid node: value k sits
    at flat index rows[k] (k if rows is None) of an array of `shape`, whose
    index is the node's less `offset` on every axis.  min and max see any
    NaN or infinity without a temporary array."""
    if values.size and not (np.isfinite(values.min()) and np.isfinite(values.max())):
        k = int(np.flatnonzero(~np.isfinite(values))[0])
        idx = np.unravel_index(k if rows is None else rows[k], shape)
        node = tuple(int(i) + offset for i in idx)
        raise ValueError(f"{name} must be finite on the grid, got {values[k]} at node {node}")


def _interior(values: np.ndarray, counts) -> np.ndarray:
    """The interior-node view of node values, flat or shaped like the grid."""
    return values.reshape(counts)[1:-1, 1:-1, 1:-1]


class _Direction(NamedTuple):
    """The samples of one direction cx X + cy Y at every interior node."""

    weights: np.ndarray  # (A, B) horizontal corner weights, the same in every column
    window: np.ndarray  # (n1-2, n2-2) flat buffer index of each column's x3 window
    wz: np.ndarray  # (2, n1-2, n2-2, 1) x3 weights 1 - f, f of each column's fraction f
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
            cell, frac = cells(grid, sample)
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
            fz = frac[:, 2].reshape(n1 - 2, n2 - 2)
            self.directions.append(
                _Direction(
                    np.outer(wx, wy),
                    window,
                    np.stack((1 - fz, fz))[..., None],
                    out_rows,
                    out_vals,
                )
            )
        # per sample, the (offset, weight) terms that blend its horizontal
        # table from the copy, one list per family (None for the table [1]);
        # corner (a, b) lies a (n2 + 2) + b rows of n3 + 1 values on
        families = {}
        self.terms = []
        for d in self.directions:
            key = (d.weights.shape, d.weights.tobytes())
            if d.weights.size > 1 and key not in families:
                families[key] = [
                    ((a * (n2 + 2) + b) * row, w) for (a, b), w in np.ndenumerate(d.weights)
                ]
            self.terms.append(families.get(key))
        self.weight = 1.0 / (step * step)  # the off-centre weight of every difference
        n_samples = len(_COMBOS) * (n1 - 2) * (n2 - 2) * (n3 - 2)
        self.outside_fraction = sum(d.out_rows.size for d in self.directions) / n_samples
        # the copy of u, zeroed here only: each call writes u and one layer
        # around x1 and x2 that repeats the grid's edge, and no call writes
        # the zeros ending the rows or the slack
        self.slack = slack
        self.copy = np.zeros((n1 + 2) * (n2 + 2) * row + 2 * slack)
        self._copy_runs = _runs(self.copy, n3 - 1)

    def _body(self, buffer: np.ndarray) -> np.ndarray:
        """The buffer between its slack: the x3 rows of the grid and of the
        layer around it, flat."""
        return buffer[self.slack : buffer.size - self.slack]

    def hessian_components(self, flat: np.ndarray, dirs=DIRECTIONS) -> np.ndarray:
        """The rows D_v = (u(p + rho v) + u(p - rho v) - 2 u(p)) / rho^2 at
        the interior nodes, one per direction v of `dirs` (a tuple drawn from
        DIRECTIONS), as a (len(dirs), n) array.  One loop takes the samples
        s+ at p + rho v and then s- at p - rho v of each direction of `dirs`,
        and of no other, into one buffer: it gathers a sample's x3 windows
        from the copy of u if its table is [1] and from its family's blend
        otherwise, interpolates them along x3, writes its frozen off-box
        values and adds it into its row.  Each row is s+ w, then += s- w,
        then += c, with w = 1 / rho^2 and the centre term c = u (-2 w)
        formed per row in the buffer of s-, so no array of the interior is
        held for it.  A family's blend is formed from the copy by _blend
        unless the blend holds it already: one family at a time, in a buffer
        allocated once per call that blends.  Calls on one stencil must not
        overlap: they share its copy of u."""
        n1, n2, n3 = self.grid.counts
        copy = self._body(self.copy).reshape(n1 + 2, n2 + 2, n3 + 1)
        copy[1:-1, 1:-1, :-1] = flat.reshape(self.grid.counts)
        copy[0], copy[-1] = copy[1], copy[-2]
        copy[:, 0], copy[:, -1] = copy[:, 1], copy[:, -2]
        rows = np.empty((len(dirs), int(np.prod(self.shape))))
        sample = np.empty(rows.shape[1])
        s = sample.reshape(self.shape)
        w = self.weight
        u = _interior(flat, self.grid.counts)
        blend = held = None
        # non-finite inputs propagate and are reported by the caller's check
        with np.errstate(invalid="ignore"):
            for row, v in zip(rows, dirs):
                first = 2 * DIRECTIONS.index(v)
                for k in (first, first + 1):
                    d, terms = self.directions[k], self.terms[k]
                    runs = self._copy_runs  # runs[j]: the n3 - 1 values from flat index j on
                    if terms is not None:
                        if blend is None:
                            blend = np.zeros(self.copy.size)
                            blend_runs = _runs(blend, n3 - 1)
                        if terms is not held:
                            _blend(self._body(self.copy), terms, self._body(blend))
                            held = terms
                        runs = blend_runs
                    windows = runs[d.window]  # (n1-2, n2-2, n3-1)
                    np.multiply(windows[..., :-1], d.wz[0], out=s)
                    np.multiply(windows, d.wz[1], out=windows)
                    s += windows[..., 1:]
                    del windows  # freed before the next sample gathers its windows
                    sample[d.out_rows] = d.out_vals
                    if k == first:
                        np.multiply(sample, w, out=row)
                    else:
                        row += np.multiply(sample, w, out=sample)
                row += np.multiply(u, -2.0 * w, out=s).ravel()
        return rows


class Discretization:
    """A ProblemSpec bound to its grid arrays: one level of the solver.

    c is evaluated once, on all nodes: c_int is its interior slice, bitwise
    an evaluation on the interior nodes alone, and its max is tau's c_max.
    c, f_int, the boundary node values and the stencil's frozen off-box
    values are checked finite as they are built, and c nonnegative, on
    every level, the finest included: a coarse level can hold nodes that
    the finest does not.  A ValueError names the field, a node and the
    level."""

    def __init__(self, prob: ProblemSpec, grid: Grid3 | None = None):
        self.op = prob.op
        self.boundary = prob.boundary
        self.grid = grid or prob.grid
        if prob.sample_width is not None:
            self.rho = max(self.grid.horizontal_spacing, prob.sample_width)
        else:
            self.rho = sample_step(self.grid)
        _check_step(self.rho, "sample step")
        self.stencil = _Stencil(self.grid, prob.boundary, self.rho)
        counts, shape = self.grid.counts, self.stencil.shape
        pts = self.grid.points()
        c = prob.c.value_batch(pts)
        _check_finite(c, "c", counts)
        if c.min() < 0:
            k = int(np.flatnonzero(c < 0)[0])
            node = tuple(int(i) for i in np.unravel_index(k, counts))
            raise ValueError(
                f"c must be nonnegative on every level, got {c[k]} at node {node} "
                f"of the {counts} level"
            )
        self.c_int = _interior(c, counts).ravel()
        inner = _interior(pts, counts + (3,)).reshape(-1, 3)
        self.f_int = prob.f.value_batch(inner)
        _check_finite(self.f_int, "f", shape, offset=1)
        # s_max is F's slope sum at the zero Hessian: the linear kinds' only
        # one, and Pucci's largest, 2 Lam on the Lam corner; tau is the plain
        # Jacobi step there, and the smoothing interval is sized by it.  Each
        # Pucci evaluation writes every node's own sum into slope_sum
        self.c_max = float(c.max())
        _, slopes = self.op.linearize(np.zeros((len(self.op.hessian_rows), 1)))
        self.s_max = float(slopes[0, 0] + slopes[1, 0])
        self.tau = cfl_tau(self.rho, self.s_max, self.c_max)
        self.interval = smoothing_interval(self.rho, self.s_max, self.c_max, _Multilevel.ALPHA)
        pucci = self.op.kind in ("pucci_plus", "pucci_minus")
        self.slope_sum = np.full(self.c_int.size, self.s_max) if pucci else None
        mask = self.grid.interior_mask().ravel()
        self.boundary_flat = np.flatnonzero(~mask)
        self.boundary_vals = prob.boundary.value_batch(pts[~mask])
        _check_finite(self.boundary_vals, "boundary", counts, self.boundary_flat)
        for (cx, cy), d in zip(_COMBOS, self.stencil.directions):
            name = f"boundary off the box along {cx} X + {cy} Y"
            _check_finite(d.out_vals, name, shape, d.out_rows, offset=1)
        self.evals = 0  # evaluations of T on this level
        self.sweeps = 0  # smoothing sweeps on this level

    def initial_values(self) -> np.ndarray:
        return self.boundary.value_batch(self.grid.points())

    def apply_nonlinearity(self, flat: np.ndarray) -> np.ndarray:
        """T(u) = F(stencil rows) - c u at interior nodes, computing only the
        direction rows that F reads; for Pucci, F's slope sum at u is left
        in `slope_sum`."""
        self.evals += 1
        rows = self.stencil.hessian_components(flat, self.op.hessian_rows)
        out = self.op.apply_batch(rows, self.slope_sum)
        out -= self.c_int * _interior(flat, self.grid.counts).ravel()
        return out

    def residual_interior(self, flat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        out = self.apply_nonlinearity(flat)
        out -= rhs
        return out

    def step(self, omega: float):
        """The Jacobi step of weight omega at the iterate this level last
        evaluated, omega over each interior node's own diagonal: cfl_tau on
        the linear kinds' one slope sum, a number, and for Pucci on each
        node's slope sum, shaped as the interior.  The sum is floored at
        lam + Lam, which only the lam corner's 2 lam falls below (see
        cfl_tau)."""
        if self.slope_sum is None:
            return cfl_tau(self.rho, self.s_max, self.c_max, omega)
        s = np.maximum(self.slope_sum, self.op.bracket.lam + self.op.bracket.Lam)
        return cfl_tau(self.rho, s, self.c_max, omega).reshape(self.stencil.shape)

    def advance(self, flat: np.ndarray, res: np.ndarray, tau) -> None:
        """u += tau * res at the interior nodes of `flat`, in place, with tau
        a number or one step per interior node, shaped as the interior:
        tau * res is formed once and the interior added to it.  A non-finite
        update raises ArithmeticError naming its first node and writes
        nothing."""
        inner = _interior(flat, self.grid.counts)
        with np.errstate(invalid="ignore"):
            upd = np.multiply(res.reshape(inner.shape), tau)
            upd += inner
        # min and max see any NaN or infinity without a temporary array
        if not (np.isfinite(upd.min()) and np.isfinite(upd.max())):
            bad = np.argwhere(~np.isfinite(upd))[0] + 1
            raise ArithmeticError(f"non-finite update at node {tuple(int(v) for v in bad)}")
        inner[...] = upd

    def smooth(self, flat: np.ndarray, rhs: np.ndarray, sweeps: int, held: list):
        """`sweeps` Jacobi steps toward T(u) = rhs in place, each with the
        residual T(u) - rhs of the iterate it moves and the step of that
        evaluation (step()), weighted in turn by the Chebyshev weights of
        `sweeps` sweeps on this level's interval (chebyshev_weights).

        `held` hands the first sweep's residual down: a list holding the
        residual of flat, this level's last evaluation, or empty, in which
        case it is evaluated here.  The first sweep takes it out of the
        list; each later sweep evaluates its own, and none is evaluated
        after the last.  Each residual is freed once its step is taken, so
        no frame keeps one alive while the next is evaluated."""
        for omega in chebyshev_weights(self.interval, sweeps):
            res = held.pop() if held else self.residual_interior(flat, rhs)
            self.advance(flat, res, self.step(omega))
            self.sweeps += 1
            del res

    def enforce_boundary(self, flat: np.ndarray) -> None:
        flat[self.boundary_flat] = self.boundary_vals


def manufacture(u_star: ScalarField, op: OperatorSpec, c: ScalarField) -> ScalarField:
    """Right-hand side f with u_star as exact solution: f = F(D^{2,*}u*) - c u*.

    u_star must be polynomial so the horizontal Hessian is exact.  The
    coefficients of X^2u*, XYu*, YXu* and Y^2u* are rounded here, so one
    beyond the float range raises a ValueError at this call.
    """
    if not isinstance(u_star, PolynomialField):
        raise ValueError("manufacture needs a polynomial exact solution")
    if op.form != INTRINSIC:
        raise ValueError("manufacture targets the intrinsic form")
    xx, xy, yx, yy = h_second_fields(u_star)
    for name, w in zip(("X^2u", "XYu", "YXu", "Y^2u"), (xx, xy, yx, yy)):
        try:
            w.value_batch(np.empty((0, 3)))
        except ValueError as err:
            raise ValueError(f"{err} in {name} of the exact solution") from None

    def fn(pts: np.ndarray) -> np.ndarray:
        hessians = np.empty((len(pts), 2, 2))
        hessians[:, 0, 0], hessians[:, 1, 1] = xx.value_batch(pts), yy.value_batch(pts)
        hessians[:, 0, 1] = hessians[:, 1, 0] = 0.5 * (xy.value_batch(pts) + yx.value_batch(pts))
        return op.apply_stack(hessians) - c.value_batch(pts) * u_star.value_batch(pts)

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
    """The (k, n, n) matrix M of disc's stencil rows that F reads over its n
    interior nodes: hessian_components(u) = M @ interior(u) +
    hessian_components(u with a zero interior), read off one interior unit
    vector at a time."""
    counts = disc.grid.counts
    dirs = disc.op.hessian_rows
    flat = np.zeros(int(np.prod(counts)))
    inner = _interior(flat, counts)
    base = disc.stencil.hessian_components(flat, dirs)
    columns = []
    for idx in np.ndindex(inner.shape):
        inner[idx] = 1.0
        columns.append(disc.stencil.hessian_components(flat, dirs) - base)
        inner[idx] = 0.0
    return np.stack(columns, axis=-1)


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
    """FAS V-cycles over the grid's coarsenings, with Chebyshev-weighted
    Jacobi sweeps as smoother and a direct solve on the coarsest level,
    which has at most 7 nodes per axis and is the only level of a grid
    with no axis of 8.  ALPHA was chosen by measured fine evaluations over
    4, 5, 6, 7, 8 and 10: the largest at which no study problem rose."""

    SWEEPS = 3  # smoothing sweeps before and after the coarse-grid correction
    ALPHA = 6.0  # the smoothing interval's b / a where Gershgorin does not cut it shorter
    DEPTH = 4  # (x, G(x)) differences mixed by Anderson acceleration of the V-cycle
    NEWTON_MAX = 20  # Newton steps per coarsest-level solve
    MAX_CYCLES = 500  # cycles per solve before it stops unconverged

    def __init__(self, prob: ProblemSpec):
        self.levels: list[Discretization] = [Discretization(prob)]
        self.transfers = []  # _transfers between levels l and l + 1
        grid = prob.grid
        while (coarse := grid.coarsen()).counts != grid.counts:
            self.transfers.append(_transfers(grid.counts, coarse.counts))
            self.levels.append(Discretization(prob, coarse))
            grid = coarse
        self.newton_steps = 0
        self.dense = _probe(self.levels[-1])

    def coarse_solve(self, flat: np.ndarray, rhs: np.ndarray) -> None:
        """Solve T(u) = rhs on the coarsest level in place by Newton on the
        probed affine stencil, stopping once max |T(u) - rhs| < 1e-14
        max(1, max |rhs|)."""
        disc = self.levels[-1]
        tol = 1e-14 * max(1.0, np.abs(rhs).max())
        edge = flat.copy()
        _interior(edge, disc.grid.counts)[...] = 0.0
        offset = disc.stencil.hessian_components(edge, disc.op.hessian_rows)
        for _ in range(self.NEWTON_MAX):
            u = _interior(flat, disc.grid.counts).ravel()
            vals, slopes = disc.op.linearize(self.dense @ u + offset)
            disc.evals += 1
            res = vals - disc.c_int * u - rhs
            if np.abs(res).max() < tol:
                break
            jac = np.einsum("kn,knm->nm", slopes, self.dense) - np.diag(disc.c_int)
            disc.advance(flat, -_gauss_jordan(jac, res), 1.0)
            self.newton_steps += 1

    def vcycle(self, l: int, flat: np.ndarray, rhs: np.ndarray, held: list) -> None:
        """One V-cycle on level l in place; on the coarsest level it is the
        coarse solve.  `held` hands the residual T(u) - rhs down as in
        Discretization.smooth: it holds it if the caller has it, and the
        cycle empties it.  The cycle evaluates no residual of its result."""
        if l == len(self.levels) - 1:
            held.clear()  # Newton starts from its own residual
            self.coarse_solve(flat, rhs)
            return
        disc = self.levels[l]
        disc.smooth(flat, rhs, self.SWEEPS, held)
        fine = disc.grid.counts
        coarse = self.levels[l + 1]
        counts = coarse.grid.counts
        prolong, inject, restrict = self.transfers[l]
        res = disc.residual_interior(flat, rhs).reshape(disc.stencil.shape)
        rc = _along_axes(restrict, -res).ravel()
        del res  # freed before post-smoothing evaluates this level again
        uc_flat = _along_axes(inject, flat.reshape(fine)).ravel()
        held_c = [coarse.apply_nonlinearity(uc_flat)]
        rhs_c = held_c[0] + rc
        held_c[0] -= rhs_c  # T(u_c) - rhs_c
        v_flat = uc_flat.copy()
        self.vcycle(l + 1, v_flat, rhs_c, held_c)
        corr = _interior(v_flat, counts) - _interior(uc_flat, counts)
        _interior(flat, fine)[...] += _along_axes([p[1:-1, 1:-1] for p in prolong], corr)
        disc.smooth(flat, rhs, self.SWEEPS, held)

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
                self.vcycle(l, flat, disc.f_int, [])
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
    solve alone) are Anderson-mixed: every cycle after the first evaluates
    the mix of the last DEPTH cycles in place of its own result, and keeps
    it only if its residual is strictly smaller than that of the cycle's
    input.  A mix that raises LinAlgError or is not finite is rejected
    unevaluated; a rejected mix gives way to the cycle's result G(x), whose
    residual is then evaluated, as is the first cycle's.  The stopping test
    reads the residual of the iterate kept, which the next cycle takes.
    The fixed point and stopping rule are those of the plain Jacobi step
    of Discretization (advance with step(1) on the residual of
    residual_interior): the Chebyshev weights of the sweeps move the
    iterates, not the point they converge to.  The solve stops unconverged
    after _Multilevel.MAX_CYCLES cycles; non-convergence returns the last
    iterate flagged, never raises.
    """
    ml = prob.multilevel  # the problem keeps its levels between solves
    for level in ml.levels:
        level.evals = level.sweeps = 0
    ml.newton_steps = 0
    disc = ml.levels[0]
    flat = ml.fmg_initial()
    inner = _interior(flat, prob.grid.counts)
    held = [disc.residual_interior(flat, disc.f_int)]  # handed to each cycle
    rn = float(np.abs(held[0]).max())
    aa = _Anderson(inner.shape)
    history = []  # the fine residual after each cycle
    accepted = rejected = 0
    while rn >= prob.tol and len(history) < ml.MAX_CYCLES:
        aa.start(inner)
        ml.vcycle(0, flat, disc.f_int, held)
        aa.record(inner)
        if aa.pairs > 1:  # every cycle after the first is mixed
            mn = np.inf  # a mix that fails or is not finite is rejected
            try:
                inner[...] = aa.mix()
            except np.linalg.LinAlgError:  # no fit, as on a non-finite Gram matrix
                pass
            else:
                if np.isfinite(inner).all():
                    held.append(disc.residual_interior(flat, disc.f_int))
                    mn = float(np.abs(held[0]).max())
            if mn < rn:
                accepted += 1
            else:
                held.clear()  # freed before G(x)'s residual is evaluated
                inner[...] = aa.g
                rejected += 1
        if not held:  # G(x), on the first cycle or after a rejected mix
            held.append(disc.residual_interior(flat, disc.f_int))
        rn = float(np.abs(held[0]).max())
        history.append(rn)
    u = GridFunction(prob.grid, flat.reshape(prob.grid.counts))
    return SolveResult(
        u, disc.sweeps, rn, rn < prob.tol, disc.tau, len(history), rho=disc.rho,
        levels=[level.grid.counts for level in ml.levels],
        level_evals=[level.evals for level in ml.levels],
        coarse_newton_steps=ml.newton_steps, outside_fraction=disc.stencil.outside_fraction,
        cycle_residuals=history, level_sweeps=[level.sweeps for level in ml.levels],
        anderson_accepted=accepted, anderson_rejected=rejected,
        smoothing_intervals=[list(level.interval) for level in ml.levels[:-1]],
        smoothing_weights=[
            list(chebyshev_weights(level.interval, ml.SWEEPS)) for level in ml.levels[:-1]
        ],
    )
