"""Uniform box grids on R^3 and grid functions with trilinear evaluation.

This module owns the grid's rules: its config (Grid3.from_config) and its
refinement (Grid3.refine), the x3-fastest node order of Grid3.points, of the
C-ordered values and of the CSV rows (tensor_points), the unclamped lattice
cells that the solver's stencil reads (cells) and the clamped trilinear
gather (GridFunction.value_batch).  CSV files carry the columns x1, x2, x3,
u with 17 significant digits, enough to round-trip doubles exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import config_number, config_section
from .fields import ScalarField


def _check_counts(counts) -> None:
    """The count rule of every grid: each count an integer >= 3."""
    if any(not float(n).is_integer() or n < 3 for n in counts):
        raise ValueError(f"counts must be integers >= 3, got {tuple(counts)}")


@dataclass(frozen=True)
class Grid3:
    """Uniform grid: lower corner, per-axis counts (integers >= 3, stored as
    ints), per-axis spacings."""

    lower: tuple[float, float, float]
    counts: tuple[int, int, int]
    spacings: tuple[float, float, float]

    def __post_init__(self):
        if len(self.lower) != 3 or len(self.counts) != 3 or len(self.spacings) != 3:
            raise ValueError("grid needs 3 lower coords, 3 counts, 3 spacings")
        _check_counts(self.counts)
        object.__setattr__(self, "counts", tuple(int(n) for n in self.counts))
        if not all(math.isfinite(v) for v in self.lower):
            raise ValueError(f"grid lower corner must be finite, got {self.lower}")
        if not all(0 < h < math.inf for h in self.spacings):
            raise ValueError(f"grid spacings must be positive and finite, got {self.spacings}")
        if not all(math.isfinite(v) for v in self.upper):
            raise ValueError(f"grid upper corner must be finite, got {self.upper}")

    @staticmethod
    def from_config(cfg: dict) -> "Grid3":
        """The grid of a config section: lower and counts, with exactly one
        of upper (a box) or spacings (a lattice)."""
        config_section(cfg, "grid", ("lower", "counts"), ("upper", "spacings"))
        if ("upper" in cfg) == ("spacings" in cfg):
            raise ValueError("grid config needs exactly one of 'upper' or 'spacings'")
        lower = config_number(cfg, "grid", "lower", length=3)
        counts = config_number(cfg, "grid", "counts", int, length=3)
        if "upper" in cfg:
            return Grid3.box(lower, config_number(cfg, "grid", "upper", length=3), counts)
        return Grid3(lower, counts, config_number(cfg, "grid", "spacings", length=3))

    @staticmethod
    def box(lower, upper, counts) -> "Grid3":
        """Grid spanning [lower, upper] with the given node counts."""
        if any(np.ndim(v) != 1 or len(v) != 3 for v in (lower, upper, counts)):
            raise ValueError("a grid box needs 3 lower coords, 3 upper coords and 3 counts")
        _check_counts(counts)
        lower = tuple(float(v) for v in lower)
        upper = tuple(float(v) for v in upper)
        counts = tuple(int(n) for n in counts)
        spacings = tuple((upper[i] - lower[i]) / (counts[i] - 1) for i in range(3))
        return Grid3(lower, counts, spacings)

    @property
    def upper(self) -> tuple[float, float, float]:
        return tuple(
            self.lower[i] + (self.counts[i] - 1) * self.spacings[i] for i in range(3)
        )

    @property
    def horizontal_spacing(self) -> float:
        """min(h1, h2), the spacing in which frame-sample steps are measured."""
        return min(self.spacings[0], self.spacings[1])

    @property
    def n_nodes(self) -> int:
        n1, n2, n3 = self.counts
        return n1 * n2 * n3

    def axis_coordinates(self, axis: int) -> np.ndarray:
        return self.lower[axis] + self.spacings[axis] * np.arange(self.counts[axis])

    def points(self) -> np.ndarray:
        """(n_nodes, 3) node coordinates in storage (x3-fastest) order."""
        return tensor_points([self.axis_coordinates(i) for i in range(3)])

    def interior_mask(self) -> np.ndarray:
        mask = np.zeros(self.counts, dtype=bool)
        mask[1:-1, 1:-1, 1:-1] = True
        return mask

    def coarsen(self) -> "Grid3":
        """The next coarser grid over the same box: an axis of n >= 8 nodes
        gets n // 2 + 1 (spacing 2h when n is odd), a shorter axis is kept,
        so a grid with no axis of 8 nodes is its own coarsening."""
        counts = tuple(n // 2 + 1 if n >= 8 else n for n in self.counts)
        return Grid3(
            self.lower,
            counts,
            tuple(h * ((n - 1) / (m - 1)) for h, n, m in zip(self.spacings, self.counts, counts)),
        )

    def refine(self) -> "Grid3":
        """The one refinement rule: 2n - 1 nodes per axis at half the spacing."""
        return Grid3(
            self.lower,
            tuple(2 * n - 1 for n in self.counts),
            tuple(h / 2 for h in self.spacings),
        )

    def margin_box(self, fraction: float = 0.1) -> tuple[np.ndarray, np.ndarray]:
        """Box shrunk by the boundary-influence margin on every side."""
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        pad = fraction * (hi - lo)
        return lo + pad, hi - pad


def tensor_points(axes) -> np.ndarray:
    """The (m1 m2 m3, 3) tensor product of three axes in x3-fastest order,
    the node order of every grid."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def cells(grid: Grid3, pts) -> tuple[np.ndarray, np.ndarray]:
    """Integer cells (n, 3) of (n, 3) points and the fractional offsets in
    [0, 1) inside them; the cells continue the lattice beyond the box."""
    t = (np.asarray(pts, dtype=float) - grid.lower) / grid.spacings
    cell = np.floor(t).astype(np.int64)
    return cell, t - cell


class GridFunction:
    """Values of u on a Grid3 with trilinear off-node evaluation."""

    def __init__(self, grid: Grid3, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape == (grid.n_nodes,):
            values = values.reshape(grid.counts)
        if values.shape != grid.counts:
            raise ValueError(f"values shape {values.shape} does not match grid {grid.counts}")
        self.grid = grid
        self.values = np.ascontiguousarray(values)

    @staticmethod
    def from_field(grid: Grid3, field: ScalarField) -> "GridFunction":
        vals = field.value_batch(grid.points()).reshape(grid.counts)
        return GridFunction(grid, vals)

    @staticmethod
    def zeros(grid: Grid3) -> "GridFunction":
        return GridFunction(grid, np.zeros(grid.counts))

    def value_batch(self, pts: np.ndarray) -> np.ndarray:
        """Trilinear interpolation at finite points, clamped to the box."""
        pts = np.asarray(pts, dtype=float)
        # min and max see any NaN or infinity without a temporary array, which
        # would shift where the heap places the solver's later arrays
        if pts.size and not (np.isfinite(pts.min()) and np.isfinite(pts.max())):
            bad = tuple(pts[~np.isfinite(pts).all(axis=1)][0].tolist())
            raise ValueError(f"cannot evaluate a grid function at the non-finite point {bad}")
        # clamped onto the box, every point lies in a cell of the grid, and
        # a point on an upper face in the last cell at fraction 1
        _, n2, n3 = self.grid.counts
        top = np.array(self.grid.counts) - 2
        t = (pts - self.grid.lower) / self.grid.spacings
        np.clip(t, 0.0, top + 1.0, out=t)
        cell = np.minimum(t.astype(np.int64), top)
        frac = t - cell
        # t and cell go before the gather; held, they raised analyze's RSS 4 MB
        del t
        base = (cell[:, 0] * n2 + cell[:, 1]) * n3 + cell[:, 2]
        del cell
        flat = self.values.ravel()
        s1 = n2 * n3
        fz = frac[:, 2]
        g00 = flat[base] * (1 - fz) + flat[base + 1] * fz
        g01 = flat[base + n3] * (1 - fz) + flat[base + n3 + 1] * fz
        g10 = flat[base + s1] * (1 - fz) + flat[base + s1 + 1] * fz
        g11 = flat[base + s1 + n3] * (1 - fz) + flat[base + s1 + n3 + 1] * fz
        fy = frac[:, 1]
        h0 = g00 * (1 - fy) + g01 * fy
        h1 = g10 * (1 - fy) + g11 * fy
        return h0 * (1 - frac[:, 0]) + h1 * frac[:, 0]

    def to_csv(self, path) -> None:
        """Write the rows in storage order, one (i1, i2) column at a time:
        each axis coordinate is formatted once, and each column's values
        go through one %-format whose template holds its x1, x2 prefix."""
        x1, x2, x3 = (["%.17g" % v for v in self.grid.axis_coordinates(i)] for i in range(3))
        rows = [t + ",%.17g" for t in x3]
        with open(path, "w") as fh:
            fh.write("x1,x2,x3,u\n")
            for i1, a in enumerate(x1):
                for i2, b in enumerate(x2):
                    prefix = f"{a},{b},"
                    template = prefix + ("\n" + prefix).join(rows) + "\n"
                    fh.write(template % tuple(self.values[i1, i2].tolist()))

    @staticmethod
    def from_csv(path) -> "GridFunction":
        with warnings.catch_warnings():  # an empty file is named by its row count below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        rows = len(data)
        if rows and data.shape[1] != 4:
            raise ValueError("grid CSV needs columns x1,x2,x3,u")
        if rows < 27:
            raise ValueError(f"grid CSV has too few data rows ({rows}); 3 nodes per axis need 27")
        bad = np.flatnonzero(~np.isfinite(data[:, 3]))
        if bad.size:
            row = data[bad[0]]
            point = ", ".join("%.17g" % v for v in row[:3])
            raise ValueError(f"grid CSV line {bad[0] + 2}: u = {row[3]} at ({point}) is not finite")
        axes = [np.unique(data[:, i]) for i in range(3)]
        counts = tuple(len(a) for a in axes)
        if int(np.prod(counts)) != data.shape[0]:
            raise ValueError("grid CSV is not a full tensor grid")
        spacings, ulps = [], []
        for a in axes:
            if len(a) < 3:
                raise ValueError("grid CSV needs at least 3 nodes per axis")
            steps = np.diff(a)
            # relative, plus the few ulps of the axis's largest coordinate
            # by which written coordinates move a step (100000.00199999999
            # for 1e5 + 2e-3); a floor independent of the axis would pass
            # any steps of a grid spaced below it
            ulps.append(4 * np.spacing(np.abs(a).max()))
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=ulps[-1]):
                raise ValueError("grid CSV spacing is not uniform")
            spacings.append(float(steps[0]))
        grid = Grid3(
            tuple(float(a[0]) for a in axes), counts, tuple(spacings)
        )
        # Each column, read as a (n1, n2, n3) view, against its axis.  With
        # every step within 1e-9 h + u of h, u those ulps, an axis of up to
        # 1000 steps stays within 1e-6 h + k u of lower + k h, while a row
        # out of order is off by a whole step on some axis.
        for i in range(3):
            lattice = grid.axis_coordinates(i).reshape([-1 if j == i else 1 for j in range(3)])
            off = np.abs(data[:, i].reshape(counts) - lattice).max()
            if not off <= 1e-6 * grid.spacings[i] + (counts[i] - 1) * ulps[i]:
                raise ValueError("grid CSV rows are not in x3-fastest tensor order")
        return GridFunction(grid, data[:, 3].reshape(counts))
