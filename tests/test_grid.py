import re

import numpy as np
import pytest

from heisenpde.fields import parse_polynomial
from heisenpde.grid import Grid3, GridFunction
from heisenpde.rng import SplitMix64


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid3((0, 0, 0), (2, 3, 3), (0.1, 0.1, 0.1))
    with pytest.raises(ValueError):
        Grid3((0, 0, 0), (3, 3, 3), (0.1, -0.1, 0.1))


def test_grid_stores_integral_counts_as_ints():
    # a float count once passed the count rule and broke every array built
    # from the counts, e.g. interior_mask and GridFunction.zeros
    g = Grid3((-1.0,) * 3, (9.0, 9, np.int64(9)), (0.25,) * 3)
    assert g.counts == (9, 9, 9) and all(type(n) is int for n in g.counts)
    assert g == Grid3.box((-1, -1, -1), (1, 1, 1), (9, 9, 9))
    assert g.interior_mask().sum() == 7**3
    assert GridFunction.zeros(g).values.shape == (9, 9, 9)


def test_grid_box_and_upper():
    g = Grid3.box((-1, -1, -1), (1, 1, 1), (17, 17, 17))
    assert g.spacings == (0.125, 0.125, 0.125)
    assert g.upper == (1.0, 1.0, 1.0)
    assert g.n_nodes == 17**3


def test_grid_box_rejects_bad_lengths_and_counts():
    with pytest.raises(ValueError, match="3 lower coords"):
        Grid3.box((0, 0), (1, 1, 1), (5, 5, 5))
    with pytest.raises(ValueError, match="3 lower coords"):
        Grid3.box((0, 0, 0), (1, 1, 1), 5)
    with pytest.raises(ValueError, match="counts must be integers >= 3"):
        Grid3.box((0, 0, 0), (1, 1, 1), (5, 1, 5))
    # the count rule of Grid3 itself: a fractional or non-finite count is rejected
    for bad in (3.7, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="counts must be integers >= 3"):
            Grid3.box((0, 0, 0), (1, 1, 1), (bad, 5, 5))
    assert Grid3.box((0, 0, 0), (1, 1, 1), (5.0, 5, 5)).counts == (5, 5, 5)


def test_index_coordinate_roundtrip():
    g = Grid3.box((-1.0, 0.5, -2.0), (1.0, 2.5, 0.0), (9, 11, 5))

    def index(p):
        return tuple(int(round((p[i] - g.lower[i]) / g.spacings[i])) for i in range(3))

    # every node, exactly, and in the storage order of points()
    pts = g.points()
    for i1 in range(9):
        for i2 in range(11):
            for i3 in range(5):
                p = pts[(i1 * 11 + i2) * 5 + i3]
                assert index(p) == (i1, i2, i3)
                assert np.array_equal(
                    p, [g.lower[i] + idx * g.spacings[i] for i, idx in enumerate((i1, i2, i3))]
                )


def test_points_order_is_x3_fastest():
    g = Grid3.box((0, 0, 0), (1, 1, 1), (3, 3, 3))
    pts = g.points()
    assert np.array_equal(pts[0], [0, 0, 0])
    assert np.array_equal(pts[1], [0, 0, 0.5])
    assert np.array_equal(pts[3], [0, 0.5, 0])
    assert np.array_equal(pts[9], [0.5, 0, 0])


def test_coarsen_refine():
    g = Grid3.box((-1, -1, -1), (1, 1, 1), (17, 17, 17))
    c = g.coarsen()
    assert c.counts == (9, 9, 9)
    assert c.spacings == (0.25, 0.25, 0.25)
    assert c.refine() == g
    odd = Grid3.box((-1, 0, 0.5), (1, 2, 1.5), (9, 33, 65))
    assert odd.coarsen().counts == (5, 17, 33)
    assert odd.coarsen().refine() == odd
    # every axis of at least 8 nodes goes to n // 2 + 1 over the same box
    mixed = Grid3.box((0, 0, 0), (1, 1, 1), (8, 9, 9)).coarsen()
    assert mixed.counts == (5, 5, 5)
    assert np.allclose(mixed.upper, (1, 1, 1), rtol=0, atol=1e-15)
    assert mixed.spacings == (1 / 7 * (7 / 4), 0.25, 0.25)
    # shorter axes are kept (semi-coarsening)
    semi = Grid3.box((0, 0, 0), (1, 1, 1), (65, 65, 7)).coarsen()
    assert semi.counts == (33, 33, 7)
    assert semi.spacings == (1 / 32, 1 / 32, 1 / 6)
    # a grid with no axis of 8 nodes is its own coarsening
    small = Grid3.box((0, 0, 0), (1, 1, 1), (7, 5, 3))
    assert small.coarsen() == small


def test_margin_box():
    g = Grid3.box((-1, -1, -1), (1, 1, 1), (9, 9, 9))
    lo, hi = g.margin_box(0.1)
    assert np.allclose(lo, [-0.8, -0.8, -0.8])
    assert np.allclose(hi, [0.8, 0.8, 0.8])


def test_gridfunction_trilinear_exact_on_trilinear_data():
    # trilinear interpolation reproduces fields multilinear in each axis
    g = Grid3.box((-1, -1, -1), (1, 1, 1), (9, 9, 9))
    u = parse_polynomial("2 + x1 - 3 x2 x3 + 0.5 x1 x2 x3")
    gf = GridFunction.from_field(g, u)
    rng = SplitMix64(80, "interp")
    pts = rng.uniform(60, -1, 1).reshape(20, 3)
    vals = gf.value_batch(pts)
    exact = u.value_batch(pts)
    assert np.allclose(vals, exact, atol=1e-13)


def test_gridfunction_interp_second_order():
    g1 = Grid3.box((-1, -1, -1), (1, 1, 1), (9, 9, 9))
    g2 = g1.refine()
    u = parse_polynomial("x1^2 x3 + x2^2")
    rng = SplitMix64(81, "order")
    pts = rng.uniform(45, -0.9, 0.9).reshape(15, 3)
    exact = u.value_batch(pts)
    e1 = np.abs(GridFunction.from_field(g1, u).value_batch(pts) - exact).max()
    e2 = np.abs(GridFunction.from_field(g2, u).value_batch(pts) - exact).max()
    assert np.log2(e1 / e2) > 1.5


def test_gridfunction_shape_validation():
    g = Grid3.box((0, 0, 0), (1, 1, 1), (3, 3, 3))
    GridFunction(g, np.zeros(27))
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros((3, 3, 4)))


def test_csv_roundtrip(tmp_path):
    g = Grid3.box((-1, -0.5, 0), (1, 0.5, 2), (5, 7, 9))
    u = parse_polynomial("x1 x2 - 0.125 x3^2 + 1")
    gf = GridFunction.from_field(g, u)
    path = tmp_path / "u.csv"
    gf.to_csv(path)
    back = GridFunction.from_csv(path)
    assert back.grid.counts == g.counts
    assert np.allclose(back.grid.spacings, g.spacings, rtol=1e-12)
    assert np.array_equal(back.values, gf.values)


def test_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2,x3,u\n0,0,0,1\n1,0,0,2\n")
    with pytest.raises(ValueError):
        GridFunction.from_csv(path)


def _write_csv(path, axes, rows=None) -> None:
    """A CSV of the tensor grid of axes, u the row's index; rows, if given,
    reorders the x3-fastest rows.  repr round-trips each coordinate."""
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    lines = [",".join(map(repr, (*p, float(k)))) for k, p in enumerate(pts.tolist())]
    order = range(len(lines)) if rows is None else rows
    path.write_text("x1,x2,x3,u\n" + "".join(lines[k] + "\n" for k in order))


UNIT_AXES = [[0.0, 1.0, 2.0]] * 3
X1_FASTEST = [9 * i3 + 3 * i2 + i1 for i1 in range(3) for i2 in range(3) for i3 in range(3)]


@pytest.mark.parametrize(
    "axes,rows,words",
    [
        (UNIT_AXES, range(26), "too few data rows (26); 3 nodes per axis need 27"),
        (UNIT_AXES[:2] + [[0.0, 1.0, 2.0, 3.0]], range(27), "not a full tensor grid"),
        ([[0.0, 1.0]] + [[0.0, 1.0, 2.0, 3.0]] * 2, None, "at least 3 nodes per axis"),
        ([[0.0, 1.0, 3.0]] + UNIT_AXES[1:], None, "spacing is not uniform"),
        # 1e-9 times that grid: an absolute tolerance of 1e-8 would pass any steps this small
        ([[0.0, 1e-9, 3e-9]] + UNIT_AXES[1:], None, "spacing is not uniform"),
        (UNIT_AXES, [1, 0, *range(2, 27)], "rows are not in x3-fastest tensor order"),
        # x1 fastest: every axis is uniform, and only the order is wrong
        (UNIT_AXES, X1_FASTEST, "rows are not in x3-fastest tensor order"),
    ],
    ids=["short", "missing-rows", "two-nodes", "non-uniform", "non-uniform-tiny", "swapped", "x1-fastest"],
)
def test_csv_names_what_is_wrong_with_a_file(tmp_path, axes, rows, words):
    path = tmp_path / "u.csv"
    _write_csv(path, axes, rows)
    with pytest.raises(ValueError, match=re.escape(words)):
        GridFunction.from_csv(path)


def test_csv_names_the_line_of_a_value_that_is_not_finite(tmp_path):
    path = tmp_path / "u.csv"
    _write_csv(path, UNIT_AXES)
    lines = path.read_text().splitlines()
    lines[5] = "0.0,1.0,1.0,nan"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape("line 6: u = nan at (0, 1, 1) is not finite")):
        GridFunction.from_csv(path)


@pytest.mark.parametrize(
    "axes",
    [
        [[0.0, 1e-9, 2e-9]] * 3,
        # lower + k h misses 100000.1 and 100000.2 by up to 1.75e-11
        [[100000.0, 100000.1, 100000.2], [-3.0, -2.5, -2.0, -1.5], [0.0, 0.3, 0.6, 0.9, 1.2]],
    ],
    ids=["tiny-spacing", "far-from-origin"],
)
def test_csv_reads_a_uniform_grid_at_any_scale_or_offset(tmp_path, axes):
    path = tmp_path / "u.csv"
    _write_csv(path, axes)
    gf = GridFunction.from_csv(path)
    assert gf.grid.counts == tuple(len(a) for a in axes)
    assert gf.grid.lower == tuple(a[0] for a in axes)
    assert gf.values.ravel().tolist() == list(range(gf.grid.n_nodes))
    for i, a in enumerate(axes):
        np.testing.assert_allclose(gf.grid.axis_coordinates(i), a, rtol=1e-12, atol=0)


def test_csv_round_trips_a_grid_far_from_the_origin(tmp_path):
    # to_csv writes 1e5 + 2e-3 as 100000.00199999999: steps move by ulps of
    # 1e5, more than 1e-9 of the 1e-3 step
    g = Grid3((1e5, 0.0, 0.0), (5, 5, 5), (1e-3, 0.25, 0.25))
    gf = GridFunction(g, np.random.default_rng(5).normal(size=g.counts))
    path = tmp_path / "u.csv"
    gf.to_csv(path)
    back = GridFunction.from_csv(path)
    assert (back.grid.lower, back.grid.counts) == (g.lower, g.counts)
    assert back.values.tobytes() == gf.values.tobytes()
    ulps = [4 * np.spacing(abs(a).max()) for a in (g.axis_coordinates(i) for i in range(3))]
    assert np.all(np.abs(np.subtract(back.grid.spacings, g.spacings)) <= ulps)


def test_csv_reads_back_the_spacing_it_wrote(tmp_path):
    # h = 2/11: the first written step reads 0.18181818181818188
    g = Grid3.box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0), (12, 12, 12))
    gf = GridFunction(g, np.random.default_rng(12).normal(size=g.counts))
    path = tmp_path / "u.csv"
    gf.to_csv(path)
    back = GridFunction.from_csv(path)
    assert (back.grid.lower, back.grid.counts, back.grid.spacings) == (g.lower, g.counts, g.spacings)
    assert back.values.tobytes() == gf.values.tobytes()


def test_csv_is_deterministic(tmp_path):
    g = Grid3.box((0, 0, 0), (1, 1, 1), (4, 4, 4))
    u = parse_polynomial("0.1 x1 + 0.2 x2^2")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    GridFunction.from_field(g, u).to_csv(a)
    GridFunction.from_field(g, u).to_csv(b)
    assert a.read_bytes() == b.read_bytes()


def test_csv_bytes_match_per_row_writer(tmp_path):
    g = Grid3.box((-0.9, -1.1, -0.7), (1.3, 0.8, 1.2), (7, 9, 11))
    values = np.random.default_rng(3).normal(size=g.counts) * np.logspace(-300, 300, 11)
    values[0, 0, :3] = (-0.0, 5e-324, -1.7976931348623157e308)
    gf = GridFunction(g, values)
    path = tmp_path / "u.csv"
    gf.to_csv(path)
    pts = g.points()
    rows = ["x1,x2,x3,u\n"] + [
        "%.17g,%.17g,%.17g,%.17g\n" % (*p, v) for p, v in zip(pts, gf.values.ravel())
    ]
    assert path.read_bytes() == "".join(rows).encode()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_value_batch_rejects_non_finite_points(bad):
    # a NaN coordinate used to reach the integer cast and fail with an IndexError
    grid = Grid3.box((0, 0, 0), (1, 1, 1), (5, 5, 5))
    gf = GridFunction.from_field(grid, parse_polynomial("x1"))
    pts = np.array([[0.5, 0.5, 0.5], [0.25, bad, 0.75]])
    with pytest.raises(ValueError, match=r"non-finite point \(0\.25, .*, 0\.75\)"):
        gf.value_batch(pts)
    with pytest.raises(ValueError, match="non-finite point"):
        gf.value_batch(np.array([[bad, 0.0, 0.0]]))
    assert gf.value_batch(pts[:1]).tolist() == [0.5]


@pytest.mark.parametrize(
    "lower, spacings, words",
    [
        ((float("nan"), 0, 0), (0.25,) * 3, "lower corner must be finite"),
        ((0, -float("inf"), 0), (0.25,) * 3, "lower corner must be finite"),
        ((0, 0, 0), (float("inf"), 0.25, 0.25), "spacings must be positive and finite"),
        ((0, 0, 0), (0.25, float("nan"), 0.25), "spacings must be positive and finite"),
        ((1e308, 0, 0), (1e308, 0.25, 0.25), "upper corner must be finite"),
    ],
)
def test_grid_rejects_corners_and_spacings_that_are_not_finite(lower, spacings, words):
    with pytest.raises(ValueError, match=words):
        Grid3(lower, (9, 9, 9), spacings)


def test_grid_from_config_reads_a_box_or_a_lattice():
    box = Grid3.from_config({"lower": [-1, -1, -1], "upper": [1, 1, 1], "counts": [9, 9, 17]})
    assert box == Grid3.box((-1, -1, -1), (1, 1, 1), (9, 9, 17))
    lattice = Grid3.from_config(
        {"lower": [-1, -1, -1], "counts": [9, 9, 17], "spacings": [0.25, 0.25, 0.125]}
    )
    assert lattice == Grid3((-1.0, -1.0, -1.0), (9, 9, 17), (0.25, 0.25, 0.125))
    assert lattice.spacings == (0.25, 0.25, 0.125) and lattice.upper == (1.0, 1.0, 1.0)
    both = {"lower": [0, 0, 0], "upper": [1, 1, 1], "counts": [5, 5, 5], "spacings": [0.25] * 3}
    neither = {"lower": [0, 0, 0], "counts": [5, 5, 5]}
    for cfg in (both, neither):
        with pytest.raises(ValueError, match="^grid config needs exactly one of 'upper' or 'spacings'$"):
            Grid3.from_config(cfg)


def parent_value_batch(gf, pts):
    """Clamped cell lookup and trilinear gather as two helpers, kept
    verbatim as the reference for GridFunction.value_batch."""
    grid = gf.grid

    def locate(pts):
        _, n2, n3 = grid.counts
        t = (np.asarray(pts, dtype=float) - grid.lower) / grid.spacings
        top = np.array(grid.counts) - 2
        np.clip(t, 0.0, top + 1.0, out=t)
        cell = np.minimum(t.astype(np.int64), top)
        return (cell[:, 0] * n2 + cell[:, 1]) * n3 + cell[:, 2], t - cell

    def trilinear(flat, counts, base, frac):
        _, n2, n3 = counts
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

    base, frac = locate(pts)
    return trilinear(gf.values.ravel(), grid.counts, base, frac)


def test_value_batch_matches_the_clamped_gather_bitwise():
    # a non-dyadic grid with unequal spacings, so no cell position is exact
    grid = Grid3((-0.7, 0.3, -1.1), (7, 10, 13), (0.3, 0.17, 1 / 7))
    rng = SplitMix64(11)
    gf = GridFunction(grid, rng.uniform(grid.n_nodes, -1.0, 1.0))
    lo, hi = np.array(grid.lower), np.array(grid.upper)
    inside = lo + (hi - lo) * rng.uniform(1500).reshape(500, 3)
    faces, outside = [], []
    for axis in range(3):
        on_face = inside[:40].copy()
        on_face[:, axis] = hi[axis]
        beyond = on_face.copy()
        beyond[:, axis] = np.nextafter(hi[axis], np.inf)
        faces += [on_face, beyond]
        for side, sign in ((lo, -1.0), (hi, 1.0)):
            out = inside[40:80].copy()
            out[:, axis] = side[axis] + sign * rng.uniform(40, 1e-9, 2.0)
            outside.append(out)
    corners = np.array([[a, b, c] for a in (-9.0, 9.0) for b in (-9.0, 9.0) for c in (-9.0, 9.0)])
    for pts in (inside, np.vstack(faces), np.vstack(outside), corners):
        got, want = gf.value_batch(pts), parent_value_batch(gf, pts)
        assert got.tobytes() == want.tobytes()
    # clamped, a point outside reads the value at its projection onto the box
    np.testing.assert_allclose(
        gf.value_batch(corners), gf.value_batch(np.clip(corners, lo, hi)), rtol=0, atol=1e-12
    )
