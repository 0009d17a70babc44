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
