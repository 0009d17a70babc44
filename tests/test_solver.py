import json
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import max_interior_abs_diff
from numpy.lib.stride_tricks import sliding_window_view

from heisenpde.calculus import h_hessian
from heisenpde.fields import NumericField, PolynomialField, parse_polynomial
from heisenpde.grid import Grid3, GridFunction, cells
from heisenpde.group import frame_batch
from heisenpde.operators import (
    DIRECTIONS,
    X,
    X_MINUS_Y,
    Y,
    EllipticityBracket,
    OperatorSpec,
    cross_term,
)
from heisenpde.rng import SplitMix64
from heisenpde.symmetric import Sym2, eigenvalues2
from heisenpde.solver import (
    Discretization,
    ProblemSpec,
    _along_axes,
    _Anderson,
    _gauss_jordan,
    _interior,
    _Multilevel,
    _probe,
    _Stencil,
    _transfers,
    cfl_tau,
    chebyshev_weights,
    manufacture,
    sample_step,
    solve,
)

SUB = OperatorSpec.sublaplacian()
ONE = PolynomialField.constant(1)
ZERO = PolynomialField.constant(0)


def box(n):
    return Grid3.box((-1, -1, -1), (1, 1, 1), (n, n, n))


def four_line_disc(grid: Grid3, boundary, sample_width=None) -> Discretization:
    """A level whose stencil samples all four lines X, Y, X + Y and X - Y:
    Pucci+ reads them all, and the sample step does not depend on the kind."""
    return Discretization(ProblemSpec(PUCCI_PLUS, ONE, ZERO, boundary, grid, sample_width=sample_width))


def residual_norm(u: GridFunction, prob: ProblemSpec) -> float:
    """max over interior nodes of |F(stencil) - c u - f|, the solver's stopping statistic."""
    disc = Discretization(prob)
    return float(np.abs(disc.residual_interior(u.values.ravel(), disc.f_int)).max())


def pure_iteration(prob: ProblemSpec, u: GridFunction, max_sweeps: int) -> GridFunction:
    """Plain Jacobi sweeps of the problem's finest level from u, with its
    boundary data reset, until the residual falls below tol."""
    disc = Discretization(prob)
    flat = u.values.ravel().copy()
    disc.enforce_boundary(flat)
    held = [disc.residual_interior(flat, disc.f_int)]
    for _ in range(max_sweeps):
        if np.abs(held[0]).max() < prob.tol:
            break
        disc.smooth(flat, disc.f_int, 1, held)
        held.append(disc.residual_interior(flat, disc.f_int))
    return GridFunction(u.grid, flat.reshape(u.grid.counts))


def manufactured_problem(n=17, tol=1e-7, **kw):
    u_star = parse_polynomial("x1^2 + x2^2")
    f = manufacture(u_star, SUB, ONE)
    prob = ProblemSpec(SUB, ONE, f, boundary=u_star, grid=box(n), tol=tol, **kw)
    return u_star, prob


def test_problem_spec_validation():
    u_star, prob = manufactured_problem(9)
    # c is checked where it is evaluated, by the solve's level set-up
    with pytest.raises(ValueError, match="^c must be nonnegative on every level, got -1.0 at node"):
        solve(ProblemSpec(SUB, PolynomialField.constant(-1), ZERO, ZERO, box(9)))
    with pytest.raises(ValueError):
        ProblemSpec(SUB, ONE, ZERO, ZERO, box(9), tol=0.0)
    with pytest.raises(ValueError):
        ProblemSpec(OperatorSpec.sublaplacian(form="lifted"), ONE, ZERO, ZERO, box(9))


@pytest.mark.parametrize("tol", [float("inf"), float("nan")])
def test_problem_spec_rejects_a_tol_that_is_not_finite(tol):
    # with tol = inf the solve stopped before its first cycle and reported
    # convergence at residual 1.38
    with pytest.raises(ValueError, match="^tol must be positive and finite$"):
        ProblemSpec(SUB, ONE, ONE, ZERO, box(9), tol=tol)


def test_problem_spec_from_config_strict():
    cfg = {
        "operator": {"kind": "sublaplacian", "lambda": 1.0, "Lambda": 1.0},
        "c": {"poly": "1"},
        "f": {"poly": "0"},
        "boundary": {"poly": "0"},
        "grid": {"lower": [-1, -1, -1], "upper": [1, 1, 1], "counts": [9, 9, 9]},
    }
    prob = ProblemSpec.from_config(cfg)
    assert prob.grid.counts == (9, 9, 9)
    with pytest.raises(ValueError):
        ProblemSpec.from_config({**cfg, "bogus": 1})
    with pytest.raises(ValueError):
        ProblemSpec.from_config({k: v for k, v in cfg.items() if k != "f"})
    bad_grid = dict(cfg)
    bad_grid["grid"] = {"lower": [-1, -1, -1], "counts": [9, 9, 9]}
    with pytest.raises(ValueError):
        ProblemSpec.from_config(bad_grid)


def test_sample_step_rule():
    # coarse grids keep the plain spacing step; finer ones take half-integer
    # multiples ~ 0.5*sqrt(h)
    g_coarse = box(5)
    assert sample_step(g_coarse) == 0.5
    g17 = box(17)
    assert sample_step(g17) == 1.5 * 0.125
    g33 = box(33)
    ratio = sample_step(g33) / 0.0625
    assert ratio == 2.5
    # the plain Jacobi step by default, and omega times it for a weight omega
    assert cfl_tau(0.1, 2.0, 0.0) == pytest.approx(0.01 / 4.0)
    assert cfl_tau(0.1, 0.5, 1000.0, 0.8) == pytest.approx(0.8 * 0.01 / (2.0 * 0.5 + 10.0))
    # an array of slope sums is overwritten with the steps, bitwise the scalar's
    sums = np.array([2.0, 0.5, 5.0])
    steps = cfl_tau(0.1, sums, 1000.0, 1.7)
    assert steps is sums
    assert steps.tolist() == [cfl_tau(0.1, s, 1000.0, 1.7) for s in (2.0, 0.5, 5.0)]


def stencil_matrix(u, grid: Grid3, idx, sample_width=None) -> np.ndarray:
    """The solver's frame-aligned second differences of the field u at the
    interior node idx of grid, with u as the boundary: [[D_X, h_xy],
    [h_xy, D_Y]], h_xy formed from D_{X+Y} and D_{X-Y} by cross_term."""
    disc = four_line_disc(grid, u, sample_width)
    rows = disc.stencil.hessian_components(u.value_batch(grid.points()))
    column = np.ravel_multi_index(tuple(i - 1 for i in idx), disc.stencil.shape)
    d_x, d_y, d_plus, d_minus = rows[:, column]
    h_xy = cross_term(d_plus, d_minus)
    return np.array([[d_x, h_xy], [h_xy, d_y]])


def test_stencil_hessian_quadratic_exact_at_spacing_step():
    g = box(17)
    h = min(g.spacings[0], g.spacings[1])
    m = stencil_matrix(parse_polynomial("x1^2 + x2^2"), g, (8, 8, 8), sample_width=h)
    assert np.allclose(m, np.diag([2.0, 2.0]), atol=1e-10)


def test_stencil_hessian_linear_and_vertical():
    g = box(17)
    m = stencil_matrix(parse_polynomial("2 x1 - x2 + 3 x3"), g, (8, 8, 8))
    assert np.abs(m).max() <= 1e-10
    m3 = stencil_matrix(PolynomialField.coordinate(2), g, (5, 11, 8))
    assert np.abs(m3).max() <= 1e-10


def test_stencil_hessian_rejects_a_default_step_with_infinite_square():
    # h = 2.5e159: the default step is h, and its square overflows
    grid = Grid3.box((-1e160, -1e160, -1), (1e160, 1e160, 1), (9, 9, 9))
    with pytest.raises(ValueError, match="step must be positive with finite square"):
        Discretization(ProblemSpec(SUB, ONE, ZERO, ZERO, grid))


@pytest.mark.parametrize("bad", [1e300, 1e-300, 0.0, -0.25, float("nan"), float("inf")])
def test_problem_rejects_bad_sample_width(bad):
    # a width whose square or inverse square is not a positive finite number
    # would give non-finite second differences
    cfg = {
        "operator": {"kind": "sublaplacian", "lambda": 1.0, "Lambda": 1.0},
        "c": {"poly": "1"},
        "f": {"poly": "0"},
        "boundary": {"poly": "0"},
        "grid": {"lower": [-1, -1, -1], "upper": [1, 1, 1], "counts": [9, 9, 9]},
        "sample_width": bad,
    }
    with pytest.raises(ValueError, match="sample_width"):
        ProblemSpec.from_config(cfg)
    with pytest.raises(ValueError, match="sample_width must be positive with finite square"):
        ProblemSpec(SUB, ONE, ZERO, ZERO, box(9), sample_width=bad)


def test_stencil_hessian_consistency_under_refinement():
    # interpolation bias limits the monotone scheme to first order; see the
    # decisions ledger for why the spec's 1.5 is unattainable here
    u = parse_polynomial("x1^2 x3 + 0.5 x3^2 x2 - x2^2 x3^2")
    errs = []
    for n in (17, 33, 65):
        g = box(n)
        idx = tuple((c - 1) // 2 + 1 for c in g.counts)
        p = g.points()[np.ravel_multi_index(idx, g.counts)]
        exact = h_hessian(u, p[None])[0]
        errs.append(np.abs(stencil_matrix(u, g, idx) - exact).max())
    order = np.log2(errs[0] / errs[2]) / 2
    assert errs[2] < errs[0]
    assert order >= 0.8


def test_integer_bracket_solves_as_its_float_bracket_bitwise():
    # an int bracket made Pucci's slopes int arrays, which could not hold
    # the float quotients of linearize in the coarse solve
    bracket = EllipticityBracket(1, 4)
    assert (type(bracket.lam), type(bracket.Lam)) == (float, float)
    u_star = parse_polynomial("x1^2 - x2^2")
    results = []
    for b in (bracket, EllipticityBracket(1.0, 4.0)):
        op = OperatorSpec("pucci_plus", b)
        results.append(solve(ProblemSpec(op, ONE, manufacture(u_star, op, ONE), u_star, box(9))))
    ints, floats = results
    assert ints.converged
    assert ints.u.values.tobytes() == floats.u.values.tobytes()


def test_solve_manufactured_quadratic():
    u_star, prob = manufactured_problem(33, tol=1e-6)
    res = solve(prob)
    assert res.converged
    exact = GridFunction.from_field(prob.grid, u_star)
    assert max_interior_abs_diff(res.u, exact) <= 5e-2
    assert res.residual < prob.tol
    assert not np.isnan(res.u.values).any()


def test_solve_zero_data_gives_zero():
    prob = ProblemSpec(SUB, ONE, ZERO, ZERO, box(17), tol=1e-8)
    res = solve(prob)
    assert res.converged
    assert np.abs(res.u.values).max() <= 10 * prob.tol


def test_pucci_equal_brackets_match_sublaplacian():
    u_star = parse_polynomial("x1^2 + x2^2 - 0.5 x1 x2")
    f = manufacture(u_star, SUB, ONE)
    base = dict(c=ONE, f=f, boundary=u_star, grid=box(9), tol=1e-10)
    res_sub = solve(ProblemSpec(op=SUB, **base))
    pucci = OperatorSpec("pucci_plus", EllipticityBracket(1.0, 1.0))
    res_pucci = solve(ProblemSpec(op=pucci, **base))
    assert res_sub.converged and res_pucci.converged
    assert np.abs(res_sub.u.values - res_pucci.u.values).max() <= 1e-8


def test_step_fixed_point_and_validation():
    # zero data: the zero function is a fixed point of the Jacobi step
    disc = Discretization(ProblemSpec(SUB, ONE, ZERO, ZERO, box(9), tol=1e-8))
    flat = np.zeros(disc.grid.n_nodes)
    disc.smooth(flat, disc.f_int, 1, [])
    res = disc.residual_interior(flat, disc.f_int)
    assert not flat.any() and not res.any()


def test_step_resets_boundary_and_reports_nan():
    u_star, prob = manufactured_problem(9)
    disc = Discretization(prob)
    flat = np.ones(prob.grid.n_nodes)
    disc.enforce_boundary(flat)
    bmask = ~prob.grid.interior_mask().ravel()
    expected = u_star.value_batch(prob.grid.points())
    assert np.allclose(flat[bmask], expected[bmask], rtol=1e-14)
    bad = np.ones(prob.grid.counts)
    bad[4, 4, 4] = np.inf
    with pytest.raises(ArithmeticError, match=r"node"):
        disc.smooth(bad.ravel(), disc.f_int, 1, [])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_advance_names_the_first_non_finite_update(bad):
    _, prob = manufactured_problem(9)
    disc = Discretization(prob)
    flat = np.zeros(prob.grid.n_nodes)
    res = np.ones(disc.stencil.shape)
    res[2, 5, 1] = res[6, 0, 3] = bad
    with pytest.raises(ArithmeticError, match=r"non-finite update at node \(3, 6, 2\)"):
        disc.advance(flat, res.ravel(), disc.tau)
    assert not flat.any()  # nothing is written
    disc.advance(flat, np.ones(res.size), 0.5)
    assert (_interior(flat, prob.grid.counts) == 0.5).all()


@pytest.mark.parametrize(
    "counts,c",
    [((9, 9, 9), "1 + x1^2 - 0.3 x2 x3"), ((17, 12, 7), "2 + x1 x2 x3 + 0.5 x3^2 - x2^3")],
)
def test_interior_c_is_the_interior_evaluation_bitwise(counts, c):
    # c is evaluated once on every node; its interior slice is what an
    # evaluation on the interior nodes alone gives
    grid = Grid3.box((-1.0, -0.7, -1.3), (0.9, 1.1, 1.2), counts)
    field = parse_polynomial(c)
    disc = Discretization(ProblemSpec(SUB, field, ZERO, ZERO, grid))
    inner = _interior(grid.points(), counts + (3,)).reshape(-1, 3)
    assert disc.c_int.tobytes() == field.value_batch(inner).tobytes()
    assert disc.tau == cfl_tau(disc.rho, 2.0, float(field.value_batch(grid.points()).max()))


def _bad_at(point, value=np.nan, elsewhere=1.0):
    """A field equal to `elsewhere` but at `point`, where it is `value`."""
    return NumericField(lambda pts: np.where(np.all(pts == point, axis=1), value, elsewhere))


def _nan_off_box(pts):
    """0 on the box [-1, 1]^3 and NaN off it."""
    return np.where(np.abs(pts).max(axis=1) <= 1.0, 0.0, np.nan)


TALL = Grid3.box((-1, -1, -1e160), (1, 1, 1e160), (9, 9, 9))


@pytest.mark.parametrize(
    "c,f,boundary,grid,words",
    [
        (_bad_at([-0.5, -0.25, 0.0]), ZERO, ZERO, box(9), "c must be finite on the grid, "
         "got nan at node (2, 3, 4)"),
        # x3^2 overflows at the top and bottom of the tall box
        (parse_polynomial("1 + x3^2"), ZERO, ZERO, TALL, "c must be finite on the grid, "
         "got inf at node (0, 0, 0)"),
        (ONE, _bad_at([0.25, -0.75, 0.5], -np.inf, 0.0), ZERO, box(9), "f must be finite "
         "on the grid, got -inf at node (5, 1, 6)"),
        (ONE, ZERO, _bad_at([1.0, 0.0, -1.0], np.inf, 0.0), box(9), "boundary must be "
         "finite on the grid, got inf at node (8, 4, 0)"),
        (ONE, ZERO, NumericField(_nan_off_box), box(9), "boundary off the box along 1 X + 0 Y "
         "must be finite on the grid, got nan at node ("),
    ],
    ids=["c-nan", "c-overflow", "f", "boundary-node", "boundary-off-box"],
)
def test_level_set_up_rejects_non_finite_data(c, f, boundary, grid, words):
    with np.errstate(over="ignore"):
        prob = ProblemSpec(SUB, c, f, boundary, grid)
        with pytest.raises(ValueError) as err:
            Discretization(prob)
    assert words in str(err.value), err.value


# (x1 - 1/3)^2 - 0.001: at least 0.0027 on every node of the 12^3 grid over
# [-1, 1]^3, but -0.001 at x1 = 1/3, a node of its 7^3 coarse level
NEGATIVE_ON_A_COARSE_LEVEL = "x1^2 - 0.6666666666666666 x1 + 0.11011111111111111"


def test_negative_c_on_a_coarse_level_is_rejected():
    c = parse_polynomial(NEGATIVE_ON_A_COARSE_LEVEL)
    prob = ProblemSpec(SUB, c, ZERO, ZERO, box(12))
    assert c.value_batch(prob.grid.points()).min() > 0.0026
    with pytest.raises(ValueError) as err:
        solve(prob)
    assert str(err.value).startswith("c must be nonnegative on every level, got -0.000999")
    assert str(err.value).endswith("at node (4, 0, 0) of the (7, 7, 7) level")


def test_negative_c_on_a_finest_node_fails_the_solve_once():
    # the finest level's own check rejects it; building the problem reads no c
    calls = []
    negative = _bad_at([0.25, -0.75, 0.5], -1.0, 1.0)
    c = NumericField(lambda pts: calls.append(len(pts)) or negative.value_batch(pts))
    prob = ProblemSpec(SUB, c, ZERO, ZERO, box(9))
    assert calls == []
    with pytest.raises(ValueError) as err:
        solve(prob)
    assert str(err.value) == (
        "c must be nonnegative on every level, got -1.0 at node (5, 1, 6) of the (9, 9, 9) level"
    )
    assert calls == [9**3]


def test_residual_norm_zero_and_discretization_scale():
    prob0 = ProblemSpec(SUB, ONE, ZERO, ZERO, box(9))
    assert residual_norm(GridFunction.zeros(prob0.grid), prob0) == 0.0
    # exact samples leave only the O(h^2 + bias) discretization residual
    u_star = parse_polynomial("x1^2 x3 - x3^2 + x2^2")
    f = manufacture(u_star, SUB, ONE)
    norms = []
    for n in (17, 33):
        prob = ProblemSpec(SUB, ONE, f, boundary=u_star, grid=box(n))
        norms.append(residual_norm(GridFunction.from_field(prob.grid, u_star), prob))
    assert norms[0] > 0
    assert norms[1] < norms[0]


def test_solve_flags_nonconvergence(monkeypatch):
    # a cap of one cycle stops the solve far from tol
    monkeypatch.setattr(_Multilevel, "MAX_CYCLES", 1)
    prob = ProblemSpec(SUB, ONE, ONE, ZERO, box(9), tol=1e-14)
    res = solve(prob)
    assert not res.converged
    assert res.cycles == 1
    assert res.iterations == 2 * _Multilevel.SWEEPS
    assert res.residual > prob.tol
    assert residual_norm(res.u, prob) == res.residual


def test_solve_stops_at_the_cycle_cap():
    # tol 1e-16 is below the rounding of the stencil residual, and a 7^3
    # Newton solve runs no sweeps, so only the cycle cap stops it
    prob = ProblemSpec(SUB, ONE, ONE, ZERO, box(7), tol=1e-16)
    res = solve(prob)
    assert not res.converged
    assert res.cycles == _Multilevel.MAX_CYCLES == len(res.cycle_residuals)
    assert res.iterations == 0
    assert residual_norm(res.u, prob) == res.residual


def _shift(field, delta):
    from heisenpde.fields import NumericField

    return NumericField(lambda pts, f=field, d=delta: f.value_batch(pts) + d)


def test_comparison_principle_desk_scale():
    # boundary1 <= boundary2 and f1 >= f2 pointwise => u1 <= u2 + 10 tol
    u_star = parse_polynomial("x1^2 + x2^2")
    f = manufacture(u_star, SUB, ONE)
    base = dict(grid=box(17), tol=1e-8)
    res1 = solve(ProblemSpec(SUB, ONE, f, boundary=u_star - parse_polynomial("0.25"), **base))
    res2 = solve(ProblemSpec(SUB, ONE, _shift(f, -0.25), boundary=u_star, **base))
    assert res1.converged and res2.converged
    assert (res1.u.values <= res2.u.values + 10 * 1e-8).all()


def test_degenerate_direction_x3():
    # u(x) = x3 is harmonic for the horizontal operator; with c = 0, f = 0 the
    # solver must reproduce it
    x3 = PolynomialField.coordinate(2)
    prob = ProblemSpec(SUB, ZERO, ZERO, boundary=x3, grid=box(17), tol=1e-9)
    res = solve(prob)
    exact = GridFunction.from_field(prob.grid, x3)
    assert res.converged
    assert max_interior_abs_diff(res.u, exact) <= 10 * prob.tol
    # and the pure iteration recovers it from a perturbed start
    prob2 = ProblemSpec(SUB, ZERO, ZERO, boundary=x3, grid=box(7), tol=1e-9)
    exact2 = GridFunction.from_field(prob2.grid, x3)
    u = GridFunction.from_field(prob2.grid, x3)
    u.values[1:-1, 1:-1, 1:-1] += 0.1
    u = pure_iteration(prob2, u, 4000)
    assert max_interior_abs_diff(u, exact2) <= 10 * prob2.tol


def test_large_c_contracts_through_zeroth_order_term():
    # with c >> 1/tau the update is dominated by the -c u term and the
    # iteration contracts onto u = -f / c regardless of the diffusion
    big_c = PolynomialField.constant(1e4)
    f = PolynomialField.constant(-2e4)
    k = PolynomialField.constant(2.0)
    prob = ProblemSpec(SUB, big_c, f, boundary=k, grid=box(7), tol=1e-6)
    res = solve(prob)
    assert res.converged
    assert np.abs(res.u.values - 2.0).max() <= 1e-8


def test_residual_monotone_after_warmup():
    u_star, prob = manufactured_problem(17, tol=1e-9)
    from heisenpde.solver import Discretization

    disc = Discretization(prob)
    flat = disc.initial_values()
    disc.enforce_boundary(flat)
    history = []
    for _ in range(300):
        disc.smooth(flat, disc.f_int, 1, [])
        history.append(np.abs(disc.residual_interior(flat, disc.f_int)).max())
    tail = np.array(history[10:])
    assert (np.diff(tail) <= 1e-12 * max(1.0, tail[0])).all()


def test_multilevel_and_pure_agree():
    # 9^3 runs V-cycles, and so does 12^3, over a 7^3 coarsest level; 7^3 has
    # no axis of 8 nodes, so its one level is solved by Newton on the probed
    # map, from a start far from the solution
    u_star = parse_polynomial("x1^2 + x2^2 - x1 x2")
    manufactured = dict(f=manufacture(u_star, SUB, ONE), boundary=u_star)
    far = dict(f=parse_polynomial("1 + x1 x2"), boundary=ZERO)
    for n, data in ((9, manufactured), (7, far), (12, far)):
        prob = ProblemSpec(SUB, ONE, grid=box(n), tol=1e-10, **data)
        res_ml = solve(prob)
        # the pure iteration from the solver's start, the boundary data at every node
        pure = pure_iteration(prob, GridFunction.from_field(prob.grid, prob.boundary), 100_000)
        assert res_ml.converged
        assert residual_norm(pure, prob) < prob.tol
        assert np.abs(res_ml.u.values - pure.values).max() <= 20 * 1e-10
        assert residual_norm(res_ml.u, prob) == res_ml.residual
        if n == 9:
            assert res_ml.cycles > 0
        elif n == 7:
            assert res_ml.levels == [prob.grid.counts]
            assert res_ml.iterations == 0 and res_ml.coarse_newton_steps > 0
        else:
            assert res_ml.levels == [(12, 12, 12), (7, 7, 7)]
            assert res_ml.iterations > 0 and res_ml.coarse_newton_steps > 0


def test_manufacture_examples_and_validation():
    c = ONE
    zero = PolynomialField.constant(0)
    f0 = manufacture(zero, SUB, c)
    pts = np.array([[0.3, -0.2, 1.0]])
    assert f0.value_batch(pts)[0] == 0.0
    u_star = parse_polynomial("x1^2 + x2^2")
    f = manufacture(u_star, SUB, c)
    # f = 4 - (x1^2 + x2^2)
    expected = 4.0 - (0.3**2 + (-0.2) ** 2)
    assert np.isclose(f.value_batch(pts)[0], expected, rtol=1e-14)
    with pytest.raises(ValueError):
        manufacture(_shift(u_star, 0.0), SUB, c)


def oracle_samples(grid, boundary, flat, rho):
    """The samples along the four lines' arms, then the centre values: each sample
    p + rho (cx X + cy Y) located on its own, trilinear in u inside the box,
    the boundary field outside."""
    pts = grid.points().reshape(grid.counts + (3,))[1:-1, 1:-1, 1:-1].reshape(-1, 3)
    x_dir, y_dir = frame_batch(pts)
    lower, upper = np.array(grid.lower), np.array(grid.upper)
    eps = 1e-12 * max(upper - lower)
    u = GridFunction(grid, flat)
    rows = []
    for cx, cy in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1)):
        q = pts + rho * (cx * x_dir + cy * y_dir)
        inside = np.all((q >= lower - eps) & (q <= upper + eps), axis=1)
        vals = boundary.value_batch(q)
        vals[inside] = u.value_batch(q[inside])
        rows.append(vals)
    rows.append(u.values[1:-1, 1:-1, 1:-1].ravel())
    return np.array(rows)


def oracle_hessian(grid, boundary, flat, rho):
    """The second differences of the oracle samples along X, Y, X + Y and
    X - Y, written out."""
    s = oracle_samples(grid, boundary, flat, rho)
    return np.array([(s[2 * j] + s[2 * j + 1] - 2 * s[8]) / rho**2 for j in range(4)])


@pytest.mark.parametrize(
    "grid,boundary,width",
    [
        (box(17), ZERO, None),
        # unequal spacings, both horizontal fractions nonzero: 4 corners
        (Grid3.box((0.3, -0.7, 0.1), (1.4, 0.2, 0.9), (21, 17, 19)), ZERO, 0.137),
        (box(5), ZERO, None),
        (box(17), parse_polynomial("x1^2 x3 - x2 + 0.5 x3^2"), None),
    ],
    ids=["cube17", "off-centre-4-corners", "coarse-rho-h", "poly-boundary"],
)
def test_stencil_matches_per_sample_oracle(grid, boundary, width):
    disc = four_line_disc(grid, boundary, width)
    if width is not None:
        assert disc.stencil.directions[4].weights.shape == (2, 2)
    if grid.counts == (5, 5, 5):
        assert disc.rho == grid.spacings[0]
    flat = np.random.default_rng(3).standard_normal(grid.n_nodes)
    got = disc.stencil.hessian_components(flat)
    want = oracle_hessian(grid, boundary, flat, disc.rho)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_stencil_storage_below_5_bytes_per_sample():
    # the four lines' 8 samples per node; the sub-Laplacian's stencil stores
    # the arrays of its 4 samples only
    nbytes = {}
    for op in (PUCCI_PLUS, SUB):
        stencil = Discretization(ProblemSpec(op, ONE, ZERO, ZERO, box(33))).stencil
        nbytes[op.kind] = stencil.copy.nbytes + sum(a.nbytes for d in stencil.directions for a in d)
        assert len(stencil.arms) == 2 * len(op.hessian_rows)
    assert nbytes["pucci_plus"] < 5 * (8 * 31**3)
    assert nbytes["sublaplacian"] < nbytes["pucci_plus"]


def test_discretization_belongs_to_its_problem():
    prob = ProblemSpec(SUB, ONE, ZERO, ZERO, box(9), tol=1e-8)
    res = solve(prob)
    disc = prob.multilevel.levels[0]
    residual_norm(res.u, prob)
    pure_iteration(prob, res.u, 1)
    assert prob.multilevel.levels[0] is disc
    ref = weakref.ref(disc)
    del disc, prob
    assert ref() is None


def test_solve_reports_levels_and_cycle_residuals():
    u_star, prob = manufactured_problem(17, tol=1e-6)
    res = solve(prob)
    assert res.levels == [(17, 17, 17), (9, 9, 9), (5, 5, 5)]
    assert res.rho == sample_step(prob.grid)
    assert len(res.cycle_residuals) == res.cycles
    assert res.cycle_residuals[-1] == res.residual
    assert 0 < res.outside_fraction < 1


def test_solve_reports_work_per_level():
    u_star, prob = manufactured_problem(17, tol=1e-6)
    first, again = solve(prob), solve(prob)
    assert len(first.level_evals) == len(first.levels)
    assert min(first.level_evals) > 0 and first.coarse_newton_steps > 0
    # counted per solve, although the finest level is kept by the problem
    assert (again.level_evals, again.coarse_newton_steps) == (
        first.level_evals,
        first.coarse_newton_steps,
    )
    # residuals are passed on, not recomputed: per V-cycle 3 pre-smoothing
    # sweeps from the stopping test's residual, 1 to restrict and 3 for
    # post-smoothing, then 1 for the residual of the iterate solve keeps,
    # plus 1 per rejected mix for the residual of the cycle's own result
    assert first.level_evals[0] == 7 * first.cycles + 1 + first.anderson_rejected
    assert first.iterations == 2 * _Multilevel.SWEEPS * first.cycles
    # an intermediate level is visited once per V-cycle and once by the nested
    # iteration, each time for 3 + 1 + 3 evaluations: the V-cycle evaluates
    # no residual of its result
    assert first.level_evals[1] == 7 * (first.cycles + 1)
    assert first.level_sweeps == [
        2 * _Multilevel.SWEEPS * first.cycles,
        2 * _Multilevel.SWEEPS * (first.cycles + 1),
        0,
    ]
    # the carried residual is the one a fresh evaluation gives
    assert residual_norm(first.u, prob) == first.residual
    diag = first.to_dict()
    assert diag["level_evals"] == first.level_evals
    assert diag["coarse_newton_steps"] == first.coarse_newton_steps
    assert diag["level_sweeps"] == first.level_sweeps
    assert (diag["anderson_accepted"], diag["anderson_rejected"]) == (
        first.anderson_accepted,
        first.anderson_rejected,
    )
    # each level above the coarsest records its smoothing interval and the
    # weights of its SWEEPS sweeps, as JSON lists
    levels = prob.multilevel.levels[:-1]
    assert diag["smoothing_intervals"] == [list(level.interval) for level in levels]
    assert diag["smoothing_weights"] == [
        list(chebyshev_weights(level.interval, _Multilevel.SWEEPS)) for level in levels
    ]
    assert json.loads(json.dumps(diag)) == diag


POLY_BOUNDARY = parse_polynomial("x1^2 x3 - x2 + 0.5 x3^2")


@pytest.mark.parametrize("n,coarsest", [(17, 5), (11, 6)])
def test_probed_coarse_map_matches_stencil(n, coarsest):
    # Pucci+ reads all four lines; the X and Y samples of the 5^3 level stay
    # in the box, and diagonal ones leave it
    prob = ProblemSpec(PUCCI_PLUS, ONE, ZERO, POLY_BOUNDARY, box(n))
    ml = _Multilevel(prob)
    disc = ml.levels[-1]
    assert disc.grid.counts == (coarsest,) * 3
    assert disc.stencil.outside_fraction > 0
    rng = np.random.default_rng(11)
    for _ in range(3):
        flat = rng.standard_normal(disc.grid.n_nodes)
        edge = flat.copy()
        _interior(edge, disc.grid.counts)[...] = 0.0
        probed = ml.dense @ _interior(flat, disc.grid.counts).ravel()
        probed += disc.stencil.hessian_components(edge)
        want = disc.stencil.hessian_components(flat)
        assert np.abs(probed - want).max() <= 1e-13 * np.abs(want).max()


COARSE_KINDS = {
    "sublaplacian": SUB,
    "trace_linear": OperatorSpec(
        "trace_linear", EllipticityBracket(0.5, 1.5), coeff=Sym2(1.0, 0.4, 1.0)
    ),
    "pucci_plus": OperatorSpec("pucci_plus", EllipticityBracket(1.0, 4.0)),
    "pucci_minus": OperatorSpec("pucci_minus", EllipticityBracket(1.0, 4.0)),
}
PUCCI_PLUS = COARSE_KINDS["pucci_plus"]


@pytest.mark.parametrize("kind", sorted(COARSE_KINDS))
def test_coarse_solve_meets_its_test(kind):
    # rhs = T(target) for a random interior: coarse_solve must find target
    prob = ProblemSpec(COARSE_KINDS[kind], ONE, ONE, POLY_BOUNDARY, box(9))
    ml = _Multilevel(prob)
    disc = ml.levels[-1]
    target = disc.initial_values()
    disc.enforce_boundary(target)
    inner = _interior(target, disc.grid.counts)
    inner += np.random.default_rng(5).standard_normal(inner.shape)
    rhs = disc.apply_nonlinearity(target)
    flat = disc.initial_values()
    disc.enforce_boundary(flat)
    ml.coarse_solve(flat, rhs)
    assert 0 < ml.newton_steps < ml.NEWTON_MAX
    assert np.abs(disc.apply_nonlinearity(flat) - rhs).max() < 1e-14 * np.abs(rhs).max()
    assert np.abs(flat - target).max() < 1e-13


def test_pucci_coarsest_level_evaluated_once_per_visit(monkeypatch):
    calls = []
    apply = Discretization.apply_nonlinearity

    def counted(self, flat):
        calls.append(self.grid.counts)
        return apply(self, flat)

    monkeypatch.setattr(Discretization, "apply_nonlinearity", counted)
    u_star = parse_polynomial("x1^2 - x2^2")
    op = COARSE_KINDS["pucci_plus"]
    prob = ProblemSpec(op, ONE, manufacture(u_star, op, ONE), u_star, box(17), tol=1e-6)
    res = solve(prob)
    assert res.converged and res.levels[-1] == (5, 5, 5)
    assert calls.count((5, 5, 5)) <= res.cycles + len(res.levels)
    # every level but the coarsest is evaluated only through apply_nonlinearity
    assert res.level_evals[:-1] == [calls.count(counts) for counts in res.levels[:-1]]
    # each coarsest-level solve (one per V-cycle, len(levels) - 1 in the
    # nested iteration) evaluates T once per Newton step and once to stop
    coarse_solves = res.cycles + len(res.levels) - 1
    newton_evals = coarse_solves + res.coarse_newton_steps
    assert res.level_evals[-1] == calls.count((5, 5, 5)) + newton_evals


def pipeline_problem(n):
    """The problem of configs/pipeline.json (the sub-Laplacian) on n^3 nodes."""
    path = Path(__file__).resolve().parents[1] / "configs" / "pipeline.json"
    cfg = json.loads(path.read_text())["problem"]
    cfg["grid"]["counts"] = [n, n, n]
    return ProblemSpec.from_config(cfg)


@pytest.mark.parametrize("n", [17, 33])
def test_linear_coarse_solve_takes_one_newton_step(n):
    # Newton's Jacobian from F's exact slopes is exact for a linear kind, so
    # each coarsest-level solve of the pipeline problem (one per V-cycle,
    # len(levels) - 1 in the nested iteration) stops after one step
    res = solve(pipeline_problem(n))
    assert res.converged and res.levels[-1] == (5, 5, 5)
    assert res.coarse_newton_steps == res.cycles + len(res.levels) - 1


@pytest.mark.parametrize("which", ["pucci-plus-17", "pipeline-17"])
def test_repeat_solve_reuses_the_hierarchy_bitwise(which, monkeypatch):
    # the problem keeps its V-cycle hierarchy (ProblemSpec.multilevel): a
    # second solve builds no Discretization, where a fresh, equal problem
    # builds one per level, and both give bitwise the first solve's u and
    # diagnostics, the per-level counts included
    prob = pucci_problem(17) if which == "pucci-plus-17" else pipeline_problem(17)
    first = solve(prob)
    finest = prob.multilevel.levels[0]
    builds = []
    build = Discretization.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        build(self, *args, **kwargs)

    monkeypatch.setattr(Discretization, "__init__", counted)
    fresh_prob = replace(prob)
    assert fresh_prob == prob and fresh_prob is not prob
    fresh = solve(fresh_prob)
    assert len(builds) == len(first.levels)
    builds.clear()
    again = solve(prob)
    assert builds == []
    assert prob.multilevel.levels[0] is finest
    for other in (again, fresh):
        assert other.u.values.tobytes() == first.u.values.tobytes()
        assert other.to_dict() == first.to_dict()
    assert first.converged and first.cycles > 1 and first.coarse_newton_steps > 0


def min_off_diagonal(disc):
    """Per line of disc's stencil, the least off-diagonal entry of its row's
    matrix over the interior nodes, probed one interior unit vector at a
    time; the boundary data must be zero, so that the probe is the column."""
    counts = disc.grid.counts
    flat = np.zeros(disc.grid.n_nodes)
    inner = _interior(flat, counts)
    assert not disc.stencil.hessian_components(flat).any()
    least = np.full(len(disc.stencil.arms) // 2, np.inf)
    for k, idx in enumerate(np.ndindex(inner.shape)):
        inner[idx] = 1.0
        column = disc.stencil.hessian_components(flat)
        inner[idx] = 0.0
        column[:, k] = np.inf
        least = np.minimum(least, column.min(axis=1))
    return least


@pytest.mark.parametrize("n,width", [(9, None), (9, 1.5), (12, None), (12, 1.5), (17, None)])
def test_direction_rows_are_monotone(n, width):
    # each row D_v weighs its two samples, trilinear interpolations, by
    # 1 / rho^2, so no row has a negative off-diagonal entry; at 17^3 the
    # default rho is 1.5 h.  Every kind reads a subset of these rows.
    grid = box(n)
    sample_width = None if width is None else width * grid.horizontal_spacing
    disc = Discretization(ProblemSpec(PUCCI_PLUS, ONE, ZERO, ZERO, grid, sample_width=sample_width))
    assert disc.stencil.outside_fraction > 0
    assert disc.rho == (1.5 if width or n == 17 else 1.0) * grid.horizontal_spacing
    assert PUCCI_PLUS.hessian_rows == DIRECTIONS
    assert all(set(op.hessian_rows) <= set(DIRECTIONS) for op in COARSE_KINDS.values())
    assert min_off_diagonal(disc).min() >= 0.0


MONOTONE_KINDS = {
    "sublaplacian": SUB,
    "trace_linear_diagonal": OperatorSpec(
        "trace_linear", EllipticityBracket(0.5, 1.5), coeff=Sym2(1.0, 0.0, 1.2)
    ),
}


@pytest.mark.parametrize("kind", sorted(MONOTONE_KINDS))
def test_scheme_is_monotone_when_f_ignores_hxy(kind):
    # the Jacobian sum_k diag(dF/dh_k) M_k of the stencil, from F's exact
    # slopes, has no negative off-diagonal entry; kinds whose F depends on
    # h_xy do not have this
    op = MONOTONE_KINDS[kind]
    disc = Discretization(ProblemSpec(op, ONE, ZERO, ZERO, box(9)))
    m = _probe(disc)
    g = SplitMix64(0, "monotone")
    for _ in range(3):
        flat = g.uniform(disc.grid.n_nodes, -1.0, 1.0)
        _, slopes = op.linearize(disc.stencil.hessian_components(flat))
        jac = np.einsum("kn,knm->nm", slopes, m)
        np.fill_diagonal(jac, 0.0)
        assert jac.min() >= 0.0


MONOTONE_STEPS = {
    "sublaplacian": (SUB, ONE),
    "trace_linear_diagonal": (MONOTONE_KINDS["trace_linear_diagonal"], ONE),
    # Lam < 1 with a large c: the zero-order term dominates the diagonal
    "trace_linear_low_bracket_c1000": (
        OperatorSpec("trace_linear", EllipticityBracket(0.25, 0.25), coeff=Sym2(0.25, 0.0, 0.25)),
        PolynomialField.constant(1000),
    ),
}


@pytest.mark.parametrize("width", [None, 0.375], ids=["rho-h", "rho-1.5h"])
@pytest.mark.parametrize("kind", sorted(MONOTONE_STEPS))
def test_plain_step_is_monotone_at_the_shipped_tau(kind, width):
    # u + omega tau T(u) is monotone in u when I + omega tau J >= 0, J =
    # sum_k diag(dF/dh_k) M_k - diag(c) the Jacobian of T: the off-diagonal
    # entries are those of the test above, and tau, the plain Jacobi step,
    # keeps tau |J_ii| <= 1, so a weight omega <= 1 keeps the diagonal
    # 1 + omega tau J_ii >= 0.  A Chebyshev weight above 1 makes it negative
    # where c_i = c_max: that sweep is not a monotone map, though the scheme
    # it iterates is.  At rho = h (9^3) and at 1.5 h every horizontal
    # interpolation weight is 1 or 1/2.
    op, c = MONOTONE_STEPS[kind]
    disc = Discretization(ProblemSpec(op, c, ZERO, ZERO, box(9), sample_width=width))
    assert disc.rho == (width or 0.25)
    # F is linear for these kinds: its exact slopes are its coefficients
    rows = disc.stencil.hessian_components(np.zeros(9**3))
    _, slopes = op.linearize(rows)
    jac = np.einsum("kn,knm->nm", slopes, _probe(disc)) - np.diag(disc.c_int)
    assert disc.tau * np.abs(np.diag(jac)).max() <= 1 + 1e-12
    weights = chebyshev_weights(disc.interval, _Multilevel.SWEEPS)
    assert min(weights) < 1 < max(weights)
    for omega in (1.0, *weights):
        step = np.eye(len(jac)) + omega * disc.tau * jac
        if omega <= 1:
            assert step.min() >= -1e-12
        elif omega > 1 + 1e-12:
            assert np.diag(step).min() < 0


STEP_KINDS = {**COARSE_KINDS, "trace_linear_diagonal": MONOTONE_KINDS["trace_linear_diagonal"]}


@pytest.mark.parametrize("kind", sorted(STEP_KINDS))
def test_each_nodes_step_is_four_fifths_of_its_own_diagonal(kind):
    # J_ii = sum_k dF/dh_k M_k,ii - c_i is the diagonal of T's Jacobian at
    # the iterate, from F's exact slopes; the step of weight omega at each
    # node, from the evaluation at that iterate, makes tau_i |J_ii| omega
    # where the slope sum is exact (the linear kinds, and Pucci off the lam
    # corner) and less on the lam corner, where the sum is floored.  The
    # weights checked are 4/5, the plain damped sweep's, and the level's
    # Chebyshev weights.
    op = STEP_KINDS[kind]
    disc = Discretization(ProblemSpec(op, ONE, ZERO, ZERO, box(9)))
    centre = np.einsum("kii->ki", _probe(disc))
    g = SplitMix64(0, f"step-{kind}")
    lam_corner = saddles = 0
    weights = (0.8, *chebyshev_weights(disc.interval, _Multilevel.SWEEPS))
    for _ in range(3):
        flat = g.uniform(disc.grid.n_nodes, -1.0, 1.0)
        rows = disc.stencil.hessian_components(flat)
        _, slopes = op.linearize(rows)
        jii = np.einsum("kn,kn->n", slopes, centre) - disc.c_int
        disc.apply_nonlinearity(flat)
        on_lam = np.zeros(jii.size, dtype=bool)
        if op.kind.startswith("pucci"):
            lo, hi = eigenvalues2(rows[0], cross_term(rows[2], rows[3]), rows[1])
            on_lam = (hi < 0) if op.kind == "pucci_plus" else (lo > 0)
            lam_corner += on_lam.sum()
            saddles += ((lo < 0) & (hi > 0)).sum()
        for omega in weights:
            ratio = np.ravel(disc.step(omega)) * np.abs(jii)
            assert ratio[~on_lam] == pytest.approx(omega, rel=1e-14)
            assert (ratio[on_lam] < omega).all()
    if op.kind.startswith("pucci"):
        assert lam_corner > 0 and saddles > 0
    if op.kind == "sublaplacian":
        assert disc.step(0.8) == cfl_tau(disc.rho, 2.0, 1.0, 0.8)


def test_smooth_moves_each_node_by_the_step_of_its_residual():
    # one Pucci sweep is u + tau_i res_i, tau_i = cfl_tau on the sum of F's
    # exact D_X and D_Y slopes at u, floored at lam + Lam, with the weight
    # of one Chebyshev sweep on the level's interval, 2 / (a + b), whether
    # the residual is handed in or evaluated.  For the bracket (1, 4) each
    # sum is one of the integers 2, 5 and 8 up to rounding.
    prob = pucci_problem(9)
    disc = Discretization(prob)
    start = disc.initial_values() + SplitMix64(3, "smooth-step").uniform(9**3, -0.5, 0.5)
    disc.enforce_boundary(start)
    res = disc.residual_interior(start, disc.f_int)
    _, slopes = prob.op.linearize(disc.stencil.hessian_components(start))
    sums = slopes[0] + slopes[1]
    assert np.abs(sums - np.rint(sums)).max() < 1e-14
    assert 0 < np.count_nonzero(np.rint(sums) == 8.0) < sums.size
    want = start.copy()
    (omega,) = chebyshev_weights(disc.interval, 1)
    assert omega == 2.0 / sum(disc.interval)
    step = cfl_tau(disc.rho, np.maximum(np.rint(sums), 5.0), disc.c_max, omega)
    _interior(want, prob.grid.counts)[...] += (step * res).reshape(disc.stencil.shape)
    for held in ([res], []):
        flat = start.copy()
        disc.smooth(flat, disc.f_int, 1, held)
        assert flat.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "c,pucci",
    [(0, False), (10**4, False), (1, True)],
    ids=["sublaplacian-c0", "sublaplacian-c1e4", "pucci-plus-16-c1"],
)
def test_smoothing_interval_rule(c, pucci):
    # per level above the coarsest, r = 2 S / (2 S + c_max rho^2) with S the
    # level's largest slope sum, b = 1 + r and a = max(1 - r, b / ALPHA): at
    # c = 0 the sub-Laplacian's interval is [2 / ALPHA, 2], and at c = 1e4
    # on 17^3 the Gershgorin interval [1 - r, 1 + r] is the shorter one
    op = OperatorSpec("pucci_plus", EllipticityBracket(1.0, 16.0)) if pucci else SUB
    prob = ProblemSpec(op, PolynomialField.constant(c), ZERO, ZERO, box(17))
    levels = prob.multilevel.levels[:-1]
    assert len(levels) == 2
    alpha = _Multilevel.ALPHA
    s_max = 32.0 if pucci else 2.0
    for disc in levels:
        assert disc.s_max == s_max
        r = 2 * s_max / (2 * s_max + c * disc.rho**2)
        a, b = disc.interval
        if c == 0:
            assert (a, b) == (2.0 / alpha, 2.0)
        elif c == 10**4:
            assert (a, b) == (1 - r, 1 + r) and 1 - r > b / alpha
        else:
            assert (a, b) == (max(1 - r, (1 + r) / alpha), 1 + r)
        weights = chebyshev_weights(disc.interval, _Multilevel.SWEEPS)
        assert np.isfinite(weights).all() and min(weights) > 0
        assert list(weights) == sorted(weights) and len(set(weights)) == len(weights)
        # the sweeps' error polynomial prod (1 - omega_k lambda) peaks on
        # [a, b] at the Chebyshev extrema, at 1 / T_3((b + a) / (b - a))
        extrema = (b + a) / 2 + (b - a) / 2 * np.cos(np.arange(4) * np.pi / 3)
        lam = np.concatenate((np.linspace(a, b, 20001), extrema))
        peak = np.abs(np.prod([1 - w * lam for w in weights], axis=0)).max()
        x = (b + a) / (b - a)
        assert peak == pytest.approx(1 / (4 * x**3 - 3 * x), rel=1e-12)


def dense_newton(prob: ProblemSpec) -> np.ndarray:
    """The interior values of the discrete solution of prob by Newton's
    method on the full discrete system, F(M u + b) - c u = f with M the
    probed stencil and F's exact slopes, each step a dense np.linalg.solve,
    from the boundary field's values, until the residual is below
    1e-13 max(1, max |f|)."""
    disc = Discretization(prob)
    m = _probe(disc)
    flat = disc.initial_values()
    inner = _interior(flat, prob.grid.counts)
    u = inner.flatten()
    inner[...] = 0.0
    offset = disc.stencil.hessian_components(flat)
    for _ in range(50):
        vals, slopes = prob.op.linearize(m @ u + offset)
        res = vals - disc.c_int * u - disc.f_int
        if np.abs(res).max() < 1e-13 * max(1.0, np.abs(disc.f_int).max()):
            return u
        jac = np.einsum("kn,knm->nm", slopes, m) - np.diag(disc.c_int)
        u = u - np.linalg.solve(jac, res)
    raise AssertionError("dense Newton did not converge")


@pytest.mark.parametrize("pucci", [False, True], ids=["sublaplacian", "pucci-plus-16"])
def test_chebyshev_sweeps_keep_the_fixed_point(pucci):
    # the weights move the iteration's path, not its fixed point: the solve
    # at tol 1e-12 is the dense Newton solution of the 9^3 discrete system
    op = OperatorSpec("pucci_plus", EllipticityBracket(1.0, 16.0)) if pucci else SUB
    u_star = parse_polynomial("x1^2 - x2^2 + 0.5 x1 x3")
    prob = ProblemSpec(op, ONE, manufacture(u_star, op, ONE), u_star, box(9), tol=1e-12)
    res = solve(prob)
    assert res.converged
    got = _interior(res.u.values, prob.grid.counts).ravel()
    want = dense_newton(prob)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def pucci_problem(n, u_star="x1^2 - x2^2", tol=1e-6):
    u_star = parse_polynomial(u_star)
    f = manufacture(u_star, PUCCI_PLUS, ONE)
    return ProblemSpec(PUCCI_PLUS, ONE, f, u_star, box(n), tol=tol)


def test_anderson_cycle_counts():
    # regression pins of V-cycles and fine evaluations
    sub = solve(manufactured_problem(17, tol=1e-6)[1])
    pucci = solve(pucci_problem(17))
    assert sub.converged and pucci.converged
    assert (sub.cycles, pucci.cycles) == (4, 6)
    assert (sub.level_evals[0], pucci.level_evals[0]) == (29, 43)


@pytest.mark.parametrize(
    "op,c,counts,cycles,evals",
    [
        (OperatorSpec("pucci_plus", EllipticityBracket(1.0, 16.0)), ONE, (17, 17, 17), 9, 64),
        (OperatorSpec("pucci_minus", EllipticityBracket(1.0, 16.0)), ONE, (17, 17, 17), 9, 64),
        (COARSE_KINDS["trace_linear"], ONE, (17, 17, 17), 4, 29),
        (SUB, ZERO, (17, 17, 17), 4, 29),
        (SUB, ONE, (17, 17, 7), 4, 29),
        (PUCCI_PLUS, ONE, (12, 12, 12), 5, 36),
        (*MONOTONE_STEPS["trace_linear_low_bracket_c1000"], (17, 17, 17), 1, 8),
    ],
    ids=["pucci-plus-16", "pucci-minus-16", "trace-linear-a12", "sublaplacian-c0",
         "sublaplacian-semi-coarsened", "pucci-plus-12", "trace-linear-low-bracket-c1000"],
)
def test_cycle_counts_across_kinds_and_grids(op, c, counts, cycles, evals):
    # regression pins of the V-cycle count and of the fine evaluations at the
    # shipped step, over the operator kinds, a zero c, a semi-coarsened and a
    # non-dyadic grid; with Lam < 1 and a large c a step that scaled c_max by
    # Lam diverged
    u_star = parse_polynomial("x1^2 - x2^2 + 0.5 x1 x3")
    grid = Grid3.box((-1, -1, -1), (1, 1, 1), counts)
    res = solve(ProblemSpec(op, c, manufacture(u_star, op, c), u_star, grid, tol=1e-6))
    assert res.converged
    assert (res.cycles, res.level_evals[0]) == (cycles, evals)


# V-cycles of u* = x1^2 - x2^2 + 0.5 x1 x3 at tol 1e-6, over Lam/lam, then c,
# then the grid; every one of these solves converges
CONVERGENCE_MAP = {
    "pucci_plus": (4, 6, 1, 1, 6, 7, 1, 2, 10, 11, 2, 2),
    "trace_linear": (4, 6, 1, 1, 6, 7, 1, 1, 10, 11, 2, 2),
}
MAP_CASES = [
    (kind, ratio, c, counts, cycles)
    for kind, counts_row in CONVERGENCE_MAP.items()
    for (ratio, c, counts), cycles in zip(
        [(r, c, g) for r in (1, 4, 16) for c in (0, 10**4) for g in ((17, 17, 17), (33, 9, 9))],
        counts_row,
    )
]


@pytest.mark.parametrize(
    "kind,ratio,c,counts,cycles",
    MAP_CASES,
    ids=[f"{k}-{r}-c{c}-{'x'.join(map(str, g))}" for k, r, c, g, _ in MAP_CASES],
)
def test_convergence_map(kind, ratio, c, counts, cycles):
    # Pucci+ (1, Lam/lam) and trace_linear with a = diag(Lam/lam, 1): solve
    # flags non-convergence rather than raising, and the cycle counts are pinned
    bracket = EllipticityBracket(1.0, float(ratio))
    if kind == "trace_linear":
        op = OperatorSpec(kind, bracket, coeff=Sym2(float(ratio), 0.0, 1.0))
    else:
        op = OperatorSpec(kind, bracket)
    c = PolynomialField.constant(c)
    u_star = parse_polynomial("x1^2 - x2^2 + 0.5 x1 x3")
    grid = Grid3.box((-1, -1, -1), (1, 1, 1), counts)
    prob = ProblemSpec(op, c, manufacture(u_star, op, c), u_star, grid, tol=1e-6)
    res = solve(prob)
    assert res.converged == (res.residual < prob.tol)
    assert res.cycles == cycles


def manufactured_kind(op, n, u_star):
    """op's problem on the n^3 cube, manufactured from u_star with c = 1."""
    u_star = parse_polynomial(u_star)
    return ProblemSpec(op, ONE, manufacture(u_star, op, ONE), u_star, box(n), tol=1e-6)


def rejecting_problem():
    """Pucci+ (1, 64) at 9^3, whose solve rejects 11 of its mixes."""
    op = OperatorSpec("pucci_plus", EllipticityBracket(1.0, 64.0))
    return manufactured_kind(op, 9, "x1^2 x3 - x2 + 0.5 x3^2")


FINE_EVAL_CASES = {
    "sublaplacian-17": lambda: manufactured_problem(17, tol=1e-6)[1],
    "trace-linear-a12-17": lambda: manufactured_kind(
        COARSE_KINDS["trace_linear"], 17, "x1^2 - x2^2 + 0.5 x1 x3"
    ),
    "pucci-plus-17": lambda: pucci_problem(17),
    "pucci-minus-17": lambda: manufactured_kind(COARSE_KINDS["pucci_minus"], 17, "x1^2 - x2^2"),
    "pucci-plus-64-9-rejects": rejecting_problem,
}


@pytest.mark.parametrize("case", sorted(FINE_EVAL_CASES))
def test_fine_evaluations_are_7_per_cycle_plus_rejected_mixes(case):
    # 1 for the first residual, 7 per cycle (a mixed cycle's last sweep leaves
    # its residual to the mix's), and 1 more per rejected mix: the residual
    # of the cycle's own result, which the mix replaced
    res = solve(FINE_EVAL_CASES[case]())
    assert res.converged
    assert res.level_evals[0] == 7 * res.cycles + 1 + res.anderson_rejected
    assert res.anderson_accepted + res.anderson_rejected == res.cycles - 1
    if case.endswith("rejects"):
        assert (res.cycles, res.anderson_rejected) == (49, 11)


@pytest.mark.parametrize(
    "prob",
    [manufactured_problem(17, tol=1e-6)[1], rejecting_problem()],
    ids=["sublaplacian-17", "pucci-plus-9-rejects"],
)
def test_every_mix_is_accepted_or_rejected(monkeypatch, prob):
    mixes = []
    mix = _Anderson.mix

    def counted(self):
        mixes.append(self.pairs)
        return mix(self)

    monkeypatch.setattr(_Anderson, "mix", counted)
    res = solve(prob)
    assert res.converged
    assert res.anderson_accepted + res.anderson_rejected == len(mixes)
    assert len(res.cycle_residuals) == res.cycles
    # every cycle but the first, which has no difference to mix, is mixed,
    # the one that meets tol included
    assert len(mixes) == res.cycles - 1
    if prob.grid.counts == (9, 9, 9):
        assert res.anderson_rejected > 0


def plain_v_cycles(prob: ProblemSpec) -> tuple[np.ndarray, list]:
    """The unmixed V-cycle iteration of solve, from the same nested
    iteration to the same stopping test: its iterate and its residuals."""
    ml = _Multilevel(prob)
    disc = ml.levels[0]
    flat = ml.fmg_initial()
    held = [disc.residual_interior(flat, disc.f_int)]
    history = []
    while np.abs(held[0]).max() >= prob.tol:
        ml.vcycle(0, flat, disc.f_int, held)
        held.append(disc.residual_interior(flat, disc.f_int))
        history.append(float(np.abs(held[0]).max()))
    return flat, history


def test_rejected_mixes_leave_the_plain_v_cycle(monkeypatch):
    # a mix that is never strictly better than the cycle's input is always
    # rejected: the iterates are then bitwise those of the plain V-cycle
    # iteration, which takes 5 cycles on this problem
    prob = manufactured_problem(17, tol=1e-6)[1]
    plain, history = plain_v_cycles(prob)
    monkeypatch.setattr(_Anderson, "mix", lambda self: self.g + 1.0)
    res = solve(prob)
    assert res.converged and res.cycles == len(history) == 5
    assert np.array_equal(res.u.values.ravel(), plain)
    assert res.cycle_residuals == history
    # every cycle but the first tried a mix, the last, which met tol, included
    assert res.anderson_accepted == 0 and res.anderson_rejected == res.cycles - 1
    assert res.level_evals[0] == 7 * res.cycles + 1 + res.anderson_rejected


def _backward(self):
    # x - (G(x) - x): on this affine T its residual is 2 r(x) - r(G(x))
    return self.g - 2.0 * self.f


def _midway(self):
    # (x + G(x)) / 2: its residual is (r(x) + r(G(x))) / 2
    return self.g - 0.5 * self.f


@pytest.mark.parametrize("mix,kept", [(_backward, False), (_midway, True)], ids=["backward", "midway"])
def test_a_mix_is_kept_when_below_the_cycles_input(monkeypatch, mix, kept):
    # the safeguard compares the mix with the cycle's input x, not with G(x):
    # a mix worse than x is rejected, and one better than x but worse than
    # G(x) is kept
    prob = manufactured_problem(9, tol=1e-6)[1]
    judge = Discretization(prob)  # evaluates apart from the solve's counts
    flat = judge.initial_values()
    judge.enforce_boundary(flat)

    def norm(values):
        _interior(flat, prob.grid.counts)[...] = values
        return float(np.abs(judge.residual_interior(flat, judge.f_int)).max())

    seen = []

    def recorded(self):
        mixed = mix(self)
        seen.append((norm(self.g - self.f), norm(self.g), norm(mixed)))
        return mixed

    monkeypatch.setattr(_Anderson, "mix", recorded)
    res = solve(prob)
    assert res.converged and len(seen) == res.cycles - 1 > 0
    for (x, gx, mixed), after in zip(seen, res.cycle_residuals[1:]):
        assert gx < mixed < x if kept else x < mixed
        assert after == (mixed if kept else gx)
    assert (res.anderson_accepted, res.anderson_rejected) == (
        (len(seen), 0) if kept else (0, len(seen))
    )


def _singular_fit(self):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _non_finite_mix(self):
    mixed = self.g.copy()
    mixed.flat[mixed.size // 2] = np.inf
    return mixed


@pytest.mark.parametrize("mix", [_singular_fit, _non_finite_mix], ids=["raises", "non-finite"])
def test_failed_mixes_are_rejected(monkeypatch, mix):
    # a mix whose fit raises or whose iterate is not finite is rejected
    # without being evaluated: the iteration is the plain V-cycle iteration,
    # each mixed cycle evaluating its own result's residual in the mix's place
    monkeypatch.setattr(_Anderson, "mix", mix)
    res = solve(manufactured_problem(17, tol=1e-6)[1])
    assert res.converged and res.cycles == 5
    assert res.anderson_accepted == 0 and res.anderson_rejected == res.cycles - 1
    assert res.level_evals[0] == 7 * res.cycles + 1
    assert np.isfinite(res.u.values).all()


def test_anderson_mix_solves_a_linear_map_exactly():
    # on an affine map of R^DEPTH, DEPTH independent differences span the
    # space, so the mix is the fixed point; the iterates run on through G
    # alone, so the ring buffer wraps twice
    depth = _Multilevel.DEPTH
    rng = np.random.default_rng(3)
    a = 0.5 * np.eye(depth) + 0.1 * rng.standard_normal((depth, depth))
    b = rng.standard_normal(depth)
    fixed = np.linalg.solve(np.eye(depth) - a, b)
    aa = _Anderson((depth,))
    x = rng.standard_normal(depth)
    for k in range(3 * depth + 1):
        aa.start(x)
        x = a @ x + b
        aa.record(x)
        if k >= depth:
            assert np.abs(aa.mix() - fixed).max() <= 1e-9 * np.abs(fixed).max()
    assert aa.pairs == 3 * depth + 1


@pytest.mark.parametrize(
    "grid,width",
    [(box(17), None), (Grid3.box((0.3, -0.7, 0.1), (1.4, 0.2, 0.9), (21, 17, 19)), 0.137)],
    ids=["cube17", "off-centre-4-corners"],
)
def test_streamed_stencil_is_the_4x9_map_of_the_samples(grid, width):
    # row j weighs the samples 2j and 2j + 1, the arms of line j, by
    # 1 / rho^2 and the centre by -2 / rho^2: every off-centre weight is
    # nonnegative
    disc = four_line_disc(grid, POLY_BOUNDARY, width)
    assert disc.stencil.outside_fraction > 0
    flat = np.random.default_rng(8).standard_normal(grid.n_nodes)
    got = disc.stencil.hessian_components(flat)
    weights = np.zeros((4, 9))
    for j in range(4):
        weights[j, [2 * j, 2 * j + 1, 8]] = (1.0, 1.0, -2.0)
    want = weights / disc.rho**2 @ oracle_samples(grid, POLY_BOUNDARY, flat, disc.rho)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n", [9, 17])
@pytest.mark.parametrize("width", ["default", "rho-h"])
@pytest.mark.parametrize("kind", sorted({**COARSE_KINDS, **MONOTONE_KINDS}))
def test_restricted_rows_are_the_full_evaluation(kind, width, n):
    # samples fall off the box onto POLY_BOUNDARY; at rho = h every corner is single
    op = {**COARSE_KINDS, **MONOTONE_KINDS}[kind]
    grid = box(n)
    sample_width = grid.horizontal_spacing if width == "rho-h" else None
    prob = ProblemSpec(op, ONE, ZERO, POLY_BOUNDARY, grid, sample_width=sample_width)
    disc = Discretization(prob)
    full_stencil = _Stencil(grid, POLY_BOUNDARY, disc.rho, DIRECTIONS)
    assert disc.stencil.outside_fraction > 0
    if width == "rho-h":
        assert all(d.weights.shape == (1, 1) for d in full_stencil.directions)
    flat = np.random.default_rng(21).standard_normal(grid.n_nodes)
    full = full_stencil.hessian_components(flat)
    read = full[[DIRECTIONS.index(v) for v in op.hessian_rows]]
    assert disc.stencil.hessian_components(flat).tobytes() == read.tobytes()
    want = op.apply_batch(read) - disc.c_int * _interior(flat, grid.counts).ravel()
    assert disc.apply_nonlinearity(flat).tobytes() == want.tobytes()
    # a stencil of any subset of the lines, in any order, gives bitwise those rows of all four
    for lines in ((X, Y), (X_MINUS_Y, Y)):
        part = _Stencil(grid, POLY_BOUNDARY, disc.rho, lines).hessian_components(flat)
        assert part.tobytes() == full[[DIRECTIONS.index(v) for v in lines]].tobytes()


@pytest.mark.parametrize("width", [None, 0.137], ids=["default", "width-0.137"])
@pytest.mark.parametrize("kind", sorted({**COARSE_KINDS, **MONOTONE_KINDS}))
def test_stencil_samples_only_the_lines_f_reads(kind, width):
    # two samples per line of hessian_rows, in its order, and outside_fraction
    # the share of exactly those samples that a per-sample recount puts off the box
    op = {**COARSE_KINDS, **MONOTONE_KINDS}[kind]
    grid = Grid3.box((0.3, -0.7, 0.1), (1.4, 0.2, 0.9), (21, 17, 19))
    disc = Discretization(ProblemSpec(op, ONE, ZERO, POLY_BOUNDARY, grid, sample_width=width))
    stencil = disc.stencil
    assert len(stencil.directions) == 2 * len(op.hessian_rows)
    flat = np.random.default_rng(5).standard_normal(grid.n_nodes)
    assert stencil.hessian_components(flat).shape == (len(op.hessian_rows), disc.c_int.size)
    pts = _interior(grid.points(), grid.counts + (3,)).reshape(-1, 3)
    x_dir, y_dir = frame_batch(pts)
    lower, upper = np.array(grid.lower), np.array(grid.upper)
    eps = 1e-12 * max(upper - lower)
    arms = [(s * cx, s * cy) for cx, cy in op.hessian_rows for s in (1, -1)]
    off = 0
    for (cx, cy), d in zip(arms, stencil.directions, strict=True):
        q = pts + disc.rho * (cx * x_dir + cy * y_dir)
        outside = np.flatnonzero(~np.all((q >= lower - eps) & (q <= upper + eps), axis=1))
        assert d.out_rows.tolist() == outside.tolist()
        off += outside.size
    assert off > 0
    assert stencil.outside_fraction == off / (len(arms) * len(pts))


def _nan_above_the_x_y_arms(pts):
    """POLY_BOUNDARY, but NaN at heights |x3| > 1.3.  A sample along X or Y
    moves an interior node vertically by 2 rho |x2| or 2 rho |x1|, and one
    along X +- Y by 2 rho |x2 -+ x1|, up to twice as far: on the 17^3 box
    and its 9^3 and 5^3 levels the X and Y samples reach heights 1.203,
    1.125 and 1, and the diagonal ones 1.531, 1.5 and 1.5."""
    return np.where(np.abs(pts[:, 2]) > 1.3, np.nan, POLY_BOUNDARY.value_batch(pts))


def test_boundary_read_only_off_the_diagonal_arms():
    # the sub-Laplacian never samples the diagonal lines, so their NaN
    # boundary values do not stop its solve; Pucci+ reads them and is refused
    boundary = NumericField(_nan_above_the_x_y_arms)
    res = solve(ProblemSpec(SUB, ONE, ZERO, boundary, box(17), tol=1e-8))
    assert res.converged and res.rho == 0.1875 and res.outside_fraction > 0
    with pytest.raises(ValueError, match=r"boundary off the box along 1 X \+ 1 Y must be finite"):
        Discretization(ProblemSpec(PUCCI_PLUS, ONE, ZERO, boundary, box(17)))


def gathered_samples(stencil, flat, rho, ordered=False):
    """The samples along the stencil's arms as each direction took them before
    directions shared a horizontal blend, kept as a reference: per
    direction, the windows of all its A x B horizontal corners are gathered
    from the zero-padded u (corner indices clipped onto the grid) and
    reduced with np.tensordot, or if `ordered` by adding the weighted
    corners in row-major order as the stencil's blend does, then
    interpolated along x3.  The x3 padding is the smallest that holds every
    window of a column with a sample in the box."""
    grid = stencil.grid
    n1, n2, n3 = grid.counts
    x1, x2 = (grid.axis_coordinates(axis)[1:-1] for axis in range(2))
    cols = np.stack(np.broadcast_arrays(x1[:, None], x2[None, :], grid.lower[2]), axis=-1)
    cols = cols.reshape(-1, 3)
    x_dir, y_dir = frame_batch(cols)
    located = [cells(grid, cols + rho * (cx * x_dir + cy * y_dir)) for cx, cy in stencil.arms]
    pad = min(max(int(np.abs(cell[:, 2]).max()) for cell, _ in located), n3 - 2) + 1
    u = flat.reshape(grid.counts)
    padded = np.zeros((n1, n2, n3 + 2 * pad))
    padded[:, :, pad : pad + n3] = u
    windows = sliding_window_view(padded, n3 - 1, axis=2)
    samples = []
    for (cell, frac), d in zip(located, stencil.directions):
        corner = cell[0, :2] - 1
        fx, fy = frac[0, :2]
        wx = [1 - fx, fx] if fx else [1.0]
        wy = [1 - fy, fy] if fy else [1.0]
        rows1 = np.arange(1, n1 - 1) + corner[0] + np.arange(len(wx))[:, None]
        rows2 = np.arange(1, n2 - 1) + corner[1] + np.arange(len(wy))[:, None]
        rows1 = np.clip(rows1, 0, n1 - 1)[:, None, :, None]
        rows2 = np.clip(rows2, 0, n2 - 1)[None, :, None, :]
        start = np.clip(1 + cell[:, 2] + pad, 0, 2 * pad + 1).reshape(n1 - 2, n2 - 2)
        fz = frac[:, 2].reshape(n1 - 2, n2 - 2, 1)
        table, corners = np.outer(wx, wy), windows[rows1, rows2, start]
        if ordered:
            terms = [w * corners[a, b] for (a, b), w in np.ndenumerate(table)]
            blended = sum(terms[1:], terms[0])
        else:
            blended = np.tensordot(table, corners, 2)
        sample = (blended[..., :-1] * (1 - fz) + blended[..., 1:] * fz).ravel()
        sample[d.out_rows] = d.out_vals
        samples.append(sample)
    return samples


def gathered_hessian(stencil, flat, rho, ordered=False):
    """The rows of gathered_samples: the row of each line of the stencil
    adds its two samples and the centre term in the stencil's order."""
    samples = gathered_samples(stencil, flat, rho, ordered)
    w = 1.0 / (rho * rho)
    centre = _interior(flat, stencil.grid.counts).ravel() * (-2.0 * w)
    pairs = range(0, len(samples), 2)
    return np.array([samples[j] * w + samples[j + 1] * w + centre for j in pairs])


@pytest.mark.parametrize("n", [9, 17, 33])
@pytest.mark.parametrize("kind", sorted(COARSE_KINDS))
def test_family_blend_is_the_per_direction_gather_bitwise(kind, n):
    # at the default rho a family's weights are 1, 1/2 or 1/4, so every
    # product is exact and the blend adds the same terms in the same order
    op = COARSE_KINDS[kind]
    disc = Discretization(ProblemSpec(op, ONE, ZERO, POLY_BOUNDARY, box(n)))
    assert disc.stencil.outside_fraction > 0
    flat = np.random.default_rng(n).standard_normal(disc.grid.n_nodes)
    got = disc.stencil.hessian_components(flat)
    want = gathered_hessian(disc.stencil, flat, disc.rho)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [7, 12])
def test_corners_past_the_grid_read_the_edge(n):
    # on these grids the horizontal fractions are rounding residues, so a
    # sample on the box face has a second corner one past the grid, with a
    # weight near 1e-16, which reads the edge node as a clipped index did
    disc = four_line_disc(box(n), POLY_BOUNDARY)
    assert any(0 < d.weights.min() < 1e-15 for d in disc.stencil.directions)
    flat = np.random.default_rng(n).standard_normal(disc.grid.n_nodes)
    got = disc.stencil.hessian_components(flat)
    want = gathered_hessian(disc.stencil, flat, disc.rho)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_family_blend_off_centre_width_matches_the_gather():
    # at width 0.137 the X+ and X- tables differ and no weight is a power of
    # two: the blend rounds like the gather up to the order of fused steps
    grid = Grid3.box((0.3, -0.7, 0.1), (1.4, 0.2, 0.9), (21, 17, 19))
    disc = four_line_disc(grid, POLY_BOUNDARY, 0.137)
    tables = {(d.weights.shape, d.weights.tobytes()) for d in disc.stencil.directions}
    assert len(tables) > 3
    flat = np.random.default_rng(4).standard_normal(grid.n_nodes)
    got = disc.stencil.hessian_components(flat)
    want = gathered_hessian(disc.stencil, flat, disc.rho)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


# grids on which x3 windows leave their column's row: thin x3 axes, whose
# padding in the gather is clipped to n3 - 1, unequal spacings, a box off
# the origin, and x3 fractions that are rounding residues, where a sample on
# the box face reads one value past its row with a weight near 1e-16
ROW_GRIDS = {
    "33x9x9": Grid3.box((-1, -1, -1), (1, 1, 1), (33, 9, 9)),
    "17x17x3": Grid3.box((-1, -1, -1), (1, 1, 1), (17, 17, 3)),
    "12x12x12": box(12),
    "off-centre": Grid3.box((0.3, -0.7, 0.1), (1.4, 0.2, 0.9), (21, 17, 19)),
    "x3-residues": Grid3.box((-1, -1, -0.7), (1, 1, 0.2), (17, 17, 9)),
}


@pytest.mark.parametrize("width", [None, 0.137], ids=["default", "width-0.137"])
@pytest.mark.parametrize("name", list(ROW_GRIDS))
def test_unpadded_rows_are_the_zero_padded_gather(name, width):
    # bitwise against the gather that adds its corners in the blend's order;
    # the np.tensordot gather rounds its products apart from the blend where a
    # horizontal weight is not a power of two
    grid = ROW_GRIDS[name]
    prob = ProblemSpec(PUCCI_PLUS, ONE, ZERO, POLY_BOUNDARY, grid, sample_width=width)
    disc = Discretization(prob)
    stencil = disc.stencil
    assert stencil.outside_fraction > 0
    if name == "x3-residues" and width is None:
        assert any(np.any((0 < d.wz) & (d.wz < 1e-12)) for d in stencil.directions)
    # with weights 1, 1/2 and 1/4 every product is exact, so both gathers agree
    exact = all(np.all(np.frexp(d.weights)[0] == 0.5) for d in stencil.directions)
    assert exact == (width is None and name in ("17x17x3", "x3-residues"))
    g = np.random.default_rng(len(name))
    for flat in (g.standard_normal(grid.n_nodes), g.uniform(1e3, 1e4, grid.n_nodes)):
        got = stencil.hessian_components(flat)
        ordered = gathered_hessian(stencil, flat, disc.rho, ordered=True)
        assert got.tobytes() == ordered.tobytes()
        want = gathered_hessian(stencil, flat, disc.rho)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
        assert (got.tobytes() == want.tobytes()) or not exact


def centre_once(stencil: _Stencil, flat: np.ndarray, rho: float) -> np.ndarray:
    """The rows of the stencil of step rho on the samples of the ordered
    zero-padded gather (gathered_samples), with the centre term u (-2 w)
    formed once into an interior array of its own and added to every row."""
    rows = np.empty((len(stencil.arms) // 2, int(np.prod(stencil.shape))))
    centre = np.empty(stencil.shape)
    w = stencil.weight
    np.multiply(_interior(flat, stencil.grid.counts), -2.0 * w, out=centre)
    samples = gathered_samples(stencil, flat, rho, ordered=True)
    for j, row in enumerate(rows):
        np.multiply(samples[2 * j], w, out=row)
        row += samples[2 * j + 1] * w
        row += centre.ravel()
    return rows


@pytest.mark.parametrize("lines", [DIRECTIONS, (X, Y)], ids=["four-rows", "x-y-rows"])
@pytest.mark.parametrize("name", list(ROW_GRIDS))
def test_centre_term_formed_per_row_is_bitwise_the_stored_one(name, lines):
    # each row adds the centre term formed in the buffer of its second sample:
    # the same products, added in the same order, as one stored centre array
    stencil = _Stencil(ROW_GRIDS[name], POLY_BOUNDARY, 0.137, lines)
    g = np.random.default_rng(len(name))
    for flat in (g.standard_normal(stencil.grid.n_nodes), g.uniform(1e3, 1e4, stencil.grid.n_nodes)):
        got = stencil.hessian_components(flat)
        assert got.tobytes() == centre_once(stencil, flat, 0.137).tobytes()


def test_solve_is_bitwise_the_stored_centre_solve(monkeypatch):
    # the centre term formed per row and the residual handed over leave a
    # whole solve bitwise as it was
    prob = pucci_problem(17)
    res = solve(prob)
    # every level of this problem takes the default step of its grid
    monkeypatch.setattr(
        _Stencil,
        "hessian_components",
        lambda self, flat: centre_once(self, flat, sample_step(self.grid)),
    )
    ref = solve(pucci_problem(17))
    assert res.u.values.tobytes() == ref.u.values.tobytes()
    assert (res.cycle_residuals, res.level_evals) == (ref.cycle_residuals, ref.level_evals)


@pytest.mark.parametrize("case", ["sublaplacian-17", "pucci-plus-64-9-rejects"])
def test_no_fine_evaluation_keeps_an_earlier_residual(monkeypatch, case):
    # the residual is handed over, not kept by a caller: when the finest level
    # evaluates a residual, every residual it evaluated before has been freed
    prob = FINE_EVAL_CASES[case]()
    finest = prob.multilevel.levels[0]
    evaluate = Discretization.residual_interior
    earlier, alive = [], []

    def watched(self, flat, rhs):
        if self is not finest:
            return evaluate(self, flat, rhs)
        alive.append(sum(ref() is not None for ref in earlier))
        out = evaluate(self, flat, rhs)
        earlier.append(weakref.ref(out))
        return out

    monkeypatch.setattr(Discretization, "residual_interior", watched)
    res = solve(prob)
    assert res.converged and len(alive) == res.level_evals[0]
    assert max(alive) == 0


# levels and V-cycles of the Pucci+ (1, 4) solve of u* = x1^2 - x2^2 + 0.5 x1 x3
# (c = 1, tol 1e-6) on grids that do not halve down to 5 nodes per axis
NON_DYADIC = {
    (32, 32, 32): ([(32, 32, 32), (17, 17, 17), (9, 9, 9), (5, 5, 5)], 16),
    (31, 31, 31): ([(31, 31, 31), (16, 16, 16), (9, 9, 9), (5, 5, 5)], 20),
    (27, 27, 27): ([(27, 27, 27), (14, 14, 14), (8, 8, 8), (5, 5, 5)], 20),
    (12, 12, 12): ([(12, 12, 12), (7, 7, 7)], 13),
    (33, 33, 7): ([(33, 33, 7), (17, 17, 7), (9, 9, 7), (5, 5, 7)], 23),
}


@pytest.mark.parametrize("counts", list(NON_DYADIC), ids=lambda c: "x".join(map(str, c)))
def test_every_grid_gets_a_hierarchy(counts):
    levels, cycles = NON_DYADIC[counts]
    u_star = parse_polynomial("x1^2 - x2^2 + 0.5 x1 x3")
    grid = Grid3.box((-1, -1, -1), (1, 1, 1), counts)
    f = manufacture(u_star, PUCCI_PLUS, ONE)
    res = solve(ProblemSpec(PUCCI_PLUS, ONE, f, u_star, grid, tol=1e-6))
    assert res.converged
    assert res.levels == levels
    assert max(res.levels[-1]) <= 7
    assert res.cycles <= cycles


def slicing_prolong(coarse, fine_counts):
    """Trilinear prolongation onto the refined grid (counts 2n - 1) by
    strided slices: the form the per-axis matrices replaced."""
    out = np.zeros(fine_counts)
    out[::2, ::2, ::2] = coarse
    out[::2, ::2, 1::2] = 0.5 * (out[::2, ::2, :-2:2] + out[::2, ::2, 2::2])
    out[::2, 1::2, :] = 0.5 * (out[::2, :-2:2, :] + out[::2, 2::2, :])
    out[1::2, :, :] = 0.5 * (out[:-2:2, :, :] + out[2::2, :, :])
    return out


def slicing_full_weight(fine, coarse_counts):
    """27-term full weighting of a fine field that vanishes on the boundary,
    at the interior coarse nodes: the form the per-axis matrices replaced."""
    out = np.zeros(tuple(n - 2 for n in coarse_counts))
    w1d = (0.25, 0.5, 0.25)
    nf = fine.shape
    for o1, v1 in zip((-1, 0, 1), w1d):
        for o2, v2 in zip((-1, 0, 1), w1d):
            for o3, v3 in zip((-1, 0, 1), w1d):
                out += v1 * v2 * v3 * fine[
                    2 + o1 : nf[0] - 2 + o1 + 1 : 2,
                    2 + o2 : nf[1] - 2 + o2 + 1 : 2,
                    2 + o3 : nf[2] - 2 + o3 + 1 : 2,
                ]
    return out


@pytest.mark.parametrize("coarse", [(5, 5, 5), (9, 9, 9), (17, 17, 17), (33, 33, 33), (9, 17, 5)])
def test_transfers_on_odd_counts_are_the_slicing_forms(coarse):
    fine = tuple(2 * n - 1 for n in coarse)
    prolong, inject, restrict = _transfers(fine, coarse)
    g = np.random.default_rng(sum(coarse))
    v = g.uniform(-1, 1, coarse)
    assert _along_axes(prolong, v).tobytes() == slicing_prolong(v, fine).tobytes()
    # the correction form: interior rows and columns on a field zero on the boundary
    corr = np.zeros(coarse)
    corr[1:-1, 1:-1, 1:-1] = g.uniform(-1, 1, tuple(n - 2 for n in coarse))
    inner = _along_axes([p[1:-1, 1:-1] for p in prolong], corr[1:-1, 1:-1, 1:-1])
    assert inner.tobytes() == slicing_prolong(corr, fine)[1:-1, 1:-1, 1:-1].tobytes()
    u = g.uniform(-1, 1, fine)
    assert _along_axes(inject, u).tobytes() == u[::2, ::2, ::2].tobytes()
    r = np.zeros(fine)
    r[1:-1, 1:-1, 1:-1] = g.uniform(-1, 1, tuple(n - 2 for n in fine))
    got = _along_axes(restrict, r[1:-1, 1:-1, 1:-1])
    assert np.abs(got - slicing_full_weight(r, coarse)).max() <= 1e-15


@pytest.mark.parametrize("fine", [(8, 9, 12), (32, 31, 27), (14, 65, 7), (16, 10, 20)])
def test_transfers_on_any_counts(fine):
    coarse = Grid3.box((0, 0, 0), (1, 1, 1), fine).coarsen().counts
    prolong, inject, restrict = _transfers(fine, coarse)
    for r in restrict:
        assert np.abs(r.sum(axis=1) - 1.0).max() <= 2 * np.finfo(float).eps
    # both interpolations reproduce constants exactly and linear functions
    # to rounding, on the box [0, 1]^3 of either grid
    for mats, src, dst in ((prolong, coarse, fine), (inject, fine, coarse)):
        assert np.all(_along_axes(mats, np.ones(src)) == 1.0)
        x_src = np.meshgrid(*(np.arange(n) / (n - 1) for n in src), indexing="ij")
        x_dst = np.meshgrid(*(np.arange(n) / (n - 1) for n in dst), indexing="ij")
        linear = [0.3 + x[0] - 2.0 * x[1] + 0.7 * x[2] for x in (x_src, x_dst)]
        assert np.abs(_along_axes(mats, linear[0]) - linear[1]).max() <= 1e-14


def test_gauss_jordan_pivots_and_solves():
    g = np.random.default_rng(3)
    a = g.standard_normal((125, 125)) + 20.0 * np.eye(125)
    a[0, 0] = 0.0  # the first column needs a row swap
    b = g.standard_normal(125)
    kept = a.copy()
    x = _gauss_jordan(a, b)
    assert np.array_equal(a, kept)
    assert np.abs(a @ x - b).max() <= 1e-12
    perm = np.eye(3)[[2, 0, 1]]
    assert np.array_equal(_gauss_jordan(perm, np.array([1.0, 2.0, 3.0])), perm.T @ [1.0, 2.0, 3.0])


# two automorphisms of H^1 that map the 9^3 grid on [-1, 1]^3 onto itself,
# as (the map's inverse on points, the solution u o map^-1 from u's grid
# values, the coefficient (a11, a12, a22) of trace_linear after the map)
AUTOMORPHISMS = {
    # R(x) = (-x2, x1, x3) carries X to Y and Y to -X
    "R": (
        lambda p: np.column_stack((p[:, 1], -p[:, 0], p[:, 2])),
        lambda u: u[:, ::-1, :].transpose(1, 0, 2),
        lambda a: Sym2(a.a22, -a.a12, a.a11),
    ),
    # S(x) = (x1, -x2, -x3) carries X to X and Y to -Y
    "S": (
        lambda p: np.column_stack((p[:, 0], -p[:, 1], -p[:, 2])),
        lambda u: u[:, ::-1, ::-1],
        lambda a: Sym2(a.a11, -a.a12, a.a22),
    ),
}
SYMMETRY_BRACKET = EllipticityBracket(0.5, 3.0)
SYMMETRY_A = Sym2(1.0, 0.4, 2.0)


@pytest.mark.parametrize("kind", ["sublaplacian", "trace_linear", "pucci_plus", "pucci_minus"])
def test_solve_commutes_with_the_grid_automorphisms(kind):
    # solving with the data carried by an automorphism gives the solution
    # carried by it, to rounding: the stencil, transfers, smoother, mixing
    # and coarse Newton all commute with R and S
    def problem(inverse=None, a=SYMMETRY_A):
        def carried(poly):
            field = parse_polynomial(poly)
            if inverse is None:
                return field
            return NumericField(lambda p: field.value_batch(inverse(p)))

        if kind == "sublaplacian":
            op = SUB
        else:
            op = OperatorSpec(kind, SYMMETRY_BRACKET, coeff=a if kind == "trace_linear" else None)
        f = carried("x1 + 0.3 x2^2 + 0.2 x1 x3 - 1")
        boundary = carried("0.1 x1 x2 + 0.05 x2 x3")
        return ProblemSpec(op, ONE, f, boundary, box(9), tol=1e-10)

    base = solve(problem())
    assert base.converged
    u = base.u.values
    for name, (inverse, carry_u, carry_a) in AUTOMORPHISMS.items():
        res = solve(problem(inverse, carry_a(SYMMETRY_A)))
        assert res.converged, name
        err = np.abs(res.u.values - carry_u(u)).max()
        assert err <= 1e-13 * np.abs(u).max(), (name, err)
