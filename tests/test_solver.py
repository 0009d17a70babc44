import weakref

import numpy as np
import pytest
from conftest import max_interior_abs_diff
from numpy.lib.stride_tricks import sliding_window_view

from heisenpde.calculus import h_hessian
from heisenpde.fields import PolynomialField, parse_polynomial
from heisenpde.grid import Grid3, GridFunction, cells
from heisenpde.group import Point, frame_batch
from heisenpde.operators import EllipticityBracket, OperatorSpec
from heisenpde.rng import SplitMix64
from heisenpde.symmetric import Sym2
from heisenpde.solver import (
    _COMBOS,
    Discretization,
    ProblemSpec,
    _along_axes,
    _Anderson,
    _gauss_jordan,
    _interior,
    _Multilevel,
    _probe,
    _second_differences,
    _transfers,
    _values_and_slopes,
    cfl_tau,
    manufacture,
    residual_norm,
    sample_step,
    solve,
    step,
    stencil_hessian,
)

SUB = OperatorSpec.sublaplacian()
ONE = PolynomialField.constant(1)
ZERO = PolynomialField.constant(0)


def box(n):
    return Grid3.box((-1, -1, -1), (1, 1, 1), (n, n, n))


def manufactured_problem(n=17, tol=1e-7, **kw):
    u_star = parse_polynomial("x1^2 + x2^2")
    f = manufacture(u_star, SUB, ONE)
    prob = ProblemSpec(SUB, ONE, f, boundary=u_star, grid=box(n), tol=tol, **kw)
    return u_star, prob


def test_problem_spec_validation():
    u_star, prob = manufactured_problem(9)
    with pytest.raises(ValueError):
        ProblemSpec(SUB, PolynomialField.constant(-1), ZERO, ZERO, box(9))
    with pytest.raises(ValueError):
        ProblemSpec(SUB, ONE, ZERO, ZERO, box(9), tol=0.0)
    with pytest.raises(ValueError):
        ProblemSpec(OperatorSpec.sublaplacian(form="lifted"), ONE, ZERO, ZERO, box(9))


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
    assert cfl_tau(0.1, 1.0, 0.0) == pytest.approx(0.8 * 0.01 / 4.0)
    assert cfl_tau(0.1, 0.25, 1000.0) == pytest.approx(0.8 * 0.01 / (4.0 * 0.25 + 10.0))


def test_stencil_hessian_quadratic_exact_at_spacing_step():
    g = box(17)
    u = GridFunction.from_field(g, parse_polynomial("x1^2 + x2^2"))
    h = min(g.spacings[0], g.spacings[1])
    m = stencil_hessian(u, (8, 8, 8), step=h)
    assert np.allclose(m.mat, np.diag([2.0, 2.0]), atol=1e-10)


def test_stencil_hessian_linear_and_vertical():
    g = box(17)
    lin = GridFunction.from_field(g, parse_polynomial("2 x1 - x2 + 3 x3"))
    m = stencil_hessian(lin, (8, 8, 8))
    assert np.abs(m.mat).max() <= 1e-10
    x3 = GridFunction.from_field(g, PolynomialField.coordinate(2))
    m3 = stencil_hessian(x3, (5, 11, 8))
    assert np.abs(m3.mat).max() <= 1e-10
    with pytest.raises(ValueError):
        stencil_hessian(lin, (0, 8, 8))


def test_stencil_hessian_is_the_solver_stencil_column():
    # the solver's stencil of a problem whose Dirichlet data is u itself
    g = box(9)
    values = SplitMix64(58, "stencil-column").uniform(9**3, -1.0, 1.0).reshape(g.counts)
    u = GridFunction(g, values)
    columns = ProblemSpec(SUB, ONE, ZERO, u, g).discretization.stencil.hessian_components(
        values.ravel()
    )
    for k, idx in enumerate(np.ndindex(7, 7, 7)):
        m = stencil_hessian(u, tuple(i + 1 for i in idx))
        assert [m.a11, m.a12, m.a22] == columns[:, k].tolist(), idx


def test_stencil_hessian_consistency_under_refinement():
    # interpolation bias limits the monotone scheme to first order; see the
    # decisions ledger for why the spec's 1.5 is unattainable here
    u = parse_polynomial("x1^2 x3 + 0.5 x3^2 x2 - x2^2 x3^2")
    errs = []
    for n in (17, 33, 65):
        g = box(n)
        gf = GridFunction.from_field(g, u)
        idx = tuple((c - 1) // 2 + 1 for c in g.counts)
        p = Point(*g.coordinate(idx))
        exact = h_hessian(u, p).mat
        approx = stencil_hessian(gf, idx).mat
        errs.append(np.abs(approx - exact).max())
    order = np.log2(errs[0] / errs[2]) / 2
    assert errs[2] < errs[0]
    assert order >= 0.8


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
    prob = ProblemSpec(SUB, ONE, ZERO, ZERO, box(9), tol=1e-8)
    u0 = GridFunction.zeros(prob.grid)
    u1 = step(u0, prob, 1e-3)
    assert np.array_equal(u0.values, u1.values)
    with pytest.raises(ValueError):
        step(u0, prob, 0.0)


def test_step_resets_boundary_and_reports_nan():
    u_star, prob = manufactured_problem(9)
    junk = GridFunction(prob.grid, np.ones(prob.grid.counts))
    out = step(junk, prob, 1e-3)
    bmask = ~prob.grid.interior_mask()
    expected = u_star.value_batch(prob.grid.points()).reshape(prob.grid.counts)
    assert np.allclose(out.values[bmask], expected[bmask], rtol=1e-14)
    bad = GridFunction(prob.grid, np.ones(prob.grid.counts))
    bad.values[4, 4, 4] = np.inf
    with pytest.raises(ArithmeticError, match=r"node"):
        step(bad, prob, 1e-3)


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
    tau = solve(prob2).tau
    for _ in range(4000):
        u = step(u, prob2, tau)
        if residual_norm(u, prob2) < prob2.tol:
            break
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
        res = disc.smooth(flat, disc.f_int, 1)
        history.append(np.abs(res).max())
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
        pure = GridFunction.from_field(prob.grid, prob.boundary)
        for _ in range(100_000):
            if residual_norm(pure, prob) < prob.tol:
                break
            pure = step(pure, prob, res_ml.tau)
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
    """The samples along solver._COMBOS, then the centre values: each sample
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
    """The second differences of the oracle samples, written out."""
    s = oracle_samples(grid, boundary, flat, rho)
    hxx = (s[0] + s[1] - 2 * s[8]) / rho**2
    hyy = (s[2] + s[3] - 2 * s[8]) / rho**2
    hxy = (s[4] + s[5] - s[6] - s[7]) / (4 * rho**2)
    return np.array([hxx, hxy, hyy])


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
    prob = ProblemSpec(SUB, ONE, ZERO, boundary, grid, sample_width=width)
    disc = Discretization(prob)
    if width is not None:
        assert disc.stencil.directions[4].weights.shape == (2, 2)
    if grid.counts == (5, 5, 5):
        assert disc.rho == grid.spacings[0]
    flat = np.random.default_rng(3).standard_normal(grid.n_nodes)
    got = disc.stencil.hessian_components(flat)
    want = oracle_hessian(grid, boundary, flat, disc.rho)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_stencil_storage_below_5_bytes_per_sample():
    stencil = Discretization(ProblemSpec(SUB, ONE, ZERO, ZERO, box(33))).stencil
    assert stencil.nbytes < 5 * (8 * 31**3)


def test_discretization_belongs_to_its_problem():
    prob = ProblemSpec(SUB, ONE, ZERO, ZERO, box(9), tol=1e-8)
    res = solve(prob)
    disc = prob.discretization
    residual_norm(res.u, prob)
    step(res.u, prob, 1e-3)
    assert prob.discretization is disc
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
    # sweeps from the stopping test's residual, then 1 + 3 for post-smoothing,
    # plus 1 per mixed iterate, kept or rejected
    mixes = first.anderson_accepted + first.anderson_rejected
    assert first.level_evals[0] == 7 * first.cycles + 1 + mixes
    assert first.iterations == 2 * _Multilevel.SWEEPS * first.cycles
    # an intermediate level is visited once per V-cycle and once by the nested
    # iteration, each time for 1 + 3 + 3 evaluations: post-smoothing's final
    # residual, which no caller reads, is not computed
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


POLY_BOUNDARY = parse_polynomial("x1^2 x3 - x2 + 0.5 x3^2")


@pytest.mark.parametrize("n,coarsest", [(17, 5), (11, 6)])
def test_probed_coarse_map_matches_stencil(n, coarsest):
    prob = ProblemSpec(SUB, ONE, ZERO, POLY_BOUNDARY, box(n))
    ml = _Multilevel(prob, prob.discretization)
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


@pytest.mark.parametrize("kind", sorted(COARSE_KINDS))
def test_coarse_solve_meets_its_test(kind):
    # rhs = T(target) for a random interior: coarse_solve must find target
    prob = ProblemSpec(COARSE_KINDS[kind], ONE, ONE, POLY_BOUNDARY, box(9))
    ml = _Multilevel(prob, prob.discretization)
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


MONOTONE_KINDS = {
    "sublaplacian": SUB,
    "trace_linear_diagonal": OperatorSpec(
        "trace_linear", EllipticityBracket(0.5, 1.5), coeff=Sym2(1.0, 0.0, 1.2)
    ),
}


@pytest.mark.parametrize("kind", sorted(MONOTONE_KINDS))
def test_scheme_is_monotone_when_f_ignores_hxy(kind):
    # the Jacobian sum_k diag(dF/dh_k) M_k of the stencil has no negative
    # off-diagonal entry; kinds whose F depends on h_xy do not have this
    op = MONOTONE_KINDS[kind]
    disc = ProblemSpec(op, ONE, ZERO, ZERO, box(9)).discretization
    m = _probe(disc)
    g = SplitMix64(0, "monotone")
    for _ in range(3):
        flat = g.uniform(disc.grid.n_nodes, -1.0, 1.0)
        _, slopes = _values_and_slopes(op, disc.stencil.hessian_components(flat))
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
    # u + tau T(u) is monotone in u when I + tau J >= 0, J = sum_k
    # diag(dF/dh_k) M_k - diag(c) the Jacobian of T: the off-diagonal entries
    # are those of the test above, and the damped-Jacobi weight 4/5 < 1 keeps
    # the diagonal 1 + tau J_ii >= 1/5.  At rho = h (9^3) and at 1.5 h every
    # horizontal interpolation weight is 1 or 1/2.
    op, c = MONOTONE_STEPS[kind]
    disc = ProblemSpec(op, c, ZERO, ZERO, box(9), sample_width=width).discretization
    assert disc.rho == (width or 0.25)
    # F is linear for these kinds: its slopes at u = 0 are its coefficients
    _, slopes = _values_and_slopes(op, disc.stencil.hessian_components(np.zeros(9**3)))
    jac = np.einsum("kn,knm->nm", slopes, _probe(disc)) - np.diag(disc.c_int)
    assert (np.eye(len(jac)) + disc.tau * jac).min() >= -1e-12
    assert disc.tau * np.abs(np.diag(jac)).max() <= 0.8 + 1e-12


PUCCI_PLUS = COARSE_KINDS["pucci_plus"]


def pucci_problem(n, u_star="x1^2 - x2^2", tol=1e-6):
    u_star = parse_polynomial(u_star)
    f = manufacture(u_star, PUCCI_PLUS, ONE)
    return ProblemSpec(PUCCI_PLUS, ONE, f, u_star, box(n), tol=tol)


def test_anderson_cycle_counts():
    # regression pins: without mixing these solves take 6 and 18 V-cycles
    sub = solve(manufactured_problem(17, tol=1e-6)[1])
    pucci = solve(pucci_problem(17))
    assert sub.converged and pucci.converged
    assert (sub.cycles, pucci.cycles) == (5, 10)


@pytest.mark.parametrize(
    "op,c,counts,cycles",
    [
        (OperatorSpec("pucci_plus", EllipticityBracket(1.0, 16.0)), ONE, (17, 17, 17), 20),
        (OperatorSpec("pucci_minus", EllipticityBracket(1.0, 16.0)), ONE, (17, 17, 17), 20),
        (COARSE_KINDS["trace_linear"], ONE, (17, 17, 17), 6),
        (SUB, ZERO, (17, 17, 17), 5),
        (SUB, ONE, (17, 17, 7), 4),
        (PUCCI_PLUS, ONE, (12, 12, 12), 8),
        (*MONOTONE_STEPS["trace_linear_low_bracket_c1000"], (17, 17, 17), 2),
    ],
    ids=["pucci-plus-16", "pucci-minus-16", "trace-linear-a12", "sublaplacian-c0",
         "sublaplacian-semi-coarsened", "pucci-plus-12", "trace-linear-low-bracket-c1000"],
)
def test_cycle_counts_across_kinds_and_grids(op, c, counts, cycles):
    # regression pins of the V-cycle count at the shipped step, over the
    # operator kinds, a zero c, a semi-coarsened and a non-dyadic grid; with
    # Lam < 1 and a large c a step that scaled c_max by Lam diverged
    u_star = parse_polynomial("x1^2 - x2^2 + 0.5 x1 x3")
    grid = Grid3.box((-1, -1, -1), (1, 1, 1), counts)
    res = solve(ProblemSpec(op, c, manufacture(u_star, op, c), u_star, grid, tol=1e-6))
    assert res.converged
    assert res.cycles == cycles


# V-cycles of u* = x1^2 - x2^2 + 0.5 x1 x3 at tol 1e-6, over Lam/lam, then c,
# then the grid; every one of these solves converges
CONVERGENCE_MAP = {
    "pucci_plus": (5, 7, 2, 2, 10, 12, 2, 3, 20, 25, 3, 3),
    "trace_linear": (5, 7, 2, 2, 10, 12, 2, 3, 21, 25, 3, 3),
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


@pytest.mark.parametrize(
    "prob",
    [manufactured_problem(17, tol=1e-6)[1], pucci_problem(9, "x1^2 x3 - x2 + 0.5 x3^2")],
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
    # the first cycle has no difference to mix, and the cycle that meets tol is
    # not mixed
    assert len(mixes) in (res.cycles - 1, res.cycles - 2)
    if prob.grid.counts == (9, 9, 9):
        assert res.anderson_rejected > 0


def test_rejected_mixes_leave_the_plain_v_cycle(monkeypatch):
    # a mix that is never strictly better is always rejected: the iteration is
    # then the plain V-cycle iteration, which takes 6 cycles on this problem
    monkeypatch.setattr(_Anderson, "mix", lambda self: self.g + 1.0)
    res = solve(manufactured_problem(17, tol=1e-6)[1])
    assert res.converged and res.cycles == 6
    # every cycle but the first and the last, which met tol, tried a mix
    assert res.anderson_accepted == 0 and res.anderson_rejected == res.cycles - 2
    assert res.level_evals[0] == 7 * res.cycles + 1 + res.anderson_rejected


def _singular_fit(self):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _non_finite_mix(self):
    mixed = self.g.copy()
    mixed.flat[mixed.size // 2] = np.inf
    return mixed


@pytest.mark.parametrize("mix", [_singular_fit, _non_finite_mix], ids=["raises", "non-finite"])
def test_failed_mixes_are_rejected(monkeypatch, mix):
    # a mix whose fit raises or whose iterate is not finite is rejected
    # without being evaluated: the iteration is the plain V-cycle iteration
    monkeypatch.setattr(_Anderson, "mix", mix)
    res = solve(manufactured_problem(17, tol=1e-6)[1])
    assert res.converged and res.cycles == 6
    assert res.anderson_accepted == 0 and res.anderson_rejected == res.cycles - 2
    assert res.level_evals[0] == 7 * res.cycles + 1
    assert np.isfinite(res.u.values).all()


def test_anderson_mix_solves_a_linear_map_exactly():
    # on an affine map of R^3 three independent differences span the space,
    # so the mix is the fixed point; the iterates run on through G alone, so
    # the ring buffer wraps twice
    assert _Multilevel.DEPTH == 3
    a = np.array([[0.5, 0.2, 0.0], [-0.1, 0.7, 0.1], [0.2, 0.0, 0.6]])
    b = np.array([1.0, -2.0, 0.5])
    fixed = np.linalg.solve(np.eye(3) - a, b)
    aa = _Anderson((3,))
    x = np.array([3.0, 4.0, -1.0])
    for k in range(10):
        aa.start(x)
        x = a @ x + b
        aa.record(x)
        if k >= 3:
            assert np.abs(aa.mix() - fixed).max() <= 1e-9 * np.abs(fixed).max()
    assert aa.pairs == 10


@pytest.mark.parametrize(
    "grid,width",
    [(box(17), None), (Grid3.box((0.3, -0.7, 0.1), (1.4, 0.2, 0.9), (21, 17, 19)), 0.137)],
    ids=["cube17", "off-centre-4-corners"],
)
def test_streamed_stencil_is_the_3x9_map_of_the_samples(grid, width):
    disc = Discretization(ProblemSpec(SUB, ONE, ZERO, POLY_BOUNDARY, grid, sample_width=width))
    assert disc.stencil.outside_fraction > 0
    flat = np.random.default_rng(8).standard_normal(grid.n_nodes)
    got = disc.stencil.hessian_components(flat)
    want = _second_differences(disc.rho) @ oracle_samples(grid, POLY_BOUNDARY, flat, disc.rho)
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
    assert disc.stencil.outside_fraction > 0
    if width == "rho-h":
        assert all(d.weights.shape == (1, 1) for d in disc.stencil.directions)
    flat = np.random.default_rng(21).standard_normal(grid.n_nodes)
    full = disc.stencil.hessian_components(flat)
    want = op.apply_batch(*full) - disc.c_int * _interior(flat, grid.counts).ravel()
    assert disc.apply_nonlinearity(flat).tobytes() == want.tobytes()
    part = disc.stencil.hessian_components(flat, (0, 2))
    assert part[[0, 2]].tobytes() == full[[0, 2]].tobytes()
    assert not part[1].any()


def gathered_hessian(stencil, flat, rho, rows=(0, 1, 2), ordered=False):
    """The stencil as each direction evaluated it before directions shared
    a horizontal blend, kept as a reference: per direction, the windows of
    all its A x B horizontal corners are gathered from the zero-padded u
    (corner indices clipped onto the grid) and reduced with np.tensordot,
    or if `ordered` by adding the weighted corners in row-major order as
    the stencil's blend does, then interpolated along x3; the samples are
    added into the rows in the stencil's order.  The x3 padding is the
    smallest that holds every window of a column with a sample in the
    box."""
    grid = stencil.grid
    n1, n2, n3 = grid.counts
    x1, x2 = (grid.axis_coordinates(axis)[1:-1] for axis in range(2))
    cols = np.stack(np.broadcast_arrays(x1[:, None], x2[None, :], grid.lower[2]), axis=-1)
    cols = cols.reshape(-1, 3)
    x_dir, y_dir = frame_batch(cols)
    located = [
        cells(grid, cols + rho * (cx * x_dir + cy * y_dir), clamp=False) for cx, cy in _COMBOS
    ]
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
    samples.append(_interior(u, grid.counts).ravel())
    hessian = np.zeros((3, samples[-1].size))
    for sample, column in zip(samples, stencil.row_weights):
        for k, w in column:
            if k in rows:
                hessian[k] += sample * w
    return hessian


@pytest.mark.parametrize("n", [9, 17, 33])
@pytest.mark.parametrize("kind", sorted(COARSE_KINDS))
def test_family_blend_is_the_per_direction_gather_bitwise(kind, n):
    # at the default rho a family's weights are 1, 1/2 or 1/4, so every
    # product is exact and the blend adds the same terms in the same order
    op = COARSE_KINDS[kind]
    disc = Discretization(ProblemSpec(op, ONE, ZERO, POLY_BOUNDARY, box(n)))
    assert disc.stencil.outside_fraction > 0
    flat = np.random.default_rng(n).standard_normal(disc.grid.n_nodes)
    got = disc.stencil.hessian_components(flat, op.hessian_rows)
    want = gathered_hessian(disc.stencil, flat, disc.rho, op.hessian_rows)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [7, 12])
def test_corners_past_the_grid_read_the_edge(n):
    # on these grids the horizontal fractions are rounding residues, so a
    # sample on the box face has a second corner one past the grid, with a
    # weight near 1e-16, which reads the edge node as a clipped index did
    disc = Discretization(ProblemSpec(SUB, ONE, ZERO, POLY_BOUNDARY, box(n)))
    assert any(0 < d.weights.min() < 1e-15 for d in disc.stencil.directions)
    flat = np.random.default_rng(n).standard_normal(disc.grid.n_nodes)
    got = disc.stencil.hessian_components(flat)
    want = gathered_hessian(disc.stencil, flat, disc.rho)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_family_blend_off_centre_width_matches_the_gather():
    # at width 0.137 the X+ and X- tables differ and no weight is a power of
    # two: the blend rounds like the gather up to the order of fused steps
    grid = Grid3.box((0.3, -0.7, 0.1), (1.4, 0.2, 0.9), (21, 17, 19))
    disc = Discretization(ProblemSpec(SUB, ONE, ZERO, POLY_BOUNDARY, grid, sample_width=0.137))
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
