import weakref

import numpy as np
import pytest
from conftest import max_interior_abs_diff

from heisenpde.calculus import h_hessian
from heisenpde.fields import PolynomialField, parse_polynomial
from heisenpde.grid import Grid3, GridFunction
from heisenpde.group import Point, frame_batch
from heisenpde.operators import EllipticityBracket, OperatorSpec
from heisenpde.rng import SplitMix64
from heisenpde.symmetric import Sym2
from heisenpde.solver import (
    Discretization,
    ProblemSpec,
    _Anderson,
    _interior,
    _Multilevel,
    _probe,
    _second_differences,
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
    assert cfl_tau(0.1, 1.0, 0.0) == pytest.approx(0.4 * 0.01 / 4.0)


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


def test_solve_flags_nonconvergence():
    # start (boundary extension = 0) is far from the solution of f = 1; a 7^3
    # grid cannot be coarsened, so this is the single-level iteration
    prob = ProblemSpec(SUB, ONE, ONE, ZERO, box(7), tol=1e-12, max_iters=3)
    res = solve(prob)
    assert not res.converged
    assert res.iterations == 3
    assert res.residual > prob.tol


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


def test_single_level_solve_evaluates_operator_once_per_sweep(monkeypatch):
    from heisenpde.solver import Discretization

    calls = []
    apply = Discretization.apply_nonlinearity

    def counted(self, flat):
        calls.append(1)
        return apply(self, flat)

    monkeypatch.setattr(Discretization, "apply_nonlinearity", counted)
    prob = ProblemSpec(SUB, ONE, ONE, boundary=ZERO, grid=box(5), tol=1e-8)
    res = solve(prob)
    assert res.converged and res.iterations > 0
    assert len(calls) == res.iterations + 1
    assert res.level_evals == [len(calls)]
    assert res.coarse_newton_steps == 0


def test_multilevel_and_pure_agree():
    u_star = parse_polynomial("x1^2 + x2^2 - x1 x2")
    f = manufacture(u_star, SUB, ONE)
    prob = ProblemSpec(SUB, ONE, f, boundary=u_star, grid=box(9), tol=1e-10)
    res_ml = solve(prob)
    # the pure iteration from the solver's start, the boundary data at every node
    pure = GridFunction.from_field(prob.grid, u_star)
    for _ in range(100_000):
        if residual_norm(pure, prob) < prob.tol:
            break
        pure = step(pure, prob, res_ml.tau)
    assert res_ml.converged and res_ml.cycles > 0
    assert residual_norm(pure, prob) < prob.tol
    assert np.abs(res_ml.u.values - pure.values).max() <= 20 * 1e-10


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


def test_stencil_storage_below_8_bytes_per_sample():
    stencil = Discretization(ProblemSpec(SUB, ONE, ZERO, ZERO, box(33))).stencil
    assert stencil.nbytes < 8 * (8 * 31**3)


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


def test_coarsest_level_above_dense_max_is_smoothed():
    u_star, prob = manufactured_problem(27, tol=1e-5)
    ml = _Multilevel(prob, prob.discretization)
    assert ml.levels[-1].c_int.size > ml.DENSE_MAX and ml.dense is None
    res = solve(prob)
    assert res.converged
    assert res.levels == [(27, 27, 27), (14, 14, 14)]
    assert res.coarse_newton_steps == 0 and res.level_evals[-1] > 0
    assert res.cycles <= 20


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


PUCCI_PLUS = COARSE_KINDS["pucci_plus"]


def pucci_problem(n, u_star="x1^2 - x2^2", tol=1e-6):
    u_star = parse_polynomial(u_star)
    f = manufacture(u_star, PUCCI_PLUS, ONE)
    return ProblemSpec(PUCCI_PLUS, ONE, f, u_star, box(n), tol=tol)


def test_anderson_cycle_counts():
    # regression pins: without mixing these solves took 12 and 37 V-cycles
    sub = solve(manufactured_problem(17, tol=1e-6)[1])
    pucci = solve(pucci_problem(17))
    assert sub.converged and pucci.converged
    assert (sub.cycles, pucci.cycles) == (8, 17)


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
    # then the plain V-cycle iteration, which took 12 cycles on this problem
    monkeypatch.setattr(_Anderson, "mix", lambda self: self.g + 1.0)
    res = solve(manufactured_problem(17, tol=1e-6)[1])
    assert res.converged and res.cycles == 12
    # every cycle but the first and the last, which met tol, tried a mix
    assert res.anderson_accepted == 0 and res.anderson_rejected == res.cycles - 2
    assert res.level_evals[0] == 7 * res.cycles + 1 + res.anderson_rejected


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
