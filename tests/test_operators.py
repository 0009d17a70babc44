import numpy as np
import pytest
from conftest import random_points, random_polynomial

from heisenpde.calculus import full_hessian, h_hessian, lift_batch
from heisenpde.checks import pucci_bruteforce
from heisenpde.fields import PolynomialField, parse_polynomial
from heisenpde.grid import Grid3
from heisenpde.group import sqrt_p_batch
from heisenpde.operators import (
    DIRECTIONS,
    X,
    X_MINUS_Y,
    X_PLUS_Y,
    Y,
    EllipticityBracket,
    HolderData,
    OperatorSpec,
    cross_term,
    validate_operator,
)
from heisenpde.rng import SplitMix64
from heisenpde.solver import Discretization, ProblemSpec, manufacture
from heisenpde.symmetric import Sym2


def test_bracket_and_holder_data_validation():
    with pytest.raises(ValueError):
        EllipticityBracket(0.0, 1.0)
    with pytest.raises(ValueError):
        EllipticityBracket(2.0, 1.0)
    with pytest.raises(ValueError):
        HolderData(c0=0.0, beta=1.0, beta_prime=1.0, L_c=0.0, L_f=1.0)
    with pytest.raises(ValueError):
        HolderData(c0=1.0, beta=1.5, beta_prime=1.0, L_c=0.0, L_f=1.0)
    with pytest.raises(ValueError):
        HolderData(c0=1.0, beta=1.0, beta_prime=1.0, L_c=-1.0, L_f=1.0)


@pytest.mark.parametrize("lam, Lam", [(1.0, np.inf), (np.inf, np.inf), (1.0, np.nan)])
def test_bracket_rejects_a_constant_that_is_not_finite(lam, Lam):
    # an infinite Lam once passed and only broke the solve, at an interior node
    with pytest.raises(ValueError, match="^need finite 0 < lam <= Lam, got"):
        EllipticityBracket(lam, Lam)


def pucci(kind: str, b: EllipticityBracket, mats: np.ndarray) -> np.ndarray:
    """Pucci+ or Pucci- on a stack of 2x2 (intrinsic) or 3x3 (lifted) matrices."""
    form = "intrinsic" if mats.shape[1:] == (2, 2) else "lifted"
    return OperatorSpec(kind, b, form).apply_stack(mats)


def test_pucci_frozen_examples():
    b = EllipticityBracket(1.0, 2.0)
    mats = np.array([np.zeros((2, 2)), np.diag([2.0, -3.0])])
    assert np.array_equal(pucci("pucci_plus", b, mats), [0.0, 2 * 2 + 1 * (-3)])
    assert np.array_equal(pucci("pucci_minus", b, mats), [0.0, 1 * 2 + 2 * (-3)])


def test_pucci_matches_bruteforce():
    b = EllipticityBracket(1.0, 2.0)
    g = SplitMix64(50, "pucci")
    mats = g.symmetric(20, 2, scale=2.0)
    plus, minus = pucci("pucci_plus", b, mats), pucci("pucci_minus", b, mats)
    for k, m in enumerate(mats):
        bf_plus, bf_minus = pucci_bruteforce(m, 1.0, 2.0, 100_000, seed=k)
        assert abs(plus[k] - bf_plus) < 1e-6
        assert abs(minus[k] - bf_minus) < 1e-6


def test_pucci_positive_definite_is_Lam_trace():
    b = EllipticityBracket(0.5, 3.0)
    h = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert np.linalg.eigvalsh(h).min() > 0
    assert np.isclose(pucci("pucci_plus", b, h[None])[0], 3.0 * np.trace(h), rtol=1e-14)


def test_pucci_duality_exact():
    b = EllipticityBracket(0.7, 2.5)
    g = SplitMix64(51, "dual")
    # eigenvalues +-a tie in |e|; the sum order must still mirror
    ties = [np.diag([-a, c, a]) for a in np.linspace(0.1, 3.1, 31) for c in (0.05, 0.3, 1.7)]
    for mats in (g.symmetric(200, 2, scale=3.0), g.symmetric(100, 3, scale=3.0), np.array(ties)):
        minus, plus = pucci("pucci_minus", b, mats), pucci("pucci_plus", b, -mats)
        assert np.array_equal(minus, -plus)


def test_pucci_extremality_and_ordering():
    b = EllipticityBracket(1.0, 2.0)
    g = SplitMix64(52, "extremal")
    hs = g.symmetric(50, 2, scale=2.0)
    rots = g.rotations_2d(50)
    ds = g.uniform(100, 1.0, 2.0).reshape(50, 2)
    los, his = pucci("pucci_minus", b, hs), pucci("pucci_plus", b, hs)
    for k in range(50):
        a = rots[k] @ np.diag(ds[k]) @ rots[k].T
        val = float(np.trace(a @ hs[k]))
        lo, hi = los[k], his[k]
        scale = max(1.0, abs(lo), abs(hi))
        assert lo - 1e-12 * scale <= val <= hi + 1e-12 * scale
        assert lo <= hi


def test_pucci_extremality_3x3():
    b = EllipticityBracket(0.5, 2.0)
    g = SplitMix64(53, "extremal3")
    hs = g.symmetric(50, 3, scale=2.0)
    rots = g.rotations_3d(50)
    ds = g.uniform(150, 0.5, 2.0).reshape(50, 3)
    los, his = pucci("pucci_minus", b, hs), pucci("pucci_plus", b, hs)
    for k in range(50):
        a = np.einsum("ij,j,kj->ik", rots[k], ds[k], rots[k])
        val = float(np.einsum("ij,ji->", a, hs[k]))
        lo, hi = los[k], his[k]
        scale = max(1.0, abs(lo), abs(hi))
        assert lo - 1e-11 * scale <= val <= hi + 1e-11 * scale


def test_lifted_pucci_is_pucci_of_the_lift():
    # the nonzero eigenvalues of sqrt(P) H sqrt(P) are those of sigma H sigma^T
    b = EllipticityBracket(0.5, 2.0)
    g = SplitMix64(57, "lifted-lift")
    mats = g.symmetric(300, 3, scale=2.0)
    pts = random_points(g, 300)
    r = sqrt_p_batch(pts)
    lifted, flat = r @ mats @ r, lift_batch(mats, pts)
    scale = np.maximum(1.0, np.abs(flat).max(axis=(1, 2)))
    for kind in ("pucci_plus", "pucci_minus"):
        worst = np.abs(pucci(kind, b, lifted) - pucci(kind, b, flat)) / scale
        assert worst.max() <= 1e-12


def test_apply_stack_is_apply_per_matrix_bitwise():
    # a stack evaluates each matrix as a one-matrix stack would
    g = SplitMix64(58, "apply-stack")
    mats = g.symmetric(200, 3, scale=3.0)
    b = EllipticityBracket(0.5, 2.0)
    for spec in (
        OperatorSpec.sublaplacian(form="lifted"),
        OperatorSpec("pucci_plus", b, form="lifted"),
        OperatorSpec("pucci_minus", b, form="lifted"),
    ):
        single = [spec.apply_stack(m[None])[0] for m in mats]
        assert np.array_equal(spec.apply_stack(mats), single), spec.kind
    with pytest.raises(ValueError):
        OperatorSpec("pucci_plus", b).apply_stack(mats)


def test_pucci_one_homogeneity():
    b = EllipticityBracket(1.0, 2.0)
    h = np.array([[1.3, -0.4], [-0.4, -2.1]])
    plus = pucci("pucci_plus", b, h[None])[0]
    for t in (0.5, 2.0, 4.0):
        assert pucci("pucci_plus", b, t * h[None])[0] == t * plus
    for t in (0.3, 1.7):
        assert np.isclose(pucci("pucci_plus", b, t * h[None])[0], t * plus, rtol=5e-15)
    assert pucci("pucci_plus", b, 0.0 * h[None])[0] == 0.0


def test_validate_operator_clean_kinds():
    for spec in (
        OperatorSpec.sublaplacian(),
        OperatorSpec("pucci_plus", EllipticityBracket(1.0, 2.0)),
        OperatorSpec("pucci_minus", EllipticityBracket(0.5, 1.5)),
        OperatorSpec(
            "trace_linear",
            EllipticityBracket(1.0, 2.0),
            coeff=Sym2(1.5, 0.2, 1.2),
        ),
        OperatorSpec.sublaplacian(form="lifted"),
        OperatorSpec("pucci_plus", EllipticityBracket(1.0, 2.0), form="lifted"),
        OperatorSpec("pucci_minus", EllipticityBracket(0.5, 1.5), form="lifted"),
    ):
        report = validate_operator(spec, samples=300, seed=1)
        assert report["violations"] == 0, report


def test_validate_operator_flags_cubed_trace(monkeypatch):
    # a corrupted operator: monotone, but with no ellipticity bracket; the
    # intrinsic form is checked through apply_batch, the solver's kernel
    monkeypatch.setattr(OperatorSpec, "apply_batch", lambda self, rows: (rows[0] + rows[1]) ** 3)
    spec = OperatorSpec("pucci_plus", EllipticityBracket(1.0, 2.0))
    report = validate_operator(spec, samples=300, seed=2)
    assert report["violations"] > 0
    assert not report["pass"]
    # the lifted form is checked through apply_stack on the 3x3 stacks
    monkeypatch.setattr(
        OperatorSpec, "apply_stack", lambda self, mats: np.trace(mats, axis1=1, axis2=2) ** 3
    )
    spec = OperatorSpec("pucci_plus", EllipticityBracket(1.0, 2.0), form="lifted")
    report = validate_operator(spec, samples=300, seed=2)
    assert report["violations"] > 0
    assert not report["pass"]


def direction_rows(hxx, hxy, hyy, dirs):
    """The rows D_v = v^T H v of the directions dirs, written out."""
    trace = hxx + hyy
    rows = {X: hxx, Y: hyy, X_PLUS_Y: trace + 2.0 * hxy, X_MINUS_Y: trace - 2.0 * hxy}
    return np.array([rows[v] for v in dirs])


def test_apply_on_sym2_is_apply_batch_bitwise():
    g = SplitMix64(56, "apply-batch")
    mats = g.symmetric(500, 2, scale=3.0)
    hxx, hxy, hyy = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 1]
    for spec in (
        OperatorSpec.sublaplacian(),
        OperatorSpec("pucci_plus", EllipticityBracket(0.5, 2.0)),
        OperatorSpec("pucci_minus", EllipticityBracket(0.5, 2.0)),
        OperatorSpec("trace_linear", EllipticityBracket(1.0, 2.0), coeff=Sym2(1.5, 0.2, 1.2)),
    ):
        batch = spec.apply_batch(direction_rows(hxx, hxy, hyy, spec.hessian_rows))
        single = [spec.apply_stack(m[None])[0] for m in mats]
        assert np.array_equal(batch, single), spec.kind


def test_operator_spec_validation():
    with pytest.raises(ValueError):
        OperatorSpec("nope", EllipticityBracket(1.0, 1.0))
    with pytest.raises(ValueError):
        OperatorSpec("sublaplacian", EllipticityBracket(1.0, 2.0))
    with pytest.raises(ValueError):
        OperatorSpec("sublaplacian", EllipticityBracket(1.0, 1.0), form="weird")
    with pytest.raises(ValueError):
        # spectrum {0.5, 2.5} escapes [1, 2]
        OperatorSpec(
            "trace_linear", EllipticityBracket(1.0, 2.0), coeff=Sym2(0.5, 0.0, 2.5)
        )
    # trace_linear is intrinsic only, and its coefficient is a Sym2
    with pytest.raises(ValueError, match="^trace_linear acts in intrinsic form only, with a Sym2"):
        OperatorSpec(
            "trace_linear", EllipticityBracket(1.0, 2.0), form="lifted", coeff=Sym2(1.5, 0.2, 1.2)
        )
    with pytest.raises(ValueError, match="^trace_linear acts in intrinsic form only, with a Sym2"):
        OperatorSpec("trace_linear", EllipticityBracket(1.0, 2.0), coeff=np.eye(2))


def test_operator_spec_config_roundtrip():
    cfg = {"kind": "pucci_plus", "lambda": 1, "Lambda": 2, "form": "lifted"}
    with pytest.raises(ValueError, match="unknown operator config keys: \\['form'\\]"):
        OperatorSpec.from_config(cfg)
    tl = OperatorSpec("trace_linear", EllipticityBracket(1.0, 2.0), coeff=Sym2(1.5, 0.1, 1.1))
    cfg = {"kind": "trace_linear", "lambda": 1, "Lambda": 2, "a": [[1.5, 0.1], [0.1, 1.1]]}
    assert OperatorSpec.from_config(cfg) == tl
    with pytest.raises(ValueError):
        OperatorSpec.from_config({"kind": "sublaplacian", "lambda": 1, "Lambda": 1, "huh": 2})
    with pytest.raises(ValueError):
        OperatorSpec.from_config({"kind": "sublaplacian", "lambda": 1})


def intrinsic(spec: OperatorSpec, u, p: np.ndarray) -> float:
    """F of the symmetrized horizontal Hessian of u at the point p, (3,)."""
    return spec.apply_stack(h_hessian(u, p[None]))[0]


def test_eval_intrinsic_examples():
    p = np.array([0.4, -0.2, 1.0])
    sub = OperatorSpec.sublaplacian()
    assert np.isclose(intrinsic(sub, parse_polynomial("x1^2 + x2^2"), p), 4.0, rtol=1e-13)
    lin = parse_polynomial("2 x1 - x2 + 3 x3")
    for spec in (sub, OperatorSpec("pucci_plus", EllipticityBracket(1.0, 2.0))):
        assert intrinsic(spec, lin, p) == 0.0
    saddle = parse_polynomial("x1^2 - x2^2")
    pp = OperatorSpec("pucci_plus", EllipticityBracket(1.0, 2.0))
    assert np.isclose(intrinsic(pp, saddle, np.zeros(3)), 2 * 2 + 1 * (-2), rtol=1e-14)
    with pytest.raises(ValueError):
        intrinsic(OperatorSpec.sublaplacian(form="lifted"), saddle, p)


def lifted(spec: OperatorSpec, u, p: np.ndarray) -> float:
    """G of sqrt(P) D^2u sqrt(P) at the point p, (3,)."""
    r = sqrt_p_batch(p[None])
    return spec.apply_stack(r @ full_hessian(u, p[None]) @ r)[0]


def test_eval_lifted_trace_equals_sublaplacian():
    g = SplitMix64(54, "lifted")
    spec = OperatorSpec.sublaplacian(form="lifted")
    for _ in range(20):
        u = random_polynomial(g, degree=5)
        p = random_points(g, 1)[0]
        lifted_val = lifted(spec, u, p)
        intrinsic_val = float(np.trace(h_hessian(u, p[None])[0]))
        scale = max(1.0, abs(intrinsic_val))
        assert abs(lifted_val - intrinsic_val) <= 1e-9 * scale
    lin = parse_polynomial("x1 + x2 + x3")
    assert abs(lifted(spec, lin, np.array([1.0, 2.0, 3.0]))) < 1e-14
    with pytest.raises(ValueError):
        lifted(OperatorSpec.sublaplacian(), lin, np.zeros(3))


def test_residual_manufactured_and_errors():
    # F(D^{2,*}u) - c u - f vanishes on a manufactured pair, and manufacture
    # rebuilds f from u and c
    sub = OperatorSpec.sublaplacian()
    u = parse_polynomial("x1^2 + x2^2")
    c = PolynomialField.constant(1)
    f = parse_polynomial("4 - x1^2 - x2^2")
    pts = random_points(SplitMix64(55, "resid"), 20)
    hessians = h_hessian(u, pts)
    res = sub.apply_stack(hessians) - c.value_batch(pts) * u.value_batch(pts) - f.value_batch(pts)
    scale = np.maximum(1.0, np.abs(f.value_batch(pts)))
    assert (np.abs(res) <= 1e-12 * scale).all()
    rebuilt = manufacture(u, sub, c).value_batch(pts)
    assert (np.abs(rebuilt - f.value_batch(pts)) <= 1e-12 * scale).all()
    zero = PolynomialField.constant(0)
    grid = Grid3.box((-1, -1, -1), (1, 1, 1), (5, 5, 5))
    disc = Discretization(ProblemSpec(sub, zero, zero, zero, grid))
    assert not disc.residual_interior(np.zeros(grid.n_nodes), disc.f_int).any()
    # a negative c fails the level's set-up, which checks every node
    with pytest.raises(ValueError, match="^c must be nonnegative on every level, got -1.0 at node"):
        Discretization(ProblemSpec(sub, PolynomialField.constant(-1), zero, zero, grid))


ROW_KINDS = {
    "sublaplacian": OperatorSpec.sublaplacian(),
    "trace_linear_a12_0": OperatorSpec(
        "trace_linear", EllipticityBracket(0.5, 1.5), coeff=Sym2(1.0, 0.0, 1.2)
    ),
    "trace_linear_a12_0.4": OperatorSpec(
        "trace_linear", EllipticityBracket(0.5, 1.5), coeff=Sym2(1.0, 0.4, 1.0)
    ),
    "pucci_plus": OperatorSpec("pucci_plus", EllipticityBracket(1.0, 4.0)),
    "pucci_minus": OperatorSpec("pucci_minus", EllipticityBracket(1.0, 4.0)),
}


@pytest.mark.parametrize("kind", sorted(ROW_KINDS))
def test_hessian_rows_are_the_ones_f_reads(kind):
    # moving h_xy leaves F bitwise unchanged exactly when F reads X and Y only
    spec = ROW_KINDS[kind]
    rng = np.random.default_rng(13)
    mats = SplitMix64(13, "rows").symmetric(2000, 2, scale=2.0)
    moved = mats.copy()
    moved[:, 0, 1] = moved[:, 1, 0] = mats[:, 0, 1] + rng.standard_normal(len(mats))
    before, after = spec.apply_stack(mats), spec.apply_stack(moved)
    ignores_hxy = kind in ("sublaplacian", "trace_linear_a12_0")
    assert spec.hessian_rows == ((X, Y) if ignores_hxy else DIRECTIONS)
    if ignores_hxy:
        assert before.tobytes() == after.tobytes()
    else:
        assert np.any(before != after)


def parent_formula(spec, hxx, hxy, hyy):
    """F on the components (h_xx, h_xy, h_yy), as apply_batch computed it
    before it read direction rows, kept as a reference."""
    if spec.kind == "sublaplacian":
        return hxx + hyy
    if spec.kind == "trace_linear":
        a = spec.coeff
        return a.a11 * hxx + 2.0 * a.a12 * hxy + a.a22 * hyy
    return selected_pucci(spec, hxx, hxy, hyy)


@pytest.mark.parametrize("kind", sorted(ROW_KINDS))
def test_apply_stack_rows_match_the_component_formula(kind):
    # the map H -> (h11, h22, h11 + h22 +- 2 h12) and the cross term rebuilt
    # from the last two rows leave F within a few ulps of the entries' scale
    spec = ROW_KINDS[kind]
    g = SplitMix64(14, "stack-rows")
    for scale in (1e-3, 1.0, 1e3):
        mats = g.symmetric(5000, 2, scale=scale)
        hxx, hxy, hyy = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 1]
        want = parent_formula(spec, hxx, hxy, hyy)
        size = np.abs(hxx) + np.abs(hyy) + 2.0 * np.abs(hxy)
        ulps = np.abs(spec.apply_stack(mats) - want) / (spec.bracket.Lam * np.spacing(size))
        assert ulps.max() <= 4.0, (scale, ulps.max())


def selected_pucci(spec, hxx, hxy, hyy):
    """The Pucci corner as a select, kept as a reference: Lam e (Pucci+) or
    lam e (Pucci-) where the eigenvalue e is positive, the other product
    elsewhere.  The eigenvalues are mean -+ r with the shipped radius rule:
    r = sqrt(d^2 + hxy^2), d = (hxx - hyy) / 2, and hypot(d, hxy) where that
    sum of squares is not a finite normal number."""
    mean = 0.5 * (hxx + hyy)
    d = 0.5 * (hxx - hyy)
    with np.errstate(over="ignore", under="ignore"):
        squares = d * d + hxy * hxy
    normal = (squares >= np.finfo(float).tiny) & (squares < np.inf)
    r = np.where(normal, np.sqrt(squares), np.hypot(d, hxy))
    lo, hi = mean - r, mean + r
    lam, Lam = spec.bracket.lam, spec.bracket.Lam
    big, small = (Lam, lam) if spec.kind == "pucci_plus" else (lam, Lam)
    return np.where(lo > 0, big * lo, small * lo) + np.where(hi > 0, big * hi, small * hi)


@pytest.mark.parametrize("kind", ["pucci_plus", "pucci_minus"])
@pytest.mark.parametrize("bracket", [(0.5, 2.0), (1.0, 4.0), (1.5, 1.5)])
def test_pucci_corner_is_the_select_bitwise(kind, bracket):
    # every quadruple of rows from signed zeros, exact zero eigenvalues
    # (diag(1, 0), [[1, 1], [1, 1]]), subnormal, huge and infinite entries,
    # plus random ones; the select reads the cross term of the same rows
    special = [0.0, -0.0, 1.0, -1.0, 2.5, 5e-324, -1e-310, 1e308, -1e308, np.inf, -np.inf]
    grid = np.array(np.meshgrid(*[special] * 4, indexing="ij")).reshape(4, -1)
    rows = np.concatenate((grid, np.random.default_rng(9).standard_normal((4, 2000))), axis=1)
    spec = OperatorSpec(kind, EllipticityBracket(*bracket))
    with np.errstate(invalid="ignore", over="ignore"):
        got = spec.apply_batch(rows)
        want = selected_pucci(spec, rows[0], cross_term(rows[2], rows[3]), rows[1])
    nan = np.isnan(want)
    assert nan.any() and np.isnan(got[nan]).all()
    assert got[~nan].tobytes() == want[~nan].tobytes()


def central_slopes(spec, h):
    """F's slopes dF/dh_k at the (k, n) direction rows h by central
    differences with steps 1e-7 max(1, |h_k|), from one apply_batch call on
    h and its 2k shifted copies: the oracle for linearize."""
    k, n = h.shape
    steps = 1e-7 * np.maximum(1.0, np.abs(h))
    up, down = h + steps, h - steps
    probes = np.repeat(h[:, None, :], 2 * k, axis=1)  # (up, down) per row
    j = np.arange(k)
    probes[j, 2 * j], probes[j, 2 * j + 1] = up, down
    vals = spec.apply_batch(probes.reshape(k, -1)).reshape(2 * k, n)
    return (vals[0::2] - vals[1::2]) / (up - down)


@pytest.mark.parametrize("kind", sorted(ROW_KINDS))
def test_linearize_matches_central_differences(kind):
    # away from F's kinks, an eigenvalue at 0, the exact slopes agree with
    # the central differences to their truncation and rounding error; F is
    # apply_batch's, bitwise
    spec = ROW_KINDS[kind]
    g = SplitMix64(15, "linearize")
    mats = g.symmetric(4000, 2, scale=2.0)
    rows = direction_rows(mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 1], spec.hessian_rows)
    lo, hi = np.linalg.eigvalsh(mats).T
    away = np.minimum(np.abs(lo), np.abs(hi)) > 1e-3
    assert away.sum() > 3500
    rows = rows[:, away]
    values, slopes = spec.linearize(rows)
    assert values.tobytes() == spec.apply_batch(rows).tobytes()
    assert slopes.shape == rows.shape
    oracle = central_slopes(spec, rows)
    assert np.abs(slopes - oracle).max() <= 1e-6 * spec.bracket.Lam


@pytest.mark.parametrize("kind", ["pucci_plus", "pucci_minus"])
def test_slopes_at_kinks_sum_to_the_steps_slope_sum(kind):
    # at an eigenvalue 0 (diag(1, 0), diag(0, -1), [[1, 1], [1, 1]], the zero
    # matrix) and at e_lo = e_hi (2 I, -3 I) the slopes are finite, no 0/0 is
    # taken, and the D_X and D_Y slopes sum to the slope sum apply_batch
    # writes, which the Jacobi step reads; the slopes of D_{X+-Y} cancel
    spec = ROW_KINDS[kind]
    mats = [((1, 0), (0, 0)), ((0, 0), (0, -1)), ((1, 1), (1, 1)), ((0, 0), (0, 0))]
    mats = np.array(mats + [((2, 0), (0, 2)), ((-3, 0), (0, -3))], dtype=float)
    rows = direction_rows(mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 1], DIRECTIONS)
    slope_sum = np.empty(len(mats))
    with np.errstate(all="raise"):
        values, slopes = spec.linearize(rows)
        assert values.tobytes() == spec.apply_batch(rows, slope_sum).tobytes()
    assert np.isfinite(slopes).all()
    assert (slopes[2] == -slopes[3]).all()
    assert slopes[0] + slopes[1] == pytest.approx(slope_sum, rel=1e-15)
    # g'(e) is Lam = 4 at e = 0, the side of the Lam corner, and lam = 1 on
    # the other side of 0
    want = (8, 5, 8, 8, 8, 2) if kind == "pucci_plus" else (5, 8, 5, 8, 2, 8)
    assert slope_sum.tolist() == list(want)
