import numpy as np
import pytest
from conftest import random_points, random_polynomial

from heisenpde.calculus import sublaplacian
from heisenpde.checks import pucci_bruteforce
from heisenpde.fields import PolynomialField, parse_polynomial
from heisenpde.group import Point
from heisenpde.operators import (
    EllipticityBracket,
    HolderData,
    OperatorSpec,
    eval_intrinsic,
    eval_lifted,
    pucci_minus,
    pucci_plus,
    residual,
    validate_operator,
)
from heisenpde.rng import SplitMix64
from heisenpde.symmetric import Sym2, Sym3


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


def test_pucci_frozen_examples():
    b = EllipticityBracket(1.0, 2.0)
    assert pucci_plus(Sym2.zero(), b) == 0.0
    assert pucci_minus(Sym2.zero(), b) == 0.0
    h = Sym2.diag(2.0, -3.0)
    assert pucci_plus(h, b) == 2 * 2 + 1 * (-3)
    assert pucci_minus(h, b) == 1 * 2 + 2 * (-3)


def test_pucci_matches_bruteforce():
    b = EllipticityBracket(1.0, 2.0)
    g = SplitMix64(50, "pucci")
    mats = g.symmetric(20, 2, scale=2.0)
    for k, m in enumerate(mats):
        h = Sym2.from_matrix(m)
        bf_plus, bf_minus = pucci_bruteforce(h.mat, 1.0, 2.0, 100_000, seed=k)
        assert abs(pucci_plus(h, b) - bf_plus) < 1e-6
        assert abs(pucci_minus(h, b) - bf_minus) < 1e-6


def test_pucci_positive_definite_is_Lam_trace():
    b = EllipticityBracket(0.5, 3.0)
    h = Sym2(2.0, 0.3, 1.0)
    assert min(h.eigenvalues()) > 0
    assert np.isclose(pucci_plus(h, b), 3.0 * h.trace(), rtol=1e-14)


def test_pucci_duality_exact():
    b = EllipticityBracket(0.7, 2.5)
    g = SplitMix64(51, "dual")
    for m in g.symmetric(200, 2, scale=3.0):
        h = Sym2.from_matrix(m)
        assert pucci_minus(h, b) == -pucci_plus(-h, b)
    for m in g.symmetric(100, 3, scale=3.0):
        s = Sym3.from_matrix(m)
        assert pucci_minus(s, b) == -pucci_plus(-s, b)


def test_pucci_extremality_and_ordering():
    b = EllipticityBracket(1.0, 2.0)
    g = SplitMix64(52, "extremal")
    hs = g.symmetric(50, 2, scale=2.0)
    rots = g.rotations_2d(50)
    ds = g.uniform(100, 1.0, 2.0).reshape(50, 2)
    for k in range(50):
        h = Sym2.from_matrix(hs[k])
        a = rots[k] @ np.diag(ds[k]) @ rots[k].T
        val = float(np.trace(a @ h.mat))
        lo, hi = pucci_minus(h, b), pucci_plus(h, b)
        scale = max(1.0, abs(lo), abs(hi))
        assert lo - 1e-12 * scale <= val <= hi + 1e-12 * scale
        assert lo <= hi


def test_pucci_extremality_3x3():
    b = EllipticityBracket(0.5, 2.0)
    g = SplitMix64(53, "extremal3")
    hs = g.symmetric(50, 3, scale=2.0)
    rots = g.rotations_3d(50)
    ds = g.uniform(150, 0.5, 2.0).reshape(50, 3)
    for k in range(50):
        s = Sym3.from_matrix(hs[k])
        a = np.einsum("ij,j,kj->ik", rots[k], ds[k], rots[k])
        val = float(np.einsum("ij,ji->", a, s.mat))
        lo, hi = pucci_minus(s, b), pucci_plus(s, b)
        scale = max(1.0, abs(lo), abs(hi))
        assert lo - 1e-11 * scale <= val <= hi + 1e-11 * scale


def test_pucci_one_homogeneity():
    b = EllipticityBracket(1.0, 2.0)
    h = Sym2(1.3, -0.4, -2.1)
    for t in (0.5, 2.0, 4.0):
        assert pucci_plus(t * h, b) == t * pucci_plus(h, b)
    for t in (0.3, 1.7):
        assert np.isclose(pucci_plus(t * h, b), t * pucci_plus(h, b), rtol=5e-15)
    assert pucci_plus(0.0 * h, b) == 0.0


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
    ):
        report = validate_operator(spec, samples=300, seed=1)
        assert report["violations"] == 0, report


def test_validate_operator_flags_cubed_trace(monkeypatch):
    # a corrupted operator: monotone, but with no ellipticity bracket; the
    # intrinsic form is checked through apply_batch, the solver's kernel
    monkeypatch.setattr(OperatorSpec, "apply_batch", lambda self, hxx, hxy, hyy: (hxx + hyy) ** 3)
    spec = OperatorSpec("pucci_plus", EllipticityBracket(1.0, 2.0))
    report = validate_operator(spec, samples=300, seed=2)
    assert report["violations"] > 0
    assert not report["pass"]
    # the lifted form is checked through apply on the 3x3 argument
    monkeypatch.setattr(OperatorSpec, "apply", lambda self, h: h.trace() ** 3)
    spec = OperatorSpec("pucci_plus", EllipticityBracket(1.0, 2.0), form="lifted")
    report = validate_operator(spec, samples=300, seed=2)
    assert report["violations"] > 0
    assert not report["pass"]


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
        batch = spec.apply_batch(hxx, hxy, hyy)
        single = [spec.apply(Sym2(*row)) for row in zip(hxx, hxy, hyy)]
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
            "trace_linear", EllipticityBracket(1.0, 2.0), coeff=Sym2.diag(0.5, 2.5)
        )


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


def test_eval_intrinsic_examples():
    p = Point(0.4, -0.2, 1.0)
    sub = OperatorSpec.sublaplacian()
    assert np.isclose(eval_intrinsic(sub, parse_polynomial("x1^2 + x2^2"), p), 4.0, rtol=1e-13)
    lin = parse_polynomial("2 x1 - x2 + 3 x3")
    for spec in (sub, OperatorSpec("pucci_plus", EllipticityBracket(1.0, 2.0))):
        assert eval_intrinsic(spec, lin, p) == 0.0
    saddle = parse_polynomial("x1^2 - x2^2")
    pp = OperatorSpec("pucci_plus", EllipticityBracket(1.0, 2.0))
    assert np.isclose(eval_intrinsic(pp, saddle, Point(0, 0, 0)), 2 * 2 + 1 * (-2), rtol=1e-14)
    with pytest.raises(ValueError):
        eval_intrinsic(OperatorSpec.sublaplacian(form="lifted"), saddle, p)


def test_eval_lifted_trace_equals_sublaplacian():
    g = SplitMix64(54, "lifted")
    spec = OperatorSpec.sublaplacian(form="lifted")
    for _ in range(20):
        u = random_polynomial(g, degree=5)
        p = Point(*random_points(g, 1)[0])
        lifted_val = eval_lifted(spec, u, p)
        intrinsic_val = sublaplacian(u, p)
        scale = max(1.0, abs(intrinsic_val))
        assert abs(lifted_val - intrinsic_val) <= 1e-9 * scale
    lin = parse_polynomial("x1 + x2 + x3")
    assert abs(eval_lifted(spec, lin, Point(1, 2, 3))) < 1e-14
    with pytest.raises(ValueError):
        eval_lifted(OperatorSpec.sublaplacian(), lin, Point(0, 0, 0))


def test_residual_manufactured_and_errors():
    sub = OperatorSpec.sublaplacian()
    u = parse_polynomial("x1^2 + x2^2")
    c = PolynomialField.constant(1)
    f = parse_polynomial("4 - x1^2 - x2^2")
    g = SplitMix64(55, "resid")
    for row in random_points(g, 20):
        p = Point(*row)
        assert abs(residual(sub, c, f, u, p)) <= 1e-12 * max(1.0, abs(f.value(p)))
    zero = PolynomialField.constant(0)
    assert residual(sub, zero, zero, zero, Point(1, 1, 1)) == 0.0
    with pytest.raises(ValueError):
        residual(sub, PolynomialField.constant(-1), zero, zero, Point(0, 0, 0))


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
    # moving h_xy leaves F bitwise unchanged exactly when row 1 is not listed
    spec = ROW_KINDS[kind]
    rng = np.random.default_rng(13)
    h = rng.standard_normal((3, 2000))
    moved = h.copy()
    moved[1] += rng.standard_normal(h.shape[1])
    before, after = spec.apply_batch(*h), spec.apply_batch(*moved)
    assert set(spec.hessian_rows) >= {0, 2}
    if 1 in spec.hessian_rows:
        assert np.any(before != after)
    else:
        assert before.tobytes() == after.tobytes()
