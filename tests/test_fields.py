import sys
from fractions import Fraction

import numpy as np
import pytest
from conftest import random_points, random_polynomial

from heisenpde.fields import (
    NumericField,
    PolynomialField,
    field_from_config,
    parse_polynomial,
    smooth_abs_field,
)
from heisenpde.group import Point
from heisenpde.rng import SplitMix64


def test_parse_basic_forms():
    p = parse_polynomial("2 * x1^2 x2 + 3.5*x3 - x1")
    assert p.terms == parse_polynomial("-x1 + 2x1^2x2 + 3.5 x3").terms
    assert p.value(Point(1.0, 1.0, 0.0)) == 2.0 - 1.0
    assert p.value(Point(0.0, 0.0, 2.0)) == 7.0
    # loose forms: adjacent coefficients multiply, signs compose, exponents may lead with 0
    assert parse_polynomial("2 3 x1").terms == {(1, 0, 0): Fraction(6)}
    assert parse_polynomial("x1x2").terms == {(1, 1, 0): Fraction(1)}
    assert parse_polynomial("--x1").terms == {(1, 0, 0): Fraction(1)}
    assert parse_polynomial("x1^02").terms == {(2, 0, 0): Fraction(1)}
    # like terms are summed before the float range is checked: these cancel
    assert parse_polynomial("1e300 1e300 x1 - 1e300 1e300 x1").terms == {}
    assert parse_polynomial("1e300 1e300 x1 + 2 - 1e300 1e300 x1").terms == {(0, 0, 0): 2}


def test_parse_scientific_and_constants():
    p = parse_polynomial("1e-2 * x1 + 4")
    assert p.value(Point(100.0, 0.0, 0.0)) == 5.0
    assert parse_polynomial("1").value(Point(3, 4, 5)) == 1.0


def test_parse_rejects_garbage():
    for bad in ("", "x4", "2 **", "x1^", "+", "x1^x2", "* x1", "x1 *"):
        with pytest.raises(ValueError):
            parse_polynomial(bad)


@pytest.mark.parametrize(
    "text,words",
    [
        ("x1^2.5", ("exponent 2.5", "nonnegative integer", "'x1^2.5'")),
        ("x1^2.", ("exponent 2.", "nonnegative integer", "'x1^2.'")),
        ("x1^1e2", ("exponent 1e2", "nonnegative integer", "'x1^1e2'")),
        ("1e400 x1", ("coefficient 1e400", "not finite", "'1e400 x1'")),
        # finite factors whose product, or a sum of like terms, leaves the float range
        ("1e300 1e300 x1", ("x1^1 x2^0 x3^0", "beyond the float range", "'1e300 1e300 x1'")),
        ("1e308 x3^2 + 1e308 x3^2", ("x1^0 x2^0 x3^2", "beyond the float range", "1e308 x3^2'")),
        ("x2 - 1e200 1e200 1e200", ("x1^0 x2^0 x3^0", "beyond the float range", "1e200'")),
    ],
)
def test_parse_names_a_bad_exponent_or_coefficient(text, words):
    with pytest.raises(ValueError) as err:
        parse_polynomial(text)
    assert all(w in str(err.value) for w in words), err.value


def test_polynomial_partials_are_exact():
    u = parse_polynomial("x1^2 x3 - 2 x2 x3^2")
    p = Point(1.5, -0.5, 2.0)
    assert u.partial_field(0).value(p) == 2 * 1.5 * 2.0
    assert u.partial_field(2).value(p) == 1.5**2 - 2 * 2 * (-0.5) * 2.0
    assert u.second_partials(p, ((0, 2), (2, 2))) == [2 * 1.5, -4 * (-0.5)]


def test_value_batch_matches_scalar():
    g = SplitMix64(31, "vb")
    u = random_polynomial(g)
    pts = random_points(g, 50)
    batch = u.value_batch(pts)
    for k, row in enumerate(pts):
        assert np.isclose(batch[k], u.value(Point(*row)), rtol=1e-13, atol=1e-13)


def _monomial_formula(u: PolynomialField, pts: np.ndarray) -> np.ndarray:
    """The general evaluation path: the (n, T) monomial table times the
    coefficients."""
    return np.prod(pts[:, None, :] ** u._expos[None, :, :], axis=2) @ u._coeffs


@pytest.mark.parametrize("c", [1, 0.1, -3.75, 1e300, Fraction(1, 3)])
def test_constant_value_batch_is_the_monomial_formula_bitwise(c):
    pts = random_points(SplitMix64(44, "constant"), 200, -1e3, 1e3)
    pts[3] = [np.nan, 0.0, 1.0]
    pts[4] = [np.inf, -np.inf, np.nan]
    pts[5] = [-0.0, 0.0, -np.inf]
    u = PolynomialField.constant(c)
    got = u.value_batch(pts)
    assert got.tobytes() == _monomial_formula(u, pts).tobytes()
    assert got.tolist() == [float(Fraction(c))] * len(pts)
    assert u.value_batch(np.zeros((0, 3))).shape == (0,)
    # the zero polynomial has no terms: zeros, as the empty matvec gives
    zero = PolynomialField.constant(0)
    assert zero.terms == {}
    assert zero.value_batch(pts).tobytes() == _monomial_formula(zero, pts).tobytes()
    assert zero.value_batch(pts).tobytes() == np.zeros(len(pts)).tobytes()


def test_one_pass_frame_fields_match_partial_route():
    # the composed route X = d1 + 2 x2 d3, Y = d2 - 2 x1 d3 as an exact oracle
    g = SplitMix64(17, "frame-oracle")
    non_dyadic = PolynomialField({(1, 0, 3): Fraction(1, 3), (0, 2, 1): Fraction(-7, 5)})
    for k in range(240):
        u = random_polynomial(g, degree=3 + k % 5, n_terms=1 + k % 12)
        if k % 3 == 2:
            u = u + non_dyadic
        ux = u.partial_field(0) + u.partial_field(2).shift_monomial((0, 1, 0), 2)
        uy = u.partial_field(1) + u.partial_field(2).shift_monomial((1, 0, 0), -2)
        for fast, oracle in ((u.apply_x(), ux), (u.apply_y(), uy)):
            assert fast.terms == oracle.terms
            assert all(type(c) is Fraction and c != 0 for c in fast.terms.values())
            assert all(type(e) is int for expo in fast.terms for e in expo)
    # the two terms of X cancel exactly on x1 x2 - x3 / 2
    assert parse_polynomial("x1 x2 - 0.5 x3").apply_x().terms == {}


def _composed_value(u: PolynomialField, p: Point) -> float:
    """u(p) summed over the float views with numpy scalar powers."""
    x = (np.float64(p.x1), np.float64(p.x2), np.float64(p.x3))
    total = 0.0
    for (a, b, d), c in zip(u._expos, u._coeffs):
        total += c * x[0] ** a * x[1] ** b * x[2] ** d
    return total


def test_one_pass_hessian_is_the_composed_fields_bitwise():
    from heisenpde.calculus import full_hessian

    g = SplitMix64(11, "one-pass-hessian")
    # a coefficient that is no double and terms with x3^3, x3^4
    extra = PolynomialField(
        {(1, 0, 3): Fraction(1, 3), (0, 2, 4): Fraction(-7, 5), (2, 1, 0): Fraction(10, 3)}
    )
    pairs = [(i, j) for i in range(3) for j in range(3)]
    for trial in range(60):
        u = random_polynomial(g, degree=6)
        if trial % 2:
            u = u + extra
        p = Point(*g.uniform(3, -2.0, 2.0))
        composed = {
            (i, j): u.partial_field(i).partial_field(j).value(p) for i, j in pairs
        }
        assert u.second_partials(p, pairs) == [composed[i, j] for i, j in pairs]
        for i, j in pairs:
            # the plain float loop of value() sums as the numpy scalar loop did
            w = u.partial_field(i).partial_field(j)
            assert w.value(p) == _composed_value(w, p)
        h = full_hessian(u, p).mat
        assert all(h[i, j] == composed[i, j] for i, j in pairs)
        assert u.value(p) == _composed_value(u, p)
    # d^2/dx3^2 of x1 x3^3 / 3 is 2 x1 x3: the coefficient 3 * 2 / 3 rounds once
    third = PolynomialField({(1, 0, 3): Fraction(1, 3)})
    assert third.second_partials(Point(0.5, 0.0, 7.0), ((2, 2),)) == [7.0]


def test_float_views_follow_the_exact_terms():
    u = PolynomialField(
        {(2, 0, 0): 0.75, tuple(np.array([0, 0, 1])): 1, (1, 1, 1): 0.0, (0, 1, 0): -3}
    )
    assert u.terms == {(2, 0, 0): Fraction(3, 4), (0, 0, 1): Fraction(1), (0, 1, 0): Fraction(-3)}
    assert all(type(e) is int for expo in u.terms for e in expo)
    ux = u.apply_x()  # 1.5 x1 + 2 x2, built without float views
    assert "_expos" not in vars(ux)
    assert ux.value(Point(2.0, 1.0, 3.0)) == 1.5 * 2 + 2 * 1
    # evaluation sums the monomials in sorted exponent order
    assert np.array_equal(ux._expos, [[0, 1, 0], [1, 0, 0]])
    assert np.array_equal(ux._coeffs, [2.0, 1.5])
    assert (u - u).value_batch(np.zeros((3, 3))).tolist() == [0.0, 0.0, 0.0]


# A plain reference for the exact operations: a dict of Fractions per
# field, with no common denominator, zero sums dropped.
def _ref_clean(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c != 0}


def _ref_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, Fraction(0)) + c
    return _ref_clean(out)


def _ref_shift(p: dict, expo, factor) -> dict:
    return _ref_clean(
        {tuple(a + b for a, b in zip(e, expo)): c * Fraction(factor) for e, c in p.items()}
    )


def _ref_partial(p: dict, i: int) -> dict:
    out = {}
    for e, c in p.items():
        if e[i]:
            f = list(e)
            f[i] -= 1
            out = _ref_add(out, {tuple(f): c * e[i]})
    return out


def _ref_apply_x(p: dict) -> dict:
    return _ref_add(_ref_partial(p, 0), _ref_shift(_ref_partial(p, 2), (0, 1, 0), 2))


def _ref_apply_y(p: dict) -> dict:
    return _ref_add(_ref_partial(p, 1), _ref_shift(_ref_partial(p, 2), (1, 0, 0), -2))


def _ref_dilate(p: dict, lam) -> dict:
    return _ref_clean({e: c * Fraction(lam) ** (e[0] + e[1] + 2 * e[2]) for e, c in p.items()})


def _ref_value(p: dict, x) -> float:
    """sum of float(c) x^e in sorted exponent order."""
    total = 0.0
    for e in sorted(p):
        total += float(p[e]) * x[0] ** e[0] * x[1] ** e[1] * x[2] ** e[2]
    return total


def _ref_fields(g: SplitMix64, count: int):
    """(reference dict, field) pairs: dyadic and non-dyadic coefficients,
    integers, and like terms that cancel exactly."""
    pool = [Fraction(1, 3), Fraction(-7, 5), Fraction(3), Fraction(10, 3)]
    for k in range(count):
        n = 1 + k % 9
        expos = (g.take(3 * n) % np.uint64(5)).astype(int).reshape(n, 3).tolist()
        floats = g.uniform(n, -2.0, 2.0).tolist()
        ref = {}
        for j, (expo, c) in enumerate(zip(map(tuple, expos), floats)):
            coeff = pool[(k + j) % len(pool)] if (k + j) % 3 == 0 else Fraction(c)
            ref = _ref_add(ref, {expo: coeff})
        if k % 4 == 3 and ref:  # cancel one monomial exactly
            e = sorted(ref)[0]
            ref = _ref_add(ref, {e: -ref[e]})
        yield ref, PolynomialField({e: c for e, c in ref.items()})


def test_integer_numerators_follow_a_fraction_reference():
    g = SplitMix64(23, "fraction-reference")
    fields = list(_ref_fields(g, 80))
    for k, (ref, u) in enumerate(fields):
        other_ref, other = fields[(k * 7 + 3) % len(fields)]
        assert u.terms == ref
        assert all(type(c) is Fraction for c in u.terms.values())
        lam = [3.0, 0.375, Fraction(2, 3), -1.25][k % 4]
        factor = [Fraction(-7, 5), 0.5, 3, Fraction(1, 3)][k % 4]
        shift = (k % 2, 1, k % 3)
        commutator = _ref_shift(_ref_partial(ref, 2), (0, 0, 0), -4)
        pairs = [
            (u.apply_x(), _ref_apply_x(ref)),
            (u.apply_y(), _ref_apply_y(ref)),
            (u.partial_field(k % 3), _ref_partial(ref, k % 3)),
            (u.dilate(lam), _ref_dilate(ref, lam)),
            (u.shift_monomial(shift, factor), _ref_shift(ref, shift, factor)),
            (u + other, _ref_add(ref, other_ref)),
            (u - other, _ref_add(ref, _ref_shift(other_ref, (0, 0, 0), -1))),
            (u - u, {}),
            (u.apply_y().apply_x() - u.apply_x().apply_y(), commutator),
            # a detour through other denominators and back
            (u.dilate(lam).dilate(1 / Fraction(lam)), ref),
            (u * factor * (1 / Fraction(factor)), ref),
        ]
        pts = g.uniform(6, -2.0, 2.0).reshape(2, 3)
        x = [float(v) for v in pts[0]]
        pairs_ij = [(i, j) for i in range(3) for j in range(i, 3)]
        for got, want in pairs:
            assert got.terms == want
            # == and hash see the value, not the denominator
            same = PolynomialField(want)
            assert got == same and hash(got) == hash(same)
            assert (got == u) == (want == ref)
            assert got.value(Point(*x)) == _ref_value(want, x)
            # the monomial table of the sorted exponents times float(c)
            expos = np.array(sorted(want), dtype=np.int64).reshape(-1, 3)
            floats = np.array([float(want[e]) for e in sorted(want)])
            table = np.prod(pts[:, None, :] ** expos[None], axis=2)
            assert got.value_batch(pts).tobytes() == (table @ floats).tobytes()
            assert got.second_partials(Point(*x), pairs_ij) == [
                _ref_value(_ref_partial(_ref_partial(want, i), j), x) for i, j in pairs_ij
            ]
    third, sixth = Fraction(1, 3), Fraction(1, 6)
    assert PolynomialField({(1, 0, 0): third}) != PolynomialField({(1, 0, 0): sixth})
    assert PolynomialField({(1, 0, 0): 1}) != PolynomialField({(1, 0, 0): 1, (0, 1, 0): 1})


def test_derived_coefficients_beyond_the_float_range_are_named():
    from heisenpde.calculus import h_hessian
    from heisenpde.operators import OperatorSpec
    from heisenpde.solver import manufacture

    # parses, but X^2u and d^2u/dx1^2 have the coefficient 2e308
    u = parse_polynomial("1e308 x1^2")
    words = ("x1^0 x2^0 x3^0", "beyond the float range", f"{sys.float_info.max:.6g}")
    calls = [
        (lambda: u.second_partials(Point(0.5, 0.0, 0.0), ((0, 1), (0, 0))), "d^2u/dx1dx1"),
        (lambda: h_hessian(u, Point(0.5, 0.0, 0.0)), "horizontal second derivative"),
        (lambda: manufacture(u, OperatorSpec.sublaplacian(), PolynomialField.constant(0)),
         "X^2u of the exact solution"),
    ]
    for call, where in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert all(w in str(err.value) for w in (*words, where)), err.value


def test_apply_x_on_coordinates():
    # X x1 = 1, X x3 = 2 x2; Y x2 = 1, Y x3 = -2 x1
    x1 = PolynomialField.coordinate(0)
    x3 = PolynomialField.coordinate(2)
    assert x1.apply_x() == PolynomialField.constant(1)
    assert x3.apply_x() == PolynomialField({(0, 1, 0): 2})
    assert x3.apply_y() == PolynomialField({(1, 0, 0): -2})


def test_dilate_composition_is_exact():
    u = parse_polynomial("x1 x2 + x3^2")
    v = u.dilate(3.0)
    # x1*x2 scales by 9, x3^2 by 81
    assert v == PolynomialField({(1, 1, 0): 9, (0, 0, 2): 81})


def test_numeric_field_second_partials():
    fn = lambda pts: np.sin(pts[:, 0]) * pts[:, 2] + pts[:, 1] ** 3
    u = NumericField(fn)
    p = Point(0.3, 0.7, -1.2)
    d00, d02, d11 = u.second_partials(p, ((0, 0), (0, 2), (1, 1)))
    assert np.isclose(d00, -np.sin(0.3) * -1.2, atol=1e-6)
    assert np.isclose(d02, np.cos(0.3), atol=1e-6)
    assert np.isclose(d11, 6 * 0.7, atol=1e-5)


def test_numeric_field_fd_order_two():
    fn = lambda pts: np.exp(pts[:, 0] + 0.5 * pts[:, 1])
    p = Point(0.1, 0.2, 0.0)
    exact = np.exp(0.1 + 0.5 * 0.2)
    errs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        u = NumericField(fn, h_fd=h)
        errs.append(abs(u.second_partials(p, ((0, 0),))[0] - exact))
    order = np.log(errs[0] / errs[2]) / np.log(4.0)
    assert order > 1.9


def test_numeric_field_rejects_a_bad_step():
    with pytest.raises(ValueError):
        NumericField(lambda pts: pts[:, 0], h_fd=0.0)


def test_smooth_abs_field_shape():
    f = smooth_abs_field(eps=0.1)
    assert f.value_batch(np.zeros((1, 3))).tolist() == [0.0]
    # gradient norm strictly below 1: Lipschitz-1; the gradient by centred
    # differences of step 1e-4 along each axis
    g = SplitMix64(32, "sa")
    step = 1e-4 * np.eye(3)
    for x in random_points(g, 20, -3, 3):
        vals = f.value_batch(np.concatenate([x + step, x - step]))
        grad = (vals[:3] - vals[3:]) / 2e-4
        assert np.linalg.norm(grad) < 1.0 + 1e-8


def test_field_from_config():
    f = field_from_config({"poly": "x1 + 1"})
    assert f.value(Point(2, 0, 0)) == 3.0
    g = field_from_config({"builtin": "smooth_abs", "eps": 0.2, "scale": 2.0})
    assert g.value_batch(np.zeros((1, 3))).tolist() == [0.0]
    with pytest.raises(ValueError):
        field_from_config({"poly": "x1", "extra": 1})
    with pytest.raises(ValueError):
        field_from_config({"builtin": "nope"})
    with pytest.raises(ValueError):
        field_from_config({"other": 1})
    with pytest.raises(ValueError, match=r"^f config 'poly': exponent 2\.5 "):
        field_from_config({"poly": "x1^2.5"}, "f")
    with pytest.raises(ValueError, match="^f config: eps must be positive$"):
        field_from_config({"builtin": "smooth_abs", "eps": -1}, "f")
