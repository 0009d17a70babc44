"""Scalar fields on R^3 with two derivative providers.

PolynomialField keeps its coefficients exactly, as Python-int numerators
over one common int denominator D (not necessarily in lowest terms): the
horizontal fields and the partials multiply numerators by ints, a dilation
or a product rescales onto a new denominator, and a sum onto the lcm of
two.  So repeated applications of the horizontal fields (and hence every
commutator and lift identity) are exact; floats only appear at evaluation
time.  Each float coefficient is the int true division n / D, rounded
once; Python rounds int / int correctly, so it is bitwise
float(Fraction(n, D)), the float of the reduced Fraction in `terms`, the
exact view built on demand.  NumericField wraps an arbitrary vectorized
callable and differentiates it with centered finite differences of step
h_fd (order 2 on smooth inputs), over all rows at once.  Every lemma test
can therefore cross-check the exact route against the finite-difference one.

Every evaluation takes an (n, 3) array of points, one point being a
one-row array.  PolynomialField.value_batch multiplies the (n, T) table of
the T monomials at the n points by the coefficients.  A constant field,
every exponent zero, skips the table: it returns np.full(n, c), which is
that product bitwise, since x^0 = 1 at every point (NaN and infinity
included) and 1 * c = c.  The solver's c is such a field in every shipped
config.  Exact second derivatives are summed per row by row_sums.
"""

from __future__ import annotations

import inspect
import math
import re
import sys
from fractions import Fraction
from functools import cached_property

import numpy as np

from .config import config_number, config_section


def _ratio(coeff) -> tuple[int, int]:
    """(numerator, denominator > 0) of an exact number: a float is a dyadic
    rational, and anything else goes through Fraction."""
    if not isinstance(coeff, (int, float, Fraction)):
        coeff = Fraction(coeff)
    return coeff.as_integer_ratio()


def _coefficient_float(num: int, den: int, expo) -> float:
    """num / den rounded once, the float view of the coefficient of x^expo.
    A ValueError names the monomial when it lies beyond the float range."""
    try:
        return num / den
    except OverflowError:
        raise ValueError(
            f"the coefficient of x1^{expo[0]} x2^{expo[1]} x3^{expo[2]} lies beyond the "
            f"float range (magnitude at most {sys.float_info.max:.6g})"
        ) from None


def _monomial(expo, coeff) -> tuple[tuple[int, int, int], int, int]:
    """(exponents, numerator, denominator) of one term of a field.  A
    ValueError names the monomial unless its exponents are three
    nonnegative integers and its coefficient is a finite number."""
    try:
        key = tuple(map(int, expo))
        if len(key) != 3 or key != tuple(expo) or min(key) < 0:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ValueError(
            f"the monomial {expo!r} needs three nonnegative integer exponents"
        ) from None
    try:
        return (key, *_ratio(coeff))
    except (OverflowError, ValueError):  # an infinity, a NaN or not a number
        raise ValueError(
            f"the coefficient {coeff!r} of x1^{key[0]} x2^{key[1]} x3^{key[2]} "
            "is not a finite number"
        ) from None


def row_sums(term_lists, pts: np.ndarray) -> np.ndarray:
    """(n, k): column m sums c x1^a x2^b x3^d over the terms [((a, b, d), c)]
    of term_lists[m] at each row of the (n, 3) points, in Python floats and
    in the order of the terms.  This is the one per-row loop of the exact
    fields, and the worst gaps of `verify` depend on its order of summation."""
    out = np.empty((len(pts), len(term_lists)))
    for r, (x1, x2, x3) in enumerate(np.asarray(pts, dtype=float).tolist()):
        for m, terms in enumerate(term_lists):
            total = 0.0
            for (a, b, d), c in terms:
                total += c * x1**a * x2**b * x3**d
            out[r, m] = total
    return out


class ScalarField:
    """Values and classical second partials at the rows of an (n, 3) array
    of points; one point is a one-row array."""

    def value_batch(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def second_partials(self, pts: np.ndarray, pairs) -> np.ndarray:
        """(n, len(pairs)): d^2u/dx_i dx_j at each point, for each (i, j) in pairs."""
        raise NotImplementedError


class PolynomialField(ScalarField):
    """Polynomial in (x1, x2, x3) with exact rational coefficients.

    _num maps exponent triples (a, b, d) to nonzero int numerators over the
    one int denominator _den > 0, not necessarily in lowest terms; terms is
    the exact view, a reduced Fraction per monomial.  Inputs are converted
    exactly (every double is a dyadic rational); an exponent that is not a
    nonnegative integer, or a coefficient that is not finite, is a
    ValueError that names the monomial.
    """

    def __init__(self, terms: dict[tuple[int, int, int], Fraction | float | int]):
        ratios = [_monomial(expo, c) for expo, c in terms.items()]
        den = math.lcm(*(d for _, _, d in ratios))
        num: dict[tuple[int, int, int], int] = {}
        for key, n, d in ratios:
            num[key] = num.get(key, 0) + n * (den // d)
        self._num = {e: n for e, n in num.items() if n}
        self._den = den

    @classmethod
    def _exact(cls, num: dict[tuple[int, int, int], int], den: int) -> "PolynomialField":
        """Field from int exponent triples and int numerators over den,
        dropping zero numerators."""
        field = cls.__new__(cls)
        field._num = {e: n for e, n in num.items() if n}
        field._den = den
        return field

    @cached_property
    def terms(self) -> dict[tuple[int, int, int], Fraction]:
        """The exact coefficients, a reduced Fraction per monomial."""
        return {e: Fraction(n, self._den) for e, n in self._num.items()}

    # Float views for evaluation, built on first use: most exact
    # intermediates (those of the quadratic-form check, say) are never evaluated.
    @cached_property
    def _float_terms(self) -> list[tuple[tuple[int, int, int], float]]:
        """(exponents, float coefficient) in sorted exponent order."""
        return [(e, _coefficient_float(self._num[e], self._den, e)) for e in sorted(self._num)]

    @cached_property
    def _expos(self) -> np.ndarray:
        return np.array([e for e, _ in self._float_terms], dtype=np.int64).reshape(-1, 3)

    @cached_property
    def _coeffs(self) -> np.ndarray:
        return np.array([c for _, c in self._float_terms])

    @staticmethod
    def constant(c) -> "PolynomialField":
        return PolynomialField({(0, 0, 0): c})

    @staticmethod
    def coordinate(i: int) -> "PolynomialField":
        expo = [0, 0, 0]
        expo[i] = 1
        return PolynomialField({tuple(expo): 1})

    def value_batch(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if len(self._coeffs) == 0:
            return np.zeros(pts.shape[0])
        if not self._expos.any():  # a constant: the matvec bitwise (module docstring)
            return np.full(pts.shape[0], self._coeffs[0])
        monomials = np.prod(pts[:, None, :] ** self._expos[None, :, :], axis=2)
        return monomials @ self._coeffs

    def partial_field(self, i: int) -> "PolynomialField":
        """d/dx_i; differentiating by one coordinate never merges two monomials."""
        out: dict[tuple[int, int, int], int] = {}
        for expo, n in self._num.items():
            if expo[i]:
                new = list(expo)
                new[i] -= 1
                out[tuple(new)] = n * expo[i]
        return PolynomialField._exact(out, self._den)

    def second_partials(self, pts: np.ndarray, pairs) -> np.ndarray:
        """(n, len(pairs)): d^2u/dx_i dx_j at each point for each (i, j) in
        pairs, with no intermediate field.

        The term (n / D) x^e contributes (n k / D) x^(e - e_i - e_j) with the
        integer k = e_i (e_j - [i == j]).  Differentiating by one coordinate
        never merges two monomials and keeps their sorted order, so this is
        partial_field(i).partial_field(j) evaluated by row_sums, bitwise:
        the coefficient is rounded once, as (n k) / D, and the monomials are
        summed in the same order.  Each pair's coefficients are formed once
        per call.
        """
        items = sorted(self._num.items())
        term_lists = []
        for i, j in pairs:
            terms = []
            for e, n in items:
                k = e[i] * (e[j] - (i == j))
                if k:
                    f = list(e)
                    f[i] -= 1
                    f[j] -= 1
                    try:
                        terms.append((f, _coefficient_float(n * k, self._den, f)))
                    except ValueError as err:
                        raise ValueError(f"{err} in d^2u/dx{i + 1}dx{j + 1}") from None
            term_lists.append(terms)
        return row_sums(term_lists, pts)

    def shift_monomial(self, expo: tuple[int, int, int], factor) -> "PolynomialField":
        """Multiply by factor * x1^a x2^b x3^d."""
        top, bottom = _ratio(factor)
        return PolynomialField._exact(
            {
                (e[0] + expo[0], e[1] + expo[1], e[2] + expo[2]): n * top
                for e, n in self._num.items()
            },
            self._den * bottom,
        )

    def apply_x(self) -> "PolynomialField":
        """The field X = d/dx1 + 2*x2*d/dx3, in one exact pass over the terms."""
        out: dict[tuple[int, int, int], int] = {}
        for (a, b, d), n in self._num.items():
            if a:
                key = (a - 1, b, d)
                out[key] = out.get(key, 0) + n * a
            if d:
                key = (a, b + 1, d - 1)
                out[key] = out.get(key, 0) + n * (2 * d)
        return PolynomialField._exact(out, self._den)

    def apply_y(self) -> "PolynomialField":
        """The field Y = d/dx2 - 2*x1*d/dx3, in one exact pass over the terms."""
        out: dict[tuple[int, int, int], int] = {}
        for (a, b, d), n in self._num.items():
            if b:
                key = (a, b - 1, d)
                out[key] = out.get(key, 0) + n * b
            if d:
                key = (a + 1, b, d - 1)
                out[key] = out.get(key, 0) + n * (-2 * d)
        return PolynomialField._exact(out, self._den)

    def dilate(self, lam: float) -> "PolynomialField":
        """Compose with the dilation (lam*x1, lam*x2, lam^2*x3), exactly: for
        lam = p/q the term of weight k = a + b + 2d takes p^k q^(K - k) over
        the denominator D q^K, K the largest weight."""
        p, q = _ratio(lam)
        weights = {e: e[0] + e[1] + 2 * e[2] for e in self._num}
        top = max(weights.values(), default=0)
        p_pow, q_pow = [1], [1]
        for _ in range(top):
            p_pow.append(p_pow[-1] * p)
            q_pow.append(q_pow[-1] * q)
        return PolynomialField._exact(
            {e: n * p_pow[weights[e]] * q_pow[top - weights[e]] for e, n in self._num.items()},
            self._den * q_pow[top],
        )

    def __add__(self, other: "PolynomialField") -> "PolynomialField":
        den = math.lcm(self._den, other._den)
        mine, theirs = den // self._den, den // other._den
        out = {e: n * mine for e, n in self._num.items()}
        for e, n in other._num.items():
            out[e] = out.get(e, 0) + n * theirs
        return PolynomialField._exact(out, den)

    def __sub__(self, other: "PolynomialField") -> "PolynomialField":
        return self + (other * -1)

    def __mul__(self, t) -> "PolynomialField":
        return self.shift_monomial((0, 0, 0), t)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        """n1 D2 = n2 D1 on every monomial, over equal sets of monomials."""
        if not isinstance(other, PolynomialField) or self._num.keys() != other._num.keys():
            return False
        d1, d2 = self._den, other._den
        return all(n * d2 == other._num[e] * d1 for e, n in self._num.items())

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


class NumericField(ScalarField):
    """Field defined by a vectorized callable, differentiated by centered FD."""

    def __init__(self, fn, h_fd: float = 1e-4):
        if not h_fd > 0:
            raise ValueError("h_fd must be positive")
        self.fn = fn
        self.h_fd = h_fd

    def value_batch(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(pts, dtype=float)), dtype=float)

    def second_partials(self, pts: np.ndarray, pairs) -> np.ndarray:
        """(n, len(pairs)): the centred quotient of step h_fd for each (i, j)
        in pairs, along the axis e_i when i == j, else along e_i and e_j."""
        e = np.eye(3)
        out = np.empty((len(pts), len(pairs)))
        for m, (i, j) in enumerate(pairs):
            out[:, m] = second_difference(self, pts, self.h_fd, e[i], None if i == j else e[j])
        return out


def second_difference(u: ScalarField, pts: np.ndarray, h: float, v, w=None) -> np.ndarray:
    """Centred quotients with step h for the second derivative of u along v
    and w at each row of the (n, 3) points, from one value_batch call: three
    samples on the line when w is None (w = v), else four on the diagonals.
    A direction is one (3,) vector or an (n, 3) array of one per row."""
    pts = np.asarray(pts, dtype=float)
    if w is None:
        step = h * v
        a, b, c = u.value_batch(np.concatenate([pts + step, pts, pts - step])).reshape(3, len(pts))
        return (a - 2 * b + c) / (h * h)
    plus, minus = h * (v + w), h * (v - w)
    samples = np.concatenate([pts + plus, pts + minus, pts - minus, pts - plus])
    a, b, c, d = u.value_batch(samples).reshape(4, len(pts))
    return (a - b - c + d) / (4 * h * h)


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<var>x[123])|(?P<pow>\^)|(?P<mul>\*)|(?P<plus>\+)|(?P<minus>-))"
)


def parse_polynomial(text: str) -> PolynomialField:
    """Parse the text form ``c * x1^a x2^b x3^d + ...`` into a field.

    The coefficient and the ``*`` are optional, factors may be separated by
    spaces, and exponents are nonnegative integers in digits.  Each
    coefficient, its like terms summed, must lie in the float range.  A
    ValueError names the polynomial and the cause.
    """
    tokens: list[tuple[str, str]] = []
    pos = 0
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial")
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"unexpected character {text[pos]!r} in polynomial {text!r}")
        pos = m.end()
        kind = m.lastgroup
        tokens.append((kind, m.group(kind)))

    terms: dict[tuple[int, int, int], Fraction] = {}
    i = 0
    n = len(tokens)
    while i < n:
        sign = Fraction(1)
        while i < n and tokens[i][0] in ("plus", "minus"):
            if tokens[i][0] == "minus":
                sign = -sign
            i += 1
        if i >= n:
            raise ValueError(f"dangling sign in polynomial {text!r}")
        coeff = sign
        expo = [0, 0, 0]
        saw_factor = False
        pending_mul = False
        while i < n and tokens[i][0] in ("num", "var", "mul"):
            kind, val = tokens[i]
            if kind == "mul":
                if pending_mul or not saw_factor:
                    raise ValueError(f"misplaced '*' in polynomial {text!r}")
                pending_mul = True
                i += 1
                continue
            if kind == "num":
                if not math.isfinite(float(val)):
                    raise ValueError(f"coefficient {val} is not finite in polynomial {text!r}")
                coeff *= Fraction(float(val))
                i += 1
            else:
                axis = int(val[1]) - 1
                power = 1
                if i + 1 < n and tokens[i + 1][0] == "pow":
                    if i + 2 >= n or tokens[i + 2][0] != "num":
                        raise ValueError(f"missing exponent in polynomial {text!r}")
                    power = tokens[i + 2][1]
                    if not power.isdigit():
                        raise ValueError(
                            f"exponent {power} is not a nonnegative integer in polynomial {text!r}"
                        )
                    power = int(power)
                    i += 2
                expo[axis] += power
                i += 1
            saw_factor = True
            pending_mul = False
        if not saw_factor or pending_mul:
            raise ValueError(f"empty term in polynomial {text!r}")
        key = tuple(expo)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    field = PolynomialField(terms)
    try:
        field._float_terms  # the float view that the first evaluation reads
    except ValueError as err:
        raise ValueError(f"{err} in polynomial {text!r}") from None
    return field


def smooth_abs_field(eps: float = 0.1, scale: float = 1.0, offset: float = 0.0) -> NumericField:
    """scale * (sqrt(|x|^2 + eps^2) - eps) + offset: a smooth Lipschitz-`scale` bump."""
    if not eps > 0:
        raise ValueError("eps must be positive")

    def fn(pts: np.ndarray) -> np.ndarray:
        r2 = np.sum(np.asarray(pts, dtype=float) ** 2, axis=1)
        return scale * (np.sqrt(r2 + eps * eps) - eps) + offset

    return NumericField(fn)


BUILTIN_FIELDS = {"smooth_abs": smooth_abs_field}


def field_from_config(cfg: dict, name: str = "field") -> ScalarField:
    """Build a field from the config section `name`: {"poly": ...} or
    {"builtin": ..., <keyword arguments of the builtin>}."""
    if isinstance(cfg, dict) and "builtin" in cfg:
        builtin = cfg["builtin"]
        fn = BUILTIN_FIELDS.get(builtin) if isinstance(builtin, str) else None
        if fn is None:
            raise ValueError(f"unknown builtin field {builtin!r} in {name} config")
        config_section(cfg, name, ("builtin",), tuple(inspect.signature(fn).parameters))
        kwargs = {k: config_number(cfg, name, k) for k in cfg if k != "builtin"}
        try:
            return fn(**kwargs)
        except ValueError as err:
            raise ValueError(f"{name} config: {err}") from None
    config_section(cfg, name, ("poly",))
    if not isinstance(cfg["poly"], str):
        raise ValueError(f"{name} config 'poly' must be a string, got {cfg['poly']!r}")
    try:
        return parse_polynomial(cfg["poly"])
    except ValueError as err:
        raise ValueError(f"{name} config 'poly': {err}") from None
