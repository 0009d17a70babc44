from fractions import Fraction

import numpy as np

from heisenpde.fields import PolynomialField
from heisenpde.rng import SplitMix64


def integers(g: SplitMix64, n: int, lo: int, hi: int) -> np.ndarray:
    """The next n ints of g uniform in [lo, hi); modulo bias negligible for hi-lo << 2^64."""
    return (g.take(n) % np.uint64(hi - lo)).astype(np.int64) + lo


def random_polynomial(g: SplitMix64, degree: int = 6, n_terms: int = 8) -> PolynomialField:
    """Random polynomial with uniform(-1,1) coefficients and total degree <= degree."""
    terms = {}
    coeffs = g.uniform(n_terms, -1.0, 1.0)
    for k in range(n_terms):
        a = int(integers(g, 1, 0, degree + 1)[0])
        b = int(integers(g, 1, 0, degree + 1 - a)[0])
        d = int(integers(g, 1, 0, max(1, (degree - a - b) // 2 + 1))[0])
        key = (a, b, d)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(float(coeffs[k]))
    return PolynomialField(terms)


def random_points(g: SplitMix64, n: int, lo: float = -2.0, hi: float = 2.0) -> np.ndarray:
    return g.uniform(3 * n, lo, hi).reshape(n, 3)


def max_interior_abs_diff(u, exact) -> float:
    """max |u - exact| over the interior nodes of two grid functions on one grid."""
    assert u.grid == exact.grid
    mask = u.grid.interior_mask()
    return float(np.abs(u.values[mask] - exact.values[mask]).max())
