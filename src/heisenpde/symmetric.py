"""trace_linear's 2x2 symmetric coefficient, and the 2x2 eigenvalues.

Sym2 holds the independent entries (a11, a12, a22) of the coefficient a
of trace(a H), so its symmetry is structural.  Every other symmetric
matrix is a numpy array, one matrix being a one-matrix stack.
Eigenvalues of 2x2 matrices, given as arrays of components, use the closed
quadratic formula `eigenvalues2`, the one the solver's Pucci kernel runs;
every larger matrix (the lifted Pucci argument, the 6x6 block gaps of the
doubling lab) takes numpy.linalg.eigvalsh.  eigenvalues2 takes its radius
sqrt(d^2 + a12^2), d = (a11 - a22) / 2, from the squares, within 1 ulp of
np.hypot(d, a12), and calls np.hypot only at the elements where the sum of
squares is not a finite normal number: there a square overflowed or
underflowed, or an entry is not finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_TINY = np.finfo(float).tiny  # the smallest normal float


@dataclass(frozen=True)
class Sym2:
    """2x2 symmetric matrix [[a11, a12], [a12, a22]], trace_linear's coefficient."""

    a11: float
    a12: float
    a22: float

    @staticmethod
    def from_matrix(m) -> "Sym2":
        m = np.asarray(m, dtype=float)
        return Sym2(m[0, 0], 0.5 * (m[0, 1] + m[1, 0]), m[1, 1])


def eigenvalues2(a11, a12, a22):
    """Ascending eigenvalues (lo, hi) of [[a11, a12], [a12, a22]] by the
    closed quadratic formula mean -+ r, elementwise over float arrays of
    components, with mean = (a11 + a22) / 2 and the radius
    r = sqrt(d^2 + a12^2), d = (a11 - a22) / 2, formed in place.  Where
    d^2 + a12^2 is not a finite normal number, a square overflowed or
    underflowed or an entry is not finite, r is np.hypot(d, a12) instead;
    elsewhere it is within 1 ulp of it.  The squares raise no floating-point
    warning of their own."""
    hi = a11 + a22
    hi *= 0.5  # the mean, which becomes hi
    d = a11 - a22
    d *= 0.5
    with np.errstate(over="ignore", under="ignore"):
        r = d * d
        lo = a12 * a12  # a buffer here, lo on return
        r += lo
    # min and max see any NaN or infinity without a temporary array
    normal = r.size == 0 or (r.min() >= _TINY and r.max() < np.inf)
    bad = None if normal else ~((r >= _TINY) & (r < np.inf))
    np.sqrt(r, out=r)
    if bad is not None:
        r[bad] = np.hypot(d[bad], a12[bad])
    np.subtract(hi, r, out=lo)
    hi += r
    return lo, hi
