"""Small symmetric matrices stored as upper triangles, plus the 2x2 eigenvalues.

Symmetry is structural: Sym2/Sym3 hold only the independent entries, so no
runtime symmetry checks are ever needed.  Eigenvalues of 2x2 matrices, one
matrix or a stack of components, use the closed quadratic formula
`eigenvalues2`, the one the solver's Pucci kernel runs; every larger matrix
(Sym3, the lifted Pucci argument, the 6x6 block gaps of the doubling lab)
takes numpy.linalg.eigvalsh.  eigenvalues2 takes its radius
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
    """2x2 symmetric matrix [[a11, a12], [a12, a22]]."""

    a11: float
    a12: float
    a22: float

    @staticmethod
    def from_matrix(m) -> "Sym2":
        m = np.asarray(m, dtype=float)
        return Sym2(m[0, 0], 0.5 * (m[0, 1] + m[1, 0]), m[1, 1])

    @property
    def mat(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a12, self.a22]])

    def trace(self) -> float:
        return self.a11 + self.a22

    def eigenvalues(self) -> tuple[float, float]:
        """Ascending eigenvalues by the closed quadratic formula, eigenvalues2
        on a one-matrix stack."""
        lo, hi = eigenvalues2(*(np.array([v], dtype=float) for v in (self.a11, self.a12, self.a22)))
        return float(lo[0]), float(hi[0])


@dataclass(frozen=True)
class Sym3:
    """3x3 symmetric matrix, upper triangle (a11, a12, a13, a22, a23, a33)."""

    a11: float
    a12: float
    a13: float
    a22: float
    a23: float
    a33: float

    @staticmethod
    def from_matrix(m) -> "Sym3":
        m = np.asarray(m, dtype=float)
        return Sym3(
            m[0, 0],
            0.5 * (m[0, 1] + m[1, 0]),
            0.5 * (m[0, 2] + m[2, 0]),
            m[1, 1],
            0.5 * (m[1, 2] + m[2, 1]),
            m[2, 2],
        )

    @property
    def mat(self) -> np.ndarray:
        return np.array(
            [
                [self.a11, self.a12, self.a13],
                [self.a12, self.a22, self.a23],
                [self.a13, self.a23, self.a33],
            ]
        )

    def trace(self) -> float:
        return self.a11 + self.a22 + self.a33

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues, from numpy.linalg.eigvalsh."""
        return np.linalg.eigvalsh(self.mat)


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
