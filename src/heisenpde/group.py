"""The Heisenberg group H^1 on R^3: group law, dilations, frame, and P, sqrt(P).

Points are (x1, x2, x3) with the non-commutative product
``x . y = (x1+y1, x2+y2, x3+y3+2*(y1*x2 - y2*x1))``.  The horizontal frame is
X = (1, 0, 2*x2), Y = (0, 1, -2*x1), T = (0, 0, 1), with [X, Y] = -4T.  The
coefficient matrix sigma has rows X, Y (frame_batch); P = sigma^T sigma
(p_matrix_batch) is positive semidefinite with a structurally zero
eigenvalue, and sqrt_p_batch is its matrix square root in a closed form that
is regular at x' = 0.

Each formula is implemented once, over (n, 3) arrays of points (the *_batch
functions); a single point is a one-row array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class Point:
    """A point of H^1 ~ R^3; x' denotes the horizontal pair (x1, x2)."""

    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        if not (math.isfinite(self.x1) and math.isfinite(self.x2) and math.isfinite(self.x3)):
            raise ValueError("point coordinates must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3])


def group_mul_batch(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise products p . q of two (n, 3) arrays of points."""
    out = p + q
    out[:, 2] += 2.0 * (q[:, 0] * p[:, 1] - q[:, 1] * p[:, 0])
    return out


def group_inv_batch(p: np.ndarray) -> np.ndarray:
    """Row-wise inverses of an (n, 3) array of points."""
    return -p


def dilate_batch(lam, p: np.ndarray) -> np.ndarray:
    """Homogeneous dilations (lam*x1, lam*x2, lam^2*x3) of an (n, 3) array;
    lam is a positive scalar or an (n,) array of positive factors."""
    lam = np.asarray(lam, dtype=float)
    if not np.all(lam > 0.0):
        raise ValueError(f"dilation factor must be positive, got {lam}")
    return np.stack([lam * p[:, 0], lam * p[:, 1], lam * lam * p[:, 2]], axis=1)


def frame_batch(xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The frame fields X = (1, 0, 2*x2) and Y = (0, 1, -2*x1), i.e. the rows
    of sigma, at a batch of points; xy is (n, 2) or (n, 3) (only x1, x2 are
    read) and X, Y are (n, 3)."""
    n = xy.shape[0]
    x = np.zeros((n, 3))
    y = np.zeros((n, 3))
    x[:, 0] = 1.0
    x[:, 2] = 2.0 * xy[:, 1]
    y[:, 1] = 1.0
    y[:, 2] = -2.0 * xy[:, 0]
    return x, y


def p_matrix_batch(xy: np.ndarray) -> np.ndarray:
    """P = sigma^T sigma at a batch of points; xy is (n, 2) or (n, 3), result
    (n, 3, 3).  P annihilates (-2*x2, 2*x1, 1) exactly: a33 is written as
    4*(x1*x1 + x2*x2) so the null-vector product cancels in IEEE arithmetic
    (powers of two commute with rounding)."""
    x1, x2 = xy[:, 0], xy[:, 1]
    n = xy.shape[0]
    out = np.zeros((n, 3, 3))
    out[:, 0, 0] = 1.0
    out[:, 1, 1] = 1.0
    out[:, 0, 2] = out[:, 2, 0] = 2.0 * x2
    out[:, 1, 2] = out[:, 2, 1] = -2.0 * x1
    out[:, 2, 2] = 4.0 * (x1 * x1 + x2 * x2)
    return out


def null_direction_batch(xy: np.ndarray) -> np.ndarray:
    """The exact kernel vectors (-2*x2, 2*x1, 1) of P; result (n, 3)."""
    return np.stack([-2.0 * xy[:, 1], 2.0 * xy[:, 0], np.ones(xy.shape[0])], axis=1)


def sqrt_p_batch(xy: np.ndarray) -> np.ndarray:
    """Closed-form square root of P, regular at x' = 0; xy is (n, 2) or
    (n, 3), result (n, 3, 3).

    Writing w = (2*x2, -2*x1) (so P = [[I, w], [w^T, |w|^2]]), the PSD root is
    sigma^T (sigma sigma^T)^{-1/2} sigma = [[I - (1-1/s) ww^T/|w|^2, w/s],
    [w^T/s, |w|^2/s]] with s = sqrt(1 + |w|^2).  In regularized entries, with
    D = (1+s)*s: diagonal 1 - 4*x2^2/D, 1 - 4*x1^2/D, 4*(x1^2+x2^2)/s and
    off-diagonal 4*x1*x2/D, 2*x2/s, -2*x1/s.  (The x2^2/x1^2 placement on the
    diagonal is forced by sqrt_p_batch(xy)^2 = p_matrix_batch(xy).)
    """
    x1, x2 = xy[:, 0], xy[:, 1]
    rho2 = x1 * x1 + x2 * x2
    s = np.sqrt(1.0 + 4.0 * rho2)
    d = (1.0 + s) * s
    n = xy.shape[0]
    out = np.empty((n, 3, 3))
    out[:, 0, 0] = 1.0 - 4.0 * x2 * x2 / d
    out[:, 1, 1] = 1.0 - 4.0 * x1 * x1 / d
    out[:, 2, 2] = 4.0 * rho2 / s
    out[:, 0, 1] = out[:, 1, 0] = 4.0 * x1 * x2 / d
    out[:, 0, 2] = out[:, 2, 0] = 2.0 * x2 / s
    out[:, 1, 2] = out[:, 2, 1] = -2.0 * x1 / s
    return out
