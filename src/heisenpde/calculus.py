"""Horizontal differential calculus on H^1, at the rows of an (n, 3) array
of points; one point is a one-row array.

h_hessian produces the stack of intrinsic second order matrices
[[X^2u, (XY+YX)u/2], [., Y^2u]], whose trace is the sub-Laplacian
X^2u + Y^2u.  For polynomial fields the composed derivatives are built by
applying the fields symbolically twice, so the non-commutativity of X and Y
is exercised directly, and evaluated by fields.row_sums; for numeric fields
they come from centered directional differences along the frozen frame at
each point (the first-order correction terms cancel in the symmetrization,
so both routes target the same matrix; the quotient is
fields.second_difference, shared with NumericField).  full_hessian is the
stack of classical 3x3 Hessians, and lift_batch compresses a stack of 3x3
matrices to the intrinsic 2x2 form via the frame.
"""

from __future__ import annotations

import numpy as np

from .fields import PolynomialField, ScalarField, row_sums, second_difference
from .group import frame_batch


def h_second_fields(u: PolynomialField) -> tuple[PolynomialField, ...]:
    """(X^2u, XYu, YXu, Y^2u) as exact polynomials, where XYu = X(Yu)."""
    ux, uy = u.apply_x(), u.apply_y()
    return ux.apply_x(), uy.apply_x(), ux.apply_y(), uy.apply_y()


def h_hessian(u: ScalarField, pts: np.ndarray) -> np.ndarray:
    """Symmetrized horizontal Hessians [[X^2u, (XY+YX)u/2], [., Y^2u]] at
    the rows of the (n, 3) points, an (n, 2, 2) stack."""
    pts = np.asarray(pts, dtype=float)
    if isinstance(u, PolynomialField):
        try:  # the columns X^2u, XYu, YXu, Y^2u
            h = row_sums([w._float_terms for w in h_second_fields(u)], pts)
        except ValueError as err:
            raise ValueError(f"{err} in a horizontal second derivative") from None
        h[:, 1] = h[:, 2] = 0.5 * (h[:, 1] + h[:, 2])
        return h.reshape(-1, 2, 2)
    x, y = frame_batch(pts)
    step = u.h_fd if hasattr(u, "h_fd") else 1e-4
    xx = second_difference(u, pts, step, x)
    cross = second_difference(u, pts, step, x, y)
    yy = second_difference(u, pts, step, y)
    return np.stack([xx, cross, cross, yy], axis=1).reshape(-1, 2, 2)


_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def full_hessian(u: ScalarField, pts: np.ndarray) -> np.ndarray:
    """Classical symmetric Hessians at the rows of the (n, 3) points, an
    (n, 3, 3) stack, from the field's derivative provider (one exact pass
    over the terms of a polynomial field per upper-triangle entry)."""
    # entry (i, j) is column _UPPER.index((min(i, j), max(i, j)))
    return u.second_partials(pts, _UPPER)[:, [[0, 1, 2], [1, 3, 4], [2, 4, 5]]]


def lift_batch(mats: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """Compressions [[<AX,X>, <AX,Y>], [<AX,Y>, <AY,Y>]] of a stack of 3x3
    matrices A with the frame at each point; mats is (n, 3, 3), xy the
    points (n, 2) or (n, 3)."""
    xv, yv = frame_batch(xy)
    out = np.empty((mats.shape[0], 2, 2))
    ax = np.einsum("nij,nj->ni", mats, xv)
    ay = np.einsum("nij,nj->ni", mats, yv)
    out[:, 0, 0] = np.einsum("ni,ni->n", xv, ax)
    out[:, 0, 1] = out[:, 1, 0] = np.einsum("ni,ni->n", xv, ay)
    out[:, 1, 1] = np.einsum("ni,ni->n", yv, ay)
    return out
