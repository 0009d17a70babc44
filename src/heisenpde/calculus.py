"""Horizontal differential calculus on H^1.

h_hessian produces the intrinsic second order object
[[X^2u, (XY+YX)u/2], [., Y^2u]], whose trace is the sub-Laplacian
X^2u + Y^2u.  For polynomial fields the composed derivatives are built by
applying the fields symbolically twice, so the non-commutativity of X and Y
is exercised directly; for numeric fields they come from centered
directional differences along the frozen frame at the evaluation point (the
first-order correction terms cancel in the symmetrization, so both routes
target the same matrix; the quotient is fields.second_difference, shared
with NumericField).  full_hessian is the classical 3x3 Hessian, and
lift_batch compresses a stack of them to the intrinsic 2x2 form via the
frame.
"""

from __future__ import annotations

import numpy as np

from .fields import PolynomialField, ScalarField, second_difference
from .group import Point, frame_batch
from .symmetric import Sym2, Sym3


def h_second_fields(u: PolynomialField) -> tuple[PolynomialField, ...]:
    """(X^2u, XYu, YXu, Y^2u) as exact polynomials, where XYu = X(Yu)."""
    ux, uy = u.apply_x(), u.apply_y()
    return ux.apply_x(), uy.apply_x(), ux.apply_y(), uy.apply_y()


def h_hessian(u: ScalarField, p: Point) -> Sym2:
    """Symmetrized horizontal Hessian [[X^2u, (XY+YX)u/2], [., Y^2u]] at p."""
    if isinstance(u, PolynomialField):
        try:
            xx, xy, yx, yy = (w.value(p) for w in h_second_fields(u))
        except ValueError as err:
            raise ValueError(f"{err} in a horizontal second derivative") from None
        return Sym2(xx, 0.5 * (xy + yx), yy)
    (x,), (y,) = frame_batch(p.as_array()[None])
    h = u.h_fd if hasattr(u, "h_fd") else 1e-4
    return Sym2(*(second_difference(u, p, h, v, w) for v, w in ((x, None), (x, y), (y, None))))


_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def full_hessian(u: ScalarField, p: Point) -> Sym3:
    """Classical symmetric Hessian via the field's derivative provider (one
    exact pass over the terms of a polynomial field)."""
    return Sym3(*u.second_partials(p, _UPPER))


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
