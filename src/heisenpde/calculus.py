"""Horizontal differential calculus on H^1.

h_gradient and h_hessian produce the intrinsic first and second order objects
(Xu, Yu) and [[X^2u, (XY+YX)u/2], [., Y^2u]].  For polynomial fields the
composed derivatives are built by applying the fields symbolically twice, so
the non-commutativity of X and Y is exercised directly; for numeric fields
they come from centered directional differences along the frozen frame at the
evaluation point (the first-order correction terms cancel in the
symmetrization, so both routes target the same matrix).  lift compresses a
full 3x3 Hessian to the intrinsic 2x2 form via the frame.
"""

from __future__ import annotations

import numpy as np

from .fields import PolynomialField, ScalarField
from .group import Point, frame, frame_batch
from .symmetric import Sym2, Sym3

HorizontalGradient = np.ndarray


def h_gradient(u: ScalarField, p: Point) -> HorizontalGradient:
    """(Xu, Yu) at p."""
    d1 = u.partial(p, 0)
    d2 = u.partial(p, 1)
    d3 = u.partial(p, 2)
    return np.array([d1 + 2.0 * p.x2 * d3, d2 - 2.0 * p.x1 * d3])


def h_hessian(u: ScalarField, p: Point) -> Sym2:
    """Symmetrized horizontal Hessian [[X^2u, (XY+YX)u/2], [., Y^2u]] at p."""
    if isinstance(u, PolynomialField):
        ux = u.apply_x()
        uy = u.apply_y()
        xx = ux.apply_x().value(p)
        yy = uy.apply_y().value(p)
        cross = 0.5 * (uy.apply_x().value(p) + ux.apply_y().value(p))
        return Sym2(xx, cross, yy)
    x, y, _ = frame(p)
    h = u.h_fd if hasattr(u, "h_fd") else 1e-4
    base = np.array([p.x1, p.x2, p.x3])

    def d2(v: np.ndarray, w: np.ndarray) -> float:
        if v is w:
            vals = u.value_batch(np.array([base + h * v, base, base - h * v]))
            return float((vals[0] - 2 * vals[1] + vals[2]) / (h * h))
        vals = u.value_batch(
            np.array(
                [base + h * (v + w), base + h * (v - w), base - h * (v - w), base - h * (v + w)]
            )
        )
        return float((vals[0] - vals[1] - vals[2] + vals[3]) / (4 * h * h))

    return Sym2(d2(x, x), d2(x, y), d2(y, y))


def full_hessian(u: ScalarField, p: Point) -> Sym3:
    """Classical symmetric Hessian via the field's derivative provider."""
    return Sym3(
        u.second_partial(p, 0, 0),
        u.second_partial(p, 0, 1),
        u.second_partial(p, 0, 2),
        u.second_partial(p, 1, 1),
        u.second_partial(p, 1, 2),
        u.second_partial(p, 2, 2),
    )


def lift(a: Sym3, p: Point) -> Sym2:
    """Compression [[<AX,X>, <AX,Y>], [<AX,Y>, <AY,Y>]] with the frame at p."""
    x, y, _ = frame(p)
    m = a.mat
    ax = m @ x
    ay = m @ y
    return Sym2(float(x @ ax), float(x @ ay), float(y @ ay))


def lift_batch(mats: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """Batched lift; mats is (n, 3, 3), xy the points (n, 2) or (n, 3)."""
    xv, yv = frame_batch(xy)
    out = np.empty((mats.shape[0], 2, 2))
    ax = np.einsum("nij,nj->ni", mats, xv)
    ay = np.einsum("nij,nj->ni", mats, yv)
    out[:, 0, 0] = np.einsum("ni,ni->n", xv, ax)
    out[:, 0, 1] = out[:, 1, 0] = np.einsum("ni,ni->n", xv, ay)
    out[:, 1, 1] = np.einsum("ni,ni->n", yv, ay)
    return out


def sublaplacian(u: ScalarField, p: Point) -> float:
    """X^2u + Y^2u = tr(D^{2,*}u) = tr(P D^2 u)."""
    return h_hessian(u, p).trace()
