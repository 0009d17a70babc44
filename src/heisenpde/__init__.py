"""Heisenberg-group calculus, degenerate fully nonlinear operators on H^1,
a grid solver for F(D^{2,*}u) - c u = f that reduces directional second
differences (monotone when F is nondecreasing in them), and
Holder-regularity measurement, with a seeded verification suite."""

from .calculus import full_hessian, h_gradient, h_hessian, lift, sublaplacian
from .doubling import (
    MaxReport,
    PenaltyParams,
    doubling_certificate,
    vertical_obstruction_check,
)
from .fields import NumericField, PolynomialField, ScalarField, parse_polynomial
from .grid import Grid3, GridFunction
from .group import ORIGIN, Point, dilate, frame, group_inv, group_mul, p_matrix, sigma, sqrt_p
from .operators import (
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
from .pipeline import run_pipeline
from .regularity import (
    HolderReport,
    check_theorem,
    fit_alpha,
    holder_seminorm,
    modulus,
    theorem_bound,
)
from .solver import (
    ProblemSpec,
    SolveResult,
    manufacture,
    residual_norm,
    solve,
    stencil_hessian,
    step,
)
from .symmetric import Mat2x3, Sym2, Sym3

__version__ = "0.1.0"

__all__ = [
    "ORIGIN",
    "EllipticityBracket",
    "Grid3",
    "GridFunction",
    "HolderData",
    "HolderReport",
    "Mat2x3",
    "MaxReport",
    "NumericField",
    "OperatorSpec",
    "PenaltyParams",
    "Point",
    "PolynomialField",
    "ProblemSpec",
    "ScalarField",
    "SolveResult",
    "Sym2",
    "Sym3",
    "check_theorem",
    "dilate",
    "doubling_certificate",
    "eval_intrinsic",
    "eval_lifted",
    "fit_alpha",
    "frame",
    "full_hessian",
    "group_inv",
    "group_mul",
    "h_gradient",
    "h_hessian",
    "holder_seminorm",
    "lift",
    "manufacture",
    "modulus",
    "p_matrix",
    "parse_polynomial",
    "pucci_minus",
    "pucci_plus",
    "residual",
    "residual_norm",
    "run_pipeline",
    "sigma",
    "solve",
    "sqrt_p",
    "stencil_hessian",
    "step",
    "sublaplacian",
    "theorem_bound",
    "validate_operator",
    "vertical_obstruction_check",
]
