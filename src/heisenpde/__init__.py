"""Heisenberg-group calculus, degenerate fully nonlinear operators on H^1,
a grid solver for F(D^{2,*}u) - c u = f that reduces directional second
differences (monotone when F is nondecreasing in them), and
Holder-regularity measurement, with a seeded verification suite.

Each formula has one entry point: an array kernel (the *_batch functions of
group and doubling, OperatorSpec.apply_stack and apply_batch, h_hessian and
full_hessian for a field at an (n, 3) array of points), or the solver's
Discretization; one point or matrix is a one-row stack, and every symmetric
matrix but trace_linear's coefficient Sym2 is a numpy array."""

from .calculus import full_hessian, h_hessian
from .doubling import (
    MaxReport,
    PenaltyParams,
    doubling_certificate,
    vertical_obstruction_check,
)
from .fields import NumericField, PolynomialField, ScalarField, parse_polynomial
from .grid import Grid3, GridFunction
from .group import Point
from .operators import (
    EllipticityBracket,
    HolderData,
    OperatorSpec,
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
    solve,
)
from .symmetric import Sym2

__version__ = "0.1.0"

__all__ = [
    "EllipticityBracket",
    "Grid3",
    "GridFunction",
    "HolderData",
    "HolderReport",
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
    "check_theorem",
    "doubling_certificate",
    "fit_alpha",
    "full_hessian",
    "h_hessian",
    "holder_seminorm",
    "manufacture",
    "modulus",
    "parse_polynomial",
    "run_pipeline",
    "solve",
    "theorem_bound",
    "validate_operator",
    "vertical_obstruction_check",
]
