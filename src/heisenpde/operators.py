"""Degenerate fully nonlinear operators on H^1.

An OperatorSpec names a monotone map F on small symmetric matrices, one of
the kinds sublaplacian (the trace), pucci_plus, pucci_minus and trace_linear
(trace(a H) with a fixed coefficient a), together with its ellipticity
bracket (lam, Lam) and the form it acts in: "intrinsic" applies F to the
symmetrized horizontal Hessian (2x2), "lifted" applies it to
sqrt(P) D^2u sqrt(P) (3x3).  Pucci extremal operators are defined as the
max/min of trace(a H) over matrices a with spectrum in [lam, Lam] and computed
by the eigenvalue formula Lam*sum(e>0) + lam*sum(e<0) (resp. swapped), which
is the sign convention the max/min definition forces.

The intrinsic form reads H through directional second differences, one row
per line v = cx X + cy Y of DIRECTIONS: D_v = v^T H v, which the solver's
stencil approximates by (u(p + rho v) + u(p - rho v) - 2 u(p)) / rho^2, a
difference whose off-centre weights are nonnegative.  apply_batch reduces
the rows that hessian_rows names: the sub-Laplacian is D_X + D_Y, and
trace_linear and Pucci rebuild the cross term h_xy = (D_{X+Y} - D_{X-Y}) / 4
in cross_term, the one place that formula lives.  A stack of matrices, one
matrix being a one-matrix stack, is evaluated by apply_stack: a 2x2 stack is
mapped to its rows (h11, h22, h11 + h22 +- 2 h12) and goes through
apply_batch, the solver's kernel, with the closed 2x2 eigenvalue formula for
Pucci; a 3x3 lifted stack takes numpy.linalg.eigvalsh.  The residual
F - c u - f of a field is the solver's (Discretization.residual_interior),
on the stencil's rows.

F's derivative has one source, Pucci's slope g'(e) per eigenvalue (_slope):
Pucci's F is the sum of g'(e) e in both forms, apply_batch writes each
node's slope sum g'(e_lo) + g'(e_hi) for the solver's Jacobi step, and
linearize returns F's exact slopes on the rows for the solver's coarse
Newton.  The linear kinds' slopes are their constant coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import config_number, config_section
from .rng import SplitMix64
from .symmetric import Sym2, Sym3, eigenvalues2

INTRINSIC = "intrinsic"
LIFTED = "lifted"

KINDS = ("sublaplacian", "pucci_plus", "pucci_minus", "trace_linear")

# the lines cx X + cy Y through a node along which second differences are
# taken, as coefficient pairs (cx, cy) on the frame
X, Y, X_PLUS_Y, X_MINUS_Y = (1, 0), (0, 1), (1, 1), (1, -1)
DIRECTIONS = (X, Y, X_PLUS_Y, X_MINUS_Y)


@dataclass(frozen=True)
class EllipticityBracket:
    """Ellipticity constants 0 < lam <= Lam, stored as floats: Pucci's
    slopes are arrays of them, and so must hold float quotients."""

    lam: float
    Lam: float

    def __post_init__(self):
        if not (0.0 < self.lam <= self.Lam):
            raise ValueError(f"need 0 < lam <= Lam, got ({self.lam}, {self.Lam})")
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "Lam", float(self.Lam))

    @staticmethod
    def from_config(cfg: dict) -> "EllipticityBracket":
        config_section(cfg, "bracket", ("lambda", "Lambda"))
        return EllipticityBracket(*(config_number(cfg, "bracket", k) for k in ("lambda", "Lambda")))


@dataclass(frozen=True)
class HolderData:
    """Holder data of the zero-order coefficient c and right-hand side f."""

    c0: float
    beta: float
    beta_prime: float
    L_c: float
    L_f: float

    def __post_init__(self):
        if not self.c0 > 0:
            raise ValueError("c0 must be positive")
        for name, e in (("beta", self.beta), ("beta_prime", self.beta_prime)):
            if not (0.0 < e <= 1.0):
                raise ValueError(f"{name} must lie in (0, 1]")
        if self.L_c < 0 or self.L_f < 0:
            raise ValueError("Holder constants must be nonnegative")

    @staticmethod
    def from_config(cfg: dict) -> "HolderData":
        config_section(cfg, "holder", ("c0", "beta", "beta_prime", "L_c", "L_f"))
        return HolderData(**{k: config_number(cfg, "holder", k) for k in cfg})


def cross_term(d_plus, d_minus):
    """h_xy = (D_{X+Y} - D_{X-Y}) / 4 from the rows along X + Y and X - Y."""
    out = d_plus - d_minus
    out *= 0.25
    return out


@dataclass(frozen=True)
class OperatorSpec:
    """A monotone operator kind with its bracket and acting form.

    kind: one of sublaplacian, pucci_plus, pucci_minus, trace_linear.
    coeff: the fixed coefficient matrix of trace_linear (Sym2 for intrinsic
    form, Sym3 for lifted); its spectrum must lie inside the bracket.
    """

    kind: str
    bracket: EllipticityBracket
    form: str = INTRINSIC
    coeff: Sym2 | Sym3 | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.form not in (INTRINSIC, LIFTED):
            raise ValueError(f"unknown form {self.form!r}")
        if self.kind == "sublaplacian" and (self.bracket.lam != 1.0 or self.bracket.Lam != 1.0):
            raise ValueError("the sub-Laplacian has bracket (1, 1); use trace_linear to rescale")
        if self.kind == "trace_linear":
            want = Sym2 if self.form == INTRINSIC else Sym3
            if not isinstance(self.coeff, want):
                raise ValueError(f"trace_linear in {self.form} form needs a {want.__name__} coeff")
            evs = np.asarray(self.coeff.eigenvalues(), dtype=float)
            if evs.min() < self.bracket.lam - 1e-12 or evs.max() > self.bracket.Lam + 1e-12:
                raise ValueError("trace_linear coefficient spectrum escapes the bracket")

    @staticmethod
    def sublaplacian(form: str = INTRINSIC) -> "OperatorSpec":
        return OperatorSpec("sublaplacian", EllipticityBracket(1.0, 1.0), form)

    @property
    def hessian_rows(self) -> tuple:
        """The directions of DIRECTIONS whose rows F reads, in the order
        apply_batch takes them: X and Y for the kinds that ignore h_xy (the
        sub-Laplacian, trace_linear with a12 = 0), all four otherwise."""
        if self.kind == "sublaplacian" or (self.kind == "trace_linear" and self.coeff.a12 == 0):
            return (X, Y)
        return DIRECTIONS

    def apply_stack(self, mats: np.ndarray) -> np.ndarray:
        """F on a symmetric (n, 2, 2) stack through apply_batch, on the rows
        D_X = h11, D_Y = h22 and D_{X+-Y} = h11 + h22 +- 2 h12, or on a
        symmetric (n, 3, 3) stack in lifted form.  Lifted Pucci eigenvalues
        come from numpy.linalg.eigvalsh and are summed in ascending |e|
        order, so that Pucci-(h) == -Pucci+(-h) bitwise: Pucci-
        breaks ties in |e| from the descending spectrum, which is the
        negated ascending spectrum of -h."""
        if mats.shape[1:] == (2, 2):
            h11, h12, h22 = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 1]
            trace = h11 + h22
            rows = {X: h11, Y: h22, X_PLUS_Y: trace + 2.0 * h12, X_MINUS_Y: trace - 2.0 * h12}
            return self.apply_batch([rows[v] for v in self.hessian_rows])
        if mats.shape[1:] != (3, 3) or self.form != LIFTED:
            raise ValueError(f"the {self.form} form cannot act on a stack of shape {mats.shape}")
        if self.kind == "sublaplacian":
            return mats[:, 0, 0] + mats[:, 1, 1] + mats[:, 2, 2]
        if self.kind == "trace_linear":
            return np.einsum("ij,nij->n", self.coeff.mat, mats)
        e = np.linalg.eigvalsh(mats)[:, :: 1 if self.kind == "pucci_plus" else -1]
        e = np.take_along_axis(e, np.argsort(np.abs(e), axis=1, kind="stable"), axis=1)
        terms = [self._slope(v) * v for v in e.T]
        return sum(terms[1:], terms[0])

    def _slope(self, e) -> np.ndarray:
        """Pucci's slope g'(e) at the eigenvalue array e: Lam on the Lam corner
        (e >= 0 for Pucci+, e <= 0 for Pucci-) and lam elsewhere.  Each term
        g'(e) e of F is bitwise max(Lam e, lam e) for Pucci+ and
        min(lam e, Lam e) for Pucci-, as 0 < lam <= Lam."""
        on_Lam = e >= 0 if self.kind == "pucci_plus" else e <= 0
        return np.where(on_Lam, self.bracket.Lam, self.bracket.lam)

    def apply_batch(self, rows, slope_sum: np.ndarray | None = None) -> np.ndarray:
        """Vectorized intrinsic-form evaluation on the direction rows of
        hessian_rows, in that order: a (k, n) array or k arrays.  For Pucci,
        an array `slope_sum` of n receives F's slope sum over the rows,
        S = g'(e_lo) + g'(e_hi), from the eigenvalues that F is summed from
        (the slopes of D_{X+Y} and D_{X-Y} cancel in it); the linear kinds,
        whose S is a constant, do not write it."""
        if self.form != INTRINSIC:
            raise ValueError("apply_batch evaluates the intrinsic form")
        d_x, d_y = rows[0], rows[1]
        if self.kind == "sublaplacian":
            return d_x + d_y
        if self.kind == "trace_linear":
            a = self.coeff
            mixed = 2.0 * a.a12 * cross_term(rows[2], rows[3]) if a.a12 else 0.0
            return a.a11 * d_x + mixed + a.a22 * d_y
        lo, hi = eigenvalues2(d_x, cross_term(rows[2], rows[3]), d_y)
        g_lo, g_hi = self._slope(lo), self._slope(hi)
        if slope_sum is not None:
            np.add(g_lo, g_hi, out=slope_sum)
        lo *= g_lo  # F = g'(e_lo) e_lo + g'(e_hi) e_hi, in the fresh eigenvalue arrays
        hi *= g_hi
        lo += hi
        return lo

    def linearize(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """F at the (k, n) direction rows of hessian_rows, as apply_batch, and
        its exact slopes dF/dD_k, (k, n).  The linear kinds' slopes are their
        coefficients, (1, 1) for the sub-Laplacian and (a11, a22[, a12 / 2,
        -a12 / 2]) for trace_linear, whose h_xy weighs D_{X+-Y} by +-1/4.
        Pucci's gradient in H, sum g'(e) v v^T over its eigenpairs, is
        g'(e_lo) I + q (H - e_lo I) with q = (g'(e_hi) - g'(e_lo)) /
        (e_hi - e_lo), and q = 0 where the two slopes agree, as at
        e_lo = e_hi; at a kink, e = 0, it takes _slope's side.  The D_X and
        D_Y slopes sum to apply_batch's slope sum up to rounding."""
        rows = np.asarray(rows, dtype=float)
        out = self.apply_batch(rows)
        if self.kind in ("sublaplacian", "trace_linear"):
            a = self.coeff or Sym2(1.0, 0.0, 1.0)  # the sub-Laplacian is a = I
            coeffs = np.array((a.a11, a.a22, 0.5 * a.a12, -0.5 * a.a12)[: len(rows)])
            return out, np.broadcast_to(coeffs[:, None], rows.shape)
        h_xy = cross_term(rows[2], rows[3])
        lo, hi = eigenvalues2(rows[0], h_xy, rows[1])
        g_lo, g_hi = self._slope(lo), self._slope(hi)
        jump = g_hi - g_lo
        q = np.divide(jump, hi - lo, out=np.zeros_like(jump), where=jump != 0)
        half = 0.5 * q * h_xy
        return out, np.stack((g_lo + q * (rows[0] - lo), g_lo + q * (rows[1] - lo), half, -half))

    @staticmethod
    def from_config(cfg: dict) -> "OperatorSpec":
        """The intrinsic-form operator of an operator config section; the
        coefficient 'a', read by trace_linear only, is a symmetric 2x2 list
        of finite numbers."""
        config_section(cfg, "operator", ("kind", "lambda", "Lambda"), ("a",))
        bracket = EllipticityBracket(
            config_number(cfg, "operator", "lambda"), config_number(cfg, "operator", "Lambda")
        )
        coeff = None
        if cfg["kind"] == "trace_linear":
            if "a" not in cfg:
                raise ValueError("operator config is missing 'a'")
            a = cfg["a"]
            if not (isinstance(a, list) and len(a) == 2):
                raise ValueError(f"operator config 'a' must be a 2x2 list of numbers, got {a!r}")
            m = np.array([config_number({"a": row}, "operator", "a", length=2) for row in a])
            if m[0, 1] != m[1, 0]:
                raise ValueError(f"operator config 'a' must be symmetric, got {a!r}")
            coeff = Sym2.from_matrix(m)
        elif "a" in cfg:
            raise ValueError(
                f"operator config 'a' is read by kind 'trace_linear' only, not {cfg['kind']!r}"
            )
        return OperatorSpec(cfg["kind"], bracket, coeff=coeff)


def validate_operator(spec: OperatorSpec, samples: int = 1000, seed: int = 0) -> dict:
    """Sample ordered pairs H2 <= H1 = H2 + PSD and report bracket violations.

    Each side of the pairs is one apply_stack call.  Gaps are drawn with
    log-uniform eigenvalues in [1e-3, 1e2] so both well- and ill-conditioned
    orderings are exercised.  Violations beyond 1e-9 * scale are reported,
    never raised.
    """
    dim = 2 if spec.form == INTRINSIC else 3
    g = SplitMix64(seed, f"validate-{spec.kind}-{spec.form}")
    base = g.symmetric(samples, dim, scale=2.0)
    gaps = g.spd(samples, dim)
    diff = spec.apply_stack(base + gaps) - spec.apply_stack(base)
    tr = np.trace(gaps, axis1=1, axis2=2)
    lam, Lam = spec.bracket.lam, spec.bracket.Lam
    scale = np.maximum(np.maximum(1.0, np.abs(diff)), Lam * tr)
    margin = np.maximum((lam * tr - diff) / scale, (diff - Lam * tr) / scale)
    worst = max(0.0, float(margin.max()))
    violations = int(np.count_nonzero(margin > 1e-9))
    return {
        "kind": spec.kind,
        "form": spec.form,
        "trials": samples,
        "violations": violations,
        "worst_gap": worst,
        "pass": violations == 0,
    }
