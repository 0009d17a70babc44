"""Degenerate fully nonlinear operators on H^1 and PDE residual evaluation.

An OperatorSpec names a monotone map F on small symmetric matrices, one of
the kinds sublaplacian (the trace), pucci_plus, pucci_minus and trace_linear
(trace(a H) with a fixed coefficient a), together with its ellipticity
bracket (lam, Lam) and the form it acts in: "intrinsic" applies F to the
symmetrized horizontal Hessian (2x2), "lifted" applies it to
sqrt(P) D^2u sqrt(P) (3x3).  Pucci extremal operators are defined as the
max/min of trace(a H) over matrices a with spectrum in [lam, Lam] and computed
by the eigenvalue formula Lam*sum(e>0) + lam*sum(e<0) (resp. swapped), which
is the sign convention the max/min definition forces.  Every 2x2 argument,
one matrix or a stack, is evaluated by apply_batch, the solver's kernel, with
the closed 2x2 eigenvalue formula; only the 3x3 lifted argument takes the
cyclic Jacobi sweep.  Neither path calls a library eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import full_hessian, h_hessian
from .config import config_number, config_section
from .fields import ScalarField
from .group import Point, sqrt_p
from .rng import SplitMix64
from .symmetric import Sym2, Sym3

INTRINSIC = "intrinsic"
LIFTED = "lifted"

KINDS = ("sublaplacian", "pucci_plus", "pucci_minus", "trace_linear")


@dataclass(frozen=True)
class EllipticityBracket:
    """Ellipticity constants 0 < lam <= Lam."""

    lam: float
    Lam: float

    def __post_init__(self):
        if not (0.0 < self.lam <= self.Lam):
            raise ValueError(f"need 0 < lam <= Lam, got ({self.lam}, {self.Lam})")

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


def _pucci_from_eigs(eigs, bracket: EllipticityBracket, plus: bool) -> float:
    lam, Lam = bracket.lam, bracket.Lam
    hi, lo = (Lam, lam) if plus else (lam, Lam)
    total = 0.0
    # accumulate in |e| order so pucci_minus(h) == -pucci_plus(-h) bitwise
    for e in sorted(eigs, key=abs):
        total += hi * e if e > 0.0 else lo * e
    return total


def _form_of(h: Sym2 | Sym3) -> str:
    return INTRINSIC if isinstance(h, Sym2) else LIFTED


def pucci_plus(h: Sym2 | Sym3, bracket: EllipticityBracket) -> float:
    """max over admissible a of trace(a h) = Lam*sum(e>0) + lam*sum(e<0),
    for a 2x2 (intrinsic) or 3x3 (lifted) argument."""
    return OperatorSpec("pucci_plus", bracket, _form_of(h)).apply(h)


def pucci_minus(h: Sym2 | Sym3, bracket: EllipticityBracket) -> float:
    """min over admissible a of trace(a h); equals -pucci_plus(-h) exactly."""
    return OperatorSpec("pucci_minus", bracket, _form_of(h)).apply(h)


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
    def hessian_rows(self) -> tuple[int, ...]:
        """The rows of (h_xx, h_xy, h_yy) that apply_batch reads: h_xy drops
        out of the sub-Laplacian and of trace_linear with a12 = 0."""
        if self.kind == "sublaplacian" or (self.kind == "trace_linear" and self.coeff.a12 == 0):
            return (0, 2)
        return (0, 1, 2)

    def apply(self, h: Sym2 | Sym3) -> float:
        """F(h) for the 2x2 (intrinsic) or 3x3 (lifted) argument; a 2x2
        argument goes through apply_batch, the solver's evaluation."""
        if isinstance(h, Sym2):
            return float(self.apply_batch(h.a11, h.a12, h.a22))
        if self.kind == "sublaplacian":
            return h.trace()
        if self.kind == "trace_linear":
            return float(np.trace(self.coeff.mat @ h.mat))
        return _pucci_from_eigs(h.eigenvalues(), self.bracket, self.kind == "pucci_plus")

    def apply_batch(self, hxx: np.ndarray, hxy: np.ndarray, hyy: np.ndarray) -> np.ndarray:
        """Vectorized intrinsic-form evaluation on 2x2 component arrays."""
        if self.form != INTRINSIC:
            raise ValueError("apply_batch evaluates the intrinsic form")
        if self.kind == "sublaplacian":
            return hxx + hyy
        if self.kind == "trace_linear":
            a = self.coeff
            return a.a11 * hxx + 2.0 * a.a12 * hxy + a.a22 * hyy
        mean = 0.5 * (hxx + hyy)
        r = np.hypot(0.5 * (hxx - hyy), hxy)
        lo, hi = mean - r, mean + r
        plus = self.kind == "pucci_plus"
        big, small = (self.bracket.Lam, self.bracket.lam) if plus else (
            self.bracket.lam,
            self.bracket.Lam,
        )
        return np.where(lo > 0, big * lo, small * lo) + np.where(
            hi > 0, big * hi, small * hi
        )

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
            if not np.all(np.isfinite(m)):
                raise ValueError(f"operator config 'a' must be finite, got {a!r}")
            if m[0, 1] != m[1, 0]:
                raise ValueError(f"operator config 'a' must be symmetric, got {a!r}")
            coeff = Sym2.from_matrix(m)
        elif "a" in cfg:
            raise ValueError(
                f"operator config 'a' is read by kind 'trace_linear' only, not {cfg['kind']!r}"
            )
        return OperatorSpec(cfg["kind"], bracket, coeff=coeff)


def eval_intrinsic(spec: OperatorSpec, u: ScalarField, p: Point) -> float:
    """F applied to the symmetrized horizontal Hessian of u at p."""
    if spec.form != INTRINSIC:
        raise ValueError("operator is not in intrinsic form")
    return spec.apply(h_hessian(u, p))


def eval_lifted(spec: OperatorSpec, u: ScalarField, p: Point) -> float:
    """G applied to sqrt(P) D^2u sqrt(P) at p."""
    if spec.form != LIFTED:
        raise ValueError("operator is not in lifted form")
    r = sqrt_p(p).mat
    s = r @ full_hessian(u, p).mat @ r
    return spec.apply(Sym3.from_matrix(s))


def eval_operator(spec: OperatorSpec, u: ScalarField, p: Point) -> float:
    return eval_intrinsic(spec, u, p) if spec.form == INTRINSIC else eval_lifted(spec, u, p)


def residual(
    spec: OperatorSpec, c: ScalarField, f: ScalarField, u: ScalarField, p: Point
) -> float:
    """F(.) - c(p) u(p) - f(p); the zero-order coefficient must be >= 0."""
    cval = c.value(p)
    if cval < 0:
        raise ValueError(f"zero-order coefficient is negative at {p}: {cval}")
    return eval_operator(spec, u, p) - cval * u.value(p) - f.value(p)


def validate_operator(spec: OperatorSpec, samples: int = 1000, seed: int = 0) -> dict:
    """Sample ordered pairs H2 <= H1 = H2 + PSD and report bracket violations.

    Gaps are drawn with log-uniform eigenvalues in [1e-3, 1e2] so both
    well- and ill-conditioned orderings are exercised.  Violations beyond
    1e-9 * scale are reported, never raised.
    """
    dim = 2 if spec.form == INTRINSIC else 3
    g = SplitMix64(seed, f"validate-{spec.kind}-{spec.form}")
    base = g.symmetric(samples, dim, scale=2.0)
    gaps = g.spd(samples, dim)
    tops = base + gaps
    if dim == 2:
        # one apply_batch call per side on the from_matrix entries
        h1, h2 = ((m[:, 0, 0], 0.5 * (m[:, 0, 1] + m[:, 1, 0]), m[:, 1, 1]) for m in (tops, base))
        diff = spec.apply_batch(*h1) - spec.apply_batch(*h2)
    else:
        sym = Sym3.from_matrix
        diff = np.array([spec.apply(sym(t)) - spec.apply(sym(b)) for t, b in zip(tops, base)])
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
