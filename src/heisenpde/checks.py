"""Seeded verification suite: one named check per matrix lemma or operator
property, each returning {lemma_id, trials, worst_gap, pass, ...}.

Every check draws its randomness from a named SplitMix64 substream of the
run seed, so reports are reproducible byte for byte, and each check carries
its own independent oracle (finite differences in extended precision,
brute-force extremization, batched numpy eigensolves against the hand-rolled
operator path, closed-form cross-checks).
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction

import numpy as np

from .calculus import full_hessian, h_hessian, lift_batch
from .doubling import (
    block_gap_matrix,
    block_matrix,
    lifted_penalty_bound_batch,
    lifted_trace_gap_batch,
    make_admissible_batch,
    n_matrix_batch,
    n_norm_bound_batch,
    penalty_hessian_batch,
    penalty_hessian_sq_batch,
    sandwich_batch,
    sqrtp_ratio_batch,
    trace_gap_batch,
    vertical_obstruction_check,
)
from .fields import PolynomialField
from .group import (
    dilate_batch,
    frame_batch,
    group_inv_batch,
    group_mul_batch,
    null_direction_batch,
    p_matrix_batch,
    sqrt_p_batch,
)
from .operators import EllipticityBracket, OperatorSpec, validate_operator
from .rng import SplitMix64, uniform_words
from .symmetric import Sym2


def _report(lemma_id: str, trials: int, worst: float, passed: bool, **extra) -> dict:
    out = {"lemma_id": lemma_id, "trials": int(trials), "worst_gap": float(worst), "pass": bool(passed)}
    out.update(extra)
    return out


# A trial of a calculus check decodes one row of raw words: 8 coefficient
# words and 24 exponent words for its polynomial, then its own uniform draws.
# The rows are consecutive blocks of one take, in the order that one call
# per draw would read the stream (SplitMix64 is index-addressable).
_POLY_TERMS = 8
_POLY_WORDS = 4 * _POLY_TERMS


def _random_polynomials(words: np.ndarray, degree: int) -> Iterator[PolynomialField]:
    """One polynomial per row of words (n, 32): 8 monomials of total degree
    <= degree (x3 counted twice) with uniform(-1, 1) coefficients from words
    0-7; term k takes words 8+3k, 9+3k, 10+3k, each reduced modulo its
    sequential bound.  Each is built as the caller reaches it, so a check
    holds one trial's field at a time, not a thousand."""
    coeffs = uniform_words(words[:, :_POLY_TERMS], -1.0, 1.0)
    w = words[:, _POLY_TERMS:_POLY_WORDS].reshape(-1, _POLY_TERMS, 3)
    one = np.uint64(1)
    a = w[..., 0] % np.uint64(degree + 1)
    b = w[..., 1] % (np.uint64(degree + 1) - a)
    d = w[..., 2] % np.maximum(one, (np.uint64(degree) - a - b) // np.uint64(2) + one)
    keys = np.stack([a, b, d], axis=-1)
    for key_row, coeff_row in zip(keys, coeffs):
        terms: dict[tuple[int, int, int], float | Fraction] = {}
        for key, c in zip(map(tuple, key_row.tolist()), coeff_row.tolist()):
            # like terms are summed exactly
            terms[key] = Fraction(terms[key]) + Fraction(c) if key in terms else c
        yield PolynomialField(terms)


def _calculus_trials(
    seed: int, label: str, trials: int, degree: int, extra: int, lo: float = -2.0, hi: float = 2.0
) -> tuple[Iterator[PolynomialField], np.ndarray]:
    """Each trial's polynomial and its (trials, extra) uniform(lo, hi) draws,
    from one take of trials rows of 32 + extra words on the labelled stream."""
    width = _POLY_WORDS + extra
    words = SplitMix64(seed, label).take(width * trials).reshape(trials, width)
    return _random_polynomials(words, degree), uniform_words(words[:, _POLY_WORDS:], lo, hi)


def check_group_algebra(seed: int = 0, trials: int = 2000) -> dict:
    """Associativity, inverses, the dilation semigroup law, dilations as
    automorphisms, and the frame as the right-translation derivative
    p . e_i - p (exact, since the product is affine in its second factor)."""
    g = SplitMix64(seed, "group-algebra")
    pts = g.uniform(9 * trials, -100.0, 100.0).reshape(trials, 3, 3)
    lams = g.uniform(2 * trials, 0.1, 10.0).reshape(trials, 2)
    a, b, c = pts[:, 0], pts[:, 1], pts[:, 2]
    l1, l2 = lams[:, 0], lams[:, 1]
    x_dir, y_dir = frame_batch(a)
    e1 = np.tile([1.0, 0.0, 0.0], (trials, 1))
    e2 = np.tile([0.0, 1.0, 0.0], (trials, 1))
    gaps = [
        group_mul_batch(group_mul_batch(a, b), c) - group_mul_batch(a, group_mul_batch(b, c)),
        group_mul_batch(a, group_inv_batch(a)),
        group_mul_batch(group_inv_batch(a), a),
        dilate_batch(l1 * l2, a) - dilate_batch(l1, dilate_batch(l2, a)),
        # a dilation of the wrong degree is no automorphism
        dilate_batch(l1, group_mul_batch(a, b))
        - group_mul_batch(dilate_batch(l1, a), dilate_batch(l1, b)),
        # an abelian or wrongly signed product moves p . e_i off p + X_i(p)
        group_mul_batch(a, e1) - a - x_dir,
        group_mul_batch(a, e2) - a - y_dir,
    ]
    scale = np.maximum(1.0, np.abs(pts).max(axis=(1, 2)) ** 2)
    worst = float(max((np.abs(g).max(axis=1) / scale).max() for g in gaps))
    return _report("group.algebra", trials, worst, worst <= 1e-12)


def check_sqrtp_squares(seed: int = 0, trials: int = 10_000) -> dict:
    """(sqrt P)^2 = P within 1e-10 relative on points in [-1e3, 1e3]^3."""
    g = SplitMix64(seed, "sqrtp-squares")
    xy = g.uniform(2 * trials, -1000.0, 1000.0).reshape(trials, 2)
    r = sqrt_p_batch(xy)
    p = p_matrix_batch(xy)
    err = np.einsum("nij,njk->nik", r, r) - p
    scale = np.maximum(1.0, np.abs(p).max(axis=(1, 2)))
    worst = float((np.abs(err).max(axis=(1, 2)) / scale).max())
    # PSD of the root itself
    evs = np.linalg.eigvalsh(r)
    psd_gap = float((evs[:, 0] / np.maximum(1.0, evs[:, -1])).min())
    passed = worst <= 1e-10 and psd_gap >= -1e-10
    return _report("group.sqrtp_square", trials, worst, passed, min_eig_rel=psd_gap)


def check_p_kernel(seed: int = 0, trials: int = 10_000) -> dict:
    """P(x) annihilates (-2 x2, 2 x1, 1) exactly (fixed association)."""
    g = SplitMix64(seed, "p-kernel")
    xy = g.uniform(2 * trials, -1000.0, 1000.0).reshape(trials, 2)
    p = p_matrix_batch(xy)
    v = null_direction_batch(xy)
    rows = [
        (p[:, i, 0] * v[:, 0] + p[:, i, 1] * v[:, 1]) + p[:, i, 2] * v[:, 2] for i in range(3)
    ]
    worst = float(max(np.abs(r).max() for r in rows))
    return _report("group.p_kernel", trials, worst, worst == 0.0)


def check_sigma_factorization(seed: int = 0, trials: int = 5000) -> dict:
    """P = sigma^T sigma entrywise (fixed association)."""
    g = SplitMix64(seed, "sigma-fact")
    xy = g.uniform(2 * trials, -100.0, 100.0).reshape(trials, 2)
    p = p_matrix_batch(xy)
    x, y = frame_batch(xy)
    worst = 0.0
    for i in range(3):
        for j in range(3):
            sts = x[:, i] * x[:, j] + y[:, i] * y[:, j]
            worst = max(worst, float(np.abs(p[:, i, j] - sts).max()))
    return _report("group.sigma_factorization", trials, worst, worst == 0.0)


def check_commutator(seed: int = 0, trials: int = 100) -> dict:
    """[X, Y]u = -4 du/dx3 exactly for random polynomials (rational path)."""
    polys, _ = _calculus_trials(seed, "commutator", trials, degree=6, extra=0)
    failures = 0
    for u in polys:
        lhs = u.apply_y().apply_x() - u.apply_x().apply_y()
        if lhs != u.partial_field(2) * -4:
            failures += 1
    return _report("calculus.commutator", trials, float(failures), failures == 0)


def check_quadratic_form(seed: int = 0, trials: int = 1000) -> dict:
    """<D^2u (aX+bY), (aX+bY)> = <D^{2,*}u (a,b), (a,b)> to 1e-12 relative."""
    polys, draws = _calculus_trials(seed, "quadratic-form", trials, degree=6, extra=5)
    pts, ab = draws[:, :3], draws[:, 3:]
    x, y = frame_batch(pts)
    vs = ab[:, :1] * x + ab[:, 1:] * y
    worst = 0.0
    for u, row, w, v in zip(polys, pts, ab, vs):
        d2 = full_hessian(u, row[None])[0]
        lhs = float(v @ d2 @ v)
        h = h_hessian(u, row[None])[0]
        rhs = float(w @ h @ w)
        scale = max(1.0, abs(lhs), abs(rhs), np.abs(d2).max() * float(v @ v))
        worst = max(worst, abs(lhs - rhs) / scale)
    return _report("calculus.quadratic_form", trials, worst, worst <= 1e-12)


def check_trace_identity(seed: int = 0, trials: int = 200) -> dict:
    """tr(lift D^2u) = tr(P D^2u) = X^2u + Y^2u."""
    polys, pts = _calculus_trials(seed, "trace-identity", trials, degree=5, extra=3)
    worst = 0.0
    for u, row in zip(polys, pts):
        h = h_hessian(u, row[None])[0]
        s1 = float(h[0, 0] + h[1, 1])
        d2 = full_hessian(u, row[None])[0]
        s2 = float(np.trace(lift_batch(d2[None], row[None])[0]))
        pm = p_matrix_batch(row[None])[0]
        s3 = float(np.trace(pm @ d2))
        scale = max(1.0, abs(s1))
        worst = max(worst, abs(s1 - s2) / scale, abs(s1 - s3) / scale)
    return _report("calculus.trace_identity", trials, worst, worst <= 1e-12)


def check_dilation(seed: int = 0, trials: int = 100) -> dict:
    """X(u o dil) = lam (Xu) o dil and the lam^2 sub-Laplacian scaling, exact."""
    polys, lams = _calculus_trials(seed, "dilation", trials, degree=5, extra=1, lo=0.25, hi=4.0)
    failures = 0
    for u, lam in zip(polys, lams[:, 0].tolist()):
        if u.dilate(lam).apply_x() != u.apply_x().dilate(lam) * lam:
            failures += 1
        if u.dilate(lam).apply_y() != u.apply_y().dilate(lam) * lam:
            failures += 1
        sub = lambda w: w.apply_x().apply_x() + w.apply_y().apply_y()
        # lam^2 must be the exact rational square, not the rounded float
        if sub(u.dilate(lam)) != sub(u).dilate(lam) * (Fraction(lam) ** 2):
            failures += 1
    return _report("calculus.dilation", trials, float(failures), failures == 0)


# Angles per block of the brute-force Pucci oracle: the working arrays of a
# block stay in cache, where one array of all the angles would not.
_ANGLE_BLOCK = 8192


def pucci_bruteforce(
    h: np.ndarray, lam: float, Lam: float, n: int, seed: int
) -> tuple[float, float]:
    """(max, min) of trace(a h) over n sampled admissible a (random rotations,
    sign-optimal eigenvalue corners): brute-force Pucci+ and Pucci-, both
    from one draw of the angles.

    The angles are drawn from one stream in blocks of _ANGLE_BLOCK, with a
    running max and min across the blocks.  It needs 0 < lam <= Lam, for
    which the corner max(Lam q, lam q) is Lam q for q > 0 and lam q
    otherwise, bitwise, as rounding is monotone.
    """
    if n < 1:
        raise ValueError(f"pucci_bruteforce needs n >= 1 angles, got n={n}")
    EllipticityBracket(lam, Lam)  # raises unless 0 < lam <= Lam, both finite
    g = SplitMix64(seed, "pucci-bruteforce")
    plus, minus = -np.inf, np.inf
    for start in range(0, n, _ANGLE_BLOCK):
        t = g.uniform(min(_ANGLE_BLOCK, n - start), 0.0, np.pi)
        c, s = np.cos(t), np.sin(t)
        cc, ss, cs2 = c * c, s * s, 2 * c * s
        q1 = cc * h[0, 0] + cs2 * h[0, 1] + ss * h[1, 1]
        q2 = ss * h[0, 0] - cs2 * h[0, 1] + cc * h[1, 1]
        lq1, lq2, Lq1, Lq2 = lam * q1, lam * q2, Lam * q1, Lam * q2
        plus = np.maximum(plus, (np.maximum(Lq1, lq1) + np.maximum(Lq2, lq2)).max())
        minus = np.minimum(minus, (np.minimum(Lq1, lq1) + np.minimum(Lq2, lq2)).min())
    return float(plus), float(minus)


def check_pucci_bruteforce(seed: int = 0, trials: int = 100, samples: int = 100_000) -> dict:
    """Eigenvalue formula vs brute-force extremization within 1e-6."""
    g = SplitMix64(seed, "pucci-check")
    b = EllipticityBracket(1.0, 2.0)
    mats = g.symmetric(trials, 2, scale=1.5)
    plus, minus = (OperatorSpec(k, b).apply_stack(mats) for k in ("pucci_plus", "pucci_minus"))
    worst = 0.0
    for k in range(trials):
        bf_plus, bf_minus = pucci_bruteforce(mats[k], 1.0, 2.0, samples, seed + k)
        worst = max(worst, abs(plus[k] - bf_plus), abs(minus[k] - bf_minus))
    return _report("operators.pucci_bruteforce", trials, worst, worst <= 1e-6)


def check_pucci_duality(seed: int = 0, trials: int = 2000) -> dict:
    """Pucci-(H) = -Pucci+(-H), bitwise."""
    g = SplitMix64(seed, "pucci-duality")
    b = EllipticityBracket(0.5, 2.5)
    mats = g.symmetric(trials, 2, scale=2.0)
    minus, plus = (OperatorSpec(kind, b) for kind in ("pucci_minus", "pucci_plus"))
    gaps = minus.apply_stack(mats) + plus.apply_stack(-mats)
    worst = float(np.abs(gaps).max())
    return _report("operators.pucci_duality", trials, worst, worst == 0.0)


def check_operator_brackets(seed: int = 0, trials: int = 1000) -> dict:
    """Degenerate-ellipticity bracket for every shipped kind."""
    specs = [
        OperatorSpec.sublaplacian(),
        OperatorSpec("pucci_plus", EllipticityBracket(1.0, 2.0)),
        OperatorSpec("pucci_minus", EllipticityBracket(0.5, 1.5)),
        OperatorSpec("trace_linear", EllipticityBracket(1.0, 2.0), coeff=Sym2(1.5, 0.2, 1.2)),
        OperatorSpec("pucci_plus", EllipticityBracket(1.0, 2.0), form="lifted"),
    ]
    worst = 0.0
    violations = 0
    for spec in specs:
        rep = validate_operator(spec, samples=trials, seed=seed)
        worst = max(worst, rep["worst_gap"])
        violations += rep["violations"]
    return _report("operators.bracket", trials * len(specs), worst, violations == 0)


def _random_penalty(g: SplitMix64, n: int):
    alphas = np.concatenate(
        [np.tile([0.3, 0.5, 0.9, 1.0], n // 8 + 1)[: n // 2], g.uniform(n - n // 2, 0.2, 1.0)]
    )
    ls = g.uniform(n, 0.5, 3.0)
    mus = g.log_uniform(n, 0.1, 10.0)
    x = g.uniform(3 * n, -2.0, 2.0).reshape(n, 3)
    d = g.unit_vectors(n)
    dist = g.uniform(n, 0.1, 2.0)
    y = x + dist[:, None] * d
    return alphas, ls, mus, x, y


def check_penalty_fd(seed: int = 0, trials: int = 10_000) -> dict:
    """Closed-form M vs an extended-precision centered-difference Hessian."""
    g = SplitMix64(seed, "penalty-fd")
    alphas, ls, mus, x, y = _random_penalty(g, trials)
    m = penalty_hessian_batch(x, y, ls, alphas)
    xl = x.astype(np.longdouble)
    yl = y.astype(np.longdouble)
    al = alphas.astype(np.longdouble)
    ll = ls.astype(np.longdouble)
    h = np.longdouble(1e-5)

    def phi(z):
        return ll * np.sqrt(np.sum((z - yl) ** 2, axis=1)) ** al

    fd = np.empty((trials, 3, 3), dtype=np.longdouble)
    eye = np.eye(3, dtype=np.longdouble)
    base = phi(xl)
    for i in range(3):
        ei = h * eye[i]
        fd[:, i, i] = (phi(xl + ei) - 2 * base + phi(xl - ei)) / (h * h)
        for j in range(i + 1, 3):
            ej = h * eye[j]
            fd[:, i, j] = fd[:, j, i] = (
                phi(xl + ei + ej) - phi(xl + ei - ej) - phi(xl - ei + ej) + phi(xl - ei - ej)
            ) / (4 * h * h)
    scale = np.maximum(1e-300, np.abs(m).max(axis=(1, 2)))
    worst = float((np.abs(m - fd.astype(np.float64)).max(axis=(1, 2)) / scale).max())
    return _report("sums.penalty_fd", trials, worst, worst <= 1e-6)


def check_penalty_square(seed: int = 0, trials: int = 10_000) -> dict:
    """Closed-form M^2 equals M @ M entrywise to 1e-10."""
    g = SplitMix64(seed, "penalty-square")
    alphas, ls, mus, x, y = _random_penalty(g, trials)
    alphas = np.concatenate([alphas[: trials // 2], g.uniform(trials - trials // 2, 0.2, 2.0)])
    m = penalty_hessian_batch(x, y, ls, alphas)
    msq = penalty_hessian_sq_batch(x, y, ls, alphas)
    prod = np.einsum("nij,njk->nik", m, m)
    scale = np.maximum(1.0, np.abs(msq).max(axis=(1, 2)))
    worst = float((np.abs(msq - prod).max(axis=(1, 2)) / scale).max())
    return _report("sums.penalty_square", trials, worst, worst <= 1e-10)


def check_block_square_factor(seed: int = 0, trials: int = 10_000) -> dict:
    """[[M,-M],[-M,M]]^2 = 2 [[M^2,-M^2],[-M^2,M^2]] entrywise to 1e-10."""
    g = SplitMix64(seed, "block-square")
    alphas, ls, mus, x, y = _random_penalty(g, trials)
    big = block_matrix(penalty_hessian_batch(x, y, ls, alphas))
    bigsq = block_matrix(penalty_hessian_sq_batch(x, y, ls, alphas))
    prod = np.einsum("nij,njk->nik", big, big)
    scale = np.maximum(1.0, np.abs(bigsq).max(axis=(1, 2)))
    worst = float((np.abs(prod - 2.0 * bigsq).max(axis=(1, 2)) / scale).max())
    return _report("sums.block_square_factor", trials, worst, worst <= 1e-10)


def check_n_bound(seed: int = 0, trials: int = 10_000) -> dict:
    """|N| <= L a d^(a-2) + (2/mu) L^2 a^2 d^(2(a-2)), equality or better."""
    g = SplitMix64(seed, "n-bound")
    alphas, ls, mus, x, y = _random_penalty(g, trials)
    evs = np.linalg.eigvalsh(n_matrix_batch(x, y, ls, alphas, mus))
    norms = np.maximum(np.abs(evs[:, 0]), np.abs(evs[:, -1]))
    bound = n_norm_bound_batch(x, y, ls, alphas, mus)
    rel = (norms - bound) / np.maximum(1.0, bound)
    worst = float(rel.max())
    return _report("sums.n_bound", trials, worst, worst <= 1e-12)


def _admissible_suite(g: SplitMix64, trials: int):
    alphas, ls, mus, x, y = _random_penalty(g, trials)
    ns = n_matrix_batch(x, y, ls, alphas, mus)
    a, b = make_admissible_batch(ns, seed=int(g.seed) & 0x7FFFFFFF)
    return alphas, ls, mus, x, y, ns, a, b


def check_admissible_block(seed: int = 0, trials: int = 10_000) -> dict:
    """Generated pairs satisfy the 6x6 block inequality (min eig >= -1e-10)."""
    g = SplitMix64(seed, "admissible-block")
    _, _, _, _, _, ns, a, b = _admissible_suite(g, trials)
    w = block_gap_matrix(a, b, ns)
    evs = np.linalg.eigvalsh(w)
    scale = np.maximum(1.0, np.abs(w).max(axis=(1, 2)))
    worst = float(-(evs[:, 0] / scale).min())
    return _report("sums.admissible_block", trials, worst, worst <= 1e-10)


def check_block_scalar(seed: int = 0, trials: int = 10_000) -> dict:
    """<A xi, xi> - <B eta, eta> <= <N(xi-eta), xi-eta> on 4 pairs (xi, eta) per trial."""
    g = SplitMix64(seed, "block-scalar")
    _, _, _, _, _, ns, a, b = _admissible_suite(g, trials)
    worst = 0.0
    for _ in range(4):
        xi = g.normal((trials, 3))
        eta = g.normal((trials, 3))
        lhs = np.einsum("ni,nij,nj->n", xi, a, xi) - np.einsum("ni,nij,nj->n", eta, b, eta)
        d = xi - eta
        rhs = np.einsum("ni,nij,nj->n", d, ns, d)
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        worst = max(worst, float(((lhs - rhs) / scale).max()))
    return _report("sums.block_scalar", trials * 4, worst, worst <= 1e-9)


def check_trace_gap(seed: int = 0, trials: int = 10_000) -> dict:
    """tr(lift(A,x)) - tr(lift(B,y)) <= 4 ((x2-y2)^2 + (x1-y1)^2) n33."""
    g = SplitMix64(seed, "trace-gap")
    _, _, _, x, y, ns, a, b = _admissible_suite(g, trials)
    lhs, rhs = trace_gap_batch(a, b, ns, x, y)
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    worst = float(((lhs - rhs) / scale).max())
    return _report("sums.trace_gap", trials, worst, worst <= 1e-9)


def check_lifted_trace_gap(seed: int = 0, trials: int = 10_000) -> dict:
    """tr(P(x)A - P(y)B) <= 3 |N| |sqrtP(x)-sqrtP(y)|_F^2, and the penalty
    form with the empirical C2 measured on the suite's own samples."""
    g = SplitMix64(seed, "lifted-trace-gap")
    alphas, ls, mus, x, y, ns, a, b = _admissible_suite(g, trials)
    lhs, rhs = lifted_trace_gap_batch(a, b, ns, x, y)
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    worst = float(((lhs - rhs) / scale).max())

    ok = np.hypot(x[:, 0] - y[:, 0], x[:, 1] - y[:, 1]) > 1e-9
    c2 = float(sqrtp_ratio_batch(x, y)[ok].max())
    rhs_pen = lifted_penalty_bound_batch(x, y, ls, alphas, mus, c2)
    scale_pen = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs_pen)))
    worst_pen = float(((lhs - rhs_pen) / scale_pen).max())
    passed = worst <= 1e-9 and worst_pen <= 1e-9
    return _report(
        "sums.lifted_trace_gap", trials, max(worst, worst_pen), passed, c2=c2, worst_gap_penalty=worst_pen
    )


def check_psd_sandwich(seed: int = 0, trials: int = 10_000) -> dict:
    """P S1 P <= P S2 P whenever S1 <= S2 and P >= 0."""
    g = SplitMix64(seed, "psd-sandwich")
    p = g.spd(trials, 3, 1e-2, 1e2)
    d = sandwich_batch(p, g.spd(trials, 3, 1e-3, 1e1))
    evs = np.linalg.eigvalsh(d)
    scale = np.maximum(1.0, np.abs(d).max(axis=(1, 2)))
    worst = float(-(evs[:, 0] / scale).min())
    return _report("sums.psd_sandwich", trials, worst, worst <= 1e-9)


def check_sqrtp_lipschitz(seed: int = 0, trials: int = 100_000) -> dict:
    """|sqrtP(x) - sqrtP(y)|_F / |x'-y'| bounded over the far-field regime
    (0.1 < |x-y| < 10, |x'| up to 1e3); reports the empirical C2."""
    g = SplitMix64(seed, "sqrtp-lipschitz")
    xy = g.uniform(2 * trials, -1000.0, 1000.0).reshape(trials, 2)
    d = g.unit_vectors(trials, 2)
    dist = g.uniform(trials, 0.1, 10.0)
    c2 = float(sqrtp_ratio_batch(xy, xy + dist[:, None] * d).max())
    return _report("sums.sqrtp_lipschitz", trials, c2, np.isfinite(c2) and c2 <= 8.0, c2=c2)


def check_vertical_obstruction(seed: int = 0, trials: int = 2) -> dict:
    """The third rows of sqrt(P) and sqrt(P) e3 at two pairs of points on
    the vertical axis; a trial is one pair.  The check draws nothing, so it
    takes seed and trials, as every check does, and reads neither."""
    del seed, trials
    pairs = ((1.0, -1.0), (0.25, 3.0))
    ok = all(vertical_obstruction_check(x3, y3) for x3, y3 in pairs)
    return _report("sums.vertical_obstruction", len(pairs), 0.0 if ok else 1.0, ok)


ALL_CHECKS = [
    ("group.algebra", check_group_algebra),
    ("group.sqrtp_square", check_sqrtp_squares),
    ("group.p_kernel", check_p_kernel),
    ("group.sigma_factorization", check_sigma_factorization),
    ("calculus.commutator", check_commutator),
    ("calculus.quadratic_form", check_quadratic_form),
    ("calculus.trace_identity", check_trace_identity),
    ("calculus.dilation", check_dilation),
    ("operators.pucci_bruteforce", check_pucci_bruteforce),
    ("operators.pucci_duality", check_pucci_duality),
    ("operators.bracket", check_operator_brackets),
    ("sums.penalty_fd", check_penalty_fd),
    ("sums.penalty_square", check_penalty_square),
    ("sums.block_square_factor", check_block_square_factor),
    ("sums.n_bound", check_n_bound),
    ("sums.admissible_block", check_admissible_block),
    ("sums.block_scalar", check_block_scalar),
    ("sums.trace_gap", check_trace_gap),
    ("sums.lifted_trace_gap", check_lifted_trace_gap),
    ("sums.psd_sandwich", check_psd_sandwich),
    ("sums.sqrtp_lipschitz", check_sqrtp_lipschitz),
    ("sums.vertical_obstruction", check_vertical_obstruction),
]


def run_checks(name_filter: str | None = None, seed: int = 0) -> list[dict]:
    """Run the (optionally filtered) suite; substring match on lemma ids."""
    results = []
    for name, fn in ALL_CHECKS:
        if name_filter and name_filter not in name:
            continue
        results.append(fn(seed=seed))
    return results
