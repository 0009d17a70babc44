import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import random_polynomial
from hypothesis import given, settings
from hypothesis import strategies as st

import heisenpde.checks as checks
from heisenpde.fields import PolynomialField
from heisenpde.rng import SplitMix64


@pytest.mark.parametrize(
    "fn,kwargs",
    [
        (checks.check_group_algebra, {"trials": 200}),
        (checks.check_sqrtp_squares, {"trials": 500}),
        (checks.check_p_kernel, {"trials": 500}),
        (checks.check_sigma_factorization, {"trials": 300}),
        (checks.check_commutator, {"trials": 20}),
        (checks.check_quadratic_form, {"trials": 100}),
        (checks.check_trace_identity, {"trials": 40}),
        (checks.check_dilation, {"trials": 20}),
        (checks.check_pucci_bruteforce, {"trials": 10, "samples": 100_000}),
        (checks.check_pucci_duality, {"trials": 200}),
        (checks.check_operator_brackets, {"trials": 150}),
        (checks.check_penalty_fd, {"trials": 500}),
        (checks.check_penalty_square, {"trials": 500}),
        (checks.check_block_square_factor, {"trials": 500}),
        (checks.check_n_bound, {"trials": 500}),
        (checks.check_admissible_block, {"trials": 500}),
        (checks.check_block_scalar, {"trials": 500}),
        (checks.check_trace_gap, {"trials": 500}),
        (checks.check_lifted_trace_gap, {"trials": 500}),
        (checks.check_psd_sandwich, {"trials": 500}),
        (checks.check_sqrtp_lipschitz, {"trials": 5000}),
        (checks.check_vertical_obstruction, {"trials": 1000}),
    ],
)
def test_each_check_passes_at_reduced_scale(fn, kwargs):
    report = fn(seed=11, **kwargs)
    assert report["pass"], report
    assert set(report) >= {"lemma_id", "trials", "worst_gap", "pass"}


def test_vertical_obstruction_reports_the_pairs_it_checks():
    # it draws nothing: whatever the seed and trials, it checks two pairs
    for seed, trials in ((0, 2), (11, 10_000)):
        report = checks.check_vertical_obstruction(seed=seed, trials=trials)
        assert (report["trials"], report["pass"]) == (2, True)


def test_registry_covers_all_checks():
    names = [name for name, _ in checks.ALL_CHECKS]
    assert len(names) == len(set(names))
    prefixes = {n.split(".")[0] for n in names}
    assert prefixes == {"group", "calculus", "operators", "sums"}


def test_run_checks_filter_and_determinism():
    a = checks.run_checks(name_filter="group", seed=5)
    assert all(r["lemma_id"].startswith("group.") for r in a)
    assert len(a) == 4
    b = checks.run_checks(name_filter="group", seed=5)
    assert a == b
    assert checks.run_checks(name_filter="no-such-check") == []


def test_flipped_pucci_is_detected(monkeypatch):
    from heisenpde.operators import OperatorSpec, cross_term

    # a corrupted build: the printed sign convention taken literally
    def flipped(self, rows):
        hxx, hxy, hyy = rows[0], cross_term(rows[2], rows[3]), rows[1]
        lam, Lam = self.bracket.lam, self.bracket.Lam
        mean, r = 0.5 * (hxx + hyy), np.hypot(0.5 * (hxx - hyy), hxy)
        return sum(np.where(e > 0, Lam * e, -lam * e) for e in (mean - r, mean + r))

    monkeypatch.setattr(OperatorSpec, "apply_batch", flipped)
    report = checks.check_pucci_bruteforce(seed=0, trials=5, samples=20_000)
    assert not report["pass"]


@pytest.mark.parametrize(
    "name,corrupt,check",
    [
        # an inverse that keeps x3
        ("group_inv_batch", lambda inv: lambda p: inv(p) * [1, 1, -1], "check_group_algebra"),
        # a product that drops the first factor's x3
        ("group_mul_batch", lambda mul: lambda p, q: mul(p * [1, 1, 0], q), "check_group_algebra"),
        # a dilation by lam + 1, which is not a one-parameter group
        ("dilate_batch", lambda dil: lambda lam, p: dil(lam + 1.0, p), "check_group_algebra"),
        # a dilation of degree 1 in x3: a one-parameter group, no automorphism
        (
            "dilate_batch",
            lambda dil: lambda lam, p: p * np.reshape(lam, (-1, 1)),
            "check_group_algebra",
        ),
        # the abelian product of R^3
        ("group_mul_batch", lambda mul: lambda p, q: p + q, "check_group_algebra"),
        # X with the wrong sign in its vertical component
        (
            "frame_batch",
            lambda fr: lambda xy: (fr(xy)[0] * [1, 1, -1], fr(xy)[1]),
            "check_sigma_factorization",
        ),
        ("penalty_hessian_batch", lambda m: lambda *a: m(*a) * 1.0001, "check_penalty_fd"),
        ("penalty_hessian_sq_batch", lambda m: lambda *a: m(*a) * 1.000001, "check_penalty_square"),
        # a norm bound without its (2/mu) M^2 part
        ("n_norm_bound_batch", lambda b: lambda *a: b(*a[:4], np.inf), "check_n_bound"),
        # the frame of the reflected point, whose vertical parts change sign
        ("lift_batch", lambda lift: lambda m, xy: lift(m, -xy), "check_trace_identity"),
        # the gap taken the wrong way round, P (S1 - S2) P
        ("sandwich_batch", lambda s: lambda p, gap: s(p, -gap), "check_psd_sandwich"),
    ],
    ids=[
        "group_inv",
        "group_mul",
        "dilate",
        "dilate_degree",
        "group_mul_abelian",
        "frame",
        "M",
        "M2",
        "n_norm_bound",
        "lift",
        "sandwich",
    ],
)
def test_corrupted_shipped_formula_is_detected(monkeypatch, name, corrupt, check):
    monkeypatch.setattr(checks, name, corrupt(getattr(checks, name)))
    report = getattr(checks, check)(seed=0, trials=200)
    assert not report["pass"], report


def test_bruteforce_oracle_close_on_known_case():
    h = np.array([[2.0, 0.0], [0.0, -3.0]])
    val_plus, val_minus = checks.pucci_bruteforce(h, 1.0, 2.0, 100_000, seed=0)
    assert abs(val_plus - 1.0) < 1e-6
    assert abs(val_minus - (-4.0)) < 1e-6


def _single_array_bruteforce(h, lam, Lam, n, seed):
    """The oracle as one array of all n angles (before the blocked loop)."""
    g = SplitMix64(seed, "pucci-bruteforce")
    t = g.uniform(n, 0.0, np.pi)
    c, s = np.cos(t), np.sin(t)
    q1 = c * c * h[0, 0] + 2 * c * s * h[0, 1] + s * s * h[1, 1]
    q2 = s * s * h[0, 0] - 2 * c * s * h[0, 1] + c * c * h[1, 1]
    plus = (np.where(q1 > 0, Lam, lam) * q1 + np.where(q2 > 0, Lam, lam) * q2).max()
    minus = (np.where(q1 > 0, lam, Lam) * q1 + np.where(q2 > 0, lam, Lam) * q2).min()
    return float(plus), float(minus)


@pytest.mark.parametrize("n", [1, 5, 8192, 8193, 100_000])
def test_blocked_bruteforce_is_the_single_array_formula_bitwise(n):
    mats = SplitMix64(n, "blocked-oracle").symmetric(6, 2, scale=1.5)
    for k, h in enumerate(mats):
        for lam, Lam in ((1.0, 2.0), (0.5, 2.5), (1.0, 1.0)):
            got = checks.pucci_bruteforce(h, lam, Lam, n, seed=k)
            assert got == _single_array_bruteforce(h, lam, Lam, n, k)


INDEFINITE = np.array([[1.0, 0.7], [0.7, -2.0]])

# (h, lam, Lam) at the edges of the branch and bound: flat G (zero, c I,
# semidefinite h, lam = Lam) keeps every bucket; the scales try its slack;
# a nan or inf entry evaluates every angle
ORACLE_EDGE_CASES = {
    "zero": (np.zeros((2, 2)), 1.0, 2.0),
    "c-identity": (-1.5 * np.eye(2), 1.0, 2.0),
    "psd": (np.array([[2.0, 0.5], [0.5, 1.0]]), 1.0, 2.0),
    "psd-singular": (np.array([[1.0, 1.0], [1.0, 1.0]]), 1.0, 2.0),
    "nsd": (np.array([[-1.0, 0.3], [0.3, -0.5]]), 0.5, 2.5),
    "lam-is-Lam": (INDEFINITE, 1.5, 1.5),
    "scale-1e150": (1e150 * INDEFINITE, 1.0, 2.0),
    "scale-1e-150": (1e-150 * INDEFINITE, 1.0, 2.0),
    "scale-1e-300": (1e-300 * INDEFINITE, 1.0, 2.0),
    "nan": (np.array([[np.nan, 0.3], [0.3, -1.0]]), 1.0, 2.0),
    "inf": (np.array([[np.inf, 0.0], [0.0, -1.0]]), 1.0, 2.0),
}


@pytest.mark.parametrize("n", [5, 8193, 100_000])
@pytest.mark.parametrize("name", sorted(ORACLE_EDGE_CASES))
def test_bruteforce_on_edge_inputs_is_the_single_array_formula(name, n):
    h, lam, Lam = ORACLE_EDGE_CASES[name]
    got = checks.pucci_bruteforce(h, lam, Lam, n, seed=n)
    want = _single_array_bruteforce(h, lam, Lam, n, n)
    assert np.array_equal(got, want, equal_nan=True), (got, want)
    assert np.isnan(got).all() == (name == "nan")


def _psd_nsd_or_indefinite(kind: str, a: float, b: float, phi: float, scale: float) -> np.ndarray:
    signs = {"psd": (1, 1), "nsd": (-1, -1), "indefinite": (1, -1)}[kind]
    c, s = np.cos(phi), np.sin(phi)
    rot = np.array([[c, -s], [s, c]])
    h = scale * (rot @ np.diag([signs[0] * a, signs[1] * b]) @ rot.T)
    return 0.5 * (h + h.T)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["psd", "nsd", "indefinite"]),
    a=st.floats(0.0, 1.0),
    b=st.floats(0.0, 1.0),
    phi=st.floats(0.0, np.pi),
    log_scale=st.floats(-3.0, 3.0),
    bracket=st.sampled_from([(1.0, 1.0), (1.0, 2.0), (0.5, 2.5), (1.0, 4.0), (0.1, 10.0)]),
    seed=st.integers(0, 2**32),
)
def test_bucket_bounds_hold_at_every_angle_of_the_bucket(kind, a, b, phi, log_scale, bracket, seed):
    h = _psd_nsd_or_indefinite(kind, a, b, phi, 10.0**log_scale)
    lam, Lam = bracket
    lo_p, hi_p, lo_m, hi_m = checks._angle_bucket_bounds(h, lam, Lam)
    buckets = checks._ANGLE_BUCKETS
    # random angles as the oracle draws them, in the bucket of u; then every
    # bucket edge, in the buckets on either side of it
    u = SplitMix64(seed, "bucket-bounds").uniform(4096)
    edges = np.pi * (np.arange(buckets + 1) / buckets)
    t = np.concatenate([np.pi * u, edges[1:], edges[:-1]])
    k = np.concatenate([(u * buckets).astype(int), np.arange(buckets), np.arange(buckets)])
    plus, minus = checks._corner_sums(t, h, lam, Lam)
    assert np.all((lo_p[k] <= plus) & (plus <= hi_p[k]))
    assert np.all((lo_m[k] <= minus) & (minus <= hi_m[k]))


def test_bruteforce_check_memory_stays_in_blocks():
    # a draw of all 100 000 angles at once peaks at about 2.7 MiB; blocks
    # of angles and buckets read 1.26 MiB
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        checks.check_pucci_bruteforce(seed=0, trials=10)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 2 * 2**20, peak / 2**20


# Each blocked check's tracemalloc high-water mark at seed 0 is bounded by
# its blocked mark plus about 25%, in MiB.  The whole stacks read 22.9, 14.5
# and 8.3; the blocks 6.9, 3.5 and 6.2.  sqrtp_lipschitz's and
# admissible_block's marks are their draws, which stay whole.
BLOCKED_CHECK_BOUNDS_MIB = {
    "sums.sqrtp_lipschitz": 8.6,
    "sums.block_square_factor": 4.4,
    "sums.admissible_block": 7.75,
}


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", sorted(BLOCKED_CHECK_BOUNDS_MIB))
def test_blocked_checks_report_the_whole_stack_bitwise(monkeypatch, name, seed):
    fn = dict(checks.ALL_CHECKS)[name]
    shipped = json.dumps(fn(seed=seed), sort_keys=True)
    # one block of all the trials is the whole-stack evaluation
    monkeypatch.setattr(checks, "_TRIAL_BLOCK", json.loads(shipped)["trials"])
    assert json.dumps(fn(seed=seed), sort_keys=True) == shipped


@pytest.mark.parametrize("name,bound_mib", sorted(BLOCKED_CHECK_BOUNDS_MIB.items()))
def test_blocked_checks_stay_under_their_memory_bound(name, bound_mib):
    fn = dict(checks.ALL_CHECKS)[name]
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(seed=0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= bound_mib * 2**20, peak / 2**20


@pytest.mark.parametrize("n", [0, -3])
def test_bruteforce_rejects_an_empty_sample(n):
    with pytest.raises(ValueError, match="n="):
        checks.pucci_bruteforce(np.eye(2), 1.0, 2.0, n, seed=0)


@pytest.mark.parametrize("lam,Lam", [(2.0, 1.0), (0.0, 1.0), (-1.0, 1.0)])
def test_bruteforce_rejects_a_bracket_its_corners_do_not_fit(lam, Lam):
    with pytest.raises(ValueError, match="lam <= Lam"):
        checks.pucci_bruteforce(np.eye(2), lam, Lam, 10, seed=0)


@pytest.mark.parametrize("seed", range(0, 400, 40))
def test_random_polynomial_matches_per_draw_oracle(seed):
    # conftest's random_polynomial takes one integers() word per exponent
    for degree in (5, 6):
        g, h = SplitMix64(seed, "poly"), SplitMix64(seed, "poly")
        polys = checks._random_polynomials(g.take(32 * 25).reshape(25, 32), degree)
        assert list(polys) == [random_polynomial(h, degree) for _ in range(25)]
        # both leave the stream at the same position
        assert np.array_equal(g.uniform(4), h.uniform(4))


def _per_call_polynomial(g: SplitMix64, degree: int) -> PolynomialField:
    """A calculus trial's polynomial drawn with one call per draw: the 8
    coefficients, then the 24 exponent words."""
    coeffs = g.uniform(8, -1.0, 1.0)
    w = g.take(24).reshape(8, 3)
    one = np.uint64(1)
    a = w[:, 0] % np.uint64(degree + 1)
    b = w[:, 1] % (np.uint64(degree + 1) - a)
    d = w[:, 2] % np.maximum(one, (np.uint64(degree) - a - b) // np.uint64(2) + one)
    terms = {}
    for k in range(8):
        key = (int(a[k]), int(b[k]), int(d[k]))
        terms[key] = terms.get(key, Fraction(0)) + Fraction(float(coeffs[k]))
    return PolynomialField(terms)


# per check: its stream label and one trial's draws, one call per draw, in
# the order the checks drew them trial by trial: the polynomial, then the
# point, (a, b) or lambda
PER_CALL_TRIALS = {
    "check_commutator": ("commutator", lambda g: (_per_call_polynomial(g, 6), [])),
    "check_quadratic_form": (
        "quadratic-form",
        lambda g: (
            _per_call_polynomial(g, 6),
            [*g.uniform(3, -2.0, 2.0), *g.uniform(2, -2.0, 2.0)],
        ),
    ),
    "check_trace_identity": (
        "trace-identity",
        lambda g: (_per_call_polynomial(g, 5), list(g.uniform(3, -2.0, 2.0))),
    ),
    "check_dilation": (
        "dilation",
        lambda g: (_per_call_polynomial(g, 5), [float(g.uniform(1, 0.25, 4.0)[0])]),
    ),
}


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", sorted(PER_CALL_TRIALS))
def test_batched_calculus_draws_are_the_per_call_draws(monkeypatch, name, seed):
    decoded = []

    def recording(*args, **kwargs):
        polys, draws = real(*args, **kwargs)
        decoded.append((list(polys), draws))
        return decoded[-1]

    real = checks._calculus_trials
    monkeypatch.setattr(checks, "_calculus_trials", recording)
    trials = 6
    report = getattr(checks, name)(seed=seed, trials=trials)
    assert report["trials"] == trials
    ((polys, draws),) = decoded
    label, per_call = PER_CALL_TRIALS[name]
    g = SplitMix64(seed, label)
    for t in range(trials):
        u, rest = per_call(g)
        assert polys[t] == u
        assert draws[t].tolist() == [float(r) for r in rest]


def test_flipped_vertical_term_in_x_is_detected(monkeypatch):
    # X = d/dx1 - 2 x2 d/dx3: [X, Y] = 0, and D^{2,*} no longer lifts D^2
    def flipped(self):
        return self.partial_field(0) + self.partial_field(2).shift_monomial((0, 1, 0), -2)

    monkeypatch.setattr(PolynomialField, "apply_x", flipped)
    assert not checks.check_commutator(seed=0, trials=20)["pass"]
    assert not checks.check_quadratic_form(seed=0, trials=20)["pass"]
