import numpy as np
import pytest

from heisenpde.rng import SplitMix64
from heisenpde.symmetric import Sym2, eigenvalues2


def one_row_eigenvalues2(a: Sym2) -> tuple[float, float]:
    """eigenvalues2 on the one-row stack of a Sym2's components."""
    lo, hi = eigenvalues2(*(np.array([v], dtype=float) for v in (a.a11, a.a12, a.a22)))
    return float(lo[0]), float(hi[0])


def test_sym2_eigenvalues_closed_form_vs_numpy():
    g = SplitMix64(1, "sym2")
    mats = g.symmetric(500, 2, scale=3.0)
    for m in mats:
        lo, hi = one_row_eigenvalues2(Sym2.from_matrix(m))
        ref = np.linalg.eigvalsh(m)
        assert np.allclose([lo, hi], ref, rtol=1e-12, atol=1e-12)


def test_eigenvalues2_on_stacks_is_its_one_row_calls_bitwise():
    g = SplitMix64(2, "eigenvalues2")
    mats = g.symmetric(500, 2, scale=3.0)
    lo, hi = eigenvalues2(mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 1])
    single = np.array([one_row_eigenvalues2(Sym2.from_matrix(m)) for m in mats])
    assert np.array_equal(np.stack([lo, hi], axis=1), single)


def hypot_eigenvalues(a11, a12, a22):
    """mean -+ np.hypot(d, a12), d = (a11 - a22) / 2: the radius by libm's
    hypot, kept as a reference."""
    mean = 0.5 * (a11 + a22)
    r = np.hypot(0.5 * (a11 - a22), a12)
    return mean - r, mean + r


def same_bits(a, b):
    """a and b hold the same bits, NaN matching NaN."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_eigenvalues2_radius_is_within_one_ulp_of_hypot(scale):
    # with a22 = -a11 the mean is exactly 0 and d exactly a11, so hi is the
    # radius itself; the squares and hypot differ, by at most 1 ulp
    d, a12 = SplitMix64(4, "radius").normal((2, 20000)) * scale
    lo, hi = eigenvalues2(d, a12, -d)
    ref = np.hypot(d, a12)
    assert np.array_equal(lo, -hi)
    assert (hi != ref).any()
    assert np.all(np.abs(hi - ref) <= np.spacing(ref))


# entries whose squares overflow, underflow or are not finite
SPECIAL = (1e200, 1e-170, 5e-324, np.inf, -np.inf, np.nan)


def mixed_stack():
    """A finite stack of 300 matrices, and the same stack with one row per
    (special entry, pattern) inserted at seeded positions: the components
    of both and the mixed stack's positions of the finite rows."""
    g = SplitMix64(5, "radius-mixed")
    mats = g.symmetric(300, 2, scale=3.0)
    finite = np.stack((mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 1]))
    patterns = ((1, 0, 0), (0, 1, 0), (1, 1, -1), (1, -1, 1), (-1, 1, 1))
    special = np.array([[v * p if p else 0.0 for p in pat] for v in SPECIAL for pat in patterns]).T
    n = finite.shape[1] + special.shape[1]
    at_finite = np.ones(n, dtype=bool)
    at_finite[np.argsort(g.uniform(n))[: special.shape[1]]] = False
    mixed = np.empty((3, n))
    mixed[:, at_finite], mixed[:, ~at_finite] = finite, special
    return finite, mixed, at_finite


def test_eigenvalues2_falls_back_to_hypot_where_the_squares_are_not_normal():
    finite, mixed, at_finite = mixed_stack()
    with np.errstate(invalid="ignore", over="ignore"):
        got = eigenvalues2(*mixed)
        want = hypot_eigenvalues(*mixed[:, ~at_finite])
        d = 0.5 * (mixed[0] - mixed[2])
        plain = np.sqrt(d * d + mixed[1] * mixed[1])[~at_finite]
    # the plain squares would miss: 0 for 1e-170, inf for 1e200
    assert (plain != np.hypot(d, mixed[1])[~at_finite]).any()
    for e, w in zip(got, want):
        assert same_bits(e[~at_finite], w)
    # the finite rows do not see the special ones
    for e, alone in zip(got, eigenvalues2(*finite)):
        assert e[at_finite].tobytes() == alone.tobytes()


def test_eigenvalues2_squares_raise_no_floating_point_error():
    # squares that overflow (1e200) or underflow (1e-170, 1e-155) on rows
    # whose mean and hypot radius raise nothing, and quiet NaNs, among finite
    # rows at three scales: only the squares could raise here
    rows = [(1e200, 1e200, -1e200), (1e-170, 1e-170, -1e-170), (1e-155, 1e-160, -1e-155)]
    rows += [(np.nan, 1.0, 0.0), (1.0, np.nan, 2.0)]
    g = SplitMix64(6, "radius-raise")
    mats = np.concatenate([g.symmetric(100, 2, scale=s) for s in (1e-3, 1.0, 1e3)])
    finite = [mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 1]]
    comps = np.concatenate((np.array(rows).T, finite), axis=1)
    with np.errstate(all="raise"):
        want = hypot_eigenvalues(*comps)
        got = eigenvalues2(*comps)
    for e, w in zip(got, want):
        assert same_bits(e[: len(rows)], w[: len(rows)])


def test_sym2_from_matrix_roundtrip():
    # from_matrix of a symmetric matrix keeps its entries bitwise
    g = SplitMix64(3, "arith")
    for m in g.symmetric(50, 2, scale=3.0):
        s = Sym2.from_matrix(m)
        assert (s.a11, s.a12, s.a22) == (m[0, 0], m[0, 1], m[1, 1])


def test_from_matrix_symmetrizes():
    m = np.array([[1.0, 2.0], [0.0, 3.0]])
    s = Sym2.from_matrix(m)
    assert s.a12 == 1.0
