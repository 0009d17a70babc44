import hashlib
import tracemalloc

import numpy as np
import pytest
from conftest import integers

from heisenpde.rng import SplitMix64, derive, mix64, uniform_words


def test_words_are_index_addressable():
    g = SplitMix64(12345)
    whole = g.words(0, 100)
    assert np.array_equal(whole[30:50], g.words(30, 20))


def test_streams_reproduce_across_instances():
    a = SplitMix64(7, "suite").uniform(1000)
    b = SplitMix64(7, "suite").uniform(1000)
    assert np.array_equal(a, b)


def test_substreams_differ():
    assert not np.array_equal(
        SplitMix64(0, "alpha").uniform(64), SplitMix64(0, "beta").uniform(64)
    )
    assert derive(0, "alpha") != derive(0, "beta")
    assert derive(0, "alpha") != derive(1, "alpha")


def test_take_is_the_raw_stream():
    g = SplitMix64(9, "raw")
    first = g.take(5)
    assert np.array_equal(first, g.words(0, 5))
    assert np.array_equal(g.take(3), g.words(5, 3))
    # integers() reduces the same words modulo its range
    h = SplitMix64(9, "raw")
    assert np.array_equal(integers(h, 5, 2, 9), (first % np.uint64(7)).astype(np.int64) + 2)


def test_uniform_range_and_moments():
    u = SplitMix64(3).uniform(200_000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 5e-3
    assert abs(u.var() - 1 / 12) < 5e-3


def test_normal_moments():
    z = SplitMix64(5).normal(200_000)
    assert abs(z.mean()) < 1e-2
    assert abs(z.std() - 1.0) < 1e-2


def test_rotations_are_orthogonal():
    g = SplitMix64(11)
    for r in (g.rotations_2d(50), g.rotations_3d(50)):
        eye = np.einsum("nij,nkj->nik", r, r)
        assert np.allclose(eye, np.eye(r.shape[1]), atol=1e-12)
        assert np.allclose(np.linalg.det(r), 1.0, atol=1e-12)


def test_spd_eigenvalue_range():
    mats = SplitMix64(13).spd(200, 3, eig_lo=1e-2, eig_hi=10.0)
    evs = np.linalg.eigvalsh(mats)
    assert evs.min() > 1e-2 * (1 - 1e-9)
    assert evs.max() < 10.0 * (1 + 1e-9)


def test_mix64_is_deterministic_scalar():
    assert int(mix64(np.uint64(0))) == int(mix64(np.uint64(0)))
    assert int(mix64(np.uint64(1))) != int(mix64(np.uint64(2)))


# sha256 of words(start, n), then of uniform(n) and normal(n), the first
# draws of a fresh stream; normal is hashed as float32, because numpy's
# SIMD log differs from libm's in the last bit on some CPUs
STREAM_DIGESTS = [
    ((0, None, 0, 1), (
        "ce31a0874129872dc43ee51174eb9042517a915fae0065f2789bdb9e82c229ca",
        "956ba110d95de57ed57bb5ba716a0a77fcc44fd63053a65850baafae44c002fc",
        "314c41ec9f67125e2c46001d31c59884652068ce44cd39de755952bd0fd05aaa",
    )),
    ((3, "operators", 0, 8), (
        "e2858ea5ac4209719da84636841794e94d2c21edfb4f890199849a36823152d0",
        "b79cdcc5c6a3092ead6b9cd00bcfca165b7ea920979ee4c1b8151a3fe8a868b2",
        "ae2212f07bd44ddc4a3b89fad41130c6dc21596ec327a8c9029db57bd8a442b3",
    )),
    ((12345, "doubling", 1000, 257), (
        "509f80a69cc27102c8943659e3abeaa937212239f4b46707232d3bd5813f7a50",
        "6bcb71f0a7885a97f2f9b5c1176ea90fd69982860193e04370a271c203b6376e",
        "9896d193d231b97416cc2b402a8801f7a3f5646f8e0cbd7f024512715700f11b",
    )),
    ((2**64 - 1, "sums", 2**40, 64), (
        "0ba08172840da666ac2d90727e08423a1d787ab3a7b646d3b415ae5e3328067b",
        "ef9c9f53480bbb44cbe6a7a9c79506d7624610c94bf4b7b067b5f382933abb0a",
        "0a060e654ea46247f2be44c894c2f30b9f604474f91d09c5668b5ad163fbaddf",
    )),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "case,digests", STREAM_DIGESTS, ids=[f"{c[0]}-{c[1]}" for c, _ in STREAM_DIGESTS]
)
def test_stream_digests_are_pinned(case, digests):
    # the words wrap mod 2^64 without a warning; the last case wraps the
    # seed, the label hash and the index products
    seed, label, start, n = case
    g = SplitMix64(seed, label)
    drawn = (g.words(start, n), g.uniform(n), g.normal(n).astype(np.float32))
    assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in drawn) == digests


def test_mix64_mixes_an_array_in_place():
    z = np.arange(5, dtype=np.uint64)
    mixed = mix64(z)
    assert mixed is z
    assert [int(w) for w in z] == [int(mix64(np.uint64(k))) for k in range(5)]


def _expression_uniform(g: SplitMix64, n: int, lo: float, hi: float) -> np.ndarray:
    """uniform as one expression, a new array per step."""
    u = (g.take(n) >> np.uint64(11)).astype(np.float64) * (2.0**-53)
    return lo + (hi - lo) * u


def _expression_normal(g: SplitMix64, shape) -> np.ndarray:
    """normal as one expression, a new array per step."""
    n = int(np.prod(shape))
    m = (n + 1) // 2
    u1 = np.maximum(_expression_uniform(g, m, 0.0, 1.0), 2.0**-53)
    u2 = _expression_uniform(g, m, 0.0, 1.0)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2 * np.pi * u2), r * np.sin(2 * np.pi * u2)])
    return z[:n].reshape(shape)


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_in_place_draws_are_the_expressions_bitwise(seed):
    for n in (1, 2, 3, 15, 16, 17, 1001, 100_001):
        for lo, hi in ((0.0, 1.0), (-2.0, 2.0), (0.0, np.pi), (np.log(0.1), np.log(10.0))):
            got = SplitMix64(seed, "in-place").uniform(n, lo, hi)
            assert got.tobytes() == _expression_uniform(SplitMix64(seed, "in-place"), n, lo, hi).tobytes()
        for shape in ((n,), (n, 2), (n, 3)):
            got = SplitMix64(seed, "in-place").normal(shape)
            assert got.tobytes() == _expression_normal(SplitMix64(seed, "in-place"), shape).tobytes()


def test_uniform_words_leaves_the_callers_words_alone():
    words = SplitMix64(4).take(64)
    kept = words.copy()
    uniform_words(words[8:40], -1.0, 1.0)
    assert np.array_equal(words, kept)


@pytest.mark.parametrize(
    "draw",
    [lambda g: g.uniform(200_000), lambda g: g.normal((100_000, 2)), lambda g: g.normal(200_001)],
    ids=["uniform", "normal", "normal-odd"],
)
def test_draws_peak_at_twice_their_result(draw):
    # one new array per step peaked at 3x (uniform) and 3.5x (normal)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = draw(SplitMix64(1))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 2.1 * result.nbytes, peak / result.nbytes
