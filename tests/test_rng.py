import numpy as np

from heisenpde.rng import SplitMix64, derive, mix64


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
    assert np.array_equal(h.integers(5, 2, 9), (first % np.uint64(7)).astype(np.int64) + 2)


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
