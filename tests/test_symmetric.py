import numpy as np

from heisenpde.rng import SplitMix64
from heisenpde.symmetric import Sym2, Sym3, eigenvalues2


def test_sym2_eigenvalues_closed_form_vs_numpy():
    g = SplitMix64(1, "sym2")
    mats = g.symmetric(500, 2, scale=3.0)
    for m in mats:
        s = Sym2.from_matrix(m)
        lo, hi = s.eigenvalues()
        ref = np.linalg.eigvalsh(s.mat)
        assert np.allclose([lo, hi], ref, rtol=1e-12, atol=1e-12)


def test_eigenvalues2_on_stacks_is_sym2_eigenvalues_bitwise():
    g = SplitMix64(2, "eigenvalues2")
    mats = g.symmetric(500, 2, scale=3.0)
    lo, hi = eigenvalues2(mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 1])
    single = np.array([Sym2.from_matrix(m).eigenvalues() for m in mats])
    assert np.array_equal(np.stack([lo, hi], axis=1), single)


def test_sym3_arithmetic_roundtrip():
    # arithmetic acts on .mat, and from_matrix brings the result back
    g = SplitMix64(3, "arith")
    a, b = g.symmetric(1, 3)[0], g.symmetric(1, 3)[0]
    sa, sb = Sym3.from_matrix(a), Sym3.from_matrix(b)
    assert np.array_equal(sa.mat, a)
    assert np.array_equal(Sym3.from_matrix(sa.mat + sb.mat).mat, a + b)
    assert np.array_equal(Sym3.from_matrix(2.5 * sa.mat - sb.mat).mat, 2.5 * a - b)
    assert np.isclose(sa.trace(), np.trace(a))


def test_from_matrix_symmetrizes():
    m = np.array([[1.0, 2.0], [0.0, 3.0]])
    s = Sym2.from_matrix(m)
    assert s.a12 == 1.0
