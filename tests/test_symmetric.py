import numpy as np

from heisenpde.rng import SplitMix64
from heisenpde.symmetric import (
    Sym2,
    Sym3,
    jacobi_eigenvalues,
)


def test_sym2_eigenvalues_closed_form_vs_numpy():
    g = SplitMix64(1, "sym2")
    mats = g.symmetric(500, 2, scale=3.0)
    for m in mats:
        s = Sym2.from_matrix(m)
        lo, hi = s.eigenvalues()
        ref = np.linalg.eigvalsh(s.mat)
        assert np.allclose([lo, hi], ref, rtol=1e-12, atol=1e-12)


def test_jacobi_vs_numpy_3x3_and_6x6():
    g = SplitMix64(2, "jacobi")
    for dim in (3, 6):
        mats = g.symmetric(300, dim, scale=2.0)
        for m in mats:
            ours = jacobi_eigenvalues(m)
            ref = np.linalg.eigvalsh(m)
            scale = max(1.0, np.abs(ref).max())
            assert np.allclose(ours, ref, atol=1e-11 * scale)


def test_jacobi_handles_zero_and_diagonal():
    assert np.array_equal(jacobi_eigenvalues(np.zeros((3, 3))), np.zeros(3))
    d = np.diag([3.0, -1.0, 2.0])
    assert np.allclose(jacobi_eigenvalues(d), [-1.0, 2.0, 3.0])


def test_operator_norm_and_min_eigenvalue():
    m = np.diag([-5.0, 1.0, 2.0])
    assert np.abs(jacobi_eigenvalues(m)).max() == 5.0


def test_sym3_arithmetic_roundtrip():
    g = SplitMix64(3, "arith")
    a = Sym3.from_matrix(g.symmetric(1, 3)[0])
    b = Sym3.from_matrix(g.symmetric(1, 3)[0])
    assert np.allclose((a + b).mat, a.mat + b.mat)
    assert np.allclose((a - b).mat, a.mat - b.mat)
    assert np.allclose((2.5 * a).mat, 2.5 * a.mat)
    assert np.allclose((-a).mat, -a.mat)
    assert np.isclose(a.trace(), np.trace(a.mat))


def test_from_matrix_symmetrizes():
    m = np.array([[1.0, 2.0], [0.0, 3.0]])
    s = Sym2.from_matrix(m)
    assert s.a12 == 1.0
