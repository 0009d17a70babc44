"""Seeded, index-addressable randomness for every randomized suite.

All randomness in the package flows from a single 64-bit seed through
SplitMix64: draw ``i`` of a stream is ``mix64(seed + (i+1)*GOLDEN)``, so any
slice of a stream can be produced independently of any other (trials can be
sharded without changing the values drawn).  Substreams are derived from a
parent seed and a text label, so e.g. the operator suite and the penalty suite
never share draws even under the same CLI seed.
"""

from __future__ import annotations

import numpy as np

from .symmetric import triple_product

GOLDEN = np.uint64(0x9E3779B97F4A7C15)

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x00000100000001B3)


def mix64(z: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    """SplitMix64 finalizer; bijective on 64-bit words (wraps mod 2^64).

    A uint64 array is mixed in place and returned: numpy wraps array
    products silently.  A scalar is mixed as a one-word array, since numpy
    warns when a scalar product wraps."""
    if np.isscalar(z):
        return mix64(np.array([z], dtype=np.uint64))[0]
    z ^= z >> np.uint64(30)
    z *= _M1
    z ^= z >> np.uint64(27)
    z *= _M2
    z ^= z >> np.uint64(31)
    return z


def derive(seed: int, label: str) -> int:
    """Child seed for a named substream (FNV-1a of the label, mixed in)."""
    h = _FNV_OFFSET
    with np.errstate(over="ignore"):
        for byte in label.encode("utf8"):
            h = (h ^ np.uint64(byte)) * _FNV_PRIME
    return int(mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ h))


def uniform_words(words: np.ndarray, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """Doubles in [lo, hi), one per raw 64-bit word; 53-bit resolution.
    Elementwise, so a block of words converts as each word alone would.
    It never writes into words, which may be a slice of the caller's."""
    return _scaled_top_bits(words >> np.uint64(11), lo, hi)


def _scaled_top_bits(top: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """lo + (hi - lo) * (top * 2^-53) for the 53-bit integers top, in one new
    float array: each step is the same rounding as the expression's, done in
    place."""
    u = top.astype(np.float64)
    u *= 2.0**-53
    u *= hi - lo
    u += lo
    return u


class SplitMix64:
    """Counter-based SplitMix64 stream over a fixed seed.

    ``words(start, n)`` returns draws ``start .. start+n-1`` of the stream;
    the mapping index -> word is pure, so results never depend on call order.
    """

    def __init__(self, seed: int, label: str | None = None):
        if label is not None:
            seed = derive(seed, label)
        self.seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._next = 0

    def words(self, start: int, n: int) -> np.ndarray:
        z = np.arange(start + 1, start + n + 1, dtype=np.uint64)
        z *= GOLDEN
        z += self.seed
        return mix64(z)

    def take(self, n: int) -> np.ndarray:
        """The next n raw 64-bit words of the stream."""
        out = self.words(self._next, n)
        self._next += n
        return out

    def uniform(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """n doubles in [lo, hi): uniform_words of the next n words, which
        are shifted in place, so the draw holds two arrays of n at most."""
        words = self.take(n)
        words >>= np.uint64(11)
        return _scaled_top_bits(words, lo, hi)

    def log_uniform(self, n: int, lo: float, hi: float) -> np.ndarray:
        return np.exp(self.uniform(n, np.log(lo), np.log(hi)))

    def normal(self, shape) -> np.ndarray:
        """Standard normals via Box-Muller on consecutive draws."""
        n = int(np.prod(shape))
        m = (n + 1) // 2
        # z = [r cos(2 pi u2), r sin(2 pi u2)] with r = sqrt(-2 log(max(u1,
        # 2^-53))): r and the angle are computed in place in their own draws
        # and the products written into z's halves, so the peak is z and
        # the two draws
        r = self.uniform(m)
        np.maximum(r, 2.0**-53, out=r)
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        angle = self.uniform(m)
        angle *= 2 * np.pi
        z = np.empty(2 * m)
        np.cos(angle, out=z[:m])
        np.sin(angle, out=z[m:])
        z[:m] *= r
        z[m:] *= r
        return z[:n].reshape(shape)

    def unit_vectors(self, n: int, dim: int = 3) -> np.ndarray:
        v = self.normal((n, dim))
        norms = np.linalg.norm(v, axis=1, keepdims=True)
        small = norms[:, 0] < 1e-12
        v[small] = np.eye(dim)[0]
        norms[small] = 1.0
        return v / norms

    def rotations_2d(self, n: int) -> np.ndarray:
        """(n, 2, 2) rotation matrices with uniform angles."""
        t = self.uniform(n, 0.0, 2 * np.pi)
        c, s = np.cos(t), np.sin(t)
        return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)

    def rotations_3d(self, n: int) -> np.ndarray:
        """(n, 3, 3) rotations from normalized quaternions (uniform on SO(3))."""
        q = self.normal((n, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
        r = np.empty((n, 3, 3))
        r[:, 0, 0] = 1 - 2 * (y * y + z * z)
        r[:, 0, 1] = 2 * (x * y - z * w)
        r[:, 0, 2] = 2 * (x * z + y * w)
        r[:, 1, 0] = 2 * (x * y + z * w)
        r[:, 1, 1] = 1 - 2 * (x * x + z * z)
        r[:, 1, 2] = 2 * (y * z - x * w)
        r[:, 2, 0] = 2 * (x * z - y * w)
        r[:, 2, 1] = 2 * (y * z + x * w)
        r[:, 2, 2] = 1 - 2 * (x * x + y * y)
        return r

    def symmetric(self, n: int, dim: int, scale: float = 1.0) -> np.ndarray:
        """(n, dim, dim) symmetric matrices with N(0, scale^2) entries."""
        a = self.normal((n, dim, dim)) * scale
        return 0.5 * (a + np.swapaxes(a, -1, -2))

    def spd(self, n: int, dim: int, eig_lo: float = 1e-3, eig_hi: float = 1e2) -> np.ndarray:
        """(n, dim, dim) SPD matrices q diag(d) q^T with log-uniform
        eigenvalues d, the product taken by triple_product."""
        q = self.rotations_3d(n) if dim == 3 else self.rotations_2d(n)
        d = self.log_uniform(n * dim, eig_lo, eig_hi).reshape(n, dim)
        return triple_product(q, d[:, :, None] * np.eye(dim), np.swapaxes(q, -1, -2))
