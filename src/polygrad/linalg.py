"""Seeded RNG, Gaussian initialization, and quantile primitives.

Matrices are plain 2-D ``numpy.ndarray`` values in row-major order and
double precision. Public operations validate shapes and promise finite
output; violations raise :class:`~polygrad.errors.ShapeError` or
``ValueError`` rather than propagating NaN silently.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ShapeError

__all__ = ["Rng", "derive_seed", "quantile", "gauss_init"]


def derive_seed(*parts) -> int:
    """Deterministically mix arbitrary labels into a 64-bit seed.

    Uses BLAKE2b over the '/'-joined string forms of ``parts``, so the
    result is stable across runs, platforms, and Python processes
    (unlike the salted builtin ``hash``).
    """
    text = "/".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class Rng:
    """Seeded random generator with a fixed, named algorithm (PCG64).

    The generator is never the platform default: it is explicitly
    constructed from numpy's PCG64 bit generator, whose output stream
    for a given 64-bit seed is documented and platform-independent.
    Instances are single-owner; never share one across concurrent tasks.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def spawn(self, *labels) -> "Rng":
        """Independent child generator, deterministic in (seed, labels)."""
        return Rng(derive_seed(self.seed, *labels))

    def standard_normal(self, *shape) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def uniform(self, *shape) -> np.ndarray:
        return self._gen.random(shape)

    def integers(self, low: int, high: int, size=None):
        """Integers in [low, high). Kept for the acceptance and unit-test fixtures."""
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile on the sorted sample.

    With the n values sorted ascending as v[0..n-1] and h = q*(n-1),
    returns v[floor(h)] + (h - floor(h)) * (v[floor(h)+1] - v[floor(h)]);
    v[n-1] when h lands on the last index. This is the interpolation
    convention most software defaults to ("type 7"), frozen here so
    downstream tail statistics are bit-stable.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        v = v.ravel()
    if v.size == 0:
        raise ValueError("quantile of empty sequence")
    if np.isnan(v).any():
        raise ValueError("quantile input contains NaN")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile level must be in [0, 1], got {q}")
    v = np.sort(v)
    h = q * (v.size - 1)
    lo = int(np.floor(h))
    if lo >= v.size - 1:
        return float(v[-1])
    frac = h - lo
    return float(v[lo] + frac * (v[lo + 1] - v[lo]))


def gauss_init(rng: Rng, rows: int, cols: int, scale: float) -> np.ndarray:
    """(rows x cols) matrix of i.i.d. N(0, scale^2) entries."""
    if rows < 1 or cols < 1:
        raise ShapeError(f"gauss_init needs positive dimensions, got {rows}x{cols}")
    if not scale > 0:
        raise ValueError(f"gauss_init scale must be > 0, got {scale}")
    return scale * rng.standard_normal(rows, cols)
