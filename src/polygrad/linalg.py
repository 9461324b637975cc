"""Seeded RNG, seed derivation, and quantile primitives.

``quantile`` validates its input and raises ``ValueError`` rather than
propagating NaN silently.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

__all__ = ["Rng", "derive_seed", "quantile"]


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
    The generator is built on the first draw; a spawn-only one builds none.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF

    @functools.cached_property
    def _gen(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed))

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

    def permutations(self, n: int, count: int) -> np.ndarray:
        """``count`` successive ``permutation(n)`` draws as rows, in one call."""
        rows = np.tile(np.arange(n), (count, 1))
        return self._gen.permuted(rows, axis=1, out=rows)


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
