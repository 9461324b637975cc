"""Flat parameter storage: every trainable array of a network is a view
into one contiguous float64 vector.

The vector holds the decayed parameters (every weight matrix, bias and
the head) first and the cubic activation coefficients last, so
decoupled weight decay is one leading slice and an optimizer step is a
handful of whole-vector operations instead of a loop over arrays.
Gradients share the layout: ``views`` cuts any vector of the arena's
size into per-parameter arrays named as in ``parameters()``.

Parameters must be mutated in place (``arr[...] = ...``), never rebound:
a rebound attribute no longer shares memory with the vector the
optimizer updates.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ParamArena"]

# Decoupled decay shrinks affine parameters only; pulling the activation
# coefficients toward zero would fight the near-identity parameterization.
_NO_DECAY_SUFFIXES = (".c0", ".c1", ".c2", ".c3")


def _decayed(name: str) -> bool:
    return not name.endswith(_NO_DECAY_SUFFIXES)


class ParamArena:
    """One flat vector holding named arrays; decayed ones come first."""

    def __init__(self, params: dict[str, np.ndarray]):
        order = [n for n in params if _decayed(n)] + [n for n in params if not _decayed(n)]
        starts = {}
        offset = 0
        for name in order:
            starts[name] = offset
            offset += params[name].size
        self.size = offset
        self.n_decayed = sum(params[n].size for n in params if _decayed(n))
        # Registry order, so views() lists parameters as parameters() does.
        self._layout = {
            name: (starts[name], starts[name] + arr.size, arr.shape) for name, arr in params.items()
        }
        self.flat = np.empty(self.size, dtype=np.float64)
        for name, arr in params.items():
            start, stop, _ = self._layout[name]
            self.flat[start:stop] = arr.ravel()

    def views(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Per-parameter views into ``vec``, a vector laid out like ``flat``."""
        return {name: vec[a:b].reshape(shape) for name, (a, b, shape) in self._layout.items()}

    def check_bound(self, params: dict[str, np.ndarray]) -> None:
        """Raise unless every array in ``params`` is still a view of ``flat``."""
        for name, arr in params.items():
            if arr.base is not self.flat:
                raise ValueError(f"parameter {name} was rebound; mutate parameters in place")

