"""Flat parameter storage: every trainable array of a network is a named
view into one contiguous float64 vector.

The vector holds the decayed parameters (every weight matrix, bias and
the head) first and the cubic activation coefficients last, so
decoupled weight decay is one leading slice and an Adam step is a
handful of whole-vector operations instead of a loop over arrays.
Gradients share the layout: ``views`` cuts any vector of the arena's
size into per-parameter arrays named as in ``Net.parameters()``.

Parameters must be mutated in place (``arr[...] = ...``), never rebound:
a rebound attribute no longer shares memory with the vector the
Adam step updates.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ParamArena"]


class ParamArena:
    """One zero-filled vector laid out from ``name -> (shape, decayed)``
    entries: the decayed ones first, each group in entry order."""

    def __init__(self, shapes: dict[str, tuple[tuple[int, ...], bool]]):
        order = [n for n, (_, decayed) in shapes.items() if decayed]
        self.n_decayed = sum(math.prod(shapes[n][0]) for n in order)
        order += [n for n, (_, decayed) in shapes.items() if not decayed]
        self.starts = {}
        offset = 0
        for name in order:
            self.starts[name] = offset
            offset += math.prod(shapes[name][0])
        self.size = offset
        # Entry order, so views() lists parameters as parameters() does.
        self._shapes = {name: shape for name, (shape, _) in shapes.items()}
        self.flat = np.zeros(self.size)

    def views(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Per-parameter views into ``vec``, a vector laid out like ``flat``."""
        return {
            name: vec[self.starts[name] : self.starts[name] + math.prod(shape)].reshape(shape)
            for name, shape in self._shapes.items()
        }

    def check_bound(self, params: dict[str, np.ndarray]) -> None:
        """Raise unless every array in ``params`` is still a view of ``flat``."""
        for name, arr in params.items():
            if not np.shares_memory(arr, self.flat):
                raise ValueError(f"parameter {name} was rebound; mutate parameters in place")
