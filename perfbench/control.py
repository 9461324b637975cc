"""The control loop: a fixed piece of work that measures the host's speed.

On a shared host the same code runs up to twice as slow for seconds to
minutes at a time. The benchmark times this loop next to every op it
times (just before it and just after it, in the same process) and
reports each op as a multiple of the mean adjacent control time, scaled
back to seconds with ``REFERENCE_S``. The loop imports nothing from
polygrad, so a change to the program cannot move it. It is the same
shape of work as polygrad's training: a small reverse-mode tape of node
objects and closures over numpy arrays, a three-layer network on 32-row
batches, softmax cross-entropy and Adam.
"""

from __future__ import annotations

import time

import numpy as np

STEPS = 120
# About the loop's time on a quiet 2-vCPU KVM guest (Xeon, Python 3.11,
# numpy 2.4, one BLAS thread); every timing metric is given in these
# seconds, so on that host they read about as plain seconds at its fastest.
REFERENCE_S = 0.018
WARMUP_STEPS = 10


class _Node:
    __slots__ = ("value", "grad", "parents", "vjp")

    def __init__(self, value, parents=(), vjp=None):
        self.value = value
        self.grad = None
        self.parents = parents
        self.vjp = vjp


class _Tape:
    def __init__(self):
        self.nodes: list[_Node] = []

    def record(self, value, parents=(), vjp=None) -> _Node:
        node = _Node(value, parents, vjp)
        self.nodes.append(node)
        return node

    def linear(self, h: _Node, w: _Node, b: _Node) -> _Node:
        def vjp(g):
            return g @ w.value.T, h.value.T @ g, g.sum(axis=0)

        return self.record(h.value @ w.value + b.value, (h, w, b), vjp)

    def cubic(self, z: _Node) -> _Node:
        def vjp(g):
            return (g * (1.0 + 0.3 * z.value * z.value),)

        return self.record(z.value + 0.1 * z.value**3, (z,), vjp)

    def cross_entropy(self, logits: _Node, labels: np.ndarray) -> _Node:
        rows = np.arange(len(labels))
        shifted = logits.value - logits.value.max(axis=1, keepdims=True)
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)

        def vjp(g):
            d = p.copy()
            d[rows, labels] -= 1.0
            return (g * d / len(labels),)

        return self.record(float(-np.log(p[rows, labels]).mean()), (logits,), vjp)

    def backward(self, out: _Node) -> None:
        out.grad = 1.0
        for node in reversed(self.nodes):
            if node.vjp is None or node.grad is None:
                continue
            for parent, g in zip(node.parents, node.vjp(node.grad)):
                if parent.grad is None:
                    parent.grad = np.array(g, dtype=np.float64, copy=True)
                else:
                    parent.grad += g


def control(steps: int = STEPS) -> np.ndarray:
    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, 8))
    labels = (rng.standard_normal(32) > 0).astype(np.int64)
    params = {
        "W1": rng.standard_normal((8, 8)) * 0.3,
        "b1": np.zeros(8),
        "W2": rng.standard_normal((8, 8)) * 0.3,
        "b2": np.zeros(8),
        "W3": rng.standard_normal((8, 2)) * 0.3,
        "b3": np.zeros(2),
    }
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    for t in range(1, steps + 1):
        tape = _Tape()
        leaves = {k: tape.record(p) for k, p in params.items()}
        h = tape.record(x)
        for i in (1, 2):
            h = tape.cubic(tape.linear(h, leaves[f"W{i}"], leaves[f"b{i}"]))
        tape.backward(tape.cross_entropy(tape.linear(h, leaves["W3"], leaves["b3"]), labels))
        for k, leaf in leaves.items():
            g = leaf.grad
            m[k] = 0.9 * m[k] + 0.1 * g
            v[k] = 0.999 * v[k] + 0.001 * g * g
            params[k] -= 0.002 * (m[k] / (1 - 0.9**t)) / (np.sqrt(v[k] / (1 - 0.999**t)) + 1e-8)
    return params["W1"]


def warm_up() -> None:
    """First calls in a process are slow (lazy imports, allocator); run them untimed."""
    control(WARMUP_STEPS)


def timed_control() -> float:
    t0 = time.perf_counter()
    control()
    return time.perf_counter() - t0
