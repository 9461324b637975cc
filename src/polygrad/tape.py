"""Minimal reverse-mode tape over matrix-level primitives.

The tape records each primitive in creation order together with the
values needed for its vector-Jacobian product, so ``backward`` is a
single reversed sweep. Primitives are deliberately few: affine layers, the cubic
activation and its first derivative (whose own backward brings in the
second derivative), ReLU and its zero-gradient step factor, the three
Jacobian-stream products, Frobenius accumulation, softmax
cross-entropy, and scalar combination.

Gradients accumulate on nodes; parameter leaves are registered by name,
each in exactly one slot. A parameter leaf may be given a preallocated
``grad_out`` array (typically a view into one flat gradient vector):
``backward`` then writes that leaf's gradient there instead of
allocating a copy.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Node", "Tape"]


class Node:
    """One recorded value. ``grad`` is populated by ``Tape.backward``."""

    __slots__ = ("value", "grad", "grad_out", "parents", "vjp", "name")

    def __init__(self, value, parents=(), vjp=None, name="", grad_out=None):
        self.value = value
        self.grad = None
        self.grad_out = grad_out
        self.parents = parents
        self.vjp = vjp
        self.name = name

    def __repr__(self):
        shape = getattr(self.value, "shape", ())
        return f"Node({self.name or 'op'}, shape={shape})"


def _accumulate(node: Node, grad):
    if grad is None:
        return
    if node.grad is not None:
        node.grad += grad
    elif node.grad_out is not None:
        node.grad_out[...] = grad
        node.grad = node.grad_out
    else:
        node.grad = np.array(grad, dtype=np.float64, copy=True)


class Tape:
    def __init__(self):
        self.nodes: list[Node] = []
        self.params: dict[str, Node] = {}

    # -- recording -------------------------------------------------------

    def _record(self, node: Node) -> Node:
        self.nodes.append(node)
        return node

    def leaf(self, value, name: str = "", param: bool = False, grad_out: np.ndarray | None = None) -> Node:
        node = self._record(Node(np.asarray(value, dtype=np.float64), name=name, grad_out=grad_out))
        if param:
            if not name:
                raise ValueError("parameter leaves need a name")
            if name in self.params:
                raise ValueError(f"duplicate parameter registry slot: {name}")
            self.params[name] = node
        return node

    # -- primitives ------------------------------------------------------

    def linear(self, h: Node, W: Node, b: Node) -> Node:
        """out = h @ W.T + b with b broadcast over rows."""
        value = h.value @ W.value.T + b.value

        def vjp(g):
            return (g @ W.value, g.T @ h.value, g.sum(axis=0))

        return self._record(Node(value, (h, W, b), vjp, "linear"))

    def poly_val(self, z: Node, c0: Node, c1: Node, c2: Node, c3: Node) -> Node:
        """Elementwise cubic c0 + c1 z + c2 z^2 + c3 z^3, coeffs per column."""
        zv = z.value
        value = c0.value + zv * (c1.value + zv * (c2.value + zv * c3.value))

        def vjp(g):
            dz = g * (c1.value + zv * (2.0 * c2.value + 3.0 * c3.value * zv))
            return (
                dz,
                g.sum(axis=0),
                (g * zv).sum(axis=0),
                (g * zv * zv).sum(axis=0),
                (g * zv * zv * zv).sum(axis=0),
            )

        return self._record(Node(value, (z, c0, c1, c2, c3), vjp, "poly_val"))

    def poly_slope(self, z: Node, c1: Node, c2: Node, c3: Node) -> Node:
        """First derivative of the cubic: c1 + 2 c2 z + 3 c3 z^2.

        Its backward pass w.r.t. z carries the second derivative
        2 c2 + 6 c3 z, which is what makes the sensitivity penalty
        itself differentiable.
        """
        zv = z.value
        value = c1.value + zv * (2.0 * c2.value + 3.0 * c3.value * zv)

        def vjp(g):
            dz = g * (2.0 * c2.value + 6.0 * c3.value * zv)
            return (dz, g.sum(axis=0), 2.0 * (g * zv).sum(axis=0), 3.0 * (g * zv * zv).sum(axis=0))

        return self._record(Node(value, (z, c1, c2, c3), vjp, "poly_slope"))

    def relu(self, z: Node) -> Node:
        value = np.maximum(z.value, 0.0)

        def vjp(g):
            return (g * (z.value > 0.0),)

        return self._record(Node(value, (z,), vjp, "relu"))

    def relu_slope(self, z: Node) -> Node:
        """Subgradient factor 1[z > 0]; exactly 0 at z = 0.

        Piecewise constant, so nothing flows back to z.
        """
        value = (z.value > 0.0).astype(np.float64)

        def vjp(g):
            return (None,)

        return self._record(Node(value, (z,), vjp, "relu_slope"))

    def mask(self, h: Node, mask_values: np.ndarray) -> Node:
        """Elementwise multiply by a fixed (already scaled) dropout mask."""
        m = np.asarray(mask_values, dtype=np.float64)

        value = h.value * m

        def vjp(g):
            return (g * m,)

        return self._record(Node(value, (h,), vjp, "mask"))

    def jac_seed(self, slope: Node, W: Node) -> Node:
        """First Jacobian block: out[b] = diag(slope[b]) @ W, shape (B, w, d)."""
        value = slope.value[:, :, None] * W.value[None, :, :]

        def vjp(g):
            dslope = np.einsum("bwd,wd->bw", g, W.value)
            dW = np.einsum("bw,bwd->wd", slope.value, g)
            return (dslope, dW)

        return self._record(Node(value, (slope, W), vjp, "jac_seed"))

    def jac_chain(self, slope: Node, W: Node, S: Node) -> Node:
        """Propagated Jacobian: out[b] = diag(slope[b]) @ W @ S[b]."""
        value = slope.value[:, :, None] * (W.value @ S.value)

        def vjp(g):
            t = W.value @ S.value
            dslope = (g * t).sum(axis=2)
            dt = slope.value[:, :, None] * g
            dW = np.einsum("bwd,bkd->wk", dt, S.value)
            dS = np.einsum("wk,bwd->bkd", W.value, dt)
            return (dslope, dW, dS)

        return self._record(Node(value, (slope, W, S), vjp, "jac_chain"))

    def jac_head(self, W: Node, S: Node) -> Node:
        """Head Jacobian: out[b] = W @ S[b], shape (B, C, d)."""
        value = W.value @ S.value

        def vjp(g):
            dW = np.einsum("bcd,bkd->ck", g, S.value)
            dS = np.einsum("ck,bcd->bkd", W.value, g)
            return (dW, dS)

        return self._record(Node(value, (W, S), vjp, "jac_head"))

    def jac_mask(self, S: Node, mask_values: np.ndarray) -> Node:
        """Row-scale Jacobian blocks by a fixed dropout mask (B, w)."""
        m = np.asarray(mask_values, dtype=np.float64)

        value = S.value * m[:, :, None]

        def vjp(g):
            return (g * m[:, :, None],)

        return self._record(Node(value, (S,), vjp, "jac_mask"))

    def frob_mean(self, S: Node) -> Node:
        """Scalar: mean over batch of the summed squares of each block."""
        batch = S.value.shape[0]
        value = np.float64(np.sum(S.value * S.value) / batch)

        def vjp(g):
            return ((2.0 * float(g) / batch) * S.value,)

        return self._record(Node(value, (S,), vjp, "frob_mean"))

    def softmax_cross_entropy(self, logits: Node, labels: np.ndarray, reduction: str = "mean") -> Node:
        """Scalar softmax cross-entropy over integer labels.

        reduction 'mean' averages over the batch; 'sum' totals it, which
        makes d(out)/d(input row b) the gradient of row b's own loss.
        """
        y = np.asarray(labels)
        if reduction not in ("mean", "sum"):
            raise ValueError(f"unknown reduction {reduction!r}")

        lv = logits.value
        shifted = lv - lv.max(axis=1, keepdims=True)
        lse = np.log(np.sum(np.exp(shifted), axis=1)) + lv.max(axis=1)
        losses = lse - lv[np.arange(lv.shape[0]), y]
        value = np.float64(losses.mean() if reduction == "mean" else losses.sum())

        def vjp(g):
            e = np.exp(shifted)
            p = e / e.sum(axis=1, keepdims=True)
            p[np.arange(p.shape[0]), y] -= 1.0
            scale = float(g) / p.shape[0] if reduction == "mean" else float(g)
            return (scale * p,)

        return self._record(Node(value, (logits,), vjp, "softmax_ce"))

    def mean_scalars(self, terms: list[Node]) -> Node:
        value = np.float64(sum(t.value for t in terms) / len(terms))

        def vjp(g):
            share = float(g) / len(terms)
            return tuple(share for _ in terms)

        return self._record(Node(value, tuple(terms), vjp, "mean_scalars"))

    def add_scaled(self, a: Node, b: Node, k: float) -> Node:
        """Scalar combine: a + k * b."""
        value = np.float64(a.value + k * b.value)

        def vjp(g):
            return (g, k * float(g))

        return self._record(Node(value, (a, b), vjp, "add_scaled"))

    # -- execution -------------------------------------------------------

    def backward(self, out: Node):
        """Reverse sweep accumulating gradients from ``out``."""
        for node in self.nodes:
            node.grad = None
        out.grad = np.ones_like(np.asarray(out.value, dtype=np.float64))
        for node in reversed(self.nodes):
            if node.grad is None or node.vjp is None:
                continue
            for parent, grad in zip(node.parents, node.vjp(node.grad)):
                _accumulate(parent, grad)
        for node in self.params.values():
            if node.grad is None and node.grad_out is not None:
                node.grad_out[...] = 0.0
                node.grad = node.grad_out

    def grads(self) -> dict[str, np.ndarray]:
        """Per-parameter gradients; zero arrays for unreached parameters."""
        return {
            name: (node.grad if node.grad is not None else np.zeros_like(node.value))
            for name, node in self.params.items()
        }
