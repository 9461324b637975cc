"""The network's recorded forward pass and its hand-written adjoint.

``Tape`` runs the value stream of a ``Net`` on one batch and, when asked,
the per-sample Jacobian stream the DREG penalty is built from:

    S1 = diag(phi'(z1)) @ W1,    Sl = diag(phi'(zl)) @ Wl @ S(l-1)

with optional dropout masks scaling each layer's output rows (and, in
step, its Jacobian rows). It keeps one record ``(h_in, z, slope, S_in, S)``
per layer in ``nodes``. ``backward`` is the adjoint of exactly that
recurrence plus the softmax cross-entropy and the penalty's Frobenius
terms, applied in reverse layer order: the penalty reaches every
parameter class through the Jacobian stream, second activation
derivatives included.

Every array receives at most two gradient contributions (a weight from
its linear map and its Jacobian block; a pre-activation and the cubic
coefficients from the value and the slope; a block from its own penalty
term and the next layer), so the sums do not depend on the order they
are formed in.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tape"]


class Tape:
    """One batch's forward record: logits, task loss and, with
    ``need_dual``, the Jacobian blocks and their penalty.

    ``masks`` are per-layer dropout masks, already scaled. ``include_head``
    adds the head block ``W_head @ S_L`` to the penalty. ``reduction``
    "mean" averages the cross-entropy over the batch; "sum" totals it,
    which makes input-gradient row b the gradient of row b's own loss.
    """

    def __init__(self, net, x, labels, masks=None, need_dual=False, include_head=False, reduction="mean"):
        if reduction not in ("mean", "sum"):
            raise ValueError(f"unknown reduction {reduction!r}")
        self.net = net
        self.masks = masks
        self.reduction = reduction
        self.nodes: list[tuple] = []
        h = np.asarray(x, dtype=np.float64)
        S = None
        for i, layer in enumerate(net.layers):
            z = h @ layer.weights.T + layer.bias
            slope = layer.slope(z)
            out = layer.activate(z)
            S_in = S
            if need_dual:
                W = layer.weights
                S = slope[:, :, None] * (W[None, :, :] if S_in is None else W @ S_in)
            if masks is not None:
                out = out * masks[i]
                if need_dual:
                    S = S * masks[i][:, :, None]
            self.nodes.append((h, z, slope, S_in, S))
            h = out
        self.h_out = h
        self.logits = h @ net.head_weights.T + net.head_bias
        self.preacts = [node[1] for node in self.nodes]

        lv = self.logits
        self.labels = np.asarray(labels)
        self.shifted = lv - lv.max(axis=1, keepdims=True)
        lse = np.log(np.sum(np.exp(self.shifted), axis=1)) + lv.max(axis=1)
        losses = lse - lv[np.arange(lv.shape[0]), self.labels]
        self.task = np.float64(losses.mean() if reduction == "mean" else losses.sum())

        self.blocks = None
        self.penalty = None
        if need_dual:
            self.blocks = [node[4] for node in self.nodes]
            if include_head:
                self.blocks.append(net.head_weights @ S)
            batch = lv.shape[0]
            frobs = [np.float64(np.sum(B * B) / batch) for B in self.blocks]
            self.penalty = np.float64(sum(frobs) / len(frobs))

    def loss(self, lam: float = 0.0) -> np.float64:
        """Task loss plus ``lam`` times the penalty (recorded with ``need_dual``)."""
        if self.penalty is None:
            return self.task
        return np.float64(self.task + lam * self.penalty)

    def backward(self, lam: float = 0.0, grads: dict[str, np.ndarray] | None = None) -> np.ndarray:
        """Gradient of ``loss(lam)``; returns the input gradient.

        With ``grads`` (views named like ``net.parameters()``, e.g. into
        one flat vector), every parameter's gradient is written there;
        without, no parameter gradient is formed.
        """
        net = self.net
        e = np.exp(self.shifted)
        p = e / e.sum(axis=1, keepdims=True)
        p[np.arange(p.shape[0]), self.labels] -= 1.0
        scale = 1.0 / p.shape[0] if self.reduction == "mean" else 1.0
        g = scale * p
        dh = g @ net.head_weights
        if grads is not None:
            grads["head.W"][...] = g.T @ self.h_out
            grads["head.b"][...] = g.sum(axis=0)

        dS = None
        if self.blocks is not None:
            coef = 2.0 * (lam / len(self.blocks)) / g.shape[0]
            S_last = self.nodes[-1][4]
            dS = coef * S_last
            if len(self.blocks) > len(self.nodes):  # the head block
                gh = coef * self.blocks[-1]
                if grads is not None:
                    grads["head.W"] += np.einsum("bcd,bkd->ck", gh, S_last)
                dS = dS + np.einsum("ck,bcd->bkd", net.head_weights, gh)

        for i in reversed(range(len(self.nodes))):
            layer = net.layers[i]
            W, c = layer.weights, layer.coeffs
            h_in, z, slope, S_in, _ = self.nodes[i]
            name = f"layer{i}."
            if self.masks is not None:
                dh = dh * self.masks[i]
                if dS is not None:
                    dS = dS * self.masks[i][:, :, None]
            # The ReLU slope is piecewise constant: the Jacobian stream
            # reaches its weights but not its pre-activations.
            dslope = dW_jac = None
            if dS is not None and S_in is None:
                if c is not None:
                    dslope = np.einsum("bwd,wd->bw", dS, W)
                if grads is not None:
                    dW_jac = np.einsum("bw,bwd->wd", slope, dS)
            elif dS is not None:
                if c is not None:
                    dslope = (dS * (W @ S_in)).sum(axis=2)
                dt = slope[:, :, None] * dS
                if grads is not None:
                    dW_jac = np.einsum("bwd,bkd->wk", dt, S_in)
                dS = coef * S_in + np.einsum("wk,bwd->bkd", W, dt)

            dz = dh * slope
            if dslope is not None:
                dz = dz + dslope * (2.0 * c.c2 + 6.0 * c.c3 * z)
            if grads is not None:
                if c is not None:
                    dc = [dh.sum(axis=0), (dh * z).sum(axis=0), (dh * z * z).sum(axis=0)]
                    dc.append((dh * z * z * z).sum(axis=0))
                    if dslope is not None:
                        dc[1] += dslope.sum(axis=0)
                        dc[2] += 2.0 * (dslope * z).sum(axis=0)
                        dc[3] += 3.0 * (dslope * z * z).sum(axis=0)
                    for k in range(4):
                        grads[f"{name}c{k}"][...] = dc[k]
                dW = dz.T @ h_in
                grads[name + "W"][...] = dW if dW_jac is None else dW + dW_jac
                grads[name + "b"][...] = dz.sum(axis=0)
            dh = dz @ W
        return dh
