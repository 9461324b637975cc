"""The network's recorded forward pass and its hand-written adjoint.

``Tape`` runs the value stream of a ``Net`` on one batch and, when the
penalty weight ``lam`` is nonzero, the per-sample Jacobian stream the
DREG penalty is built from:

    S1 = diag(phi'(z1)) @ W1,    Sl = diag(phi'(zl)) @ Wl @ S(l-1)

with optional dropout masks scaling each layer's output rows (and, in
step, its Jacobian rows). It keeps one record ``(h_in, z, slope, S_in, S,
W @ S_in)`` per layer in ``nodes``, plus the softmax's ``exp(logits -
max)`` and row sums. ``loss`` is the task loss plus ``lam``
times the penalty. ``backward`` is the adjoint of exactly that
recurrence plus the softmax cross-entropy and the penalty's Frobenius
terms, applied in reverse layer order: the penalty reaches every
parameter class through the Jacobian stream, second activation
derivatives included. It reuses what the forward recorded instead of
forming it again, and writes parameter gradients straight into the
caller's views.

Every array receives at most two gradient contributions (a weight from
its linear map and its Jacobian block; a pre-activation and the cubic
coefficients from the value and the slope; a block from its own penalty
term and the next layer), so the sums do not depend on the order they
are formed in.

The block adjoint ``W.T @ dt`` of the layers past the first,
``einsum("wk,bwd->bkd")``, forms each output as one multiply-add chain
over w, in order. ``_contract_w`` runs that same chain over ``dt`` laid
out as contiguous (w, B*d) rows, so numpy makes one pass per (w, k) over
a row of B*d values instead of B*w*k passes over rows of d, with the same
bits. The other three einsums run numpy's dot kernel, whose lane-wise
sums have no longer-row form with the same bits, so they stay as written.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tape"]


def _contract_w(W: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """``np.einsum("wk,bwd->bkd", W, dt)``, bit for bit, possibly as a non-contiguous view.

    At k * d == 1 the einsum takes its dot kernel, which sums in another
    order, so that shape keeps the plain call.
    """
    batch, w, d = dt.shape
    k = W.shape[1]
    if k * d == 1:
        return np.einsum("wk,bwd->bkd", W, dt)
    rows = np.ascontiguousarray(dt.transpose(1, 0, 2)).reshape(w, batch * d)
    return np.einsum("wk,wn->kn", W, rows).reshape(k, batch, d).transpose(1, 0, 2)


class Tape:
    """One batch's forward record: logits, task loss and, when ``lam`` is
    nonzero, the Jacobian blocks, their penalty and the loss they weigh into.

    ``masks`` are per-layer dropout masks, already scaled. ``reduction``
    "mean" averages the cross-entropy over the batch; "sum" totals it,
    which makes input-gradient row b the gradient of row b's own loss.
    """

    def __init__(self, net, x, labels, masks=None, lam=0.0, reduction="mean"):
        if reduction not in ("mean", "sum"):
            raise ValueError(f"unknown reduction {reduction!r}")
        self.net = net
        self.masks = masks
        self.lam = lam
        self.reduction = reduction
        self.nodes: list[tuple] = []
        dual = lam != 0.0
        h = np.asarray(x, dtype=np.float64)
        S = WS = None
        for i, layer in enumerate(net.layers):
            z = h @ layer.weights.T + layer.bias
            slope = layer.slope(z)
            out = layer.activate(z)
            S_in = S
            if dual:
                W = layer.weights
                WS = W[None, :, :] if S_in is None else W @ S_in
                S = slope[:, :, None] * WS
            if masks is not None:
                out *= masks[i]
                if dual:
                    S *= masks[i][:, :, None]
            self.nodes.append((h, z, slope, S_in, S, WS))
            h = out
        self.h_out = h
        self.logits = h @ net.head_weights.T + net.head_bias

        lv = self.logits
        batch = lv.shape[0]
        self.labels = np.asarray(labels)
        self.rows = np.arange(batch)
        top = lv.max(axis=1, keepdims=True)
        # exp(lv - max) and its row sums serve the loss here and the softmax in backward.
        self.exp = np.exp(lv - top)
        self.exp_sum = self.exp.sum(axis=1, keepdims=True)
        lse = np.log(self.exp_sum[:, 0]) + top[:, 0]
        losses = lse - lv[self.rows, self.labels]
        # losses.sum() / batch is exactly what losses.mean() computes.
        self.task = np.float64(losses.sum() / batch if reduction == "mean" else losses.sum())

        self.penalty = None
        self.loss = self.task
        if dual:
            frobs = [np.float64(np.sum(node[4] * node[4]) / batch) for node in self.nodes]
            self.penalty = np.float64(sum(frobs) / len(frobs))
            self.loss = np.float64(self.task + lam * self.penalty)

    def backward(self, grads: tuple | None = None) -> np.ndarray:
        """Gradient of ``loss``; returns the input gradient.

        With ``grads``, a ``net.layer_views(vec)`` of a gradient vector,
        every parameter's gradient is written into it; without, no
        parameter gradient is formed.
        """
        net = self.net
        p = self.exp / self.exp_sum
        p[self.rows, self.labels] -= 1.0
        scale = 1.0 / p.shape[0] if self.reduction == "mean" else 1.0
        g = scale * p
        dh = g @ net.head_weights
        if grads is not None:
            grad_layers, grad_head_w, grad_head_b = grads
            np.matmul(g.T, self.h_out, out=grad_head_w)
            g.sum(axis=0, out=grad_head_b)

        dS = None
        if self.penalty is not None:
            coef = 2.0 * (self.lam / len(self.nodes)) / g.shape[0]
            dS = coef * self.nodes[-1][4]

        for i in reversed(range(len(self.nodes))):
            layer = net.layers[i]
            W, c = layer.weights, layer.coeffs
            h_in, z, slope, S_in, _, WS = self.nodes[i]
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
                    dslope = (dS * WS).sum(axis=2)
                dt = slope[:, :, None] * dS
                if grads is not None:
                    dW_jac = np.einsum("bwd,bkd->wk", dt, S_in)
                # Added in place, so dS stays C-contiguous: the next layer's sums read its layout.
                dS = coef * S_in
                dS += _contract_w(W, dt)

            dz = dh * slope
            if dslope is not None:
                dz += dslope * (2.0 * c[2] + 6.0 * c[3] * z)
            if grads is not None:
                gW, gb, gc = grad_layers[i]
                if c is not None:
                    # dh * z**k and dslope * z**k as left-to-right products.
                    dhz = dh * z
                    dhz2 = dhz * z
                    dh.sum(axis=0, out=gc[0])
                    dhz.sum(axis=0, out=gc[1])
                    dhz2.sum(axis=0, out=gc[2])
                    (dhz2 * z).sum(axis=0, out=gc[3])
                    if dslope is not None:
                        dsz = dslope * z
                        gc[1] += dslope.sum(axis=0)
                        gc[2] += 2.0 * dsz.sum(axis=0)
                        gc[3] += 3.0 * (dsz * z).sum(axis=0)
                np.matmul(dz.T, h_in, out=gW)
                if dW_jac is not None:
                    gW += dW_jac
                dz.sum(axis=0, out=gb)
            dh = dz @ W
        return dh
