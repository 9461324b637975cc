"""The network's recorded forward pass, its Jacobian stream and its hand-written adjoint.

``Tape`` records a ``Net``'s value stream on one batch through
``polynet.forward_values`` and, when the penalty weight ``lam`` is
nonzero, the per-sample Jacobian stream the DREG penalty is built from:

    S1 = diag(phi'(z1)) @ W1,    Sl = diag(phi'(zl)) @ Wl @ S(l-1)

with optional dropout masks scaling each layer's output rows (and, in
step, its Jacobian rows). It is the package's only code that builds
Jacobian blocks, and it holds the one penalty formula, the mean over
layers of sum_b ||S_(l,b)||_F^2 / B, and the one cross-entropy;
``unmasked_penalty`` gives a lambda = 0 or masked tape the penalty of
its unmasked stream for the training log. ``nodes`` holds each layer's
``(h_in, z, slope)``, plus ``(S_in, S, W @ S_in)`` when ``lam`` is
nonzero, beside the softmax's ``exp(logits - max)`` and row sums.
``loss`` is the task loss plus ``lam`` times the penalty. ``backward``
is the adjoint of exactly that recurrence plus the softmax
cross-entropy and the penalty's Frobenius terms, applied in reverse
layer order: the penalty reaches every parameter class through the
Jacobian stream, second activation derivatives included. It reuses what
the forward recorded instead of forming it again, and writes parameter
gradients straight into the caller's views.

Every array receives at most two gradient contributions (a weight from
its linear map and its Jacobian block; a pre-activation and the cubic
coefficients from the value and the slope; a block from its own penalty
term and the next layer), so the sums do not depend on the order they
are formed in. Sums call ``np.add.reduce``, which ``np.sum`` only wraps.

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

from .errors import MemoryBudgetError
from .polynet import forward_values

__all__ = ["Tape"]

# Cap on the Jacobian stream's allocation: a (batch, width, d) block of
# doubles per layer, counted over the blocks a stream builds before any is built.
MAX_DUAL_BYTES = 1 << 29  # 512 MiB


def _check_dual_budget(net, batch: int, rows: int) -> None:
    """MemoryBudgetError unless ``rows`` Jacobian rows of ``batch`` samples fit ``MAX_DUAL_BYTES``."""
    need = 8 * batch * net.input_dim * rows
    if need > MAX_DUAL_BYTES:
        raise MemoryBudgetError(
            f"dual stream needs {need} bytes for batch={batch}, d={net.input_dim}, "
            f"widths={net.widths}; cap is {MAX_DUAL_BYTES}"
        )


def _stream(net, nodes: list[tuple], masks=None) -> list[tuple]:
    """The layer records ``nodes`` with their Jacobian entries
    ``(S_in, S, W @ S_in)`` filled in: each block from its layer's slope
    phi'(z), (batch, width), its rows scaled by the layer's mask when
    ``masks`` is given. Layer 0 has no ``S_in``; its ``W @ S_in`` is W
    itself. Blocks over ``MAX_DUAL_BYTES`` raise before any is built.
    """
    _check_dual_budget(net, nodes[0][0].shape[0], sum(net.widths))
    out = []
    S = None
    for i, (layer, node) in enumerate(zip(net.layers, nodes)):
        h, z, slope = node[:3]
        S_in = S
        W = layer.weights
        WS = W[None, :, :] if S_in is None else W @ S_in
        S = slope[:, :, None] * WS
        if masks is not None:
            S *= masks[i][:, :, None]
        out.append((h, z, slope, S_in, S, WS))
    return out


def _square_sums(nodes: list[tuple]) -> list[np.float64]:
    """Each layer's sum_b ||S_b||_F^2 over the blocks of the records ``nodes``."""
    return [np.add.reduce(node[4] * node[4], axis=None) for node in nodes]


def _penalty(square_sums: list[np.float64], batch: int) -> np.float64:
    """The DREG penalty: the mean over layers of sum_b ||S_b||_F^2 / batch."""
    frobs = [np.float64(s / batch) for s in square_sums]
    return np.float64(sum(frobs) / len(frobs))


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
    Blocks that would exceed ``MAX_DUAL_BYTES`` raise ``MemoryBudgetError`` before any is built.

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
        self.logits, nodes, self.h_out = forward_values(net, np.asarray(x, dtype=np.float64), masks)

        lv = self.logits
        batch = lv.shape[0]
        self.labels = np.asarray(labels)
        self.rows = np.arange(batch)
        top = lv.max(axis=1, keepdims=True)
        # exp(lv - max) and its row sums serve the loss here and the softmax in backward.
        self.exp = np.exp(lv - top)
        self.exp_sum = np.add.reduce(self.exp, axis=1, keepdims=True)
        lse = np.log(self.exp_sum[:, 0]) + top[:, 0]
        losses = lse - lv[self.rows, self.labels]
        # losses.sum() / batch is exactly what losses.mean() computes.
        self.task = np.float64(losses.sum() / batch if reduction == "mean" else losses.sum())

        self.penalty = None
        self.loss = self.task
        if lam != 0.0:
            nodes = _stream(net, nodes, masks)
            self.penalty = _penalty(_square_sums(nodes), batch)
            self.loss = np.float64(self.task + lam * self.penalty)
        self.nodes = nodes

    def unmasked_penalty(self) -> np.float64:
        """The penalty of this batch's unmasked Jacobian stream, whatever
        ``lam``: bit for bit ``Tape(net, x, labels, lam=1.0).penalty``
        when its blocks fit ``MAX_DUAL_BYTES``.

        Without masks the recorded slopes are the unmasked ones, so the
        stream is built from them, with no second forward. Masked layers
        feed masked values forward, so a masked tape runs ``forward_values``
        once more without masks. The stream is built in row chunks whose
        blocks fit the budget, each layer's sum_b ||S_b||_F^2 added up
        across them: a batch that fits is one chunk, with the one-block
        bits; more chunks give the one-block sum up to its last bits. A
        row that does not fit alone raises.
        """
        net = self.net
        nodes = self.nodes if self.masks is None else forward_values(net, self.nodes[0][0])[1]
        batch = nodes[0][0].shape[0]
        # Rows whose blocks fit the budget; a lone row that does not raises in _stream.
        rows = max(1, MAX_DUAL_BYTES // (8 * net.input_dim * sum(net.widths)))
        chunks = [
            _square_sums(_stream(net, [tuple(a[start : start + rows] for a in node[:3]) for node in nodes]))
            for start in range(0, batch, rows)
        ]
        return _penalty([sum(layer) for layer in zip(*chunks)], batch)

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
            np.add.reduce(g, axis=0, out=grad_head_b)

        dS = None
        if self.penalty is not None:
            coef = 2.0 * (self.lam / len(self.nodes)) / g.shape[0]
            dS = coef * self.nodes[-1][4]

        for i in reversed(range(len(self.nodes))):
            layer = net.layers[i]
            W, c = layer.weights, layer.coeffs
            h_in, z, slope = self.nodes[i][:3]
            if self.masks is not None:
                dh = dh * self.masks[i]
                if dS is not None:
                    dS = dS * self.masks[i][:, :, None]
            # The ReLU slope is piecewise constant: the Jacobian stream
            # reaches its weights but not its pre-activations.
            dslope = dW_jac = None
            if dS is not None:
                S_in, _, WS = self.nodes[i][3:]
                if S_in is None:
                    if c is not None:
                        dslope = np.einsum("bwd,wd->bw", dS, W)
                    if grads is not None:
                        dW_jac = np.einsum("bw,bwd->wd", slope, dS)
                else:
                    if c is not None:
                        dslope = np.add.reduce(dS * WS, axis=2)
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
                    np.add.reduce(dh, axis=0, out=gc[0])
                    np.add.reduce(dhz, axis=0, out=gc[1])
                    np.add.reduce(dhz2, axis=0, out=gc[2])
                    np.add.reduce(dhz2 * z, axis=0, out=gc[3])
                    if dslope is not None:
                        dsz = dslope * z
                        gc[1] += np.add.reduce(dslope, axis=0)
                        gc[2] += 2.0 * np.add.reduce(dsz, axis=0)
                        gc[3] += 3.0 * np.add.reduce(dsz * z, axis=0)
                np.matmul(dz.T, h_in, out=gW)
                if dW_jac is not None:
                    gW += dW_jac
                np.add.reduce(dz, axis=0, out=gb)
            dh = dz @ W
        return dh
