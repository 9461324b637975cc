"""Tape-free oracles: the value stream, the cross-entropy, the Jacobian
stream, the DREG penalty and the composite objective.

The finite-difference gates (acceptance 01/02, ``test_tape.py``,
``test_train.py``) check ``tape.Tape`` against these functions, so they
share no arithmetic with it: ``forward_values`` and ``cross_entropy``
here are the package's inference forward and eval loss as they stood
before ``polynet.forward_values`` became the one value loop, kept
unchanged. The oracles rebuild the stream from ``forward_values``'
pre-activations and take the penalty as
sum_l sum_b ||S_(l,b)||_F^2 / (B * L), a different summation order from
the tape's mean over layers of sum_b ||S_(l,b)||_F^2 / B: the two agree
to a few ULPs, and bit for bit when B and L are powers of two. Only the
memory guard is the library's.
"""

import numpy as np

from polygrad.errors import NumericOverflowError
from polygrad.polynet import Net
from polygrad.tape import _check_dual_budget
from polygrad.train import TrainConfig


def _check_finite(arr: np.ndarray, where: str):
    if not np.all(np.isfinite(arr)):
        raise NumericOverflowError(f"non-finite values in {where}")


@np.errstate(over="ignore", invalid="ignore")  # _check_finite raises instead
def forward_values(net: Net, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Value stream only (eval mode, no dropout): the logits and each
    layer's pre-activation z, (batch, width)."""
    x = net.check_input(x)
    preacts = []
    h = x
    for i, layer in enumerate(net.layers):
        z = h @ layer.weights.T + layer.bias
        h = layer.activate(z)
        _check_finite(h, f"layer {i}")
        preacts.append(z)
    logits = h @ net.head_weights.T + net.head_bias
    _check_finite(logits, "head")
    return logits, preacts


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy over the rows of ``logits``."""
    y = np.asarray(labels)
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(shifted), axis=1)) + logits.max(axis=1)
    losses = lse - logits[np.arange(logits.shape[0]), y]
    return float(losses.mean())


def forward_dual(net: Net, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Value stream plus per-sample cumulative input-Jacobians.

    Returns the logits and the Jacobian blocks: one (batch, width_l, d)
    block per hidden layer (see ``jacobian_stream``), then the head's
    (batch, num_classes, d) block ``head_weights @ blocks[-2]``. A batch
    whose blocks would exceed ``MAX_DUAL_BYTES`` is rejected up front.
    """
    x = net.check_input(x)
    _check_dual_budget(net, x.shape[0], sum(net.widths) + net.num_classes)
    logits, preacts = forward_values(net, x)
    blocks = jacobian_stream(net, [layer.slope(z) for layer, z in zip(net.layers, preacts)])
    blocks.append(net.head_weights @ blocks[-1])
    return logits, blocks


def jacobian_stream(net: Net, slopes: list[np.ndarray]) -> list[np.ndarray]:
    """Per-sample cumulative input-Jacobians from each layer's slope
    phi'(z), (batch, width).

    Returns one (batch, width_l, d) block per layer:
    S1 = diag(phi'(z1)) @ W1 and Sl = diag(phi'(zl)) @ Wl @ S(l-1).
    Blocks that would exceed ``MAX_DUAL_BYTES`` are rejected before any
    is built.
    """
    _check_dual_budget(net, slopes[0].shape[0], sum(net.widths))
    blocks = []
    S = None  # layer-0 value is the implicit identity
    for layer, slope in zip(net.layers, slopes):
        if S is None:
            S = slope[:, :, None] * layer.weights[None, :, :]
        else:
            S = slope[:, :, None] * (layer.weights @ S)
        blocks.append(S)
    return blocks


def dreg_penalty(blocks: list[np.ndarray]) -> float:
    """Mean over the given Jacobian blocks and the batch of ||S||_F^2.

    The double mean keeps the penalty weight scale-free in batch size
    and depth.
    """
    batch = blocks[0].shape[0]
    total = sum(float(np.add.reduce(S * S, axis=None)) for S in blocks)
    return total / (batch * len(blocks))


def measure_penalty(net: Net, x: np.ndarray) -> float:
    """Report-only penalty value from a plain forward pass and the hidden
    layers' Jacobian blocks; no head block is built."""
    _, preacts = forward_values(net, x)
    return dreg_penalty(jacobian_stream(net, [layer.slope(z) for layer, z in zip(net.layers, preacts)]))


def objective_value(
    net: Net,
    x: np.ndarray,
    labels: np.ndarray,
    cfg: TrainConfig,
) -> float:
    """Plain (tape-free) evaluation of the composite objective.

    Kept as the finite-difference gates' oracle: it shares no code with
    the tape path those gates check.
    """
    logits, _ = forward_values(net, x)
    task = cross_entropy(logits, labels)
    if cfg.lambda_dreg == 0.0:
        return task
    return task + cfg.lambda_dreg * measure_penalty(net, x)
