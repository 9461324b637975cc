"""Composite objective, exact gradients, the Adam step, and the training loop.

The objective is mean softmax cross-entropy plus lambda times the
layer-mean squared Frobenius norm of the per-sample input-Jacobian
blocks. ``loss_and_grads`` gives lambda once to a ``tape.Tape``, which
records the batch (the value stream, the dropout masks and, when lambda
is nonzero, the Jacobian stream), and runs its hand-written adjoint
once, so every parameter class (weights, biases, activation
coefficients) is differentiated through the Jacobian stream itself,
second activation derivatives included. ``train`` returns its per-epoch
``EpochStats`` as a plain list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arena import ParamArena
from .errors import ConfigError, NumericOverflowError
from .linalg import Rng
from .polynet import Net, dreg_penalty, forward_values, jacobian_stream
from .tape import Tape

__all__ = [
    "TrainConfig",
    "LossBundle",
    "loss_and_grads",
    "objective_value",
    "measure_penalty",
    "predict_logits",
    "accuracy",
    "evaluate_accuracy",
    "AdamState",
    "step_adam",
    "EpochStats",
    "train",
]

@dataclass
class TrainConfig:
    lambda_dreg: float = 0.0
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 150
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name, ok, rule in (
            ("lambda_dreg", self.lambda_dreg >= 0, ">= 0"),
            ("learning_rate", self.learning_rate > 0, "> 0"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("epochs", self.epochs >= 1, ">= 1"),
            ("weight_decay", self.weight_decay >= 0, ">= 0"),
        ):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)!r}", key=name)


def dropout_masks(net: Net, batch: int, rng: Rng) -> list[np.ndarray]:
    """Inverted-dropout masks, one per hidden layer, pre-scaled by 1/(1-rate).

    One draw covers every layer: the generator yields the same doubles
    in the same order as one ``(batch, width)`` draw per layer.
    """
    rate = net.dropout_rate
    widths = net.widths
    scaled = (rng.uniform(batch * sum(widths)) >= rate).astype(np.float64) / (1.0 - rate)
    masks = []
    start = 0
    for w in widths:
        masks.append(scaled[start : start + batch * w].reshape(batch, w))
        start += batch * w
    return masks


@dataclass
class LossBundle:
    loss: float
    task_loss: float
    penalty: float | None  # None: a lambda = 0 step asked not to log it
    grad: np.ndarray  # flat gradient, laid out like net.arena.flat
    arena: ParamArena  # the net's layout, which names the entries of ``grad``

    @property
    def grads(self) -> dict[str, np.ndarray]:
        """Per-parameter views into ``grad``, named as in ``net.parameters()``."""
        return self.arena.views(self.grad)


def measure_penalty(net: Net, x: np.ndarray) -> float:
    """Report-only penalty value from a plain forward pass and the hidden
    layers' Jacobian blocks; no head block is built."""
    _, preacts = forward_values(net, x)
    return dreg_penalty(jacobian_stream(net, [layer.slope(z) for layer, z in zip(net.layers, preacts)]))


def loss_and_grads(
    net: Net,
    x: np.ndarray,
    labels: np.ndarray,
    cfg: TrainConfig,
    dropout_rng: Rng | None = None,
    log_penalty: bool = True,
    out: tuple[np.ndarray, tuple] | None = None,
) -> LossBundle:
    """Exact gradients of the composite objective for one batch.

    When the penalty weight is zero the objective is exactly the task
    loss; with ``log_penalty`` the penalty value is still measured
    (outside the tape) so training logs stay comparable across models.
    It equals ``measure_penalty(net, x)``: without dropout it is built
    from the slopes the tape already holds; under dropout the tape's
    stream is masked, so an unmasked dual pass measures it. Without
    ``log_penalty`` a lambda = 0 bundle's penalty is None.

    ``out`` is a flat gradient vector and its ``net.layer_views``, which
    ``train`` reuses across steps; every entry is overwritten. Without it
    the bundle gets a fresh vector.
    """
    masks = None
    if net.dropout_rate > 0.0:
        if dropout_rng is None:
            raise ValueError("dropout needs an rng")
        masks = dropout_masks(net, x.shape[0], dropout_rng)
    tape = Tape(net, x, labels, masks, cfg.lambda_dreg)
    loss = float(tape.loss)
    if not math.isfinite(loss):
        raise NumericOverflowError("non-finite training loss")
    if out is None:
        grad = np.empty(net.arena.size)
        out = grad, net.layer_views(grad)
    grad, grad_views = out
    tape.backward(grad_views)
    if tape.penalty is not None:
        penalty = float(tape.penalty)
    elif not log_penalty:
        penalty = None
    elif masks is not None:
        penalty = measure_penalty(net, x)
    else:
        penalty = dreg_penalty(jacobian_stream(net, [node[2] for node in tape.nodes]))
    return LossBundle(loss, float(tape.task), penalty, grad, net.arena)


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
    logits = predict_logits(net, x)
    task = cross_entropy(logits, labels)
    if cfg.lambda_dreg == 0.0:
        return task
    return task + cfg.lambda_dreg * measure_penalty(net, x)


# -- plain inference helpers ----------------------------------------------


def predict_logits(net: Net, x: np.ndarray) -> np.ndarray:
    logits, _ = forward_values(net, x)
    return logits


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy over the rows of ``logits``."""
    y = np.asarray(labels)
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(shifted), axis=1)) + logits.max(axis=1)
    losses = lse - logits[np.arange(logits.shape[0]), y]
    return float(losses.mean())


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(labels)))


def evaluate_accuracy(net, x: np.ndarray, labels: np.ndarray) -> float:
    return accuracy(predict_logits(net, x), labels)


# -- Adam ------------------------------------------------------------------
#
# A step updates a network's whole flat parameter vector (``net.arena.flat``)
# at once; ``n_decayed`` leading entries get decoupled weight decay, the
# trailing cubic coefficients do not.


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


def step_adam(
    params: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    cfg: TrainConfig,
    n_decayed: int,
) -> None:
    """In-place Adam step (bias-corrected) with decoupled weight decay."""
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    params -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    if cfg.weight_decay > 0.0:
        decayed = params[:n_decayed]
        decayed -= cfg.learning_rate * cfg.weight_decay * decayed


# -- training loop ---------------------------------------------------------


@dataclass
class EpochStats:
    epoch: int
    task_loss: float
    penalty: float
    eval_accuracy: float


@np.errstate(over="ignore", invalid="ignore")  # every finite check raises instead
def train(
    net: Net,
    train_x: np.ndarray,
    train_y: np.ndarray,
    eval_x: np.ndarray,
    eval_y: np.ndarray,
    cfg: TrainConfig,
    trajectory: bool = True,
) -> list[EpochStats]:
    """Deterministic minibatch training of ``net`` in place; returns the per-epoch log.

    All randomness (shuffling, dropout masks) comes from generators
    derived from ``cfg.seed``, so identical inputs give bitwise
    identical parameters. Divergence aborts with epoch/batch context.

    With ``trajectory`` every epoch is logged. Without it only the last
    epoch is: the other epochs skip the eval forward and, for lambda = 0,
    the penalty log. Neither draws randomness or touches the parameters,
    so the parameters and the last epoch's stats are bitwise the same
    either way. The skipped eval forward is a divergence check, so a
    net that overflows mid-run fails at the next training batch instead.
    """
    rng = Rng(cfg.seed)
    shuffle_rng = rng.spawn("shuffle")
    dropout_rng = rng.spawn("dropout")
    arena = net.arena
    arena.check_bound(net.parameters())
    params = arena.flat
    adam = AdamState.for_params(params)
    grad = np.empty(arena.size)
    grad_out = grad, net.layer_views(grad)

    n = train_x.shape[0]
    log_out: list[EpochStats] = []
    for epoch in range(cfg.epochs):
        logged = trajectory or epoch == cfg.epochs - 1
        order = shuffle_rng.permutation(n)
        task_losses = []
        penalties = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            try:
                bundle = loss_and_grads(
                    net, train_x[idx], train_y[idx], cfg, dropout_rng, logged, grad_out
                )
            except NumericOverflowError as err:
                raise NumericOverflowError(
                    f"training diverged: {err}", epoch=epoch, batch=start // cfg.batch_size
                ) from err
            step_adam(params, grad, adam, cfg, arena.n_decayed)
            task_losses.append(bundle.task_loss)
            penalties.append(bundle.penalty)
        if not logged:
            continue
        try:
            eval_acc = evaluate_accuracy(net, eval_x, eval_y)
        except NumericOverflowError as err:
            raise NumericOverflowError(f"evaluation diverged: {err}", epoch=epoch) from err
        log_out.append(
            EpochStats(epoch, float(np.mean(task_losses)), float(np.mean(penalties)), eval_acc)
        )
    return log_out
