"""Composite objective, exact gradients, the Adam step, and the training loop.

The objective is mean softmax cross-entropy plus lambda times the DREG
penalty, the mean over layers of sum_b ||S_(l,b)||_F^2 / B over the
per-sample input-Jacobian blocks. ``loss_and_grads`` gives lambda once
to a ``tape.Tape``, which records the batch (the value stream and its
slopes, the dropout masks and, when lambda is nonzero, the Jacobian
stream), and runs its hand-written adjoint once, so every parameter
class (weights, biases, activation coefficients) is differentiated
through the Jacobian stream itself, second activation derivatives
included. A lambda = 0 step logs the tape's penalty of its unmasked
stream. ``train`` returns its per-epoch ``EpochStats`` as a plain list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arena import ParamArena
from .errors import ConfigError, NumericOverflowError
from .linalg import Rng
from .polynet import Net, forward_values
from .tape import Tape

SHUFFLE_BLOCK = 1 << 16  # most indices one block of epoch orders holds

__all__ = [
    "TrainConfig",
    "LossBundle",
    "loss_and_grads",
    "predict_logits",
    "eval_tape",
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
    loss; with ``log_penalty`` the tape still reports the penalty of the
    batch's unmasked stream (``Tape.unmasked_penalty``), by the same
    formula as a penalized tape, so training logs stay comparable across
    models. Without ``log_penalty`` a lambda = 0 bundle's penalty is None.

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
    elif log_penalty:
        penalty = float(tape.unmasked_penalty())
    else:
        penalty = None
    return LossBundle(loss, float(tape.task), penalty, grad, net.arena)


# -- plain inference helpers ----------------------------------------------


def _check_finite(logits: np.ndarray, records: list[tuple], h_out: np.ndarray) -> np.ndarray:
    """``logits``, or NumericOverflowError naming the first layer, else the head, whose output is
    not finite; ``forward_values``' outputs, or a tape's ``logits``, ``nodes`` and ``h_out``."""
    for i, out in enumerate([record[0] for record in records[1:]] + [h_out, logits]):
        if not np.all(np.isfinite(out)):
            raise NumericOverflowError(f"non-finite values in {f'layer {i}' if i < len(records) else 'head'}")
    return logits


@np.errstate(over="ignore", invalid="ignore")  # _check_finite raises instead
def predict_logits(net: Net, x: np.ndarray) -> np.ndarray:
    """Eval-mode logits of ``x``, validated, from one ``forward_values`` (no slopes), every layer checked."""
    return _check_finite(*forward_values(net, net.check_input(x)))


@np.errstate(over="ignore", invalid="ignore")  # _check_finite raises instead
def eval_tape(net: Net, x: np.ndarray, labels: np.ndarray) -> Tape:
    """``predict_logits``' steps with the task loss: a ``Tape`` of validated ``x``, every layer checked."""
    tape = Tape(net, net.check_input(x), labels)
    _check_finite(tape.logits, tape.nodes, tape.h_out)
    return tape


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
    step: np.ndarray  # scratch for the step's temporaries, as is denom
    denom: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params: np.ndarray) -> "AdamState":
        return cls(*(np.zeros_like(params) for _ in range(4)))


def step_adam(
    params: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    cfg: TrainConfig,
    n_decayed: int,
) -> None:
    """In-place Adam step (bias-corrected) with decoupled weight decay; no temporaries."""
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    m, v, step, denom = state.m, state.v, state.step, state.denom
    m *= ADAM_BETA1
    m += np.multiply(grad, 1.0 - ADAM_BETA1, out=step)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(grad, 1.0 - ADAM_BETA2, out=step), grad, out=step)
    np.multiply(np.divide(m, bc1, out=step), cfg.learning_rate, out=step)
    np.add(np.sqrt(np.divide(v, bc2, out=denom), out=denom), ADAM_EPS, out=denom)
    params -= np.divide(step, denom, out=step)
    if cfg.weight_decay > 0.0:
        decayed = params[:n_decayed]
        decayed -= np.multiply(decayed, cfg.learning_rate * cfg.weight_decay, out=step[:n_decayed])


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

    Epoch orders come in blocks of up to ``SHUFFLE_BLOCK`` indices, and
    each batch is a row slice of its epoch's one gather: the draws and
    the bits of one ``permutation`` and one gather per batch.
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
    block = max(1, SHUFFLE_BLOCK // max(n, 1))
    log_out: list[EpochStats] = []
    for epoch in range(cfg.epochs):
        logged = trajectory or epoch == cfg.epochs - 1
        if epoch % block == 0:
            orders = shuffle_rng.permutations(n, min(block, cfg.epochs - epoch))
        order = orders[epoch % block]
        epoch_x, epoch_y = train_x[order], train_y[order]
        task_losses = []
        penalties = []
        for start in range(0, n, cfg.batch_size):
            stop = start + cfg.batch_size
            try:
                bundle = loss_and_grads(
                    net, epoch_x[start:stop], epoch_y[start:stop], cfg, dropout_rng, logged, grad_out
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
