"""Composite objective, exact gradients, optimizers, and the training loop.

The objective is mean softmax cross-entropy plus lambda times the
layer-mean squared Frobenius norm of the per-sample input-Jacobian
blocks. Gradients come from the recorded tape, so every parameter class
(weights, biases, activation coefficients) is differentiated through
the Jacobian stream itself, second activation derivatives included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .baselines import dropout_masks
from .errors import NumericOverflowError
from .linalg import Rng
from .polynet import Net, dreg_penalty, forward_dual, forward_values, jacobian_stream
from .tape import Node, Tape

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
    "step_sgd",
    "step_adam",
    "EpochStats",
    "TrainLog",
    "TrainResult",
    "train",
]

@dataclass
class TrainConfig:
    lambda_dreg: float = 0.0
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 100
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    dropout_rate: float = 0.0
    seed: int = 0
    include_head_in_penalty: bool = False

    def __post_init__(self):
        if self.lambda_dreg < 0:
            raise ValueError("lambda_dreg must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")


@dataclass
class Objective:
    tape: Tape
    loss: Node
    task: Node
    penalty: Node | None
    logits: Node
    preacts: list[Node]  # per-layer z = h @ W.T + b
    masked: bool  # dropout masks scaled the value stream
    grad: np.ndarray  # flat gradient, laid out like net.arena.flat
    grads: dict[str, np.ndarray]  # per-parameter views into ``grad``


def record_forward(
    t: Tape,
    net: Net,
    xs: Node,
    params: dict[str, Node],
    masks: list[np.ndarray] | None = None,
    need_dual: bool = False,
) -> tuple[Node, list[Node], list[Node]]:
    """Record the network's forward pass from input node ``xs`` on ``t``.

    ``params`` maps ``net.parameters()`` names to the tape's leaves.
    Returns the logits, the per-layer pre-activations and, when
    ``need_dual``, the per-layer Jacobian blocks; with dropout ``masks``
    the blocks are row-masked in step, so they stay the exact Jacobian
    of the masked value stream.
    """
    h = xs
    S = None
    S_nodes: list[Node] = []
    preacts: list[Node] = []
    for i, layer in enumerate(net.layers):
        W = params[f"layer{i}.W"]
        z = t.linear(h, W, params[f"layer{i}.b"])
        preacts.append(z)
        if layer.coeffs is None:
            h = t.relu(z)
            slope = t.relu_slope(z) if need_dual else None
        else:
            c0, c1, c2, c3 = (params[f"layer{i}.c{k}"] for k in range(4))
            h = t.poly_val(z, c0, c1, c2, c3)
            slope = t.poly_slope(z, c1, c2, c3) if need_dual else None
        if masks is not None:
            h = t.mask(h, masks[i])
        if need_dual:
            S = t.jac_seed(slope, W) if S is None else t.jac_chain(slope, W, S)
            if masks is not None:
                S = t.jac_mask(S, masks[i])
            S_nodes.append(S)
    logits = t.linear(h, params["head.W"], params["head.b"])
    return logits, preacts, S_nodes


def build_objective(
    net: Net,
    x: np.ndarray,
    labels: np.ndarray,
    cfg: TrainConfig,
    mode: str = "train",
    dropout_rng: Rng | None = None,
) -> Objective:
    """Record the full forward pass of the composite loss on a fresh tape.

    The Jacobian stream is recorded only when the penalty weight is
    positive. Dropout masks are drawn only in train mode. A backward
    pass writes the parameter gradients into ``grad``, a fresh flat
    vector in the arena's layout.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    t = Tape()
    xs = t.leaf(np.asarray(x, dtype=np.float64), name="x")
    grad = np.zeros(net.arena.size)
    grads = net.arena.views(grad)
    params = {
        name: t.leaf(arr, name=name, param=True, grad_out=grads[name])
        for name, arr in net.parameters().items()
    }

    need_dual = cfg.lambda_dreg > 0.0
    use_dropout = mode == "train" and net.dropout_rate > 0.0
    if use_dropout and dropout_rng is None:
        raise ValueError("train-mode dropout needs an rng")
    masks = dropout_masks(net, x.shape[0], dropout_rng) if use_dropout else None
    logits, preacts, S_nodes = record_forward(t, net, xs, params, masks, need_dual)
    task = t.softmax_cross_entropy(logits, labels, reduction="mean")

    penalty = None
    loss = task
    if need_dual:
        blocks = list(S_nodes)
        if cfg.include_head_in_penalty:
            blocks.append(t.jac_head(params["head.W"], S_nodes[-1]))
        penalty = t.mean_scalars([t.frob_mean(S) for S in blocks])
        loss = t.add_scaled(task, penalty, cfg.lambda_dreg)
    return Objective(t, loss, task, penalty, logits, preacts, masks is not None, grad, grads)


@dataclass
class LossBundle:
    loss: float
    task_loss: float
    penalty: float
    grads: dict[str, np.ndarray]  # per-parameter views into ``grad``
    grad: np.ndarray  # flat gradient, laid out like net.arena.flat


def measure_penalty(net: Net, x: np.ndarray, include_head: bool = False) -> float:
    """Report-only penalty value from a plain dual forward pass."""
    _, blocks = forward_dual(net, x)
    return dreg_penalty(blocks if include_head else blocks[:-1])


def loss_and_grads(
    net: Net,
    x: np.ndarray,
    labels: np.ndarray,
    cfg: TrainConfig,
    mode: str = "train",
    dropout_rng: Rng | None = None,
) -> LossBundle:
    """Exact gradients of the composite objective for one batch.

    When the penalty weight is zero the objective is exactly the task
    loss; the penalty value is still measured (outside the tape) so
    training logs stay comparable across models. It equals
    ``measure_penalty(net, x)``: without dropout it is built from the
    pre-activations the tape already holds; under dropout the tape's
    stream is masked, so an eval-mode dual pass measures it.
    """
    obj = build_objective(net, x, labels, cfg, mode=mode, dropout_rng=dropout_rng)
    loss = float(obj.loss.value)
    if not np.isfinite(loss):
        raise NumericOverflowError("non-finite training loss")
    obj.tape.backward(obj.loss)
    include_head = cfg.include_head_in_penalty
    if obj.penalty is not None:
        penalty = float(obj.penalty.value)
    elif obj.masked:
        penalty = measure_penalty(net, x, include_head)
    else:
        blocks = jacobian_stream(net, [z.value for z in obj.preacts])
        if include_head:
            blocks.append(net.head_weights @ blocks[-1])
        penalty = dreg_penalty(blocks)
    return LossBundle(loss, float(obj.task.value), penalty, obj.grads, obj.grad)


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
    return task + cfg.lambda_dreg * measure_penalty(net, x, cfg.include_head_in_penalty)


# -- plain inference helpers ----------------------------------------------


def predict_logits(net: Net, x: np.ndarray) -> np.ndarray:
    logits, _ = forward_values(net, x)
    return logits


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray, reduction: str = "mean") -> float | np.ndarray:
    y = np.asarray(labels)
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(shifted), axis=1)) + logits.max(axis=1)
    losses = lse - logits[np.arange(logits.shape[0]), y]
    if reduction == "mean":
        return float(losses.mean())
    if reduction == "sum":
        return float(losses.sum())
    return losses


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(labels)))


def evaluate_accuracy(net, x: np.ndarray, labels: np.ndarray) -> float:
    return accuracy(predict_logits(net, x), labels)


# -- optimizers ------------------------------------------------------------
#
# Both steps update a network's whole flat parameter vector (``net.arena.flat``)
# at once; ``n_decayed`` leading entries get decoupled weight decay, the
# trailing cubic coefficients do not.


def step_sgd(params: np.ndarray, grad: np.ndarray, cfg: TrainConfig, n_decayed: int) -> None:
    """In-place SGD step with decoupled weight decay."""
    params -= cfg.learning_rate * grad
    if cfg.weight_decay > 0.0:
        decayed = params[:n_decayed]
        decayed -= cfg.learning_rate * cfg.weight_decay * decayed


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
    bc1 = 1.0 - cfg.beta1**state.t
    bc2 = 1.0 - cfg.beta2**state.t
    m, v = state.m, state.v
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * grad
    v *= cfg.beta2
    v += (1.0 - cfg.beta2) * grad * grad
    params -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
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


@dataclass
class TrainLog:
    epochs: list[EpochStats] = field(default_factory=list)

    @property
    def final(self) -> EpochStats:
        return self.epochs[-1]


@dataclass
class TrainResult:
    net: Net
    log: TrainLog


def train(
    net: Net,
    train_x: np.ndarray,
    train_y: np.ndarray,
    eval_x: np.ndarray,
    eval_y: np.ndarray,
    cfg: TrainConfig,
) -> TrainResult:
    """Deterministic minibatch training of either network family.

    All randomness (shuffling, dropout masks) comes from generators
    derived from ``cfg.seed``, so identical inputs give bitwise
    identical parameters. Divergence aborts with epoch/batch context.
    """
    rng = Rng(cfg.seed)
    shuffle_rng = rng.spawn("shuffle")
    dropout_rng = rng.spawn("dropout")
    arena = net.arena
    arena.check_bound(net.parameters())
    params = arena.flat
    adam = AdamState.for_params(params) if cfg.optimizer == "adam" else None

    n = train_x.shape[0]
    log_out = TrainLog()
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        task_losses = []
        penalties = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            try:
                bundle = loss_and_grads(
                    net, train_x[idx], train_y[idx], cfg, mode="train", dropout_rng=dropout_rng
                )
            except NumericOverflowError as err:
                raise NumericOverflowError(
                    f"training diverged: {err}", epoch=epoch, batch=start // cfg.batch_size
                ) from err
            if cfg.optimizer == "sgd":
                step_sgd(params, bundle.grad, cfg, arena.n_decayed)
            else:
                step_adam(params, bundle.grad, adam, cfg, arena.n_decayed)
            task_losses.append(bundle.task_loss)
            penalties.append(bundle.penalty)
        try:
            eval_acc = evaluate_accuracy(net, eval_x, eval_y)
        except NumericOverflowError as err:
            raise NumericOverflowError(f"evaluation diverged: {err}", epoch=epoch) from err
        log_out.epochs.append(
            EpochStats(epoch, float(np.mean(task_losses)), float(np.mean(penalties)), eval_acc)
        )
    return TrainResult(net, log_out)
