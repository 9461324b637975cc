"""Matched ReLU MLP baselines sharing the training machinery.

The roster covers vanilla, dropout, and decoupled-weight-decay MLPs,
plus the ReLU-substrate ablation that trains with the same Jacobian
penalty as the polynomial model (its derivative stream uses the
subgradient 1[z > 0], taken as exactly 0 at z = 0). The matched-capacity
constructor picks baseline widths so total parameter counts sit within
+/-5% of the paired polynomial model, keeping comparisons about the
activation substrate rather than model size.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .arena import ArenaParams
from .errors import NumericOverflowError, ShapeError
from .linalg import Rng, gauss_init
from .polynet import DualState, jacobian_stream
from .tape import Tape

__all__ = [
    "ReluLayer",
    "BaselineNet",
    "baseline_forward",
    "baseline_forward_dual",
    "baseline_input_grads",
    "matched_capacity",
    "baseline_param_count",
    "poly_param_count",
    "count_parameters",
]

log = logging.getLogger(__name__)


@dataclass
class ReluLayer:
    weights: np.ndarray  # (out_width, in_width)
    bias: np.ndarray  # (out_width,)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ShapeError(
                f"layer fields disagree: weights {self.weights.shape}, bias {self.bias.shape}"
            )

    @property
    def out_width(self) -> int:
        return self.weights.shape[0]

    @property
    def in_width(self) -> int:
        return self.weights.shape[1]


@dataclass
class BaselineNet(ArenaParams):
    """Plain MLP with fixed max(0, z) activations and a linear head."""

    layers: list[ReluLayer]
    head_weights: np.ndarray
    head_bias: np.ndarray
    dropout_rate: float = 0.0

    activation_kind = "relu"

    def __post_init__(self):
        if not self.layers:
            raise ShapeError("network needs at least one layer")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        self.head_weights = np.asarray(self.head_weights, dtype=np.float64)
        self.head_bias = np.asarray(self.head_bias, dtype=np.float64)
        prev = self.layers[0].in_width
        for i, layer in enumerate(self.layers):
            if layer.in_width != prev:
                raise ShapeError(f"layer {i} expects input width {layer.in_width}, got {prev}")
            prev = layer.out_width
        if self.head_weights.shape[1] != prev or self.head_bias.shape != (self.head_weights.shape[0],):
            raise ShapeError("head does not conform to last layer")
        self._bind_arena()

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_width

    @property
    def num_classes(self) -> int:
        return self.head_weights.shape[0]

    @property
    def widths(self) -> list[int]:
        return [layer.out_width for layer in self.layers]

    @classmethod
    def build(
        cls,
        rng: Rng,
        input_dim: int,
        widths: list[int],
        num_classes: int,
        dropout_rate: float = 0.0,
    ) -> "BaselineNet":
        layers = []
        fan_in = input_dim
        for i, w in enumerate(widths):
            layers.append(
                ReluLayer(gauss_init(rng.spawn("W", i), w, fan_in, 1.0 / np.sqrt(fan_in)), np.zeros(w))
            )
            fan_in = w
        head_w = gauss_init(rng.spawn("head"), num_classes, fan_in, 1.0 / np.sqrt(fan_in))
        return cls(layers, head_w, np.zeros(num_classes), dropout_rate)

    def _slots(self) -> list[tuple[str, object, str]]:
        slots = []
        for i, layer in enumerate(self.layers):
            slots += [(f"layer{i}.W", layer, "weights"), (f"layer{i}.b", layer, "bias")]
        return slots + [("head.W", self, "head_weights"), ("head.b", self, "head_bias")]

    def activation_slopes(self, preacts: list[np.ndarray]) -> list[np.ndarray]:
        """Subgradient 1[z > 0] per layer, taken as exactly 0 at the kink."""
        return [(z > 0.0).astype(np.float64) for z in preacts]


def _check_input(net: BaselineNet, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ShapeError(f"input shape {x.shape} does not match input_dim {net.input_dim}")
    return x


def dropout_masks(net: BaselineNet, batch: int, rng: Rng) -> list[np.ndarray]:
    """Inverted-dropout masks, one per hidden layer, pre-scaled by 1/(1-rate)."""
    rate = net.dropout_rate
    keep = 1.0 - rate
    masks = []
    for layer in net.layers:
        u = rng.uniform(batch, layer.out_width)
        masks.append((u >= rate).astype(np.float64) / keep)
    return masks


def baseline_forward(
    net: BaselineNet,
    x: np.ndarray,
    mode: str = "eval",
    rng: Rng | None = None,
) -> tuple[np.ndarray, DualState]:
    """Standard MLP forward. Dropout masks are drawn only in train mode."""
    x = _check_input(net, x)
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    masks = None
    if mode == "train" and net.dropout_rate > 0.0:
        if rng is None:
            raise ValueError("train-mode dropout needs an rng")
        masks = dropout_masks(net, x.shape[0], rng)
    cache = DualState()
    h = x
    for i, layer in enumerate(net.layers):
        z = h @ layer.weights.T + layer.bias
        h = np.maximum(z, 0.0)
        if masks is not None:
            h = h * masks[i]
        if not np.all(np.isfinite(h)):
            raise NumericOverflowError(f"non-finite values in layer {i}", layer=f"layer {i}")
        cache.preacts.append(z)
        cache.acts.append(h)
    logits = h @ net.head_weights.T + net.head_bias
    if not np.all(np.isfinite(logits)):
        raise NumericOverflowError("non-finite values in head", layer="head")
    return logits, cache


def baseline_forward_dual(net: BaselineNet, x: np.ndarray) -> tuple[np.ndarray, DualState]:
    """Eval-mode forward plus the subgradient Jacobian stream.

    Mirrors the polynomial dual pass with slope 1[z > 0]; used for
    penalty reporting and the substrate-ablation diagnostics.
    """
    x = _check_input(net, x)
    dual = DualState()
    h = x
    for layer in net.layers:
        z = h @ layer.weights.T + layer.bias
        h = np.maximum(z, 0.0)
        dual.preacts.append(z)
        dual.acts.append(h)
    logits = h @ net.head_weights.T + net.head_bias
    dual.jacobians = jacobian_stream(net, dual.preacts)
    dual.head_jacobian = net.head_weights @ dual.jacobians[-1]
    return logits, dual


def baseline_input_grads(net: BaselineNet, x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample L2 norm of d(sample's own loss)/d(input row).

    Reverse accumulation over the summed per-sample cross-entropies:
    row b of the input gradient is then exactly the gradient of row b's
    loss, because no sample's loss touches another row.
    """
    x = _check_input(net, x)
    t = Tape()
    xs = t.leaf(x, name="x")
    h = xs
    for i, layer in enumerate(net.layers):
        W = t.leaf(layer.weights, name=f"layer{i}.W", param=True)
        b = t.leaf(layer.bias, name=f"layer{i}.b", param=True)
        h = t.relu(t.linear(h, W, b))
    Wh = t.leaf(net.head_weights, name="head.W", param=True)
    bh = t.leaf(net.head_bias, name="head.b", param=True)
    logits = t.linear(h, Wh, bh)
    total = t.softmax_cross_entropy(logits, labels, reduction="sum")
    t.backward(total)
    grads = xs.grad
    return np.sqrt(np.sum(grads * grads, axis=1))


def poly_param_count(input_dim: int, widths: list[int], num_classes: int) -> int:
    """Parameter count of a polynomial network: affine + 4 coeffs per neuron."""
    total = 0
    fan_in = input_dim
    for w in widths:
        total += w * fan_in + w + 4 * w
        fan_in = w
    return total + num_classes * fan_in + num_classes


def baseline_param_count(input_dim: int, widths: list[int], num_classes: int) -> int:
    total = 0
    fan_in = input_dim
    for w in widths:
        total += w * fan_in + w
        fan_in = w
    return total + num_classes * fan_in + num_classes


@dataclass
class CapacityMatch:
    widths: list[int]
    baseline_params: int
    poly_params: int

    @property
    def relative_gap(self) -> float:
        return (self.baseline_params - self.poly_params) / self.poly_params

    @property
    def within_tolerance(self) -> bool:
        return abs(self.relative_gap) <= 0.05


def matched_capacity(
    input_dim: int,
    poly_widths: list[int],
    num_classes: int,
    tolerance: float = 0.05,
) -> CapacityMatch:
    """Baseline widths whose parameter count best matches the polynomial net.

    Searches uniform scalings of the polynomial widths at equal depth.
    An infeasible match (tiny widths) is logged and the nearest width is
    returned so the run can proceed.
    """
    target = poly_param_count(input_dim, poly_widths, num_classes)
    best: CapacityMatch | None = None
    max_width = max(poly_widths) * 2 + 8
    for delta in range(-max(poly_widths) + 1, max_width):
        widths = [max(1, w + delta) for w in poly_widths]
        count = baseline_param_count(input_dim, widths, num_classes)
        match = CapacityMatch(widths, count, target)
        if best is None or abs(match.relative_gap) < abs(best.relative_gap):
            best = match
    if abs(best.relative_gap) > tolerance:
        log.warning(
            "capacity match infeasible: baseline widths %s give %d params vs "
            "polynomial %d (gap %.1f%%); proceeding with nearest",
            best.widths,
            best.baseline_params,
            best.poly_params,
            100.0 * best.relative_gap,
        )
    return best


def count_parameters(net: BaselineNet) -> int:
    return sum(p.size for p in net.parameters().values())
