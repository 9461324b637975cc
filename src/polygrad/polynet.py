"""Cubic-activation and ReLU networks and the dual-stream forward pass.

A network is a stack of fully connected layers followed by a linear
head. Every layer's per-neuron activation is either a learnable cubic
phi(z) = c0 + c1 z + c2 z^2 + c3 z^3 or the fixed ReLU max(0, z), whose
slope phi' is the subgradient 1[z > 0]. ``forward_values`` runs the
ordinary value stream; ``forward_dual`` additionally propagates, per
sample, the cumulative Jacobian of each layer's output with respect to
the network input, updated analytically layer by layer:

    S1 = diag(phi'(z1)) @ W1
    Sl = diag(phi'(zl)) @ Wl @ S(l-1)          for l >= 2
    head Jacobian = W_head @ SL

No backward pass and no second-order graph is involved; the extra cost
is one (width x width) @ (width x d) product per layer per sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arena import ParamArena
from .errors import MemoryBudgetError, NumericOverflowError, ShapeError
from .linalg import Rng, gauss_init

__all__ = [
    "ActivationCoeffs",
    "Layer",
    "Net",
    "PolyNetwork",
    "param_count",
    "poly_eval",
    "poly_deriv",
    "forward_values",
    "forward_dual",
    "jacobian_stream",
    "dreg_penalty",
]

# Cap on the per-call Jacobian-stream allocation: the blocks of a batch take
# batch * (sum(widths) + num_classes) * d doubles, checked before any is built.
MAX_DUAL_BYTES = 1 << 29  # 512 MiB


@dataclass
class ActivationCoeffs:
    """Per-neuron cubic coefficients; each vector has length = layer width."""

    c0: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray

    def __post_init__(self):
        self.c0 = np.asarray(self.c0, dtype=np.float64)
        self.c1 = np.asarray(self.c1, dtype=np.float64)
        self.c2 = np.asarray(self.c2, dtype=np.float64)
        self.c3 = np.asarray(self.c3, dtype=np.float64)
        widths = {v.shape for v in (self.c0, self.c1, self.c2, self.c3)}
        if len(widths) != 1 or self.c0.ndim != 1:
            raise ShapeError(f"coefficient vectors must share one 1-D shape, got {widths}")

    @property
    def width(self) -> int:
        return self.c0.size

    @classmethod
    def identity(cls, width: int) -> "ActivationCoeffs":
        """phi(z) = z exactly. Kept for the acceptance and unit-test fixtures."""
        z = np.zeros(width)
        return cls(z.copy(), np.ones(width), z.copy(), z.copy())

    @classmethod
    def near_identity(cls, rng: Rng, width: int, noise_std: float = 0.01) -> "ActivationCoeffs":
        """Identity start plus small noise on the curvature terms.

        A cubic explodes quickly for |z| > 1, so training starts from
        phi ~= z and lets the optimizer grow the higher-order terms.
        """
        return cls(
            np.zeros(width),
            np.ones(width),
            noise_std * rng.standard_normal(width),
            noise_std * rng.standard_normal(width),
        )


def _check_width(coeffs: ActivationCoeffs, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != coeffs.width:
        raise ShapeError(
            f"pre-activation shape {z.shape} does not match coefficient width {coeffs.width}"
        )
    return z


def poly_eval(coeffs: ActivationCoeffs, z: np.ndarray) -> np.ndarray:
    """Elementwise phi(z), coefficients broadcast per column."""
    z = _check_width(coeffs, z)
    return coeffs.c0 + z * (coeffs.c1 + z * (coeffs.c2 + z * coeffs.c3))


def poly_deriv(coeffs: ActivationCoeffs, z: np.ndarray) -> np.ndarray:
    """Elementwise analytic phi'(z), coefficients broadcast per column."""
    z = _check_width(coeffs, z)
    return coeffs.c1 + z * (2.0 * coeffs.c2 + 3.0 * coeffs.c3 * z)


@dataclass
class Layer:
    """Fully connected layer: cubic activation with ``coeffs``, ReLU without.

    The ReLU slope is the subgradient 1[z > 0], taken as exactly 0 at
    the kink.
    """

    weights: np.ndarray  # (out_width, in_width)
    bias: np.ndarray  # (out_width,)
    coeffs: ActivationCoeffs | None = None  # width out_width

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ShapeError("layer weights must be 2-D")
        out_w = self.weights.shape[0]
        coeff_width = out_w if self.coeffs is None else self.coeffs.width
        if self.bias.shape != (out_w,) or coeff_width != out_w:
            raise ShapeError(
                f"layer fields disagree on width: weights {self.weights.shape}, "
                f"bias {self.bias.shape}, coeffs {coeff_width}"
            )

    @property
    def out_width(self) -> int:
        return self.weights.shape[0]

    @property
    def in_width(self) -> int:
        return self.weights.shape[1]

    def activate(self, z: np.ndarray) -> np.ndarray:
        """phi(z) for a cubic layer, max(0, z) for a ReLU layer."""
        if self.coeffs is None:
            return np.maximum(z, 0.0)
        return poly_eval(self.coeffs, z)

    def slope(self, z: np.ndarray) -> np.ndarray:
        """phi'(z) for a cubic layer, 1[z > 0] for a ReLU layer."""
        if self.coeffs is None:
            return (z > 0.0).astype(np.float64)
        return poly_deriv(self.coeffs, z)


@dataclass
class Net:
    """Stack of Layers plus a linear classification head.

    Every layer is cubic or every layer is ReLU; ``activation_kind``
    says which. ``dropout_rate`` applies to the training objective only.
    Every trainable array is a view into ``self.arena.flat``.
    """

    layers: list[Layer]
    head_weights: np.ndarray  # (num_classes, last_width)
    head_bias: np.ndarray  # (num_classes,)
    dropout_rate: float = 0.0

    def __post_init__(self):
        if not self.layers:
            raise ShapeError("network needs at least one layer")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if len({layer.coeffs is None for layer in self.layers}) != 1:
            raise ShapeError("layers mix cubic and ReLU activations")
        self.head_weights = np.asarray(self.head_weights, dtype=np.float64)
        self.head_bias = np.asarray(self.head_bias, dtype=np.float64)
        prev = self.layers[0].in_width
        for i, layer in enumerate(self.layers):
            if layer.in_width != prev:
                raise ShapeError(f"layer {i} expects input width {layer.in_width}, got {prev}")
            prev = layer.out_width
        if self.head_weights.ndim != 2 or self.head_weights.shape[1] != prev:
            raise ShapeError(
                f"head weights {self.head_weights.shape} do not conform to last width {prev}"
            )
        if self.head_bias.shape != (self.head_weights.shape[0],):
            raise ShapeError("head bias does not conform to head weights")
        self._bind_arena()

    @property
    def activation_kind(self) -> str:
        return "relu" if self.layers[0].coeffs is None else "poly"

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
        activation: str = "poly",
        dropout_rate: float = 0.0,
        coeff_noise: float = 0.01,
    ) -> "Net":
        """Fresh network: W ~ N(0, 1/fan_in), zero bias, and near-identity
        cubics (``activation="poly"``) or ReLU (``activation="relu"``).
        ``coeff_noise`` stays for the finite-difference gates, which raise it
        to 0.05 so the curvature terms are exercised."""
        if activation not in ("poly", "relu"):
            raise ValueError(f"activation must be 'poly' or 'relu', got {activation!r}")
        layers = []
        fan_in = input_dim
        for i, w in enumerate(widths):
            coeffs = None
            if activation == "poly":
                coeffs = ActivationCoeffs.near_identity(rng.spawn("coeffs", i), w, coeff_noise)
            W = gauss_init(rng.spawn("W", i), w, fan_in, 1.0 / np.sqrt(fan_in))
            layers.append(Layer(W, np.zeros(w), coeffs))
            fan_in = w
        head_w = gauss_init(rng.spawn("head"), num_classes, fan_in, 1.0 / np.sqrt(fan_in))
        return cls(layers, head_w, np.zeros(num_classes), dropout_rate)

    def _slots(self) -> list[tuple[str, object, str]]:
        """Every trainable array as ``(name, owner, attribute)``, in registry order."""
        slots = []
        for i, layer in enumerate(self.layers):
            slots += [(f"layer{i}.W", layer, "weights"), (f"layer{i}.b", layer, "bias")]
            if layer.coeffs is not None:
                slots += [(f"layer{i}.c{k}", layer.coeffs, f"c{k}") for k in range(4)]
        return slots + [("head.W", self, "head_weights"), ("head.b", self, "head_bias")]

    def _bind_arena(self) -> None:
        """Copy every slot's array into a new arena and rebind the slot to its view."""
        slots = self._slots()
        self.arena = ParamArena({name: getattr(owner, attr) for name, owner, attr in slots})
        views = self.arena.views(self.arena.flat)
        for name, owner, attr in slots:
            setattr(owner, attr, views[name])

    def parameters(self) -> dict[str, np.ndarray]:
        """Ordered registry of every trainable array, one slot each.

        Each array is a view into ``self.arena.flat``.
        """
        return {name: getattr(owner, attr) for name, owner, attr in self._slots()}

    def __setstate__(self, state: dict) -> None:
        # Pickling and deepcopy copy each view on its own; rebuild the arena
        # so the copy's parameters share one vector again.
        self.__dict__.update(state)
        self._bind_arena()

    def check_input(self, x: np.ndarray) -> np.ndarray:
        """``x`` as a float64 (batch, input_dim) array, or ShapeError."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ShapeError(f"input shape {x.shape} does not match input_dim {self.input_dim}")
        return x


def param_count(input_dim: int, widths: list[int], num_classes: int, activation: str) -> int:
    """Parameter count of ``Net.build(..., activation=activation)``: each hidden
    neuron has its weights and a bias, plus four coefficients when cubic."""
    per_neuron = 5 if activation == "poly" else 1
    total = 0
    fan_in = input_dim
    for w in widths:
        total += w * fan_in + per_neuron * w
        fan_in = w
    return total + num_classes * fan_in + num_classes


PolyNetwork = Net  # kept: perfbench/test_perfbench.py builds its tracer-test net with this name


def _check_finite(arr: np.ndarray, where: str):
    if not np.all(np.isfinite(arr)):
        raise NumericOverflowError(f"non-finite values in {where}", layer=where)


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


def forward_dual(net: Net, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Value stream plus per-sample cumulative input-Jacobians.

    Returns the logits and the Jacobian blocks: one (batch, width_l, d)
    block per hidden layer (see ``jacobian_stream``), then the head's
    (batch, num_classes, d) block ``head_weights @ blocks[-2]``. A batch
    whose blocks would exceed ``MAX_DUAL_BYTES`` is rejected up front.
    """
    x = net.check_input(x)
    batch, d = x.shape
    need = 8 * batch * d * (sum(net.widths) + net.num_classes)
    if need > MAX_DUAL_BYTES:
        raise MemoryBudgetError(
            f"dual stream needs {need} bytes for batch={batch}, d={d}, "
            f"widths={net.widths}; cap is {MAX_DUAL_BYTES}"
        )
    logits, preacts = forward_values(net, x)
    blocks = jacobian_stream(net, [layer.slope(z) for layer, z in zip(net.layers, preacts)])
    blocks.append(net.head_weights @ blocks[-1])
    return logits, blocks


def jacobian_stream(net: Net, slopes: list[np.ndarray]) -> list[np.ndarray]:
    """Per-sample cumulative input-Jacobians from each layer's slope
    phi'(z), (batch, width).

    Returns one (batch, width_l, d) block per layer:
    S1 = diag(phi'(z1)) @ W1 and Sl = diag(phi'(zl)) @ Wl @ S(l-1).
    """
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
    total = sum(float(np.sum(S * S)) for S in blocks)
    return total / (batch * len(blocks))
