"""One network type, cubic or ReLU, and its one value loop.

A network is a stack of fully connected layers followed by a linear
head. Every layer's per-neuron activation is either a learnable cubic
phi(z) = c0 + c1 z + c2 z^2 + c3 z^3 or the fixed ReLU max(0, z), whose
slope phi' is the subgradient 1[z > 0]. A ``Net`` is built from its
shapes: ``param_shapes`` names every trainable array once, and each is a
view into one flat vector (``Net.arena``). ``forward_values`` is the
package's one value loop: ``tape.Tape`` records from it, then builds
the per-sample input-Jacobian stream and the DREG penalty, and
``train.predict_logits`` runs it for inference.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .arena import ParamArena
from .errors import ShapeError
from .linalg import Rng

__all__ = [
    "Layer",
    "Net",
    "PolyNetwork",
    "param_shapes",
    "param_count",
    "forward_values",
]

# Scale of the curvature terms c2, c3 in a fresh cubic layer (see Net.build).
COEFF_NOISE = 0.01


class Layer(NamedTuple):
    """One fully connected layer's parameters: views into its net's vector.

    ``coeffs`` is the (4, width) block of cubic coefficients, rows c0..c3;
    a ReLU layer has none. The ReLU slope is the subgradient 1[z > 0],
    taken as exactly 0 at the kink. ``activate`` and ``slope`` take a
    pre-activation of shape (..., out_width): the coefficients broadcast
    over any leading axes, so a stack of batches is one call.
    """

    weights: np.ndarray  # (out_width, in_width)
    bias: np.ndarray  # (out_width,)
    coeffs: np.ndarray | None  # (4, out_width), or None for ReLU

    def activate(self, z: np.ndarray) -> np.ndarray:
        """phi(z) for a cubic layer, max(0, z) for a ReLU layer."""
        if self.coeffs is None:
            return np.maximum(z, 0.0)
        c0, c1, c2, c3 = self.coeffs
        return c0 + z * (c1 + z * (c2 + z * c3))

    def slope(self, z: np.ndarray) -> np.ndarray:
        """phi'(z) for a cubic layer, 1[z > 0] for a ReLU layer."""
        if self.coeffs is None:
            return (z > 0.0).astype(np.float64)
        _, c1, c2, c3 = self.coeffs
        return c1 + z * (2.0 * c2 + 3.0 * c3 * z)


def param_shapes(
    activation: str, input_dim: int, widths: list[int], num_classes: int
) -> dict[str, tuple[tuple[int, ...], bool]]:
    """Every trainable array of a net as ``name -> (shape, decayed)``, in
    ``parameters()`` order: each layer's W, b and, when cubic, c0..c3, then
    the head's W and b.

    Decoupled weight decay shrinks the affine parameters only; pulling the
    activation coefficients toward zero would fight the near-identity start.
    """
    shapes = {}
    fan_in = input_dim
    for i, w in enumerate(widths):
        shapes[f"layer{i}.W"] = ((w, fan_in), True)
        shapes[f"layer{i}.b"] = ((w,), True)
        if activation == "poly":
            shapes.update({f"layer{i}.c{k}": ((w,), False) for k in range(4)})
        fan_in = w
    shapes["head.W"] = ((num_classes, fan_in), True)
    shapes["head.b"] = ((num_classes,), True)
    return shapes


class Net:
    """Stack of layers plus a linear classification head, built from its shapes.

    Every layer is cubic (``activation="poly"``) or every layer is ReLU
    (``"relu"``). The parameters start at zero; ``build`` draws a fresh
    initialization and ``checkpoint.load_checkpoint`` copies stored arrays
    into them. ``dropout_rate`` applies to the training objective only.
    Every trainable array is a view into ``self.arena.flat``: mutate it in
    place, never rebind it.
    """

    def __init__(
        self,
        activation: str,
        input_dim: int,
        widths: list[int],
        num_classes: int,
        dropout_rate: float = 0.0,
    ):
        if activation not in ("poly", "relu"):
            raise ValueError(f"activation must be 'poly' or 'relu', got {activation!r}")
        if not widths:
            raise ShapeError("network needs at least one layer")
        if not 0.0 <= dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {dropout_rate}")
        self.activation_kind = activation
        self.input_dim = int(input_dim)
        self.widths = [int(w) for w in widths]
        self.num_classes = int(num_classes)
        if min(self.input_dim, self.num_classes, *self.widths) < 1:
            raise ShapeError(
                f"input_dim, widths and num_classes must all be >= 1, got input_dim={self.input_dim}, "
                f"widths={self.widths}, num_classes={self.num_classes}"
            )
        self.dropout_rate = dropout_rate
        self.arena = ParamArena(param_shapes(activation, self.input_dim, self.widths, self.num_classes))
        self._bind()

    def _bind(self) -> None:
        self.layers, self.head_weights, self.head_bias = self.layer_views(self.arena.flat)

    def layer_views(self, vec: np.ndarray) -> tuple[list[Layer], np.ndarray, np.ndarray]:
        """The layers and the head's weights and bias as views into ``vec``,
        a vector laid out like ``arena.flat`` (the parameters, or a gradient)."""
        named = self.arena.views(vec)
        layers = []
        for i, w in enumerate(self.widths):
            coeffs = None
            if self.activation_kind == "poly":
                # c0..c3 are stored back to back: one (4, width) block.
                start = self.arena.starts[f"layer{i}.c0"]
                coeffs = vec[start : start + 4 * w].reshape(4, w)
            layers.append(Layer(named[f"layer{i}.W"], named[f"layer{i}.b"], coeffs))
        return layers, named["head.W"], named["head.b"]

    @classmethod
    def build(
        cls,
        rng: Rng,
        input_dim: int,
        widths: list[int],
        num_classes: int,
        activation: str = "poly",
        dropout_rate: float = 0.0,
    ) -> "Net":
        """Fresh network: W ~ N(0, 1/fan_in), zero bias, and near-identity
        cubics (``activation="poly"``) or ReLU (``activation="relu"``).

        A cubic explodes quickly for |z| > 1, so training starts from
        phi(z) = z plus noise of scale ``COEFF_NOISE`` on the curvature
        terms and lets training grow them.
        """
        net = cls(activation, input_dim, widths, num_classes, dropout_rate)
        for i, (W, _, coeffs) in enumerate(net.layers):
            w, fan_in = W.shape
            if coeffs is not None:
                draw = rng.spawn("coeffs", i)
                coeffs[1] = 1.0
                coeffs[2] = COEFF_NOISE * draw.standard_normal(w)
                coeffs[3] = COEFF_NOISE * draw.standard_normal(w)
            W[...] = (1.0 / np.sqrt(fan_in)) * rng.spawn("W", i).standard_normal(w, fan_in)
        classes, fan_in = net.head_weights.shape
        net.head_weights[...] = (1.0 / np.sqrt(fan_in)) * rng.spawn("head").standard_normal(classes, fan_in)
        return net

    def parameters(self) -> dict[str, np.ndarray]:
        """Every trainable array by its ``param_shapes`` name, each a view
        into ``self.arena.flat`` unless an attribute was rebound."""
        named = {}
        for i, layer in enumerate(self.layers):
            named[f"layer{i}.W"], named[f"layer{i}.b"] = layer.weights, layer.bias
            if layer.coeffs is not None:
                named.update({f"layer{i}.c{k}": row for k, row in enumerate(layer.coeffs)})
        named["head.W"], named["head.b"] = self.head_weights, self.head_bias
        return named

    def __getstate__(self) -> dict:
        # The views are rebuilt from the one vector the arena pickles.
        state = dict(self.__dict__)
        del state["layers"], state["head_weights"], state["head_bias"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind()

    def check_input(self, x: np.ndarray) -> np.ndarray:
        """``x`` as a float64 (batch, input_dim) array, or ShapeError."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ShapeError(f"input shape {x.shape} does not match input_dim {self.input_dim}")
        return x


def param_count(input_dim: int, widths: list[int], num_classes: int, activation: str) -> int:
    """Parameter count of ``Net(activation, input_dim, widths, num_classes)``."""
    return sum(math.prod(shape) for shape, _ in param_shapes(activation, input_dim, widths, num_classes).values())


PolyNetwork = Net  # kept: perfbench/test_perfbench.py builds its tracer-test net with this name


def forward_values(net: Net, x: np.ndarray, masks: list[np.ndarray] | None = None) -> tuple:
    """The logits, one ``(h_in, z, slope)`` record per layer and the head's input.

    Each layer forms z, then its slope, then its output, scaled by the
    layer's mask when ``masks`` is given. ``x`` is a float64 (batch,
    input_dim) array; nothing is validated or checked for overflow here.
    """
    records = []
    h = x
    for i, layer in enumerate(net.layers):
        z = h @ layer.weights.T + layer.bias
        slope = layer.slope(z)
        out = layer.activate(z)
        if masks is not None:
            out *= masks[i]
        records.append((h, z, slope))
        h = out
    return h @ net.head_weights.T + net.head_bias, records, h
