"""Dropout masks and capacity matching for the ReLU baselines.

The roster covers vanilla, dropout, and decoupled-weight-decay MLPs,
plus the ReLU-substrate ablation that trains with the same Jacobian
penalty as the polynomial model; all of them are ``polynet.Net``
instances with ReLU layers. The matched-capacity constructor picks
baseline widths so total parameter counts sit within +/-5% of the
paired polynomial model, keeping comparisons about the activation
substrate rather than model size.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .linalg import Rng
from .polynet import Net

__all__ = ["matched_capacity", "param_count"]

log = logging.getLogger(__name__)

# Per-neuron parameters besides the incoming weights: the bias, plus the
# four activation coefficients of a cubic layer.
RELU_PER_NEURON = 1
POLY_PER_NEURON = 5


def dropout_masks(net: Net, batch: int, rng: Rng) -> list[np.ndarray]:
    """Inverted-dropout masks, one per hidden layer, pre-scaled by 1/(1-rate)."""
    rate = net.dropout_rate
    keep = 1.0 - rate
    masks = []
    for layer in net.layers:
        u = rng.uniform(batch, layer.out_width)
        masks.append((u >= rate).astype(np.float64) / keep)
    return masks


def param_count(input_dim: int, widths: list[int], num_classes: int, per_neuron: int) -> int:
    """Parameter count of a network: ``per_neuron`` extra per hidden neuron
    (``RELU_PER_NEURON`` or ``POLY_PER_NEURON``) besides its weights."""
    total = 0
    fan_in = input_dim
    for w in widths:
        total += w * fan_in + per_neuron * w
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
    target = param_count(input_dim, poly_widths, num_classes, POLY_PER_NEURON)
    best: CapacityMatch | None = None
    max_width = max(poly_widths) * 2 + 8
    for delta in range(-max(poly_widths) + 1, max_width):
        widths = [max(1, w + delta) for w in poly_widths]
        count = param_count(input_dim, widths, num_classes, RELU_PER_NEURON)
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
