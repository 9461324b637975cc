"""Learnable cubic-activation networks with analytic input-Jacobians.

Core pieces: a dual-stream forward pass that carries per-sample
input-Jacobians alongside activations, a Jacobian-norm training
penalty with exact tape gradients, matched ReLU baselines, the
gradient tail-ratio diagnostic with paired statistical tests, a
tabular data protocol, and a resumable sweep harness.
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .config import load_config, parse_config
from .data import (
    Dataset,
    load_csv,
    make_blobs,
    make_pima_like,
    stratified_split,
    subsample_fraction,
)
from .errors import (
    ConfigError,
    CsvParseError,
    DegenerateDistributionError,
    MemoryBudgetError,
    NumericOverflowError,
    ShapeError,
)
from .harness import SweepPlan, matched_capacity, plan_from_config, run_cell, stats_report, sweep
from .linalg import Rng, derive_seed, quantile
from .metrics import (
    StatTestResult,
    TailRatioReport,
    bonferroni,
    input_grad_norms,
    paired_t_one_sided,
    tail_ratio,
    wilcoxon_signed_rank,
)
from .polynet import (
    Layer,
    Net,
    PolyNetwork,
    dreg_penalty,
    forward_dual,
    forward_values,
)
from .train import TrainConfig, loss_and_grads

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CsvParseError",
    "Dataset",
    "DegenerateDistributionError",
    "MemoryBudgetError",
    "Layer",
    "Net",
    "NumericOverflowError",
    "PolyNetwork",
    "Rng",
    "ShapeError",
    "StatTestResult",
    "SweepPlan",
    "TailRatioReport",
    "TrainConfig",
    "bonferroni",
    "derive_seed",
    "dreg_penalty",
    "forward_dual",
    "forward_values",
    "input_grad_norms",
    "load_checkpoint",
    "load_config",
    "load_csv",
    "loss_and_grads",
    "make_blobs",
    "make_pima_like",
    "matched_capacity",
    "paired_t_one_sided",
    "parse_config",
    "plan_from_config",
    "quantile",
    "run_cell",
    "save_checkpoint",
    "stats_report",
    "stratified_split",
    "subsample_fraction",
    "sweep",
    "tail_ratio",
    "wilcoxon_signed_rank",
]
