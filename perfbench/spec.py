"""The benchmark's contract: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this file
(``python3 perfbench/run.py --write-spec``) and a bench-local test keeps
the two in sync.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 35
DEFAULT_SEED = 0

MODELS = ("cr", "vanilla", "dropout", "weight_decay", "relu_dreg")

WORKLOADS = {
    "sweep_small": (
        "harness.sweep of 30 short pima cells (5 models x 6 seeds at fraction 0.05), timed with 1 worker; "
        "seed batching and row writing show only here, the 2-worker pool in the traced run"
    ),
    "train_full": (
        "cli train of the five models at fraction 1.0 in one process, 3,000 steps: tape record, "
        "backward and optimizer dominate; no pool, so pool changes must read as no change"
    ),
    "score_large": (
        "cli eval and tailratio of five checkpoints on a 60k-row CSV, plus cli stats: no optimizer; "
        "CSV ingestion and 12k-row forwards, so big-batch slowdowns show only here"
    ),
}

# name -> (unit, better, bound). On a shared 2-vCPU KVM guest the CPU speed
# drifts by up to 2x over seconds to minutes. Scaled by the control loop the
# timings spread by about 0.035 over 10 runs, but the control tracks the
# host's load only in part, so their bounds sit at the 0.25 cap.
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "cells_per_s": ("1/s", "higher", 0.25),
    "steps_per_s": ("1/s", "higher", 0.25),
    "rows_per_s": ("1/s", "higher", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "peak_rss_mib": ("MiB", "lower", 0.15),
}

# name -> (unit, better); every per-layer number comes from the traced run.
PER_LAYER = {
    "train.record_s": ("s", "lower"),
    "tape.backward_s": ("s", "lower"),
    "tape.backward.calls": ("count", "lower"),
    **{f"tape.nodes_per_step.{m}": ("count", "lower") for m in MODELS},
    "train.optimizer_s": ("s", "lower"),
    "train.penalty_log_s": ("s", "lower"),
    "train.penalty_log.calls": ("count", "lower"),
    "train.eval_s": ("s", "lower"),
    "train.loop_s": ("s", "lower"),
    "data.prepare_s": ("s", "lower"),
    "data.load_csv_s": ("s", "lower"),
    "checkpoint.load_s": ("s", "lower"),
    "checkpoint.save_s": ("s", "lower"),
    "metrics.input_grad_norms_s": ("s", "lower"),
    "polynet.forward_dual_s": ("s", "lower"),
    "baselines.baseline_input_grads_s": ("s", "lower"),
    "metrics.tail_ratio_s": ("s", "lower"),
    "harness.stats_s": ("s", "lower"),
    **{f"harness.cell_s.{m}": ("s", "lower") for m in MODELS},
    "harness.sweep_self_s": ("s", "lower"),
    "harness.pool_busy_ratio": ("ratio", "higher"),
    "harness.pool_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, (u, b) in PER_LAYER.items()],
    }


def benchmark_text() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"
