"""Per-layer metrics from a traced pass.

Each metric sums either the inclusive or the self seconds of named spans
(see README.md for the per-layer -> end-to-end map). A layer the
workload does not reach reads 0.
"""

from __future__ import annotations

from collections import Counter

from spec import MODELS, PER_LAYER

# metric -> (kind, span names); kind is "incl", "self" or "calls".
SPAN_METRICS = {
    "train.record_s": ("self", ["train.loss_and_grads"]),
    "tape.backward_s": ("incl", ["tape.Tape.backward"]),
    "tape.backward.calls": ("calls", ["tape.Tape.backward"]),
    "train.optimizer_s": ("incl", ["train.step_adam", "train.step_sgd"]),
    "train.penalty_log_s": ("incl", ["train.measure_penalty"]),
    "train.penalty_log.calls": ("calls", ["train.measure_penalty"]),
    "train.eval_s": ("incl", ["train.evaluate_accuracy"]),
    "train.loop_s": ("self", ["train.train"]),
    "data.prepare_s": (
        "incl",
        ["data.stratified_split", "data.subsample_fraction", "data.fit_preprocess", "data.PreprocessStats.transform"],
    ),
    "data.load_csv_s": ("incl", ["data.load_csv"]),
    "checkpoint.load_s": ("incl", ["checkpoint.load_checkpoint"]),
    "checkpoint.save_s": ("incl", ["checkpoint.save_checkpoint"]),
    "metrics.input_grad_norms_s": ("self", ["metrics.input_grad_norms"]),
    "polynet.forward_dual_s": ("incl", ["polynet.forward_dual"]),
    "baselines.baseline_input_grads_s": ("incl", ["baselines.baseline_input_grads"]),
    "metrics.tail_ratio_s": ("incl", ["metrics.tail_ratio"]),
    "harness.stats_s": ("incl", ["harness.stats_report", "harness.render_stats_text"]),
    "harness.sweep_self_s": ("self", ["harness.sweep"]),
}
_KEY = {"incl": "incl_s", "self": "self_s", "calls": "calls"}


def nodes_per_step(tracer) -> dict[str, int]:
    """Tape size of the training backward sweeps, per model.

    Only sweeps called from ``train.loss_and_grads`` count; the model is
    the one of the enclosing ``harness.train_cell``. A model whose steps
    do not all record the same number of nodes reports the most common
    size.
    """
    seen: dict[str, Counter] = {m: Counter() for m in MODELS}
    names = tracer.names
    for idx, nodes in tracer.tags.items():
        if names[tracer.span_name[idx]] != "tape.Tape.backward":
            continue
        parent = tracer.span_parent[idx]
        if parent < 0 or names[tracer.span_name[parent]] != "train.loss_and_grads":
            continue
        model = tracer.ancestor_tag(idx, "harness.train_cell")
        if model in seen:
            seen[model][nodes] += 1
    return {m: (c.most_common(1)[0][0] if c else 0) for m, c in seen.items()}


def layer_metrics(tracer, traced_wall: float, untraced_wall: float, pool: dict[str, float]) -> dict[str, float]:
    """Every PER_LAYER metric; ``pool`` holds the two measured on the untraced 2-worker sweep."""
    totals = tracer.totals()
    out: dict[str, float] = {}
    for metric, (kind, spans) in SPAN_METRICS.items():
        out[metric] = sum(totals.get(s, {}).get(_KEY[kind], 0) for s in spans)
    for model, nodes in nodes_per_step(tracer).items():
        out[f"tape.nodes_per_step.{model}"] = nodes
    cell_s = {m: 0.0 for m in MODELS}
    dur = tracer.durations()
    cell_id = tracer.name_id("harness.train_cell")
    for idx, name_id in enumerate(tracer.span_name):
        if name_id == cell_id and tracer.tags.get(idx) in cell_s:
            cell_s[tracer.tags[idx]] += dur[idx]
    for model, seconds in cell_s.items():
        out[f"harness.cell_s.{model}"] = seconds
    out.update(pool)
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.unattributed_s"] = traced_wall - tracer.root_seconds()
    missing = set(PER_LAYER) - set(out)
    if missing:
        raise KeyError(f"per-layer metrics without a definition: {sorted(missing)}")
    return {name: out[name] for name in PER_LAYER}
