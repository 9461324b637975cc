"""Bench-local tests: the output checks, the tracer and the spec.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import json
import os
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import layers  # noqa: E402
import spec  # noqa: E402
from tracer import Tracer  # noqa: E402


def _references():
    out = {}
    for workload in spec.WORKLOADS:
        with open(check.reference_path(workload), encoding="utf-8") as fh:
            out[workload] = json.load(fh)
    return out


def _as_ops(ref_ops: dict) -> dict:
    return {op: {"ok": True, "value": copy.deepcopy(v)} for op, v in ref_ops.items()}


def _perturb_first_float(value, factor=1.0 + 1e-6):
    """Scale the first float found in a JSON value; returns True once done."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, v in items:
        if isinstance(v, float) and v != 0.0:
            value[key] = v * factor
            return True
        if isinstance(v, (dict, list)) and _perturb_first_float(v, factor):
            return True
    return False


def test_end_to_end_times_are_control_scaled_medians():
    import run
    from control import REFERENCE_S

    # op -> [wall, cpu, control before]; the pass's last control runs after its last op.
    passes = [
        {"op_times": {"train/cr": [1.0, 0.9, 0.5], "train/vanilla": [2.0, 2.0, 1.0]}, "control_after": 1.0},
        {"op_times": {"train/cr": [3.0, 3.0, 2.0], "train/vanilla": [1.0, 1.0, 1.0]}, "control_after": 0.5},
        {"op_times": {"train/cr": [4.0, 4.0, 1.0], "train/vanilla": [8.0, 8.0, 2.0]}, "control_after": 4.0},
    ]
    for i, p in enumerate(passes):
        p.update(plan_steps=10, plan_rows=20, peak_rss_mib=5.0 + i)
    # wall over the mean adjacent control: cr 4/3, 2, 8/3 -> median 2; vanilla 2, 4/3, 8/3 -> median 2.
    got = run._units(SimpleNamespace(workload="train_full"), {"models": ["cr", "vanilla"]}, passes)
    wall = 4.0 * REFERENCE_S
    assert got["wall_s"] == pytest.approx(wall)
    # cpu: cr 1.2, 2, 8/3 -> 2; vanilla 2, 4/3, 8/3 -> 2.
    assert got["cpu_s"] == pytest.approx(REFERENCE_S * 4.0)
    assert got["cells_per_s"] == pytest.approx(2 / wall)
    assert got["steps_per_s"] == pytest.approx(10 / wall)
    assert got["rows_per_s"] == pytest.approx(20 / wall)
    assert got["peak_rss_mib"] == 6.0


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == spec.benchmark_json()


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_reference_passes_its_own_check(workload):
    ref = _references()[workload]
    assert ref["seed"] == spec.DEFAULT_SEED
    expected = sorted(ref["ops"])
    assert check.failures(_as_ops(ref["ops"]), expected, ref["ops"], None) == {}


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_perturbed_reference_is_caught(workload):
    ref = _references()[workload]
    expected = sorted(ref["ops"])
    for op in expected:
        ops = _as_ops(ref["ops"])
        assert _perturb_first_float(ops[op]["value"]), op
        bad = check.failures(ops, expected, ref["ops"], None)
        assert list(bad) == [op]
        assert "differs from reference" in bad[op]


def test_changed_stats_text_is_caught():
    ref = _references()["score_large"]
    ops = _as_ops(ref["ops"])
    ops["stats"]["value"]["text"] = ops["stats"]["value"]["text"].replace("0", "1", 1)
    assert list(check.failures(ops, sorted(ops), ref["ops"], None)) == ["stats"]


def test_missing_and_not_ok_ops_fail():
    ref = _references()["train_full"]
    ops = _as_ops(ref["ops"])
    expected = sorted(ops)
    del ops[expected[0]]
    ops[expected[1]]["ok"] = False
    assert sorted(check.failures(ops, expected, ref["ops"], None)) == expected[:2]


def test_invariant_holds_at_any_seed():
    row = dict(_references()["sweep_small"]["ops"]["cell/cr/0.05/0"])
    assert check.invariant("cell/cr/0.05/0", row) is None
    row["eval_accuracy"] = 1.5
    assert check.invariant("cell/cr/0.05/0", row) is not None


def test_float_comparison_tolerance():
    assert check.diff(1.0, 1.0 + 1e-12) is None
    assert check.diff(1.0, 1.0 + 1e-6) is not None
    assert check.diff({"a": [1, 2]}, {"a": [1, 2, 3]}) is not None
    assert check.diff(1, 2) is not None


def _tiny_net():
    from polygrad.linalg import Rng
    from polygrad.polynet import PolyNetwork

    return PolyNetwork.build(Rng(0), 3, [4], 2)


def test_tracer_rebinds_everywhere_and_restores():
    import numpy as np
    from polygrad import cli, harness, train

    original = train.evaluate_accuracy
    tracer = Tracer()
    tracer.install()
    try:
        for module in (train, harness, cli):
            assert module.evaluate_accuracy is not original
        net = _tiny_net()
        x = np.random.default_rng(0).standard_normal((5, 3))
        harness.evaluate_accuracy(net, x, np.array([0, 1, 0, 1, 0]))
    finally:
        tracer.restore()
    for module in (train, harness, cli):
        assert module.evaluate_accuracy is original
    totals = tracer.totals()
    assert totals["train.evaluate_accuracy"]["calls"] == 1
    assert totals["train.predict_logits"]["calls"] == 1
    assert totals["polynet.forward_values"]["calls"] == 1
    # Self times partition the root span.
    assert sum(e["self_s"] for e in totals.values()) == pytest.approx(tracer.root_seconds(), abs=1e-9)


def test_tracer_counts_tape_nodes_per_step():
    import numpy as np
    from polygrad import train
    from polygrad.train import TrainConfig

    tracer = Tracer()
    tracer.install()
    try:
        net = _tiny_net()
        x = np.random.default_rng(0).standard_normal((4, 3))
        train.loss_and_grads(net, x, np.array([0, 1, 1, 0]), TrainConfig(lambda_dreg=0.5))
    finally:
        tracer.restore()
    (idx,) = [i for i in tracer.tags if tracer.names[tracer.span_name[i]] == "tape.Tape.backward"]
    assert tracer.names[tracer.span_name[tracer.span_parent[idx]]] == "train.loss_and_grads"
    assert tracer.tags[idx] > 0
    metrics = layers.layer_metrics(tracer, 1.0, 1.0, {"harness.pool_busy_ratio": 0.0, "harness.pool_wall_s": 0.0})
    assert list(metrics) == list(spec.PER_LAYER)
    assert metrics["tape.backward.calls"] == 1
