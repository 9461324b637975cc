"""One benchmark process: set up a workload, run its timed section, report.

``run.py`` starts this as ``python3 perfbench/worker.py <request.json>``
with ``src`` on PYTHONPATH. The request names the workload, its inputs,
the output directory and the mode:

- ``setup``: stop at the first timed call (a set-up time sample);
- ``pass``: run the timed section once and write its result;
- ``trace``: the same with every public polygrad function traced;
- ``fixtures``: generate score_large's CSV and checkpoints.

Only the moment of the first timed call and the timed section itself
are measured here; outputs are checked by ``run.py``. With
``"controls": true`` the worker also times the control loop (see
control.py) after set-up, before every op and after the last one.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback

from control import timed_control, warm_up

CONTROLS = False  # set from the request: time the control loop around ops


def monotonic() -> float:
    """A clock shared by every process on the host, so run.py can subtract."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _timed(times: dict, op: str, fn, *args):
    """Call fn(*args); record its wall and CPU seconds, and the control time before it, under op."""
    control_s = timed_control() if CONTROLS else None
    t0, cpu0 = time.perf_counter(), cpu_seconds()
    try:
        return fn(*args)
    finally:
        times[op] = [time.perf_counter() - t0, cpu_seconds() - cpu0, control_s]


def _cli(cli, argv: list[str]) -> dict:
    """One CLI call as an op: its exit code and what it printed."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception:  # a crashing op is a failed op; the rest still run
        traceback.print_exc()
        code = -1
    return {"exit": code, "stdout": buf.getvalue()}


# -- workloads: setup returns the timed section ---------------------------


def setup_sweep_small(req):
    from polygrad import harness
    from polygrad.config import load_config

    plan = harness.plan_from_config(load_config(req["inputs"]["plan"]))
    ds = harness.resolve_dataset(plan, req["out"])

    def timed(times: dict) -> dict:
        rows = _timed(times, "sweep", harness.sweep, plan, ds, req["out"], req["workers"])
        return {"rows": len(rows)}

    def steps() -> tuple[int, int]:
        from polygrad.data import stratified_split, subsample_fraction

        total_steps = total_rows = 0
        for model_id, fraction, seed in plan.cells:
            cfg = plan.specs[model_id].train
            train_idx, _ = stratified_split(ds.labels, plan.eval_fraction, seed)
            rounding = "ceil" if fraction == min(plan.fractions) else "round"
            n = len(subsample_fraction(train_idx, ds.labels, fraction, seed, rounding=rounding))
            total_steps += cfg.epochs * math.ceil(n / cfg.batch_size)
            total_rows += cfg.epochs * n
        return total_steps, total_rows

    return timed, steps


def setup_train_full(req):
    from polygrad import cli

    inputs = req["inputs"]

    def timed(times: dict) -> dict:
        ops = {}
        for model in inputs["models"]:
            argv = ["train", "--config", inputs["config"], "--out", os.path.join(req["out"], model)]
            argv += ["--model", model, "--fraction", "1.0", "--seed", str(inputs["seed"])]
            ops[f"train/{model}"] = _timed(times, f"train/{model}", _cli, cli, argv)
        return ops

    def steps() -> tuple[int, int]:
        from polygrad.config import load_config
        from polygrad.data import stratified_split
        from polygrad.harness import resolve_dataset, train_config_from_file

        config = load_config(inputs["config"])
        total_steps = total_rows = 0
        for model in inputs["models"]:
            config.values["model.id"] = model
            plan, _, _, _ = train_config_from_file(config)
            ds = resolve_dataset(plan)
            n = len(stratified_split(ds.labels, plan.eval_fraction, inputs["seed"])[0])
            cfg = plan.specs[model].train
            total_steps += cfg.epochs * math.ceil(n / cfg.batch_size)
            total_rows += cfg.epochs * n
        return total_steps, total_rows

    return timed, steps


def setup_score_large(req):
    from polygrad import cli

    inputs = req["inputs"]

    def timed(times: dict) -> dict:
        ops = {}
        for model in inputs["models"]:
            ck = inputs["checkpoints"][model]
            argv = ["eval", "--checkpoint", ck, "--data", inputs["csv"]]
            ops[f"eval/{model}"] = _timed(times, f"eval/{model}", _cli, cli, argv)
            argv = ["tailratio", "--checkpoint", ck, "--data", inputs["csv"], "--out", os.path.join(req["out"], model)]
            ops[f"tailratio/{model}"] = _timed(times, f"tailratio/{model}", _cli, cli, argv)
        argv = ["stats", "--results", inputs["results"], "--out", os.path.join(req["out"], "stats")]
        ops["stats"] = _timed(times, "stats", _cli, cli, argv)
        return ops

    return timed, lambda: (0, 0)


SETUPS = {"sweep_small": setup_sweep_small, "train_full": setup_train_full, "score_large": setup_score_large}


def make_fixtures(req) -> dict:
    """score_large's inputs: a large pima-like CSV and one checkpoint per model."""
    from polygrad import cli
    from polygrad.data import make_pima_like, save_csv

    inputs = req["inputs"]
    save_csv(inputs["csv"], make_pima_like(seed=inputs["seed"], n_samples=inputs["csv_rows"]))
    for model in inputs["models"]:
        out = os.path.dirname(inputs["checkpoints"][model])
        argv = ["train", "--config", inputs["train_config"], "--out", out]
        argv += ["--model", model, "--fraction", "1.0", "--seed", str(inputs["seed"])]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError(f"fixture checkpoint for {model} failed to train")
    return {}


def main(request_path: str) -> int:
    global CONTROLS
    with open(request_path, encoding="utf-8") as fh:
        req = json.load(fh)
    CONTROLS = req.get("controls", False)
    if req["mode"] == "fixtures":
        result = make_fixtures(req)
    else:
        timed, steps = SETUPS[req["workload"]](req)
        t_first = monotonic()
        result = {"t_first_call": t_first}
        if CONTROLS:
            warm_up()
            result["control_setup"] = timed_control()
        if req["mode"] != "setup":
            tracer = None
            if req["mode"] == "trace":
                from tracer import Tracer

                tracer = Tracer()
                tracer.install()
            cpu0 = cpu_seconds()
            t0 = time.perf_counter()
            result["op_times"] = {}
            try:
                result["ops"] = timed(result["op_times"])
            finally:
                wall = time.perf_counter() - t0
                cpu = cpu_seconds() - cpu0
                if tracer is not None:
                    tracer.restore()
            result.update(wall_s=wall, cpu_s=cpu, peak_rss_mib=peak_rss_mib())
            if CONTROLS:
                result["control_after"] = timed_control()
            result["plan_steps"], result["plan_rows"] = steps()
            if tracer is not None:
                from layers import layer_metrics

                result["layers"] = layer_metrics(
                    tracer, wall, req["untraced_wall_s"], req["pool"]
                )
                calls = tracer.totals().get("train.loss_and_grads", {}).get("calls", 0)
                result["loss_and_grads_calls"] = calls
                with open(os.path.join(req["out"], "spans.json"), "w", encoding="utf-8") as fh:
                    json.dump(tracer.spans(), fh)
    with open(req["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
