"""polygrad benchmark: one workload, one run, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep_small --seed 0 --seconds 35 --trace 0

``--trace 0`` reports the end-to-end metrics: set-up time is sampled in
several fresh processes, then whole passes of the workload run, each in
a fresh process, until ``--seconds`` have elapsed; every timing is a
median over the passes, in reference seconds of the control loop (see
control.py). ``--trace 1`` runs the workload
untraced and then traced (every public polygrad function wrapped) and
reports the per-layer metrics. Every pass's outputs are checked (see
check.py). The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Other entry points: ``--write-spec`` regenerates BENCHMARK.json from
spec.py; ``--update-reference`` rewrites the workload's committed
reference outputs from one pass at the default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

# One BLAS thread, in this process and every worker, set before numpy is
# imported: workers x BLAS threads <= nproc holds for the 2-worker pool
# too, the arrays are small, and a second thread would only add the
# speed of the host's other vCPU to the timings.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})

import check  # noqa: E402
import spec  # noqa: E402
from control import REFERENCE_S, timed_control, warm_up  # noqa: E402
from worker import monotonic  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = ".bench_work"
SETUP_PROBES = 3
RUN_DEADLINE_S = 170.0
FIRST_RUN_DEADLINE_S = 880.0

# The plans/pima_sweep.txt training settings, fixed here so the
# benchmark's inputs do not move when that plan file is edited.
PIMA_SETTINGS = """format_version = 1
data.source = pima_like
data.seed = 7
train.widths = 8, 8
train.epochs = {epochs}
train.learning_rate = 0.002
train.lambda_dreg = 0.5
"""
SWEEP_FRACTIONS = (0.05,)
SWEEP_EPOCHS = 80
TRAIN_EPOCHS = 30
SWEEP_WORKERS = 2  # the traced run's pool pass; timed passes use one worker
SCORE_CSV_ROWS = 60_000
FIXTURE_EPOCHS = 20
STATS_FRACTIONS = (0.05, 0.1, 0.25, 0.5, 1.0)
SCORE_CLI_CALLS = 2 * len(spec.MODELS) + 1


class Run:
    """One invocation: its work directory, child environment and deadline."""

    def __init__(self, workload: str, seed: int, root: str):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.work = os.path.join(root, WORK_ROOT, workload, f"seed{seed}")
        self.nproc = os.cpu_count() or 1
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        first = not os.path.isdir(os.path.join(root, WORK_ROOT))
        self.deadline = monotonic() + (FIRST_RUN_DEADLINE_S if first else RUN_DEADLINE_S)
        self.children = 0

    def spawn(self, mode: str, inputs: dict, **extra) -> tuple[dict, float]:
        """Run one worker process to completion; returns its result and spawn time."""
        self.children += 1
        out = os.path.join(self.work, f"{mode}{self.children}")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        request = {
            "workload": self.workload,
            "mode": mode,
            "inputs": inputs,
            "out": out,
            "result": os.path.join(out, "result.json"),
            "workers": extra.pop("workers", 1),
            **extra,
        }
        req_path = os.path.join(out, "request.json")
        with open(req_path, "w", encoding="utf-8") as fh:
            json.dump(request, fh)
        timeout = self.deadline - monotonic()
        if timeout <= 0:
            raise TimeoutError(f"no time left for a {mode} process")
        with open(os.path.join(out, "log.txt"), "w", encoding="utf-8") as log:
            t_spawn = monotonic()
            proc = subprocess.Popen(
                [sys.executable, WORKER, req_path],
                cwd=self.root,
                env=self.env,
                stdout=log,
                stderr=log,
                start_new_session=True,
            )
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise TimeoutError(f"{mode} process passed the run deadline") from None
            finally:
                # Reap anything the worker left behind (pool processes).
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        if code != 0:
            raise RuntimeError(f"{mode} process exited {code}; see {out}/log.txt")
        with open(request["result"], encoding="utf-8") as fh:
            result = json.load(fh)
        result["out"] = out
        return result, t_spawn


# -- inputs ---------------------------------------------------------------


def _write(path: str, text: str) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _code_digest(root: str) -> str:
    """Digest of the program and of the benchmark code that makes fixtures."""
    src = os.path.join(root, "src", "polygrad")
    paths = [os.path.join(src, n) for n in sorted(os.listdir(src)) if n.endswith(".py")]
    h = hashlib.sha256()
    for path in paths + [os.path.abspath(__file__), WORKER]:
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _results_table(seed: int) -> str:
    """A complete synthetic results table for `polygrad stats`."""
    rng = random.Random(seed)
    lines = []
    for model in spec.MODELS:
        for fraction in STATS_FRACTIONS:
            for s in range(6):
                row = {
                    "format_version": 1,
                    "status": "ok",
                    "model_id": model,
                    "fraction": fraction,
                    "seed": s,
                    "eval_accuracy": rng.uniform(0.6, 0.8),
                    "tau": 1.0 + rng.expovariate(1.0),
                    "mean_norm": rng.uniform(0.1, 1.0),
                    "p99_norm": rng.uniform(1.0, 3.0),
                    "final_task_loss": rng.uniform(0.4, 0.7),
                    "final_penalty": rng.uniform(0.0, 1.0),
                    "wall_time_seconds": 1.0,
                }
                lines.append(json.dumps(row, sort_keys=True))
    return "\n".join(lines) + "\n"


def make_inputs(run: Run) -> dict:
    """Everything the workload reads, generated from the seed; outside every timed span."""
    seed, work, models = run.seed, run.work, list(spec.MODELS)
    if run.workload == "sweep_small":
        seeds = list(range(seed, seed + 6))
        text = PIMA_SETTINGS.format(epochs=SWEEP_EPOCHS) + (
            f"plan.models = {', '.join(models)}\n"
            f"plan.fractions = {', '.join(map(str, SWEEP_FRACTIONS))}\n"
            f"plan.seeds = {', '.join(map(str, seeds))}\n"
        )
        plan = _write(os.path.join(work, "inputs", "plan.txt"), text)
        return {"plan": plan, "models": models, "fractions": list(SWEEP_FRACTIONS), "seeds": seeds}
    if run.workload == "train_full":
        config = _write(os.path.join(work, "inputs", "train.txt"), PIMA_SETTINGS.format(epochs=TRAIN_EPOCHS))
        return {"config": config, "models": models, "seed": seed}

    # score_large: fixtures are made once per (seed, code) and reused.
    fixtures = os.path.join(run.root, WORK_ROOT, "fixtures", f"score_large-seed{seed}-{_code_digest(run.root)}")
    inputs = {
        "models": models,
        "seed": seed,
        "csv": os.path.join(fixtures, "pima_large.csv"),
        "csv_rows": SCORE_CSV_ROWS,
        "checkpoints": {m: os.path.join(fixtures, m, "checkpoint.json") for m in models},
        "results": os.path.join(fixtures, "results.jsonl"),
        "train_config": os.path.join(fixtures, "train.txt"),
    }
    done = os.path.join(fixtures, "complete")
    if not os.path.exists(done):
        shutil.rmtree(fixtures, ignore_errors=True)
        _write(inputs["train_config"], PIMA_SETTINGS.format(epochs=FIXTURE_EPOCHS))
        _write(inputs["results"], _results_table(seed))
        run.spawn("fixtures", inputs)
        _write(done, "")
    return inputs


# -- environment record ---------------------------------------------------


def _git_commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "--git-dir", os.path.join(root, ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment(run: Run) -> dict:
    """Host facts plus a fixed numpy probe loop (a diagnostic, not a metric)."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    a = np.random.default_rng(0).standard_normal((32, 8))
    b = np.random.default_rng(1).standard_normal((8, 8))
    t0 = time.perf_counter()
    for _ in range(100_000):
        a @ b
    probe = time.perf_counter() - t0
    return {
        "nproc": run.nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": BLAS_THREADS},
        "loadavg": list(os.getloadavg()),
        "git_commit": _git_commit(run.root),
        "probe_matmul_100k_s": probe,
    }


# -- runs -------------------------------------------------------------------


def _control_ratios(p: dict) -> dict[str, tuple[float, float]]:
    """op -> (wall, CPU) seconds of one pass as multiples of the adjacent control time.

    An op's control time is the mean of the control runs just before and
    just after it: the host's speed while the op ran.
    """
    ops = list(p["op_times"])
    after = [p["op_times"][op][2] for op in ops[1:]] + [p["control_after"]]
    out = {}
    for op, c_after in zip(ops, after):
        wall, cpu, c_before = p["op_times"][op]
        control_s = (c_before + c_after) / 2.0
        out[op] = (wall / control_s, cpu / control_s)
    return out


def _units(run: Run, inputs: dict, passes: list[dict]) -> dict[str, float]:
    """End-to-end metrics (all but set-up time) over the run's passes.

    The pass is a sequence of ops (the sweep, or one CLI call each). An
    op's time is its median over the passes of its time over the
    adjacent control time, in reference seconds (see control.py), and
    wall_s and cpu_s sum those over the ops. The host's speed moves the
    op and the control loop alike, a change to the program moves only
    the op.
    """
    ratios = [_control_ratios(p) for p in passes]
    ops = ratios[0]
    wall = REFERENCE_S * sum(statistics.median(r[op][0] for r in ratios) for op in ops)
    cpu = REFERENCE_S * sum(statistics.median(r[op][1] for r in ratios) for op in ops)
    models = len(inputs["models"])
    if run.workload == "score_large":
        cells, steps, rows = models, SCORE_CLI_CALLS, 2 * models * SCORE_CSV_ROWS
    else:
        cells = len(check.expected_ops(run.workload, inputs))
        steps, rows = passes[0]["plan_steps"], passes[0]["plan_rows"]
    return {
        "wall_s": wall,
        "cells_per_s": cells / wall,
        "steps_per_s": steps / wall,
        "rows_per_s": rows / wall,
        "cpu_s": cpu,
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
    }


def _pool_busy_ratio(out_dir: str, wall: float, workers: int) -> float:
    busy = 0.0
    with open(os.path.join(out_dir, "results.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            busy += json.loads(line).get("wall_time_seconds", 0.0)
    return busy / (workers * wall)


class Checker:
    """Counts ops and failures over every pass of a run."""

    def __init__(self, run: Run, inputs: dict):
        self.workload = run.workload
        self.expected = check.expected_ops(run.workload, inputs)
        self.reference = check.load_reference(run.workload, run.seed)
        self.first: dict | None = None
        self.attempted = 0
        self.failed: dict[str, str] = {}
        self.notes: list[str] = []
        self.advisories: dict[str, str] = {}

    def add(self, label: str, result: dict) -> dict:
        ops = check.collect(self.workload, result["out"], result.get("ops") or {})
        bad = check.failures(ops, self.expected, self.reference, self.first)
        for op, entry in ops.items():
            note = check.advisory(op, entry["value"])
            if note:
                self.advisories[f"{label}:{op}"] = note
        self.attempted += len(self.expected)
        self.failed.update({f"{label}:{op}": why for op, why in bad.items()})
        if self.first is None:
            self.first = ops
        return ops

    @property
    def correct(self) -> bool:
        return not self.failed and not self.notes


def run_e2e(run: Run, inputs: dict, seconds: int, checker: Checker) -> dict[str, float]:
    """Set-up probes, then fresh-process passes until --seconds have elapsed.

    A set-up sample is the time from spawn to the first timed call over
    the mean of the control runs just before the spawn (here) and just
    after set-up (in the worker), in reference seconds.
    """
    start = monotonic()
    warm_up()
    setup, raw_setup = [], []

    def spawn(mode: str) -> dict:
        control_s = timed_control()
        result, t_spawn = run.spawn(mode, inputs, controls=True)
        raw_setup.append(result["t_first_call"] - t_spawn)
        setup.append(REFERENCE_S * raw_setup[-1] * 2.0 / (control_s + result["control_setup"]))
        return result

    for _ in range(SETUP_PROBES):
        spawn("setup")
    passes: list[dict] = []
    laps: list[float] = []
    while True:
        t_lap = monotonic()
        result = spawn("pass")
        laps.append(monotonic() - t_lap)
        checker.add(f"pass{len(passes) + 1}", result)
        passes.append(result)
        lap = statistics.median(laps)
        if monotonic() - start + lap > seconds or run.deadline - monotonic() < 2.0 * lap + 10.0:
            break
    metrics = _units(run, inputs, passes)
    metrics["setup_s"] = statistics.median(setup)
    metrics["passes"] = len(passes)
    # Diagnostics for the run record, not metrics: the same medians in host seconds.
    ops = passes[0]["op_times"]
    metrics["raw"] = {
        "wall_s": sum(statistics.median(p["op_times"][op][0] for p in passes) for op in ops),
        "setup_s": statistics.median(raw_setup),
        "control_s": statistics.median(p["control_after"] for p in passes),
        "op_times": [p["op_times"] for p in passes],
        "controls_after": [p["control_after"] for p in passes],
    }
    return metrics


def run_traced(run: Run, inputs: dict, checker: Checker) -> dict[str, float]:
    pool = {"harness.pool_busy_ratio": 0.0, "harness.pool_wall_s": 0.0}
    if run.workload == "sweep_small":
        result, _ = run.spawn("pass", inputs, workers=SWEEP_WORKERS)
        checker.add("pool", result)
        pool["harness.pool_busy_ratio"] = _pool_busy_ratio(result["out"], result["wall_s"], SWEEP_WORKERS)
        pool["harness.pool_wall_s"] = result["wall_s"]
    untraced, _ = run.spawn("pass", inputs)
    checker.add("untraced", untraced)
    traced, _ = run.spawn("trace", inputs, untraced_wall_s=untraced["wall_s"], pool=pool)
    checker.add("traced", traced)
    if traced["loss_and_grads_calls"] != traced["plan_steps"]:
        checker.notes.append(
            f"traced loss_and_grads calls {traced['loss_and_grads_calls']} != plan steps {traced['plan_steps']}"
        )
    return traced["layers"]


def update_reference(run: Run, inputs: dict) -> str:
    result, _ = run.spawn("pass", inputs)
    checker = Checker(run, inputs)
    checker.reference = None
    ops = checker.add("reference", result)
    if checker.failed:
        raise RuntimeError(f"not writing a reference from failed ops: {checker.failed}")
    ref = {"workload": run.workload, "seed": run.seed, "ops": {op: ops[op]["value"] for op in checker.expected}}
    return _write(check.reference_path(run.workload), json.dumps(ref, sort_keys=True, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="regenerate BENCHMARK.json")
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if args.write_spec:
        _write(os.path.join(root, "BENCHMARK.json"), spec.benchmark_text())
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(root, "src", "polygrad", "__init__.py")):
        print("error: run from a polygrad checkout (src/polygrad not found)", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, root)
    shutil.rmtree(run.work, ignore_errors=True)
    inputs = make_inputs(run)
    if args.update_reference:
        print(update_reference(run, inputs))
        return 0

    env = environment(run)
    checker = Checker(run, inputs)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env}
    try:
        if args.trace:
            metrics = run_traced(run, inputs, checker)
            table = spec.PER_LAYER
        else:
            metrics = run_e2e(run, inputs, args.seconds, checker)
            record["passes"] = metrics.pop("passes")
            record["raw"] = metrics.pop("raw")
            table = spec.END_TO_END
    except (RuntimeError, TimeoutError, OSError, KeyError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    record.update(failures=checker.failed, notes=checker.notes, advisories=checker.advisories, metrics=metrics)
    _write(os.path.join(run.work, f"result-trace{args.trace}.json"), json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} env={json.dumps(env, sort_keys=True)}")
    for op, why in list(checker.failed.items())[:20]:
        print(f"# FAILED {op}: {why}")
    for note in checker.notes:
        print(f"# FAILED {note}")
    for op, note in list(checker.advisories.items())[:5]:
        print(f"# ADVISORY (known defect, not a failure) {op}: {note}")
    for name in table:
        print(f"{name:36s} {metrics[name]:>16.6f} {table[name][0]}")
    print(
        json.dumps(
            {
                "correct": checker.correct,
                "attempted": checker.attempted,
                "failed": len(checker.failed),
                "metrics": {name: {"value": metrics[name], "unit": table[name][0]} for name in table},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
