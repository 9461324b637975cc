"""Collect each workload's outputs as ops and check them.

An op is one sweep cell or one CLI call. It fails when it did not
finish ok (row status, exit code), when its output breaks an invariant
that holds for every seed, when it differs from the committed reference
(at the seed the reference was made with) or when it differs from the
same op in another pass of the run. Floats are compared to a relative
1e-9: far below any change a wrong result makes, but above the last-bit
rounding another BLAS kernel could cause.
"""

from __future__ import annotations

import json
import math
import os

RTOL = 1e-9
ATOL = 1e-12
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
DROPPED_FIELDS = ("wall_time_seconds",)  # timing, not output


def diff(got, want, path: str = "") -> str | None:
    """First difference between two JSON values, or None when they agree."""
    if isinstance(want, bool) or isinstance(got, bool):
        return None if got is want else f"{path}: {got!r} != {want!r}"
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        if isinstance(want, int) and isinstance(got, int):
            return None if got == want else f"{path}: {got} != {want}"
        if math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL) or (math.isnan(got) and math.isnan(want)):
            return None
        return f"{path}: {got!r} != {want!r}"
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return f"{path}: keys {sorted(set(got) ^ set(want))} differ"
        for key in want:
            found = diff(got[key], want[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            found = diff(g, w, f"{path}[{i}]")
            if found:
                return found
        return None
    return None if got == want else f"{path}: {got!r} != {want!r}"


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_text(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def expected_ops(workload: str, inputs: dict) -> list[str]:
    models = inputs["models"]
    if workload == "sweep_small":
        return [f"cell/{m}/{f!r}/{s}" for m in models for f in inputs["fractions"] for s in inputs["seeds"]]
    if workload == "train_full":
        return [f"train/{m}" for m in models]
    return [f"{kind}/{m}" for m in models for kind in ("eval", "tailratio")] + ["stats"]


def collect(workload: str, out_dir: str, worker_ops: dict) -> dict[str, dict]:
    """Outputs of one pass: op id -> {"ok": finished ok, "value": output or error}."""
    ops: dict[str, dict] = {}
    if workload == "sweep_small":
        path = os.path.join(out_dir, "results.jsonl")
        lines = _read_text(path).splitlines() if os.path.exists(path) else []
        for line in lines:
            row = json.loads(line)
            op = f"cell/{row['model_id']}/{row['fraction']!r}/{row['seed']}"
            value = {k: v for k, v in row.items() if k not in DROPPED_FIELDS}
            ops[op] = {"ok": row.get("status") == "ok", "value": value}
        return ops
    for op, call in worker_ops.items():
        kind, _, model = op.partition("/")
        entry = {"ok": call["exit"] == 0, "value": f"exit code {call['exit']}"}
        try:
            if kind == "train":
                entry["value"] = _read_json(os.path.join(out_dir, model, "summary.json"))
            elif kind == "eval":
                entry["value"] = json.loads(call["stdout"].strip().splitlines()[-1])
            elif kind == "tailratio":
                entry["value"] = _read_json(os.path.join(out_dir, model, "tailratio.json"))
            else:
                stats_dir = os.path.join(out_dir, "stats")
                entry["value"] = {
                    "json": _read_json(os.path.join(stats_dir, "stats_report.json")),
                    "text": _read_text(os.path.join(stats_dir, "stats_report.txt")),
                }
        except (OSError, ValueError, IndexError) as err:
            entry = {"ok": False, "value": f"output missing: {err}"}
        ops[op] = entry
    return ops


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def invariant(op: str, value) -> str | None:
    """A property of the output that holds at every seed; None when it does."""
    kind = op.split("/")[0]
    if kind in ("cell", "train"):
        keys = ("eval_accuracy", "tau", "mean_norm", "p99_norm", "final_task_loss", "final_penalty")
        if not all(k in value for k in keys):
            return "result fields missing"
        v = [value[k] for k in keys]
        if not _finite(*v) or not 0.0 <= v[0] <= 1.0 or min(v[1:4]) <= 0.0 or min(v[4:]) < 0.0:
            return f"result out of range: {dict(zip(keys, v))}"
        return None
    if kind == "eval":
        if not (_finite(value.get("accuracy"), value.get("task_loss")) and 0.0 <= value["accuracy"] <= 1.0):
            return f"eval out of range: {value}"
        return None if value.get("eval_rows", 0) > 0 else "no eval rows"
    if kind == "tailratio":
        if value.get("n") != value.get("eval_rows"):
            return "tail ratio does not cover every eval row"
        return None if _finite(value.get("tau")) and value["tau"] > 0.0 else "tau out of range"
    report = value["json"]
    errors = [c for c in report.get("comparisons", []) if "error" in c]
    if errors or not report.get("comparisons") or not value["text"].strip():
        return "stats report incomplete"
    return None


def advisory(op: str, value) -> str | None:
    """A known program defect, reported with the result but not counted as a failure.

    The tail-ratio histogram's log-spaced edges can round inside the
    smallest or largest positive norm, so np.histogram drops that sample.
    """
    if op.startswith("tailratio/") and isinstance(value, dict):
        counted = value.get("zero_count", 0) + sum(value.get("histogram", {}).get("counts", []))
        if counted != value.get("n"):
            return f"histogram holds {counted} of {value.get('n')} norms"
    return None


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str, seed: int) -> dict | None:
    """The committed reference ops, if they were made at this seed."""
    path = reference_path(workload)
    if not os.path.exists(path):
        return None
    ref = _read_json(path)
    return ref["ops"] if ref.get("seed") == seed else None


def failures(ops: dict, expected: list[str], reference: dict | None, first: dict | None) -> dict[str, str]:
    """op id -> why it failed, over the expected ops of one pass."""
    bad: dict[str, str] = {}
    for op in expected:
        entry = ops.get(op)
        if entry is None:
            bad[op] = "no output"
            continue
        if not entry["ok"]:
            bad[op] = f"not ok: {str(entry['value'])[:200]}"
            continue
        why = invariant(op, entry["value"])
        if why is None and reference is not None:
            found = diff(entry["value"], reference.get(op))
            why = found and f"differs from reference: {found}"
        if why is None and first is not None and op in first:
            found = diff(entry["value"], first[op]["value"])
            why = found and f"differs from the run's first pass: {found}"
        if why:
            bad[op] = why
    return bad
