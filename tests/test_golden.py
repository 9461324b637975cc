"""Cross-commit bit identity of sweep results and training logs.

Each golden ``.jsonl`` file under ``tests/golden/`` is a sweep's
``results.jsonl`` with ``wall_time_seconds`` dropped from every row. The
test reruns the sweep and compares every line byte for byte, so any
change to the numbers a plan produces (accuracy, tau, norms, losses,
penalties) fails here, however small. The full ``plans/pima_sweep.txt``
sweep is not rerun here: ``test_acceptance.py`` already runs it once and
compares its rows to ``pima_sweep.jsonl`` and its ``stats_report.json``
to the sha256 in ``pima_sweep_stats.sha256``.

``tests/golden/train/<model>/`` holds ``polygrad train``'s
``trainlog.jsonl`` and ``summary.json`` for one small pima config, so the
per-epoch eval, the per-batch penalty log and dropout's penalty
measurement are pinned too, not only each cell's final row.

Regenerate the files only when a change to the results is intended
(about a minute for the small plans, a few more for the full sweep with
two workers):

    PYTHONPATH=src python tests/test_golden.py

Before overwriting a sweep file it prints, for each (model, field) that
changed, how many rows changed and the largest absolute and relative
difference from the committed value.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from polygrad.cli import main as cli_main
from polygrad.config import load_config, parse_config
from polygrad.harness import plan_from_config, resolve_dataset, sweep

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# All five roster models on a small pima slice, with the full sweep's
# training knobs: every model family and penalty-logging path runs, in a
# few seconds.
PIMA_SLICE = """\
format_version = 1
data.source = pima_like
data.seed = 7
plan.models = cr, vanilla, dropout, weight_decay, relu_dreg
plan.fractions = 0.05
plan.seeds = 0, 1
train.widths = 8, 8
train.epochs = 20
train.learning_rate = 0.002
train.lambda_dreg = 0.5
"""

PLANS = {
    "blobs_smoke.jsonl": lambda: load_config(ROOT / "plans" / "blobs_smoke.txt"),
    "pima_slice.jsonl": lambda: parse_config(PIMA_SLICE, "<pima slice>"),
}
# Checked by test_acceptance.py against its module-scoped sweep of the plan.
FULL_SWEEP = "pima_sweep.jsonl"
FULL_SWEEP_STATS = "pima_sweep_stats.sha256"

# One ``polygrad train`` run per model in TRAIN_MODELS. The roster names
# all five models, so the ReLU baselines take their capacity-matched
# widths from ``cr``'s.
TRAIN_CONFIG = """\
format_version = 1
data.source = pima_like
data.seed = 7
data.fraction = 0.25
run.seed = 1
plan.models = cr, vanilla, dropout, weight_decay, relu_dreg
train.widths = 8, 8
train.epochs = 30
train.learning_rate = 0.002
train.lambda_dreg = 0.5
"""
TRAIN_MODELS = ("cr", "dropout", "relu_dreg")
TRAIN_FILES = ("trainlog.jsonl", "summary.json")


def golden_lines(results_path) -> list[str]:
    """A results.jsonl file's lines without wall_time_seconds."""
    lines = []
    with open(results_path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            row.pop("wall_time_seconds")
            lines.append(json.dumps(row, sort_keys=True))
    return lines


def stats_digest(out_dir) -> str:
    """sha256 of a sweep's stats_report.json."""
    return hashlib.sha256((Path(out_dir) / "stats_report.json").read_bytes()).hexdigest()


def result_lines(config, out_dir, workers: int = 1) -> list[str]:
    """Run the sweep into ``out_dir``; its results.jsonl lines without wall_time_seconds."""
    plan = plan_from_config(config)
    sweep(plan, resolve_dataset(plan, str(out_dir)), str(out_dir), workers=workers)
    return golden_lines(Path(out_dir) / "results.jsonl")


@pytest.mark.parametrize("golden", sorted(PLANS))
def test_results_match_golden(golden, tmp_path):
    expected = (GOLDEN / golden).read_text(encoding="utf-8").splitlines()
    assert result_lines(PLANS[golden](), tmp_path) == expected


def train_outputs(model_id: str, work_dir) -> dict[str, bytes]:
    """``polygrad train`` of ``model_id`` on TRAIN_CONFIG in ``work_dir``; its TRAIN_FILES."""
    work_dir = Path(work_dir)
    config = work_dir / "train.txt"
    config.write_text(TRAIN_CONFIG, encoding="utf-8")
    out = work_dir / model_id
    assert cli_main(["train", "--config", str(config), "--model", model_id, "--out", str(out)]) == 0
    return {name: (out / name).read_bytes() for name in TRAIN_FILES}


@pytest.mark.parametrize("model_id", TRAIN_MODELS)
def test_train_logs_match_golden(model_id, tmp_path):
    got = train_outputs(model_id, tmp_path)
    for name in TRAIN_FILES:
        assert got[name] == (GOLDEN / "train" / model_id / name).read_bytes(), name


def diff_report(old_lines: list[str], new_lines: list[str]) -> list[str]:
    """One line per (model, field) whose value changed between the row lists."""
    if len(old_lines) != len(new_lines):
        return [f"row count {len(old_lines)} -> {len(new_lines)}"]
    changes: dict[tuple[str, str], list[tuple[float, float] | None]] = {}
    for old_line, new_line in zip(old_lines, new_lines):
        old, new = json.loads(old_line), json.loads(new_line)
        for field in sorted(old.keys() | new.keys()):
            a, b = old.get(field), new.get(field)
            if a == b:
                continue
            numeric = isinstance(a, float) and isinstance(b, float)
            diff = (abs(a - b), abs(a - b) / abs(a) if a else float("inf")) if numeric else None
            changes.setdefault((old.get("model_id"), field), []).append(diff)
    report = []
    for (model, field), diffs in sorted(changes.items()):
        line = f"{model} {field}: {len(diffs)} rows changed"
        if None not in diffs:
            line += f", max abs {max(d[0] for d in diffs):.3g}, max rel {max(d[1] for d in diffs):.3g}"
        report.append(line)
    return report


def _write_golden(name: str, lines: list[str]) -> None:
    path = GOLDEN / name
    if path.exists():
        report = diff_report(path.read_text(encoding="utf-8").splitlines(), lines)
        for entry in report or ["no changes"]:
            print(f"{name}: {entry}", file=sys.stderr)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    print(f"wrote {path}: {len(lines)} rows", file=sys.stderr)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name, make_config in PLANS.items():
        with tempfile.TemporaryDirectory() as tmp:
            _write_golden(name, result_lines(make_config(), tmp))
    with tempfile.TemporaryDirectory() as tmp:
        # Two workers, as test_acceptance.py's sweep runs it.
        _write_golden(FULL_SWEEP, result_lines(load_config(ROOT / "plans" / "pima_sweep.txt"), tmp, workers=2))
        digest = stats_digest(tmp)
    (GOLDEN / FULL_SWEEP_STATS).write_text(digest + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN / FULL_SWEEP_STATS}: {digest}", file=sys.stderr)
    for model_id in TRAIN_MODELS:
        with tempfile.TemporaryDirectory() as tmp:
            outputs = train_outputs(model_id, tmp)
        target = GOLDEN / "train" / model_id
        target.mkdir(parents=True, exist_ok=True)
        for name, data in outputs.items():
            changed = "" if not (target / name).exists() or (target / name).read_bytes() == data else " (changed)"
            (target / name).write_bytes(data)
            print(f"wrote {target / name}{changed}", file=sys.stderr)
