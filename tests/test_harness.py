import csv
import dataclasses
import json
import math
import os
import re
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from polygrad import harness
from polygrad import train as train_mod
from polygrad.config import load_config, parse_config
from polygrad.data import PIMA_FEATURES, make_pima_like, save_csv, stratified_split, subsample_fraction
from polygrad.harness import (
    RESULT_FIELDS,
    ModelSpec,
    build_model,
    plan_from_config,
    read_results,
    resolve_dataset,
    run_cell,
    stats_report,
    render_stats_text,
    sweep,
    train_cell,
    train_config_from_file,
)
from polygrad.errors import ConfigError, NumericOverflowError
from polygrad.linalg import derive_seed
from polygrad.metrics import paired_t_one_sided, wilcoxon_signed_rank
from polygrad.polynet import Net
from polygrad.tape import Tape
from polygrad.train import TrainConfig

PLANS = Path(__file__).resolve().parent.parent / "plans"


def smoke_plan():
    return plan_from_config(load_config(PLANS / "blobs_smoke.txt"))


def rows_without_walltime(rows):
    return [{k: v for k, v in r.items() if k != "wall_time_seconds"} for r in rows]


def record_training_rows(monkeypatch):
    """The (train_x, eval_x) of every ``train`` call ``train_cell`` makes from now on."""
    seen = []
    real_train = harness.train

    def recording(net, train_x, train_y, eval_x, eval_y, cfg, trajectory=True):
        seen.append((train_x, eval_x))
        return real_train(net, train_x, train_y, eval_x, eval_y, cfg, trajectory)

    monkeypatch.setattr(harness, "train", recording)
    return seen


class TestResolveDataset:
    def test_synthetic_written_once_and_reloaded(self, tmp_path):
        plan = smoke_plan()
        ds1 = resolve_dataset(plan, str(tmp_path))
        csv_path = tmp_path / "dataset.csv"
        first_bytes = csv_path.read_bytes()
        ds2 = resolve_dataset(plan, str(tmp_path))
        assert csv_path.read_bytes() == first_bytes
        np.testing.assert_array_equal(ds1.features, ds2.features)
        np.testing.assert_array_equal(ds1.labels, ds2.labels)

    def test_old_17_digit_dataset_csv_still_resumes(self, tmp_path):
        plan = smoke_plan()
        ds = resolve_dataset(plan)
        csv_path = tmp_path / "dataset.csv"
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(ds.feature_names + [plan.label_column])
            for row, label in zip(ds.features, ds.labels):
                writer.writerow([format(v, ".17g") for v in row] + [int(label)])
        old_bytes = csv_path.read_bytes()
        save_csv(tmp_path / "new.csv", ds, label_column=plan.label_column)
        assert (tmp_path / "new.csv").read_bytes() != old_bytes
        stored = resolve_dataset(plan, str(tmp_path))
        assert csv_path.read_bytes() == old_bytes
        assert stored.features.tobytes() == ds.features.tobytes()
        np.testing.assert_array_equal(stored.labels, ds.labels)
        assert stored.feature_names == ds.feature_names
        assert stored.class_count == ds.class_count

    def test_without_out_dir_returns_in_memory(self):
        ds = resolve_dataset(smoke_plan())
        assert ds.n == 120
        assert ds.class_count == 3

    def test_csv_source_reads_user_file(self, tmp_path):
        plan = smoke_plan()
        staged = resolve_dataset(plan, str(tmp_path))
        csv_plan = plan_from_config(parse_config(
            "format_version = 1\ndata.source = csv\n"
            f"data.path = {tmp_path / 'dataset.csv'}\n"
        ))
        ds = resolve_dataset(csv_plan)
        np.testing.assert_array_equal(ds.features, staged.features)


class TestBuildModel:
    def test_poly_uses_declared_widths(self):
        spec = ModelSpec("cr", "poly", [8, 8], TrainConfig())
        net = build_model(spec, 8, 2, derive_seed("bm"), [8, 8])
        assert isinstance(net, Net) and net.activation_kind == "poly"
        assert net.widths == [8, 8]

    def test_relu_widths_derived_by_capacity_match(self):
        spec = ModelSpec("vanilla", "relu", None, TrainConfig())
        net = build_model(spec, 8, 2, derive_seed("bm"), [8, 8])
        assert isinstance(net, Net) and net.activation_kind == "relu"
        assert net.widths == [10, 10]

    def test_explicit_relu_widths_win(self):
        spec = ModelSpec("vanilla", "relu", [5], TrainConfig())
        net = build_model(spec, 8, 2, derive_seed("bm"), [8, 8])
        assert net.widths == [5]

    def test_deterministic_per_seed_and_model(self):
        spec = ModelSpec("cr", "poly", [4], TrainConfig())
        a = build_model(spec, 3, 2, derive_seed("bm2"), [4])
        b = build_model(spec, 3, 2, derive_seed("bm2"), [4])
        for name, arr in a.parameters().items():
            np.testing.assert_array_equal(arr, b.parameters()[name])
        c = build_model(spec, 3, 2, derive_seed("bm3"), [4])
        assert not np.array_equal(a.parameters()["layer0.W"], c.parameters()["layer0.W"])


class TestTrainCell:
    def test_bitwise_deterministic(self, tmp_path):
        plan = smoke_plan()
        ds = resolve_dataset(plan, str(tmp_path))
        a = train_cell(ds, plan, "cr", 0.5, 0)
        b = train_cell(ds, plan, "cr", 0.5, 0)
        assert a.metrics() == b.metrics()
        assert a.tail.tau == b.tail.tau
        for name, arr in a.net.parameters().items():
            np.testing.assert_array_equal(arr, b.net.parameters()[name])

    def test_smallest_fraction_uses_ceiling(self, tmp_path, monkeypatch):
        text = (
            "format_version = 1\ndata.source = blobs\ndata.seed = 0\n"
            "data.n_samples = 120\nplan.models = cr\n"
            "plan.fractions = 0.05, 0.24, 1.0\nplan.seeds = 0\n"
            "train.widths = 4\ntrain.epochs = 2\n"
        )
        plan = plan_from_config(parse_config(text))
        ds = resolve_dataset(plan, str(tmp_path))
        # train side is 96 rows: 0.05 is the smallest fraction so it
        # rounds up (ceil(4.8) = 5); 0.24 uses round-half-up (23 not 24)
        seen = record_training_rows(monkeypatch)
        train_cell(ds, plan, "cr", 0.05, 0)
        train_cell(ds, plan, "cr", 0.24, 0)
        assert [train_x.shape[0] for train_x, _ in seen] == [5, 23]

    def test_preprocess_fitted_on_active_subset(self, tmp_path, monkeypatch):
        plan = smoke_plan()
        ds = resolve_dataset(plan, str(tmp_path))
        seen = record_training_rows(monkeypatch)
        train_cell(ds, plan, "vanilla", 0.5, 1)
        (train_x, _), = seen
        # Standardized with the active rows' own means, those rows average to zero.
        np.testing.assert_allclose(train_x.mean(axis=0), 0.0, atol=1e-12)

    def test_eval_disjoint_from_active(self, tmp_path, monkeypatch):
        plan = smoke_plan()
        ds = resolve_dataset(plan, str(tmp_path))
        seen = record_training_rows(monkeypatch)
        train_cell(ds, plan, "cr", 1.0, 0)
        (train_x, eval_x), = seen
        assert train_x.shape[0] + eval_x.shape[0] == ds.n
        assert not {row.tobytes() for row in train_x} & {row.tobytes() for row in eval_x}

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="without cr in the plan the cell is built [19, 19]")
    def test_lone_baseline_matches_poly_capacity(self, tmp_path):
        # README's roster: polynomial widths [8, 8] on 8 inputs and 2 classes
        # match ReLU widths [10, 10]. With cr in plan.models the cell gets them.
        text = (
            "format_version = 1\ndata.source = pima_like\nmodel.id = vanilla\n"
            "train.widths = 8, 8\ntrain.epochs = 1\n"
        )
        plan, model_id, fraction, seed = train_config_from_file(parse_config(text))
        out = train_cell(resolve_dataset(plan, str(tmp_path)), plan, model_id, fraction, seed)
        assert out.net.widths == [10, 10]


ROSTER_PLAN = (
    "format_version = 1\ndata.source = pima_like\ndata.seed = 7\n"
    "plan.models = cr, vanilla, dropout, weight_decay, relu_dreg\n"
    "plan.fractions = 0.05, 1.0\nplan.seeds = 0\n"
    "train.widths = 8, 8\ntrain.epochs = 3\ntrain.learning_rate = 0.002\ntrain.lambda_dreg = 0.5\n"
)


def float_bytes(stats):
    return [np.float64(v).tobytes() for v in dataclasses.astuple(stats)]


class TestTrajectorySwitch:
    """Logging only the last epoch changes no bit of what it logs."""

    @pytest.fixture(scope="class")
    def roster(self):
        plan = plan_from_config(parse_config(ROSTER_PLAN))
        return plan, resolve_dataset(plan)

    @pytest.mark.parametrize("fraction", [0.05, 1.0])
    @pytest.mark.parametrize("model_id", list(harness.ROSTER))
    def test_last_epoch_matches_full_trajectory(self, roster, model_id, fraction):
        plan, ds = roster
        full = train_cell(ds, plan, model_id, fraction, 0, trajectory=True)
        last = train_cell(ds, plan, model_id, fraction, 0, trajectory=False)
        assert last.net.arena.flat.tobytes() == full.net.arena.flat.tobytes()
        assert len(full.log) == 3
        assert len(last.log) == 1
        assert float_bytes(last.log[-1]) == float_bytes(full.log[-1])
        assert last.metrics() == full.metrics()

    def test_run_cell_evaluates_and_logs_only_the_last_epoch(self, roster, monkeypatch):
        plan, ds = roster
        calls = {"eval": 0, "penalty": 0, "steps": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(train_mod, "evaluate_accuracy", counted("eval", train_mod.evaluate_accuracy))
        monkeypatch.setattr(Tape, "unmasked_penalty", counted("penalty", Tape.unmasked_penalty))
        monkeypatch.setattr(train_mod, "loss_and_grads", counted("steps", train_mod.loss_and_grads))
        seen = record_training_rows(monkeypatch)
        train_cell(ds, plan, "dropout", 1.0, 0, trajectory=True)
        batches = math.ceil(seen[0][0].shape[0] / 32)
        assert calls == {"eval": 3, "penalty": 3 * batches, "steps": 3 * batches}

        calls.update(eval=0, penalty=0, steps=0)
        row = run_cell(ds, plan, "dropout", 1.0, 0)
        assert row["status"] == "ok"
        assert calls == {"eval": 1, "penalty": batches, "steps": 3 * batches}


class TestRunCell:
    def test_ok_row_has_all_fields(self, tmp_path):
        plan = smoke_plan()
        ds = resolve_dataset(plan, str(tmp_path))
        row = run_cell(ds, plan, "cr", 1.0, 0)
        assert row["status"] == "ok"
        assert row["format_version"] == 1
        for key in RESULT_FIELDS:
            assert key in row, key

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failure_becomes_row(self, tmp_path):
        text = (
            "format_version = 1\ndata.source = blobs\ndata.seed = 0\n"
            "data.n_samples = 80\nplan.models = weight_decay\nplan.fractions = 1.0\n"
            "plan.seeds = 0\ntrain.widths = 4\ntrain.epochs = 5\n"
            "train.weight_decay = 1e50\n"
        )
        plan = plan_from_config(parse_config(text))
        ds = resolve_dataset(plan, str(tmp_path))
        row = run_cell(ds, plan, "weight_decay", 1.0, 0)
        assert row["status"] == "failed"
        assert "error" in row and "wall_time_seconds" in row
        assert row["error"] == "NumericOverflowError: training diverged: non-finite training loss"
        assert (row["epoch"], row["batch"]) == (1, 1)


    @staticmethod
    def nan_glucose_plan(tmp_path, fraction, pick):
        """A pima-like CSV whose one glucose cell is ``nan``, in the row
        ``pick(train_idx, active)`` chooses, and a csv plan of it at ``fraction``."""
        ds = make_pima_like(seed=0)
        plan = plan_from_config(parse_config(
            "format_version = 1\ndata.source = csv\n"
            f"data.path = {tmp_path / 'dataset.csv'}\nplan.models = cr, vanilla\n"
            f"plan.fractions = {fraction}\nplan.seeds = 0\ntrain.epochs = 2\n"
        ))
        train_idx, _ = stratified_split(ds.labels, plan.eval_fraction, 0)
        active = subsample_fraction(train_idx, ds.labels, fraction, 0, rounding="ceil")
        ds.features[pick(train_idx, active), PIMA_FEATURES.index("glucose")] = np.nan
        save_csv(tmp_path / "dataset.csv", ds)
        return resolve_dataset(plan), plan

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_fitted_cell_fails_naming_its_column(self, tmp_path):
        ds, plan = self.nan_glucose_plan(tmp_path, 1.0, lambda train_idx, active: train_idx[0])
        assert np.isnan(ds.features).sum() == 1
        for model_id in ("cr", "vanilla"):
            row = run_cell(ds, plan, model_id, 1.0, 0)
            assert row["status"] == "failed"
            assert row["error"] == (
                "ValueError: column 'glucose' holds a non-finite value in the rows preprocessing is fitted on"
            )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_cell_outside_fitted_and_eval_rows_trains(self, tmp_path):
        ds, plan = self.nan_glucose_plan(tmp_path, 0.05, lambda train_idx, active: np.setdiff1d(train_idx, active)[0])
        clean = make_pima_like(seed=0)
        assert np.isnan(ds.features).sum() == 1
        for model_id in ("cr", "vanilla"):
            row = run_cell(ds, plan, model_id, 0.05, 0)
            assert row["status"] == "ok"
            row.pop("wall_time_seconds")
            assert row == {k: v for k, v in run_cell(clean, plan, model_id, 0.05, 0).items() if k != "wall_time_seconds"}

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_mid_run_overflow_fails_at_next_batch(self):
        # Weight decay 1e50 at lr 1e-3 scales the decayed parameters by
        # 1 - 1e47 on every step, one step per epoch here, and the
        # parameters overflow on epoch 2's step. A row skips epoch 2's eval
        # forward, so the overflow surfaces as epoch 3's training loss; the
        # full trajectory catches it in eval.
        text = (
            "format_version = 1\ndata.source = blobs\ndata.seed = 0\n"
            "data.n_samples = 400\nplan.models = weight_decay\nplan.fractions = 0.05\n"
            "plan.seeds = 0\ntrain.widths = 4\ntrain.epochs = 20\n"
            "train.weight_decay = 1e50\n"
        )
        plan = plan_from_config(parse_config(text))
        ds = resolve_dataset(plan)
        row = run_cell(ds, plan, "weight_decay", 0.05, 0)
        assert row["status"] == "failed"
        assert row["error"] == "NumericOverflowError: training diverged: non-finite training loss"
        assert (row["epoch"], row["batch"]) == (3, 0)
        with pytest.raises(NumericOverflowError) as exc:
            train_cell(ds, plan, "weight_decay", 0.05, 0, trajectory=False)
        assert (exc.value.epoch, exc.value.batch) == (3, 0)
        with pytest.raises(NumericOverflowError) as exc:
            train_cell(ds, plan, "weight_decay", 0.05, 0, trajectory=True)
        assert str(exc.value) == "evaluation diverged: non-finite values in head"
        assert (exc.value.epoch, exc.value.batch) == (2, None)


def exit_at_third_cell(ds, plan, model_id, fraction, seed):
    """A ``run_cell`` whose worker process dies at the third cell, once
    the two rows before it are in $PARTIAL_UNDER_TEST (30 s at most)."""
    index = plan.cells.index((model_id, fraction, seed))
    if index == 2:
        partial = Path(os.environ["PARTIAL_UNDER_TEST"])
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and len(read_results(partial)) < 2:
            time.sleep(0.01)
        os._exit(1)
    return {"status": "ok", "model_id": model_id, "fraction": fraction, "seed": seed, "index": index}


class TestSweep:
    def test_smoke_sweep_outputs(self, tmp_path):
        plan = smoke_plan()
        ds = resolve_dataset(plan, str(tmp_path))
        rows = sweep(plan, ds, str(tmp_path))
        assert len(rows) == 8
        assert all(r["status"] == "ok" for r in rows)
        assert [(r["model_id"], r["fraction"], r["seed"]) for r in rows] == plan.cells
        lines = (tmp_path / "results.jsonl").read_text().strip().splitlines()
        assert len(lines) == 8
        csv_lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert csv_lines[0] == ",".join(RESULT_FIELDS)
        assert len(csv_lines) == 9
        report = json.loads((tmp_path / "stats_report.json").read_text())
        assert report["models"] == ["cr", "vanilla"]
        assert (tmp_path / "stats_report.txt").read_text().startswith("== per-model")

    def test_resume_with_complete_file_reuses_all_rows(self, tmp_path):
        plan = smoke_plan()
        ds = resolve_dataset(plan, str(tmp_path))
        sweep(plan, ds, str(tmp_path))
        before = (tmp_path / "results.jsonl").read_bytes()
        sweep(plan, ds, str(tmp_path), resume=True)
        assert (tmp_path / "results.jsonl").read_bytes() == before

    def test_resume_after_crash_matches_straight_run(self, tmp_path):
        plan = smoke_plan()
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        a_dir.mkdir()
        b_dir.mkdir()
        ds = resolve_dataset(plan, str(a_dir))
        straight = sweep(plan, ds, str(a_dir))
        full_lines = (a_dir / "results.jsonl").read_text().splitlines(keepends=True)
        # simulate a crash: three finished cells plus one torn write
        (b_dir / "results.jsonl").write_text("".join(full_lines[:3]) + '{"model_id": "cr", "frac')
        resumed = sweep(plan, ds, str(b_dir), resume=True)
        assert rows_without_walltime(resumed) == rows_without_walltime(straight)
        resumed_lines = (b_dir / "results.jsonl").read_text().splitlines(keepends=True)
        assert resumed_lines[:3] == full_lines[:3]  # reused verbatim

    def test_leftover_partial_and_older_results_resume_to_straight_run(self, tmp_path):
        plan = smoke_plan()
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        a_dir.mkdir()
        b_dir.mkdir()
        ds = resolve_dataset(plan, str(a_dir))
        straight = sweep(plan, ds, str(a_dir))
        full_lines = (a_dir / "results.jsonl").read_text().splitlines(keepends=True)
        # an older finished file holding cells 0 and 6, and a run that died after cell 3
        (b_dir / "results.jsonl").write_text(full_lines[0] + full_lines[6])
        (b_dir / "results.jsonl.partial").write_text("".join(full_lines[:4]) + '{"model_id": "va')
        resumed = sweep(plan, ds, str(b_dir), resume=True)
        assert rows_without_walltime(resumed) == rows_without_walltime(straight)
        resumed_lines = (b_dir / "results.jsonl").read_text().splitlines(keepends=True)
        assert [resumed_lines[i] for i in (0, 1, 2, 3, 6)] == [full_lines[i] for i in (0, 1, 2, 3, 6)]
        assert not (b_dir / "results.jsonl.partial").exists()

    def test_without_resume_leaves_no_earlier_rows(self, tmp_path, monkeypatch):
        old_plan = smoke_plan()
        ds = resolve_dataset(old_plan, str(tmp_path))
        sweep(old_plan, ds, str(tmp_path))
        new_plan = plan_from_config(parse_config(
            (PLANS / "blobs_smoke.txt").read_text().replace("train.epochs = 15", "train.epochs = 16")))
        real_run_cell = harness.run_cell

        def crash_at_third_cell(ds, plan, *cell):
            if plan.cells.index(cell) == 2:
                raise KeyboardInterrupt
            return real_run_cell(ds, plan, *cell)

        monkeypatch.setattr(harness, "run_cell", crash_at_third_cell)
        with pytest.raises(KeyboardInterrupt):
            sweep(new_plan, ds, str(tmp_path))
        # Nothing the old plan wrote is left beside the new plan's manifest.
        for name in ("results.jsonl", "results.csv", "stats_report.json", "stats_report.txt"):
            assert not (tmp_path / name).exists(), name
        monkeypatch.undo()
        straight = sweep(new_plan, ds, str(tmp_path / "straight"))
        kept = read_results(tmp_path / "results.jsonl.partial")
        assert rows_without_walltime(kept) == rows_without_walltime(straight[:2])
        resumed = sweep(new_plan, ds, str(tmp_path), resume=True)
        assert rows_without_walltime(resumed) == rows_without_walltime(straight)

    def test_crash_during_resume_keeps_every_stored_row(self, tmp_path, monkeypatch):
        plan = smoke_plan()
        ds = resolve_dataset(plan, str(tmp_path))
        straight = sweep(plan, ds, str(tmp_path / "straight"))
        real_run_cell = harness.run_cell

        def first_run(ds, plan, *cell):  # cell 1 fails; the run dies at cell 5
            index = plan.cells.index(cell)
            if index == 5:
                raise KeyboardInterrupt
            if index == 1:
                return dict(zip(("model_id", "fraction", "seed"), cell), status="failed", error="x")
            return real_run_cell(ds, plan, *cell)

        def resume_run(ds, plan, *cell):  # dies on the failed cell, before any later row is rewritten
            if plan.cells.index(cell) == 1:
                raise KeyboardInterrupt
            return real_run_cell(ds, plan, *cell)

        monkeypatch.setattr(harness, "run_cell", first_run)
        with pytest.raises(KeyboardInterrupt):
            sweep(plan, ds, str(tmp_path))
        stored = [r for r in read_results(tmp_path / "results.jsonl.partial") if r["status"] == "ok"]
        assert len(stored) == 4  # cells 0, 2, 3 and 4
        monkeypatch.setattr(harness, "run_cell", resume_run)
        with pytest.raises(KeyboardInterrupt):
            sweep(plan, ds, str(tmp_path), resume=True)
        on_disk = [r for path in sorted(tmp_path.glob("results.jsonl*")) for r in read_results(path)]
        assert all(row in on_disk for row in stored)
        monkeypatch.undo()
        resumed = sweep(plan, ds, str(tmp_path), resume=True)
        assert rows_without_walltime(resumed) == rows_without_walltime(straight)
        lines = (tmp_path / "results.jsonl").read_text().splitlines()
        assert [json.loads(lines[i]) for i in (0, 2, 3, 4)] == stored  # reused verbatim
        assert sorted(p.name for p in tmp_path.glob("results.jsonl*")) == ["results.jsonl"]

    def test_dead_worker_keeps_every_earlier_row(self, tmp_path, monkeypatch):
        plan = smoke_plan()
        ds = resolve_dataset(plan, str(tmp_path))
        partial = tmp_path / "results.jsonl.partial"
        monkeypatch.setenv("PARTIAL_UNDER_TEST", str(partial))
        monkeypatch.setattr(harness, "run_cell", exit_at_third_cell)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool, so the exit ends a worker and not this process
        with pytest.raises(BrokenProcessPool):
            sweep(plan, ds, str(tmp_path), workers=2)
        assert [r["index"] for r in read_results(partial)] == [0, 1]
        assert not (tmp_path / "results.jsonl").exists()

    def test_parallel_matches_serial(self, tmp_path):
        plan = smoke_plan()
        s_dir, p_dir = tmp_path / "s", tmp_path / "p"
        s_dir.mkdir()
        p_dir.mkdir()
        ds = resolve_dataset(plan, str(s_dir))
        serial = sweep(plan, ds, str(s_dir), workers=1)
        parallel = sweep(plan, ds, str(p_dir), workers=2)
        assert rows_without_walltime(serial) == rows_without_walltime(parallel)

    @pytest.mark.parametrize("workers, cpus, pending, size", [
        (8, 4, 8, 4),  # capped by the CPUs
        (8, 16, 3, 3),  # capped by the pending cells
        (2, 16, 8, 2),  # as asked
        (4, None, 8, None),  # CPU count unknown: one, so no pool
        (4, 16, 1, None),  # one pending cell: no pool
    ])
    def test_pool_size_capped(self, tmp_path, monkeypatch, workers, cpus, pending, size):
        sizes = []

        class RecordingPool:
            """Maps the cells in this process, in order."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        plan = smoke_plan()
        ds = resolve_dataset(plan, str(tmp_path))
        cells = plan.cells
        done = [json.dumps(run_cell(ds, plan, *c), sort_keys=True) for c in cells[pending:]]
        (tmp_path / "results.jsonl").write_text("".join(line + "\n" for line in done))
        rows = sweep(plan, ds, str(tmp_path), workers=workers, resume=True)
        assert sizes == ([] if size is None else [size])
        assert [(r["model_id"], r["fraction"], r["seed"]) for r in rows] == cells

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergent_cells_reported_not_fatal(self, tmp_path):
        text = (
            "format_version = 1\ndata.source = blobs\ndata.seed = 0\n"
            "data.n_samples = 80\nplan.models = weight_decay, vanilla\n"
            "plan.fractions = 1.0\nplan.seeds = 0, 1\n"
            "train.widths = 4\ntrain.epochs = 5\ntrain.learning_rate = 0.01\n"
            "train.weight_decay = 1e50\n"
            "plan.comparisons = weight_decay:vanilla:tau, weight_decay:vanilla:accuracy\n"
        )
        plan = plan_from_config(parse_config(text))
        ds = resolve_dataset(plan, str(tmp_path))
        rows = sweep(plan, ds, str(tmp_path))
        by_model = {}
        for r in rows:
            by_model.setdefault(r["model_id"], []).append(r["status"])
        assert by_model["weight_decay"] == ["failed", "failed"]
        assert by_model["vanilla"] == ["ok", "ok"]
        # csv keeps only ok rows
        csv_lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 3
        report = json.loads((tmp_path / "stats_report.json").read_text())
        assert len(report["comparisons"]) == 2
        assert all(e.get("error") == "insufficient paired rows"
                   for e in report["comparisons"])


class TestReadResults:
    def test_tolerates_torn_final_line(self, tmp_path):
        p = tmp_path / "r.jsonl"
        p.write_text('{"a": 1}\n{"b": 2}\n{"c": ')
        rows = read_results(p)
        assert rows == [{"a": 1}, {"b": 2}]

    def test_missing_file_is_empty(self, tmp_path):
        assert read_results(tmp_path / "nope.jsonl") == []

    def test_unparseable_line_before_others_refused(self, tmp_path):
        p = tmp_path / "r.jsonl"
        lines = [json.dumps({"row": i}) for i in range(6)]
        lines[1] = lines[1][:5]  # cut short, as a torn write would, but mid-file
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(p))}: line 2: unparseable"):
            read_results(p)
        # Trailing blank lines do not make a torn last line a middle one.
        p.write_text("\n".join(lines[:1] + lines[2:] + lines[1:2]) + "\n\n")
        assert read_results(p) == [{"row": i} for i in (0, 2, 3, 4, 5)]

    @pytest.mark.parametrize("key, value", [("tau", math.nan), ("eval_accuracy", math.inf), ("seed", -math.inf)])
    def test_non_finite_field_refused(self, tmp_path, key, value):
        p = tmp_path / "r.jsonl"
        rows = [fake_row("cr", 1.0, s, 0.9, 2.0) for s in range(3)]
        rows[1][key] = value
        p.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert not math.isfinite(read_results(p)[1][key])  # unchecked fields pass as before
        with pytest.raises(ConfigError, match=rf"line 2: ok row needs '{key}' as a finite number"):
            read_results(p, harness._STATS_FIELDS)


def fake_row(model_id, fraction, seed, acc, tau, status="ok"):
    row = {"status": status, "model_id": model_id, "fraction": fraction, "seed": seed}
    if status == "ok":
        row.update(eval_accuracy=acc, tau=tau, mean_norm=1.0, p99_norm=tau)
    return row


class TestStatsReport:
    def build_rows(self):
        cr_acc = [0.90, 0.85, 0.95]
        cr_tau = [2.0, 2.2, 1.8]
        v_acc = [0.80, 0.82, 0.88]
        v_tau = [3.0, 3.5, 2.5]
        rows = []
        for s in range(3):
            rows.append(fake_row("cr", 1.0, s, cr_acc[s], cr_tau[s]))
            rows.append(fake_row("vanilla", 1.0, s, v_acc[s], v_tau[s]))
        return rows, (cr_acc, cr_tau, v_acc, v_tau)

    def test_orientation_and_agreement_with_direct_tests(self):
        rows, (cr_acc, cr_tau, v_acc, v_tau) = self.build_rows()
        comparisons = [("cr", "vanilla", "accuracy"), ("cr", "vanilla", "tau")]
        report = stats_report(rows, comparisons)
        acc_e, tau_e = report["comparisons"]
        # accuracy gap is a minus b; tau gap is b minus a (lower tau wins)
        assert math.isclose(acc_e["mean_gap"],
                            float(np.mean(np.array(cr_acc) - np.array(v_acc))))
        assert math.isclose(tau_e["mean_gap"],
                            float(np.mean(np.array(v_tau) - np.array(cr_tau))))
        direct_acc = paired_t_one_sided(np.array(cr_acc), np.array(v_acc))
        assert math.isclose(acc_e["t"]["p_value"], direct_acc.p_value)
        direct_tau = paired_t_one_sided(np.array(v_tau), np.array(cr_tau))
        assert math.isclose(tau_e["t"]["p_value"], direct_tau.p_value)
        direct_wx = wilcoxon_signed_rank(np.array(v_tau), np.array(cr_tau))
        assert math.isclose(tau_e["wilcoxon"]["p_value"], direct_wx.p_value)

    def test_bonferroni_family_covers_executed_instances(self):
        rows, _ = self.build_rows()
        comparisons = [("cr", "vanilla", "accuracy"), ("cr", "vanilla", "tau"), ("vanilla", "cr", "tau"),
                       ("cr", "dropout", "tau")]  # no dropout rows: never executed, so outside the family
        report = stats_report(rows, comparisons)
        assert report["bonferroni_m"] == 3
        *executed, skipped = report["comparisons"]
        assert skipped["error"] == "insufficient paired rows" and "t" not in skipped
        for e in executed:
            for name in ("t", "wilcoxon"):
                assert e[name]["bonferroni_m"] == 3
                assert e[name]["p_adjusted"] == min(1.0, 3 * e[name]["p_value"])
        # vanilla never beats cr on tau: every sign is negative, so p = 1 and 3 * p clamps to 1
        assert executed[2]["wilcoxon"]["p_value"] == 1.0
        assert executed[2]["wilcoxon"]["p_adjusted"] == 1.0
        assert 3 * executed[2]["t"]["p_value"] > 1.0 and executed[2]["t"]["p_adjusted"] == 1.0

    def test_failed_test_keeps_its_error_and_its_instance_in_the_family(self):
        # tau gaps of exactly 1: the t-test has zero variance, the Wilcoxon test runs
        rows = [fake_row(m, 1.0, s, 0.8, tau) for s in range(3) for m, tau in (("cr", 2.0), ("vanilla", 3.0))]
        report = stats_report(rows, [("cr", "vanilla", "tau")])
        entry = report["comparisons"][0]
        assert report["bonferroni_m"] == 1
        assert entry["t"] == {"error": "zero variance in paired differences"}
        assert entry["wilcoxon"] == {"statistic": 6.0, "p_value": 0.125, "p_adjusted": 0.125, "bonferroni_m": 1}
        assert "t: zero variance in paired differences, wilcoxon p=0.125 adj=0.125" in render_stats_text(report)

    def test_summary_block(self):
        rows, (cr_acc, _, _, _) = self.build_rows()
        report = stats_report(rows, [])
        block = report["summary"]["cr"]["1"]["eval_accuracy"]
        assert math.isclose(block["mean"], float(np.mean(cr_acc)))
        assert math.isclose(block["std"], float(np.std(cr_acc, ddof=1)))
        assert block["n"] == 3

    def test_close_fractions_keep_their_own_blocks(self):
        # Both print as 0.101235 under "g"; neither block may replace the other.
        rows = [fake_row(m, f, s, acc, 2.0) for m in ("cr", "vanilla") for s in range(2)
                for f, acc in ((0.1012345, 0.6), (0.1012346, 0.9))]
        report = stats_report(rows, [("cr", "vanilla", "accuracy")])
        blocks = report["summary"]["cr"]
        assert sorted(blocks) == ["0.1012345", "0.1012346"]
        assert blocks["0.1012345"]["eval_accuracy"]["mean"] == 0.6
        assert blocks["0.1012346"]["eval_accuracy"]["mean"] == 0.9
        text = render_stats_text(report)
        for f in ("0.1012345", "0.1012346"):
            assert f"f={f}  acc" in text and f"[accuracy] f={f}:" in text

    def test_missing_and_failed_cells_tracked(self):
        rows, _ = self.build_rows()
        rows = [r for r in rows if not (r["model_id"] == "vanilla" and r["seed"] == 2)]
        rows.append(fake_row("vanilla", 1.0, 2, 0.0, 0.0, status="failed"))
        report = stats_report(rows, [("cr", "vanilla", "accuracy")])
        entry = report["comparisons"][0]
        assert entry["n_pairs"] == 2
        assert entry["missing_cells"] == [["vanilla", 1.0, 2]]

    def test_single_pair_reports_insufficient(self):
        rows = [fake_row("cr", 1.0, 0, 0.9, 2.0), fake_row("vanilla", 1.0, 0, 0.8, 3.0)]
        report = stats_report(rows, [("cr", "vanilla", "accuracy")])
        assert report["comparisons"][0]["error"] == "insufficient paired rows"

    def test_pooled_aggregates_across_fractions(self):
        rows, _ = self.build_rows()
        for s in range(3):
            rows.append(fake_row("cr", 0.5, s, 0.7 + 0.01 * s, 2.5))
            rows.append(fake_row("vanilla", 0.5, s, 0.6 + 0.01 * s, 3.5))
        report = stats_report(rows, [("cr", "vanilla", "accuracy")])
        pooled = report["pooled"][0]
        assert pooled["n_pairs"] == 6
        assert pooled["mean_gap"] > 0

    def test_render_text_mentions_each_comparison(self):
        rows, _ = self.build_rows()
        report = stats_report(rows, [("cr", "vanilla", "tau")])
        text = render_stats_text(report)
        assert "cr vs vanilla [tau]" in text
        assert "== per-model summary" in text
        assert "== pooled over fractions ==" in text
