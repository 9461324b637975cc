import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import identity_coeffs, make_net
from oracle import cross_entropy, forward_values
from polygrad.checkpoint import load_checkpoint, save_checkpoint
from polygrad.cli import _eval_view, main
from polygrad.data import PIMA_LABEL, fit_preprocess, load_csv, make_pima_like, stratified_split
from polygrad.config import load_config
from polygrad.harness import plan_from_config, read_results
from polygrad.linalg import Rng
from polygrad.polynet import Net

ROOT = Path(__file__).resolve().parent.parent
PLAN = ROOT / "plans" / "blobs_smoke.txt"


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    code = main(["sweep", "--plan", str(PLAN), "--out", str(out)])
    assert code == 0
    rows = read_results(out / "results.jsonl")
    assert len(rows) == 8 and all(r["status"] == "ok" for r in rows)
    return out, rows


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    code = main(["train", "--config", str(PLAN), "--out", str(out)])
    assert code == 0
    return out, json.loads((out / "summary.json").read_text())


class TestTrain:
    def test_artifacts_and_stdout(self, trained, capsys):
        out, summary = trained
        for name in ("checkpoint.json", "trainlog.jsonl", "summary.json", "dataset.csv"):
            assert (out / name).exists(), name
        assert summary["model_id"] == "cr"
        assert summary["fraction"] == 1.0
        assert summary["seed"] == 0
        log_lines = (out / "trainlog.jsonl").read_text().strip().splitlines()
        assert len(log_lines) == 15  # one record per epoch
        first = json.loads(log_lines[0])
        assert set(first) == {"epoch", "task_loss", "penalty", "eval_accuracy"}

    def test_rerun_is_byte_identical(self, trained, tmp_path, capsys):
        out, _ = trained
        again = tmp_path / "again"
        assert main(["train", "--config", str(PLAN), "--out", str(again)]) == 0
        for name in ("checkpoint.json", "summary.json", "trainlog.jsonl", "dataset.csv"):
            assert (again / name).read_bytes() == (out / name).read_bytes(), name

    def test_stdout_matches_summary_file(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["train", "--config", str(PLAN), "--out", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert printed == json.loads((out / "summary.json").read_text())

    def test_overrides_reproduce_sweep_cell(self, smoke_run, tmp_path, capsys):
        _, rows = smoke_run
        target = next(r for r in rows if (r["model_id"], r["fraction"], r["seed"])
                      == ("vanilla", 0.5, 1))
        out = tmp_path / "cell"
        code = main(["train", "--config", str(PLAN), "--model", "vanilla",
                     "--fraction", "0.5", "--seed", "1", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["eval_accuracy"] == target["eval_accuracy"]
        assert summary["tau"] == target["tau"]
        assert summary["final_task_loss"] == target["final_task_loss"]


class TestEval:
    def test_accuracy_matches_training_summary(self, trained, capsys):
        out, summary = trained
        code = main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                     "--data", str(out / "dataset.csv")])
        assert code == 0
        printed = json.loads(capsys.readouterr().out.strip())
        assert printed["accuracy"] == summary["eval_accuracy"]
        assert printed["eval_rows"] == 24  # ceil(0.2 * 40) per blob class

    def test_task_loss_equals_the_oracle_cross_entropy(self, trained, capsys):
        out, _ = trained
        code = main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                     "--data", str(out / "dataset.csv")])
        assert code == 0
        printed = json.loads(capsys.readouterr().out.strip())
        bundle = load_checkpoint(out / "checkpoint.json")
        X, y, _ = _eval_view(bundle, load_csv(out / "dataset.csv", PIMA_LABEL))
        logits, _ = forward_values(bundle.net, X)
        assert np.float64(printed["task_loss"]).tobytes() == np.float64(cross_entropy(logits, y)).tobytes()

    @pytest.mark.parametrize("activation", ["poly", "relu"])
    def test_overflow_names_the_layer(self, trained, tmp_path, capsys, activation):
        # Layer 0 outputs its bias, 1e200, on every row; layer 1 scales it by 1e200.
        out, _ = trained
        coeffs = identity_coeffs(1) if activation == "poly" else None
        layers = [(np.zeros((1, 2)), np.array([1e200]), coeffs), (np.array([[1e200]]), np.zeros(1), coeffs)]
        ck = tmp_path / "overflow.json"
        save_checkpoint(ck, make_net(layers, np.ones((3, 1)), np.zeros(3)))
        code = main(["eval", "--checkpoint", str(ck), "--data", str(out / "dataset.csv")])
        assert code == 1
        assert capsys.readouterr().err == "error: non-finite values in layer 1\n"

    def test_schema_mismatch_is_reported(self, trained, tmp_path, capsys):
        out, _ = trained
        renamed = tmp_path / "renamed.csv"
        lines = (out / "dataset.csv").read_text().splitlines()
        lines[0] = "a,b,outcome"
        renamed.write_text("\n".join(lines) + "\n")
        code = main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                     "--data", str(renamed)])
        assert code == 1
        assert "schema" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "tailratio"])
def test_more_classes_than_checkpoint_refused(trained, tmp_path, capsys, command):
    out, _ = trained
    lines = (out / "dataset.csv").read_text().splitlines()
    for i in range(1, 6):  # blobs_smoke has 3 classes; a fourth label appears
        lines[i] = lines[i].rsplit(",", 1)[0] + ",5"
    extra = tmp_path / "extra.csv"
    extra.write_text("\n".join(lines) + "\n")
    argv = [command, "--checkpoint", str(out / "checkpoint.json"), "--data", str(extra)]
    code = main(argv + (["--out", str(tmp_path / "tr")] if command == "tailratio" else []))
    assert code == 1
    assert "4 classes, more than the checkpoint's 3" in capsys.readouterr().err


class TestEvalView:
    @pytest.mark.parametrize("with_preprocess, provenance", [
        (True, {"seed": 3, "eval_fraction": 0.25}),
        (False, {"seed": 3}),
        (True, {}),
    ], ids=["preprocess", "raw", "no-seed"])
    def test_equals_transform_all_then_index(self, tmp_path, with_preprocess, provenance):
        ds = make_pima_like(seed=7, n_samples=300)
        stats = fit_preprocess(ds.features, ds.feature_names, np.arange(ds.n)) if with_preprocess else None
        ck = tmp_path / "ck.json"
        save_checkpoint(ck, Net.build(Rng(0), ds.d, [4], 2), provenance, stats)
        X, y, eval_idx = _eval_view(load_checkpoint(ck), ds)

        full = stats.transform(ds.features) if stats is not None else ds.features
        if "seed" in provenance:
            _, want_idx = stratified_split(ds.labels, provenance.get("eval_fraction", 0.2),
                                           provenance["seed"])
        else:
            want_idx = np.arange(ds.n)
        np.testing.assert_array_equal(eval_idx, want_idx)
        assert X.shape == full[want_idx].shape
        assert X.tobytes() == full[want_idx].tobytes()
        np.testing.assert_array_equal(y, ds.labels[want_idx])


class TestTailRatio:
    def test_report_consistent_with_summary(self, trained, tmp_path, capsys):
        out, summary = trained
        dest = tmp_path / "tr"
        code = main(["tailratio", "--checkpoint", str(out / "checkpoint.json"),
                     "--data", str(out / "dataset.csv"), "--out", str(dest)])
        assert code == 0
        assert capsys.readouterr().out.startswith("tau = ")
        report = json.loads((dest / "tailratio.json").read_text())
        assert report["tau"] == summary["tau"]
        assert report["n"] == report["eval_rows"] == 24
        assert sum(report["histogram"]["counts"]) + report["zero_count"] == report["n"]
        assert len(report["histogram"]["log_bin_edges"]) == len(report["histogram"]["counts"]) + 1

    def test_all_zero_gradients_fail_cleanly(self, trained, tmp_path, capsys):
        out, _ = trained
        net = Net.build(Rng(0), 2, [3], 3)
        for arr in net.parameters().values():
            arr[:] = 0.0
        ck = tmp_path / "zero.json"
        save_checkpoint(ck, net)
        code = main(["tailratio", "--checkpoint", str(ck),
                     "--data", str(out / "dataset.csv"), "--out", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestStats:
    def test_without_plan_defaults_to_roster_comparisons(self, smoke_run, tmp_path, capsys):
        out, _ = smoke_run
        dest = tmp_path / "st"
        code = main(["stats", "--results", str(out / "results.jsonl"), "--out", str(dest)])
        assert code == 0
        report = json.loads((dest / "stats_report.json").read_text())
        pairs = {(e["model_a"], e["model_b"], e["metric"]) for e in report["comparisons"]}
        assert pairs == {("cr", "vanilla", "tau"), ("cr", "vanilla", "accuracy")}
        assert "== per-model summary" in capsys.readouterr().out

    def test_with_plan_uses_declared_comparisons(self, smoke_run, tmp_path, capsys):
        out, _ = smoke_run
        dest = tmp_path / "st2"
        code = main(["stats", "--results", str(out / "results.jsonl"),
                     "--plan", str(PLAN), "--out", str(dest)])
        assert code == 0
        report = json.loads((dest / "stats_report.json").read_text())
        # 2 comparisons x 2 fractions
        assert len(report["comparisons"]) == 4
        assert report["bonferroni_m"] == 4

    def test_matches_sweep_report(self, smoke_run, tmp_path, capsys):
        out, _ = smoke_run
        dest = tmp_path / "st3"
        main(["stats", "--results", str(out / "results.jsonl"),
              "--plan", str(PLAN), "--out", str(dest)])
        capsys.readouterr()
        assert ((dest / "stats_report.json").read_bytes()
                == (out / "stats_report.json").read_bytes())

    def test_warnings_keep_close_fractions_apart(self, tmp_path, capsys):
        # Both fractions print as 0.101235 under "g"; each warning names its own.
        rows = [{"status": "ok", "model_id": m, "fraction": f, "seed": s, "eval_accuracy": 0.8,
                 "tau": 2.0, "mean_norm": 1.0, "p99_norm": 2.0}
                for f in (0.1012345, 0.1012346) for m in ("cr", "vanilla") for s in range(2)
                if (m, s) != ("vanilla", 1)]
        results = tmp_path / "results.jsonl"
        results.write_text("".join(json.dumps(r) + "\n" for r in rows))
        code = main(["stats", "--results", str(results), "--out", str(tmp_path / "st")])
        assert code == 0
        warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 4
        for f in ("0.1012345", "0.1012346"):
            assert sum(f" f={f}: " in line for line in warnings) == 2

    def test_empty_results_error(self, tmp_path, capsys):
        code = main(["stats", "--results", str(tmp_path / "none.jsonl"),
                     "--out", str(tmp_path)])
        assert code == 1
        assert "no result rows" in capsys.readouterr().err


class TestSweepCommand:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exit_code_one_when_cells_fail(self, tmp_path, capsys):
        plan = tmp_path / "bad_plan.txt"
        plan.write_text(
            "format_version = 1\ndata.source = blobs\ndata.seed = 0\n"
            "data.n_samples = 80\nplan.models = weight_decay\nplan.fractions = 1.0\n"
            "plan.seeds = 0\ntrain.widths = 4\ntrain.epochs = 5\n"
            "train.weight_decay = 1e50\n"
        )
        code = main(["sweep", "--plan", str(plan), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "0/1 cells ok" in capsys.readouterr().out

    def test_resume_flag_reuses_rows(self, smoke_run, capsys):
        out, _ = smoke_run
        before = (out / "results.jsonl").read_bytes()
        code = main(["sweep", "--plan", str(PLAN), "--out", str(out), "--resume"])
        assert code == 0
        assert (out / "results.jsonl").read_bytes() == before


class TestResumeManifest:
    """``manifest.json`` pins the plan hash a sweep directory was written by."""

    @staticmethod
    def copy_run(out, dest, names=("dataset.csv", "manifest.json", "results.jsonl")):
        dest.mkdir()
        for name in names:
            (dest / name).write_bytes((out / name).read_bytes())
        return dest

    def test_sweep_writes_plan_hash(self, smoke_run):
        out, _ = smoke_run
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["plan_hash"] == plan_from_config(load_config(PLAN)).plan_hash

    def test_matching_hash_resumes(self, smoke_run, tmp_path):
        out, _ = smoke_run
        dest = self.copy_run(out, tmp_path / "o")
        rows = (out / "results.jsonl").read_text().splitlines()
        (dest / "results.jsonl").write_text("\n".join(rows[:3]) + "\n")
        code = main(["sweep", "--plan", str(PLAN), "--out", str(dest), "--resume"])
        assert code == 0
        resumed = (dest / "results.jsonl").read_text().splitlines()
        assert resumed[:3] == rows[:3] and len(resumed) == len(rows)

    def test_different_hash_refused(self, smoke_run, tmp_path, capsys):
        out, _ = smoke_run
        dest = self.copy_run(out, tmp_path / "o")
        old_hash = json.loads((out / "manifest.json").read_text())["plan_hash"]
        edited = tmp_path / "edited.txt"
        edited.write_text(PLAN.read_text().replace("train.epochs = 15", "train.epochs = 16"))
        before = (dest / "results.jsonl").read_bytes()
        code = main(["sweep", "--plan", str(edited), "--out", str(dest), "--resume"])
        assert code == 1
        err = capsys.readouterr().err
        new_hash = plan_from_config(load_config(edited)).plan_hash
        assert new_hash != old_hash
        assert err.startswith("error:") and old_hash in err and new_hash in err
        assert (dest / "results.jsonl").read_bytes() == before
        assert json.loads((dest / "manifest.json").read_text())["plan_hash"] == old_hash

    @pytest.mark.parametrize("text", ["{", "[]"])
    def test_unreadable_manifest_refused(self, smoke_run, tmp_path, capsys, text):
        out, _ = smoke_run
        dest = self.copy_run(out, tmp_path / "o", ("dataset.csv", "results.jsonl"))
        (dest / "manifest.json").write_text(text)
        before = (dest / "results.jsonl").read_bytes()
        code = main(["sweep", "--plan", str(PLAN), "--out", str(dest), "--resume"])
        assert code == 1
        assert "manifest.json" in capsys.readouterr().err
        assert (dest / "results.jsonl").read_bytes() == before

    def test_missing_manifest_resumes_as_before(self, smoke_run, tmp_path):
        out, _ = smoke_run
        dest = self.copy_run(out, tmp_path / "o", ("dataset.csv", "results.jsonl"))
        before = (dest / "results.jsonl").read_bytes()
        code = main(["sweep", "--plan", str(PLAN), "--out", str(dest), "--resume"])
        assert code == 0
        assert (dest / "results.jsonl").read_bytes() == before
        assert (dest / "manifest.json").read_bytes() == (out / "manifest.json").read_bytes()


class TestStaleData:
    @pytest.mark.parametrize("flags", [[], ["--resume"]])
    def test_dataset_of_another_data_seed_refused(self, smoke_run, tmp_path, capsys, flags):
        out, _ = smoke_run
        dest = TestResumeManifest.copy_run(out, tmp_path / "o")
        before = {p.name: p.read_bytes() for p in dest.iterdir()}
        plan = tmp_path / "seed5.txt"
        plan.write_text(PLAN.read_text().replace("data.seed = 0", "data.seed = 5"))
        code = main(["sweep", "--plan", str(plan), "--out", str(dest)] + flags)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(dest / "dataset.csv") in err
        assert {p.name: p.read_bytes() for p in dest.iterdir()} == before


class TestInterruptedSweep:
    def test_sigkill_then_resume_matches_straight_run(self, tmp_path, capsys):
        plan = tmp_path / "plan.txt"
        plan.write_text(PLAN.read_text().replace("train.epochs = 15", "train.epochs = 600"))
        straight, killed = tmp_path / "straight", tmp_path / "killed"
        assert main(["sweep", "--plan", str(plan), "--out", str(straight)]) == 0
        full = (straight / "results.jsonl").read_text().splitlines(keepends=True)

        partial = killed / "results.jsonl.partial"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
        argv = [sys.executable, "-m", "polygrad.cli", "sweep", "--plan", str(plan), "--out", str(killed)]
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and proc.poll() is None and len(read_results(partial)) < 3:
                time.sleep(0.005)
            proc.send_signal(signal.SIGKILL)
            assert proc.wait(timeout=30) == -signal.SIGKILL, "the sweep ended before it was killed"
        finally:
            proc.kill()
            proc.wait(timeout=30)
        kept = [line for line in partial.read_text().splitlines(keepends=True) if line.endswith("\n")]
        assert 3 <= len(kept) < len(full)
        assert not (killed / "results.jsonl").exists()

        assert main(["sweep", "--plan", str(plan), "--out", str(killed), "--resume"]) == 0
        strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_time_seconds"} for r in rows]
        assert strip(read_results(killed / "results.jsonl")) == strip(read_results(straight / "results.jsonl"))
        assert (killed / "results.jsonl").read_text().splitlines(keepends=True)[: len(kept)] == kept


class TestErrorPaths:
    def test_config_error_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("format_version = 1\ntrain.epochz = 3\n")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "train.epochz" in capsys.readouterr().err

    def test_checkpoint_missing_field(self, trained, tmp_path, capsys):
        out, _ = trained
        ck = tmp_path / "bare.json"
        ck.write_text('{"format_version": 1}')
        code = main(["eval", "--checkpoint", str(ck), "--data", str(out / "dataset.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'kind'" in err

    def test_checkpoint_wrong_field_type(self, trained, tmp_path, capsys):
        out, _ = trained
        obj = json.loads((out / "checkpoint.json").read_text())
        obj["widths"] = 5
        ck = tmp_path / "typed.json"
        ck.write_text(json.dumps(obj))
        code = main(["eval", "--checkpoint", str(ck), "--data", str(out / "dataset.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'widths'" in err

    @pytest.mark.parametrize("field, value", [
        ("seed", [1]),
        ("seed", 1.5),
        ("seed", True),
        ("seed", "1"),
        ("eval_fraction", "abc"),
        ("eval_fraction", None),
        ("eval_fraction", 1.5),
        ("eval_fraction", 0),
    ], ids=["seed-list", "seed-float", "seed-bool", "seed-str", "fraction-str", "fraction-null", "fraction-1.5",
            "fraction-0"])
    @pytest.mark.parametrize("command", ["eval", "tailratio"])
    def test_malformed_provenance_refused(self, trained, tmp_path, capsys, command, field, value):
        out, _ = trained
        obj = json.loads((out / "checkpoint.json").read_text())
        obj["provenance"][field] = value
        ck = tmp_path / "provenance.json"
        ck.write_text(json.dumps(obj))
        argv = [command, "--checkpoint", str(ck), "--data", str(out / "dataset.csv")]
        code = main(argv + (["--out", str(tmp_path / "tr")] if command == "tailratio" else []))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"provenance.{field}" in err

    @pytest.mark.parametrize("line, key", [
        ("train.learning_rate = nan", "train.learning_rate"),
        ("data.eval_fraction = 1.5", "data.eval_fraction"),
    ])
    def test_bad_plan_value_fails_before_any_cell(self, tmp_path, capsys, line, key):
        plan = tmp_path / "plan.txt"
        plan.write_text(PLAN.read_text() + line + "\n")
        out = tmp_path / "o"
        code = main(["sweep", "--plan", str(plan), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not (out / "results.jsonl").exists()

    @pytest.mark.parametrize("fraction", ["1.5", "0"])
    def test_train_fraction_out_of_range_fails_before_out(self, tmp_path, capsys, fraction):
        out = tmp_path / "o"
        code = main(["train", "--config", str(PLAN), "--fraction", fraction, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {PLAN}: key 'data.fraction'")
        assert not out.exists()

    def test_zero_workers_rejected(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["sweep", "--plan", str(PLAN), "--out", str(out), "--workers", "0"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: workers must be >= 1")
        assert not out.exists()

    @pytest.mark.parametrize("line, key", [
        ("train.learning_rate = 0", "train.learning_rate"),
        ("train.learning_rate = -0.1", "train.learning_rate"),
        ("train.batch_size = 0", "train.batch_size"),
        ("train.epochs = 0", "train.epochs"),
        ("train.weight_decay = -1", "train.weight_decay"),
        ("train.lambda_dreg = -0.5", "train.lambda_dreg"),
        ("train.dropout_rate = 1.0", "train.dropout_rate"),
        ("data.n_samples = 2", "data.n_samples"),
        ("data.classes = 1", "data.classes"),
        ("data.dim = 1", "data.dim"),
        ("train.batch_size = many", "train.batch_size"),
    ])
    def test_out_of_range_value_names_key(self, tmp_path, capsys, line, key):
        plan = tmp_path / "plan.txt"
        plan.write_text(
            "format_version = 1\ndata.source = blobs\n"
            "plan.models = cr, vanilla, dropout, weight_decay, relu_dreg\n"
            "plan.fractions = 1.0\nplan.seeds = 0\n" + line + "\n"
        )
        out = tmp_path / "o"
        code = main(["sweep", "--plan", str(plan), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {plan}: key {key!r}")
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("plan.models", "cr, vanilla, cr"),
        ("plan.fractions", "0.5, 1.0, 0.50"),
        ("plan.seeds", "0, 0, 1"),
        ("plan.comparisons", "cr:vanilla:tau, cr:vanilla:accuracy, cr : vanilla : tau"),
    ])
    def test_repeated_plan_entry_fails_before_any_output(self, tmp_path, capsys, key, value):
        lines = {"plan.models": "cr, vanilla", "plan.fractions": "1.0", "plan.seeds": "0", key: value}
        plan = tmp_path / "plan.txt"
        plan.write_text("format_version = 1\ndata.source = blobs\n"
                        + "".join(f"{k} = {v}\n" for k, v in lines.items()))
        out = tmp_path / "o"
        code = main(["sweep", "--plan", str(plan), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {plan}: key {key!r}") and "more than once" in err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, edit", [
        ("stats", lambda row: [1, 2]),
        ("stats", lambda row: {k: v for k, v in row.items() if k != "fraction"}),
        ("stats", lambda row: {**row, "eval_accuracy": "abc"}),
        ("resume", lambda row: {k: v for k, v in row.items() if k != "seed"}),
        ("resume", lambda row: {k: v for k, v in row.items() if k != "final_task_loss"}),
        ("stats", lambda row: {**row, "tau": float("nan")}),
        ("resume", lambda row: {**row, "final_penalty": float("inf")}),
    ], ids=["stats-list", "stats-no-fraction", "stats-str-accuracy", "resume-no-seed", "resume-no-task-loss",
            "stats-nan-tau", "resume-inf-penalty"])
    def test_malformed_results_row_refused(self, smoke_run, tmp_path, capsys, command, edit):
        out, _ = smoke_run
        dest = TestResumeManifest.copy_run(out, tmp_path / "o")
        results = dest / "results.jsonl"
        lines = results.read_text().splitlines()
        lines[2] = json.dumps(edit(json.loads(lines[2])), sort_keys=True)
        results.write_text("\n".join(lines) + "\n")
        before = results.read_bytes()
        if command == "stats":
            argv = ["stats", "--results", str(results), "--out", str(tmp_path / "st")]
        else:
            argv = ["sweep", "--plan", str(PLAN), "--out", str(dest), "--resume"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {results}: line 3: ")
        # Nothing is moved, rewritten or derived from the refused table.
        assert results.read_bytes() == before
        assert sorted(p.name for p in dest.iterdir()) == ["dataset.csv", "manifest.json", "results.jsonl"]
        assert not (tmp_path / "st").exists()


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "polygrad.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        for word in ("train", "sweep", "tailratio", "stats", "eval"):
            assert word in proc.stdout

    def test_console_script(self):
        proc = subprocess.run(["polygrad", "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "usage: polygrad" in proc.stdout
