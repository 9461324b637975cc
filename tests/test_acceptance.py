"""End-to-end acceptance checks for the shipped guarantees.

Each test prints one ``[acceptance NN] PASS/FAIL - detail`` line so a
full run doubles as a verification report. The slow tests share one
module-scoped sweep of plans/pima_sweep.txt (150 cells, a few minutes
with two workers); everything else runs in seconds.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import fd_gradient, rel_err
from polygrad.cli import main
from polygrad.config import load_config
from polygrad.harness import plan_from_config, read_results, resolve_dataset, sweep
from polygrad.linalg import Rng, derive_seed
from polygrad.metrics import paired_t_one_sided, tail_ratio, wilcoxon_signed_rank
from polygrad.polynet import Net, forward_dual, forward_values
from polygrad.train import TrainConfig, loss_and_grads, objective_value

PLANS = Path(__file__).resolve().parent.parent / "plans"


def verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance {num:02d}: {detail}"


@pytest.fixture(scope="module")
def pima_results(tmp_path_factory):
    plan = plan_from_config(load_config(PLANS / "pima_sweep.txt"))
    out = tmp_path_factory.mktemp("pima_sweep")
    ds = resolve_dataset(plan, str(out))
    t0 = time.perf_counter()
    rows = sweep(plan, ds, str(out), workers=2)
    elapsed = time.perf_counter() - t0
    return plan, rows, out, elapsed


def ok_rows(rows, model=None, fraction=None):
    picked = [r for r in rows if r["status"] == "ok"]
    if model is not None:
        picked = [r for r in picked if r["model_id"] == model]
    if fraction is not None:
        picked = [r for r in picked if r["fraction"] == fraction]
    return picked


def mean_metric(rows, model, fraction, key):
    vals = [r[key] for r in ok_rows(rows, model, fraction)]
    return float(np.mean(vals)) if vals else float("nan")


def test_01_jacobian_stream_matches_finite_differences(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    n_configs = 100
    for i in range(n_configs):
        rng = Rng(derive_seed("jac-cfg", str(i)))
        d = int(rng.integers(1, 9))
        depth = int(rng.integers(1, 5))
        widths = [int(w) for w in rng.integers(1, 17, depth)]
        classes = int(rng.integers(2, 5))
        net = Net.build(rng.spawn("net"), d, widths, classes)
        x = rng.spawn("x").standard_normal(3, d)
        _, blocks = forward_dual(net, x)
        step = 1e-6
        for b in range(x.shape[0]):
            for j in range(d):
                xp = x.copy()
                xp[b, j] += step
                xm = x.copy()
                xm[b, j] -= step
                fp, _ = forward_values(net, xp)
                fm, _ = forward_values(net, xm)
                fd = (fp[b] - fm[b]) / (2 * step)
                worst = max(worst, rel_err(blocks[-1][b, :, j], fd))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    verdict(capsys, 1, ok,
            f"head_jacobian vs central differences: max rel err {worst:.3e} "
            f"over {n_configs} configs (d<=8, widths<=16, depth<=4) in {elapsed:.1f}s")


def test_02_full_objective_gradients_match_finite_differences(capsys):
    t0 = time.perf_counter()
    rng = Rng(derive_seed("grad-exact"))
    poly = Net.build(rng.spawn("poly"), 4, [6, 5], 3)
    relu = Net.build(rng.spawn("relu"), 4, [6, 5], 3, activation="relu")
    x = rng.spawn("x").standard_normal(8, 4)
    y = np.arange(8) % 3
    n_params = poly.arena.size
    worst = 0.0
    for lam in (0.0, 0.01, 0.1, 1.0):
        for net in (poly, relu):
            cfg = TrainConfig(lambda_dreg=lam)
            bundle = loss_and_grads(net, x, y, cfg)
            for name, arr in net.parameters().items():
                fd = fd_gradient(lambda: objective_value(net, x, y, cfg), arr)
                worst = max(worst, rel_err(bundle.grads[name], fd))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and n_params <= 500 and elapsed < 120.0
    verdict(capsys, 2, ok,
            f"composite-loss gradients (W, b, c0..c3, head; lambda in 0/0.01/0.1/1): "
            f"max rel err {worst:.3e} on {n_params}-parameter nets in {elapsed:.1f}s")


def test_03_tail_ratio_oracle(capsys):
    report = tail_ratio(np.arange(1.0, 101.0))
    err = max(abs(report.p99 - 99.01), abs(report.mean - 50.5),
              abs(report.tau - 99.01 / 50.5))
    constant = tail_ratio(np.full(64, 2.5)).tau
    ok = err <= 1e-12 and constant == 1.0
    verdict(capsys, 3, ok,
            f"tau on 1..100: p99 {report.p99}, mean {report.mean}, "
            f"tau err {err:.2e}; constant sequence tau == {constant}")


def test_04_wilcoxon_matches_enumeration_bit_for_bit(capsys):
    checked = 0
    exact_everywhere = True
    for n in (3, 5, 8):
        mags = np.arange(1.0, n + 1.0)  # distinct, so ranks equal magnitudes
        all_w = [float(np.dot(mags, bits)) for bits in itertools.product((0, 1), repeat=n)]
        for bits in itertools.product((-1, 1), repeat=n):
            diffs = mags * np.array(bits, dtype=np.float64)
            res = wilcoxon_signed_rank(diffs, np.zeros(n))
            w_obs = float(np.dot(mags, (np.array(bits) > 0).astype(np.float64)))
            enum_p = sum(1 for w in all_w if w >= w_obs) / 2.0 ** n
            if res.statistic != w_obs or res.p_value != enum_p:
                exact_everywhere = False
            checked += 1
    verdict(capsys, 4, exact_everywhere,
            f"exact signed-rank p equals full 2^n enumeration for all "
            f"{checked} sign patterns at n in {{3, 5, 8}}")


def test_05_tau_separation_on_surrogate_sweep(pima_results, capsys):
    plan, rows, _, elapsed = pima_results
    directions = []
    for f in plan.fractions:
        cr_tau = mean_metric(rows, "cr", f, "tau")
        v_tau = mean_metric(rows, "vanilla", f, "tau")
        directions.append((f, cr_tau, v_tau, cr_tau < v_tau))
    all_directional = all(d[3] for d in directions)

    by_cell = {(r["model_id"], r["fraction"], r["seed"]): r for r in ok_rows(rows)}
    cr_vals, v_vals = [], []
    for f in plan.fractions:
        for s in plan.seeds:
            a = by_cell.get(("cr", f, s))
            b = by_cell.get(("vanilla", f, s))
            if a and b:
                cr_vals.append(a["tau"])
                v_vals.append(b["tau"])
    gap = float(np.mean(np.array(v_vals) - np.array(cr_vals)))
    res = paired_t_one_sided(np.array(v_vals), np.array(cr_vals))
    m = len(plan.fractions)  # Bonferroni family: the per-fraction comparisons
    p_adj = min(1.0, m * res.p_value)

    ok = all_directional and gap >= 0.02 and p_adj < 0.05 and elapsed < 1200.0
    dir_txt = ", ".join(f"f={f:g} {c:.3f}<{v:.3f}" for f, c, v, _ in directions)
    verdict(capsys, 5, ok,
            f"mean tau cubic < relu at every fraction ({dir_txt}); pooled gap "
            f"{gap:+.4f} over {len(cr_vals)} pairs, one-sided paired t "
            f"p={res.p_value:.2e} adj(m={m})={p_adj:.2e}; sweep {elapsed:.0f}s")


def test_06_full_data_accuracy_band(pima_results, capsys):
    _, rows, _, _ = pima_results
    cr_acc = mean_metric(rows, "cr", 1.0, "eval_accuracy")
    v_acc = mean_metric(rows, "vanilla", 1.0, "eval_accuracy")
    ok = 0.78 <= cr_acc <= 0.90 and cr_acc >= v_acc - 0.01
    verdict(capsys, 6, ok,
            f"cubic-net mean accuracy at full data {cr_acc:.4f} in [0.78, 0.90] "
            f"and >= relu mean {v_acc:.4f} - 1pp (6 seeds)")


def test_07_small_fraction_direction(pima_results, capsys):
    _, rows, _, _ = pima_results
    pieces = []
    ok = True
    for f in (0.05, 0.1):
        cr_acc = mean_metric(rows, "cr", f, "eval_accuracy")
        v_acc = mean_metric(rows, "vanilla", f, "eval_accuracy")
        ok = ok and cr_acc >= v_acc
        pieces.append(f"f={f:g}: {cr_acc:.4f} vs {v_acc:.4f}")
    verdict(capsys, 7, ok,
            "cubic-net mean accuracy >= relu at the small fractions (" + "; ".join(pieces) + ")")


def test_08_regularized_relu_substrate_runs_and_reports(pima_results, capsys):
    plan, rows, out, _ = pima_results
    dreg_rows = ok_rows(rows, "relu_dreg")
    executed = len(dreg_rows) == len(plan.fractions) * len(plan.seeds)

    stats_out = out / "stats_cli"
    code = main(["stats", "--results", str(out / "results.jsonl"),
                 "--plan", str(PLANS / "pima_sweep.txt"), "--out", str(stats_out)])
    capsys.readouterr()  # swallow the report text the command prints
    report = json.loads((stats_out / "stats_report.json").read_text())
    emitted = {(e["model_a"], e["model_b"], e["metric"]) for e in report["comparisons"]}
    has_both = {("cr", "relu_dreg", "tau"), ("cr", "relu_dreg", "accuracy")} <= emitted
    acc = float(np.mean([r["eval_accuracy"] for r in dreg_rows])) if dreg_rows else float("nan")
    tau = float(np.mean([r["tau"] for r in dreg_rows])) if dreg_rows else float("nan")

    ok = executed and code == 0 and has_both
    verdict(capsys, 8, ok,
            f"relu+penalty model: {len(dreg_rows)}/{len(plan.fractions) * len(plan.seeds)} "
            f"cells ok (mean acc {acc:.4f}, mean tau {tau:.4f}); stats command emits "
            f"both cubic-vs-relu_dreg comparisons")


def test_09_smoke_determinism_and_resume(tmp_path, capsys):
    t0 = time.perf_counter()
    plan = plan_from_config(load_config(PLANS / "blobs_smoke.txt"))
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    a_dir.mkdir()
    b_dir.mkdir()
    ds = resolve_dataset(plan, str(a_dir))
    straight = sweep(plan, ds, str(a_dir))
    first = (a_dir / "results.jsonl").read_bytes()
    sweep(plan, ds, str(a_dir), resume=True)
    rerun_identical = (a_dir / "results.jsonl").read_bytes() == first

    lines = first.decode().splitlines(keepends=True)
    (b_dir / "results.jsonl").write_text("".join(lines[:3]) + '{"model_id": "cr", "frac')
    resumed = sweep(plan, ds, str(b_dir), resume=True)
    strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_time_seconds"}
                          for r in rows]
    crash_equivalent = strip(resumed) == strip(straight)
    reused_verbatim = (b_dir / "results.jsonl").read_text().splitlines(keepends=True)[:3] == lines[:3]
    elapsed = time.perf_counter() - t0

    ok = rerun_identical and crash_equivalent and reused_verbatim and elapsed < 60.0
    verdict(capsys, 9, ok,
            f"blob smoke plan: resume rerun byte-identical, crash+resume equals the "
            f"straight run up to wall time, reused rows verbatim; {elapsed:.1f}s")


def test_10_informational_jacobian_cost_scaling(capsys):
    dims = [8, 16, 32, 64]
    times = []
    for d in dims:
        net = Net.build(Rng(derive_seed("scale", str(d))), d, [16, 16], 2)
        x = Rng(derive_seed("scale-x", str(d))).standard_normal(256, d)
        forward_dual(net, x)  # warm up
        best = min(
            (lambda t0: (forward_dual(net, x), time.perf_counter() - t0)[1])(time.perf_counter())
            for _ in range(5)
        )
        times.append(best)
    slope = float(np.polyfit(np.log(dims), np.log(times), 1)[0])
    # Informational, non-gating: report the growth exponent.
    ok = np.isfinite(slope)
    verdict(capsys, 10, ok,
            f"forward_dual wall time over d in {dims} at widths [16, 16]: log-log "
            f"slope {slope:.2f} ({'sub-quadratic' if slope < 2 else 'not sub-quadratic'}; "
            f"informational only)")
