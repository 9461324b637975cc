"""Command-line entry points: train, sweep, tailratio, stats, eval."""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import config_hash, load_config
from .data import PIMA_LABEL, load_csv, stratified_split
from .errors import ShapeError
from .harness import (
    KEYS,
    _fraction_text,
    default_comparisons,
    plan_from_config,
    read_results,
    resolve_dataset,
    sweep,
    train_cell,
    train_config_from_file,
    write_json,
    write_stats_report,
)
from .metrics import input_grad_norms, tail_ratio
from .train import accuracy, cross_entropy, predict_logits
from .train import evaluate_accuracy  # noqa: F401  (perfbench's tracer test reads cli.evaluate_accuracy)

log = logging.getLogger(__name__)


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.values["run.seed"] = str(args.seed)
    if args.model is not None:
        cfg.values["model.id"] = args.model
    if args.fraction is not None:
        cfg.values["data.fraction"] = repr(args.fraction)
    plan, model_id, fraction, seed = train_config_from_file(cfg)
    os.makedirs(args.out, exist_ok=True)
    ds = resolve_dataset(plan, args.out)

    out = train_cell(ds, plan, model_id, fraction, seed)
    provenance = {
        "model_id": model_id,
        "fraction": fraction,
        "seed": seed,
        "config_hash": config_hash(cfg),
        "eval_fraction": plan.eval_fraction,
        "epochs_trained": len(out.log),
    }
    ck_path = os.path.join(args.out, "checkpoint.json")
    save_checkpoint(ck_path, out.net, provenance, out.preprocess)

    with open(os.path.join(args.out, "trainlog.jsonl"), "w", encoding="utf-8") as fh:
        for e in out.log:
            fh.write(json.dumps(dataclasses.asdict(e), sort_keys=True) + "\n")
    summary = {"format_version": 1, "model_id": model_id, "fraction": fraction, "seed": seed, **out.metrics()}
    write_json(os.path.join(args.out, "summary.json"), summary)
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_sweep(args) -> int:
    if args.workers < 1:  # before --out is touched; sweep() checks again for library callers
        raise ValueError(f"workers must be >= 1, got {args.workers}")
    cfg = load_config(args.plan)
    plan = plan_from_config(cfg)
    os.makedirs(args.out, exist_ok=True)
    ds = resolve_dataset(plan, args.out)
    rows = sweep(plan, ds, args.out, workers=args.workers, resume=args.resume)
    ok = sum(1 for r in rows if r.get("status") == "ok")
    print(f"sweep complete: {ok}/{len(rows)} cells ok, results in {args.out}")
    return 0 if ok == len(rows) else 1


def _eval_view(bundle, ds):
    """Re-derive the training-time eval split and apply stored preprocessing to it.

    Only the eval rows are transformed; the transform works row by row,
    so this equals transforming every row and then indexing.
    """
    if bundle.preprocess is not None:
        if list(ds.feature_names) != list(bundle.preprocess.feature_names):
            raise ShapeError(
                f"dataset schema {ds.feature_names} does not match checkpoint "
                f"schema {bundle.preprocess.feature_names}"
            )
    seed = bundle.provenance.get("seed")
    eval_fraction = bundle.provenance.get("eval_fraction", KEYS["data.eval_fraction"][1])
    if seed is None:
        X, y, eval_idx = ds.features, ds.labels, np.arange(ds.n)
    else:
        _, eval_idx = stratified_split(ds.labels, eval_fraction, int(seed))
        X, y = ds.features[eval_idx], ds.labels[eval_idx]
    if bundle.preprocess is not None:
        X = bundle.preprocess.transform(X)
    return X, y, eval_idx


def cmd_tailratio(args) -> int:
    bundle = load_checkpoint(args.checkpoint)
    ds = load_csv(args.data, args.label_column)
    X, y, eval_idx = _eval_view(bundle, ds)
    norms = input_grad_norms(bundle.net, X, y)
    report = tail_ratio(norms)

    positive = norms[norms > 0]
    lo = float(positive.min())
    hi = float(positive.max())
    if lo == hi:
        edges = [lo, hi]
        counts = [int(positive.size)]
    else:
        edges = np.logspace(np.log10(lo), np.log10(hi), 51)
        counts = np.histogram(positive, bins=edges)[0].tolist()
        edges = edges.tolist()
    out = {
        "format_version": 1,
        "n": report.n,
        "eval_rows": int(eval_idx.size),
        "zero_count": int((norms == 0).sum()),
        "mean": report.mean,
        "p99": report.p99,
        "tau": report.tau,
        "histogram": {"log_bin_edges": edges, "counts": counts},
    }
    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "tailratio.json"), out)
    print(f"tau = {report.tau:.6f} (mean {report.mean:.6g}, p99 {report.p99:.6g}, n={report.n})")
    return 0


def cmd_stats(args) -> int:
    rows = read_results(args.results)
    if not rows:
        raise ValueError(f"{args.results}: no result rows")
    if args.plan:
        comparisons = plan_from_config(load_config(args.plan)).comparisons
    else:
        comparisons = default_comparisons(sorted({r["model_id"] for r in rows if r.get("status") == "ok"}))
    os.makedirs(args.out, exist_ok=True)
    report, text = write_stats_report(args.out, rows, comparisons)
    print(text, end="")
    for entry in report["comparisons"]:
        if "error" in entry:
            print(
                f"warning: {entry['model_a']} vs {entry['model_b']} [{entry['metric']}] "
                f"f={_fraction_text(entry['fraction'])}: {entry['error']}; missing cells: {entry['missing_cells']}",
                file=sys.stderr,
            )
    return 0


def cmd_eval(args) -> int:
    bundle = load_checkpoint(args.checkpoint)
    ds = load_csv(args.data, args.label_column)
    X, y, eval_idx = _eval_view(bundle, ds)
    logits = predict_logits(bundle.net, X)
    out = {
        "eval_rows": int(eval_idx.size),
        "accuracy": accuracy(logits, y),
        "task_loss": cross_entropy(logits, y),
    }
    print(json.dumps(out, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polygrad")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="out")
    p.add_argument("--seed", type=int, default=None, help="override run.seed")
    p.add_argument("--model", default=None, help="override model.id (reruns one sweep cell)")
    p.add_argument("--fraction", type=float, default=None, help="override data.fraction")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("sweep", help="run a (model x fraction x seed) sweep plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--out", default="out")
    p.add_argument("--workers", type=int, default=1, help=">= 1; capped at the pending cells and CPUs")
    p.add_argument("--resume", action="store_true")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("tailratio", help="tail-ratio report for a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="CSV dataset path")
    p.add_argument("--label-column", default=PIMA_LABEL)
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_tailratio)

    p = sub.add_parser("stats", help="statistical report over a results table")
    p.add_argument("--results", required=True, help="results.jsonl path")
    p.add_argument("--plan", default=None, help="plan file declaring the comparisons")
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("eval", help="accuracy of a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", default=PIMA_LABEL)
    p.set_defaults(fn=cmd_eval)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
