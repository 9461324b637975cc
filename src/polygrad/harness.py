"""Experiment harness: plans, single cells, resumable sweeps, reports.

A sweep runs one cell per (model, fraction, seed) in a fixed canonical
order (declared models x ascending fractions x declared seeds). Workers
may compute cells concurrently, but each row is appended and flushed to
results.jsonl.partial, in canonical order, as soon as it and every cell
before it are done; the finished file is renamed onto results.jsonl. So
the file is deterministic, and a crash loses only unfinished cells.
Resume reuses the stored ok lines verbatim, from results.jsonl and the
.partial files, and recomputes the rest; only wall_time_seconds can
differ between a straight and a resumed run. It first moves an earlier
.partial aside as results.jsonl.partial.<n>, which later resumes read
too, and deletes the moved files only once results.jsonl is in place, so
a crash during a resume loses no stored row. manifest.json records the
plan's hash, and resume refuses results that a different plan wrote. A
sweep without resume first removes every output an earlier run left.
"""

from __future__ import annotations

import copy
import functools
import glob
import json
import logging
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from itertools import starmap

import numpy as np

from .config import FORMAT_VERSION as CONFIG_FORMAT_VERSION
from .config import Config, config_hash
from .data import (
    PIMA_LABEL,
    Dataset,
    fit_preprocess,
    load_csv,
    make_blobs,
    make_pima_like,
    save_csv,
    stratified_split,
    subsample_fraction,
)
from .errors import ConfigError, DegenerateDistributionError, NumericOverflowError
from .linalg import Rng, derive_seed
from .metrics import input_grad_norms, paired_t_one_sided, tail_ratio, wilcoxon_signed_rank
from .polynet import Net, param_count
from .train import EpochStats, TrainConfig, train
from .train import evaluate_accuracy  # noqa: F401  (perfbench's tracer test calls harness.evaluate_accuracy)

__all__ = [
    "ROSTER",
    "KEYS",
    "read_keys",
    "RESULT_FIELDS",
    "ModelSpec",
    "SweepPlan",
    "default_comparisons",
    "plan_from_config",
    "train_config_from_file",
    "resolve_dataset",
    "matched_capacity",
    "build_model",
    "CellOutput",
    "train_cell",
    "run_cell",
    "sweep",
    "read_results",
    "write_json",
    "write_results_csv",
    "stats_report",
    "render_stats_text",
    "write_stats_report",
]

log = logging.getLogger(__name__)

FORMAT_VERSION = 1

# model_id -> (activation substrate, the regularizer knobs it takes). Every
# other knob is 0 for it.
ROSTER = {
    "cr": ("poly", ("lambda_dreg",)),
    "vanilla": ("relu", ()),
    "dropout": ("relu", ("dropout_rate",)),
    "weight_decay": ("relu", ("weight_decay",)),
    "relu_dreg": ("relu", ("lambda_dreg",)),
}
RESULT_FIELDS = (
    "model_id",
    "fraction",
    "seed",
    "eval_accuracy",
    "tau",
    "mean_norm",
    "p99_norm",
    "final_task_loss",
    "final_penalty",
    "wall_time_seconds",
)
# The fields stats_report reads from an ok row.
_STATS_FIELDS = ("model_id", "fraction", "seed", "eval_accuracy", "tau", "mean_norm", "p99_norm")

_MODELS = ", ".join(ROSTER)
_SOURCES = ("pima_like", "blobs", "csv")

# Every key a config may set: key -> (Config getter, default, (predicate,
# rule text) or None). A knob's default reaches only the models whose ROSTER
# row takes it; rules that span keys live in plan_from_config.
KEYS = {
    "format_version": (Config.get_int, CONFIG_FORMAT_VERSION, None),  # parse_config checks it
    "run.seed": (Config.get_int, 0, None),
    "model.id": (Config.get_str, "cr", (lambda v: v in ROSTER, f"one of {_MODELS}")),
    "data.source": (Config.get_str, "pima_like", (lambda v: v in _SOURCES, f"one of {', '.join(_SOURCES)}")),
    "data.path": (Config.get_str, None, None),
    "data.label_column": (Config.get_str, PIMA_LABEL, None),
    "data.seed": (Config.get_int, 7, None),
    "data.n_samples": (Config.get_int, 200, None),
    "data.classes": (Config.get_int, 3, None),
    "data.dim": (Config.get_int, 2, None),
    "data.eval_fraction": (Config.get_float, 0.2, (lambda v: 0.0 < v < 1.0, "in (0, 1)")),
    "data.fraction": (Config.get_float, 1.0, (lambda v: 0.0 < v <= 1.0, "in (0, 1]")),
    "plan.models": (Config.get_list, list(ROSTER),
                    (lambda v: v and set(v) <= ROSTER.keys(), f"a nonempty list of {_MODELS}")),
    "plan.fractions": (Config.get_float_list, [0.05, 0.1, 0.25, 0.5, 1.0],
                       (lambda v: v and all(0.0 < f <= 1.0 for f in v), "a nonempty list of numbers in (0, 1]")),
    "plan.seeds": (Config.get_int_list, [0, 1, 2, 3, 4, 5], (bool, "a nonempty list of integers")),
    "plan.comparisons": (Config.get_list, None, None),  # None: default_comparisons(plan.models)
    "train.widths": (Config.get_int_list, [16, 16], (lambda v: v and min(v) >= 1, "a nonempty list of integers >= 1")),
    "train.epochs": (Config.get_int, TrainConfig.epochs, (lambda v: v >= 1, ">= 1")),
    "train.batch_size": (Config.get_int, TrainConfig.batch_size, (lambda v: v >= 1, ">= 1")),
    "train.learning_rate": (Config.get_float, TrainConfig.learning_rate, (lambda v: v > 0.0, "> 0")),
    "train.lambda_dreg": (Config.get_float, 0.1, (lambda v: v >= 0.0, ">= 0")),
    "train.dropout_rate": (Config.get_float, 0.2, (lambda v: 0.0 <= v < 1.0, "in [0, 1)")),
    "train.weight_decay": (Config.get_float, 1e-4, (lambda v: v >= 0.0, ">= 0")),
}


def read_keys(cfg: Config) -> dict:
    """Every key's value: the config's, checked against its rule, or else the
    default. An unknown key, or a value that breaks its rule, is a
    ConfigError naming the key."""
    for key in sorted(cfg.values):
        if key not in KEYS:
            raise ConfigError(f"{cfg.source}: unknown key {key!r}", key=key)
    values = {}
    for key, (get, default, rule) in KEYS.items():
        if key not in cfg.values:
            values[key] = copy.copy(default)  # a list default becomes the plan's own list
            continue
        values[key] = value = get(cfg, key)
        if rule is not None and not rule[0](value):
            raise ConfigError(f"{cfg.source}: key {key!r} must be {rule[1]}, got {cfg.values[key]!r}", key=key)
    return values


@dataclass
class ModelSpec:
    model_id: str
    kind: str  # poly | relu
    widths: list[int] | None  # None: derive by capacity matching
    train: TrainConfig
    dropout_rate: float = 0.0


@dataclass
class SweepPlan:
    models: list[str]
    fractions: list[float]
    seeds: list[int]
    comparisons: list[tuple[str, str, str]]  # (model_a, model_b, metric)
    specs: dict[str, ModelSpec]
    data_source: str  # pima_like | blobs | csv
    data_path: str | None
    label_column: str
    data_seed: int
    blob_samples: int
    blob_classes: int
    blob_dim: int
    eval_fraction: float
    plan_hash: str

    @property
    def cells(self) -> list[tuple[str, float, int]]:
        return [(m, f, s) for m in self.models for f in self.fractions for s in self.seeds]


def _model_spec(keys: dict, model_id: str) -> ModelSpec:
    kind, knobs = ROSTER[model_id]

    def knob(name: str) -> float:
        return keys[f"train.{name}"] if name in knobs else 0.0

    loop = {k: keys[f"train.{k}"] for k in ("learning_rate", "batch_size", "epochs")}
    train_cfg = TrainConfig(lambda_dreg=knob("lambda_dreg"), weight_decay=knob("weight_decay"), **loop)
    # Identical-conditions fairness: baseline widths (None) are derived from
    # the polynomial architecture by parameter-count matching.
    widths = keys["train.widths"] if kind == "poly" else None
    return ModelSpec(model_id, kind, widths, train_cfg, knob("dropout_rate"))


def default_comparisons(models: list[str]) -> list[tuple[str, str, str]]:
    """cr against every other model in ``models`` order, on tau and then
    accuracy; none without cr."""
    if "cr" not in models:
        return []
    return [("cr", m, metric) for m in models if m != "cr" for metric in ("tau", "accuracy")]


def plan_from_config(cfg: Config) -> SweepPlan:
    return _plan_from_keys(read_keys(cfg), cfg)


def _plan_from_keys(keys: dict, cfg: Config) -> SweepPlan:
    """The plan of ``read_keys``' dict; ``cfg`` gives the error source and the plan hash."""
    models = keys["plan.models"]
    fractions = sorted(keys["plan.fractions"])
    seeds = keys["plan.seeds"]

    raw_cmp = keys["plan.comparisons"]
    if raw_cmp is None:
        raw_cmp = [":".join(c) for c in default_comparisons(models)]
    comparisons = []
    for item in raw_cmp:
        parts = item.split(":")
        if len(parts) != 3:
            raise ConfigError(
                f"comparison {item!r} must be model_a:model_b:metric", key="plan.comparisons"
            )
        a, b, metric = (p.strip() for p in parts)
        if a not in models or b not in models:
            raise ConfigError(
                f"comparison {item!r} references a model outside the plan", key="plan.comparisons"
            )
        if metric not in ("tau", "accuracy"):
            raise ConfigError(f"comparison metric {metric!r} unknown", key="plan.comparisons")
        comparisons.append((a, b, metric))
    # A repeated entry would run its cells twice or count its test twice in the Bonferroni family.
    for key, entries in (("plan.models", models), ("plan.fractions", fractions),
                         ("plan.seeds", seeds), ("plan.comparisons", [":".join(c) for c in comparisons])):
        repeats = [e for i, e in enumerate(entries) if e in entries[:i]]
        if repeats:
            raise ConfigError(f"{cfg.source}: key {key!r} lists {repeats[0]} more than once", key=key)

    plan = SweepPlan(
        models=models,
        fractions=fractions,
        seeds=seeds,
        comparisons=comparisons,
        specs={m: _model_spec(keys, m) for m in models},
        data_source=keys["data.source"],
        data_path=keys["data.path"],
        label_column=keys["data.label_column"],
        data_seed=keys["data.seed"],
        blob_samples=keys["data.n_samples"],
        blob_classes=keys["data.classes"],
        blob_dim=keys["data.dim"],
        eval_fraction=keys["data.eval_fraction"],
        plan_hash=config_hash(cfg),
    )
    if plan.data_source == "csv" and not plan.data_path:
        raise ConfigError("data.source = csv requires data.path", key="data.path")
    if plan.data_source == "blobs":  # make_blobs' limits, checked before any file is written
        for key, value, least in (
            ("data.classes", plan.blob_classes, 2),
            ("data.dim", plan.blob_dim, 2),
            ("data.n_samples", plan.blob_samples, plan.blob_classes),
        ):
            if value < least:
                raise ConfigError(f"{cfg.source}: key {key!r} must be >= {least} for blobs, got {value}", key=key)
    return plan


def train_config_from_file(cfg: Config) -> tuple[SweepPlan, str, float, int]:
    """Single-run view of a config: a one-cell plan plus the cell key.

    A plan list the config leaves unset holds the cell's own value, and
    comparisons default to none. A full sweep plan file works here too:
    its fraction list is kept, so the subsample rounding context (and
    therefore the exact row) matches the sweep that declared it.
    """
    keys = read_keys(cfg)
    model_id, fraction, seed = keys["model.id"], keys["data.fraction"], keys["run.seed"]
    cell = {"plan.models": [model_id], "plan.fractions": [fraction], "plan.seeds": [seed], "plan.comparisons": []}
    keys.update((k, v) for k, v in cell.items() if k not in cfg.values)
    plan = _plan_from_keys(keys, cfg)
    if model_id not in plan.specs:
        raise ConfigError(
            f"model.id {model_id!r} is not among the plan models {plan.models}", key="model.id"
        )
    return plan, model_id, fraction, seed


def resolve_dataset(plan: SweepPlan, out_dir: str | None = None) -> Dataset:
    """Materialize the plan's dataset, always through the CSV reader.

    Synthetic sources are written to <out_dir>/dataset.csv once and
    loaded back, so every run exercises the same ingestion path as a
    user-supplied file. A dataset.csv already there must hold exactly the
    data the plan generates; any other is a ConfigError naming the file,
    and nothing is written.
    """
    if plan.data_source == "csv":
        return load_csv(plan.data_path, plan.label_column)
    if plan.data_source == "pima_like":
        ds = make_pima_like(seed=plan.data_seed)
    else:
        ds = make_blobs(
            n_samples=plan.blob_samples,
            n_classes=plan.blob_classes,
            dim=plan.blob_dim,
            seed=plan.data_seed,
        )
    if out_dir is None:
        return ds
    path = os.path.join(out_dir, "dataset.csv")
    if not os.path.exists(path):
        save_csv(path, ds, label_column=plan.label_column)
    stored = load_csv(path, plan.label_column)
    same = stored.feature_names == ds.feature_names and np.array_equal(stored.labels, ds.labels)
    if not (same and np.array_equal(stored.features, ds.features)):
        raise ConfigError(f"{path} holds other data than this plan generates; remove it or use another --out")
    return stored


@dataclass
class CapacityMatch:
    widths: list[int]
    baseline_params: int
    poly_params: int

    @property
    def relative_gap(self) -> float:
        return (self.baseline_params - self.poly_params) / self.poly_params


def matched_capacity(input_dim: int, poly_widths: list[int], num_classes: int) -> CapacityMatch:
    """ReLU baseline widths whose parameter count best matches the polynomial net.

    Searches uniform scalings of the polynomial widths at equal depth, so
    comparisons are about the activation substrate rather than model size.
    An infeasible match (gap beyond 5%, e.g. tiny widths) is logged and
    the nearest width is returned so the run can proceed. The search is
    memoized; every call logs and returns its own ``CapacityMatch``.
    """
    best = _search_capacity(input_dim, tuple(poly_widths), num_classes)
    best = replace(best, widths=list(best.widths))
    if abs(best.relative_gap) > 0.05:
        log.warning(
            "capacity match infeasible: baseline widths %s give %d params vs "
            "polynomial %d (gap %.1f%%); proceeding with nearest",
            best.widths,
            best.baseline_params,
            best.poly_params,
            100.0 * best.relative_gap,
        )
    return best


@functools.lru_cache(maxsize=64)
def _search_capacity(input_dim: int, poly_widths: tuple[int, ...], num_classes: int) -> CapacityMatch:
    target = param_count(input_dim, list(poly_widths), num_classes, "poly")
    best: CapacityMatch | None = None
    max_width = max(poly_widths) * 2 + 8
    for delta in range(-max(poly_widths) + 1, max_width):
        widths = [max(1, w + delta) for w in poly_widths]
        count = param_count(input_dim, widths, num_classes, "relu")
        match = CapacityMatch(widths, count, target)
        if best is None or abs(match.relative_gap) < abs(best.relative_gap):
            best = match
    return best


def build_model(spec: ModelSpec, input_dim: int, num_classes: int, init_seed: int, poly_widths: list[int]):
    rng = Rng(init_seed).spawn("init", spec.model_id)
    widths = spec.widths
    if widths is None:
        match = matched_capacity(input_dim, poly_widths, num_classes)
        widths = match.widths
        log.info(
            "matched capacity for %s: widths %s (%d params vs %d poly, gap %.2f%%)",
            spec.model_id,
            widths,
            match.baseline_params,
            match.poly_params,
            100.0 * match.relative_gap,
        )
    return Net.build(rng, input_dim, widths, num_classes, activation=spec.kind, dropout_rate=spec.dropout_rate)


def _cell_tag(model_id: str, fraction: float, seed: int) -> str:
    return f"{model_id}/{fraction!r}/{seed}"


@dataclass
class CellOutput:
    net: object
    preprocess: object
    log: list[EpochStats]
    tail: object

    def metrics(self) -> dict:
        """The six metrics a cell reports, as results rows and ``polygrad train``'s summary hold them."""
        final = self.log[-1]  # its accuracy evaluated the final parameters on the eval rows
        return {
            "eval_accuracy": final.eval_accuracy,
            "tau": self.tail.tau,
            "mean_norm": self.tail.mean,
            "p99_norm": self.tail.p99,
            "final_task_loss": final.task_loss,
            "final_penalty": final.penalty,
        }


def train_cell(
    ds: Dataset, plan: SweepPlan, model_id: str, fraction: float, seed: int, trajectory: bool = True
) -> CellOutput:
    """Full pipeline for one (model, fraction, seed) cell.

    Pure function of its arguments: the split, subsample, preprocessing
    fit, initialization, and training stream are all derived from the
    cell coordinates, so any worker (or a later resume) reproduces the
    identical numbers. ``trajectory`` is ``train``'s: without it the log
    holds only the last epoch, with the same metrics.
    """
    spec = plan.specs[model_id]
    train_idx, eval_idx = stratified_split(ds.labels, plan.eval_fraction, seed)
    rounding = "ceil" if fraction == min(plan.fractions) else "round"
    active = subsample_fraction(train_idx, ds.labels, fraction, seed, rounding=rounding)
    stats = fit_preprocess(ds.features, ds.feature_names, active)
    X = stats.transform(ds.features)

    poly_widths = (plan.specs.get("cr") or spec).widths or KEYS["train.widths"][1]
    init_seed = derive_seed("init", model_id, f"{fraction!r}", str(seed))
    net = build_model(spec, ds.d, ds.class_count, init_seed, poly_widths)
    cfg = replace(spec.train, seed=derive_seed("train", model_id, f"{fraction!r}", str(seed)))

    train_log = train(net, X[active], ds.labels[active], X[eval_idx], ds.labels[eval_idx], cfg, trajectory)
    norms = input_grad_norms(net, X[eval_idx], ds.labels[eval_idx])
    return CellOutput(net, stats, train_log, tail_ratio(norms))


def run_cell(ds: Dataset, plan: SweepPlan, model_id: str, fraction: float, seed: int) -> dict:
    """train_cell wrapped into a ResultRow dict; failures become rows too.

    A row reads only the last epoch, so no other epoch is evaluated or
    logged. A cell that overflows mid-run therefore fails at the next
    training batch ("training diverged"), where ``polygrad train`` fails
    at the end of the epoch that overflowed ("evaluation diverged").
    A failed row carries the divergence ``epoch`` and ``batch`` when the
    error knows them.
    """
    t0 = time.perf_counter()
    row = {
        "format_version": FORMAT_VERSION,
        "status": "ok",
        "model_id": model_id,
        "fraction": fraction,
        "seed": seed,
    }
    try:
        out = train_cell(ds, plan, model_id, fraction, seed, trajectory=False)
        row.update(out.metrics(), wall_time_seconds=time.perf_counter() - t0)
    except (NumericOverflowError, DegenerateDistributionError, ValueError) as err:
        log.warning("cell %s failed: %s", _cell_tag(model_id, fraction, seed), err)
        row.update(
            status="failed",
            error=f"{type(err).__name__}: {err}",
            wall_time_seconds=time.perf_counter() - t0,
        )
        for key in ("epoch", "batch"):  # where training diverged, when known
            if getattr(err, key, None) is not None:
                row[key] = getattr(err, key)
    return row


def read_results(path, fields=()) -> list[dict]:
    """Parse a results file, tolerating a torn last line after a crash.

    An unparseable line is skipped with a warning when no line follows
    it, as only a crash mid-write leaves one. A ConfigError naming the
    file and the line refuses an unparseable line with lines after it, a
    line that parses to something other than a JSON object, and an ``ok``
    row whose ``fields`` are not all there as the reader needs them
    (``model_id`` a string, the rest finite numbers).
    """
    rows = []
    if not os.path.exists(path):
        return rows
    torn = None  # the number of an unparseable line, if one was read
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if torn is not None:
                raise ConfigError(f"{path}: line {torn}: unparseable, and more lines follow it")
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                torn = n
                continue
            if not isinstance(row, dict):
                raise ConfigError(f"{path}: line {n}: not a JSON object")
            for key in fields if row.get("status") == "ok" else ():
                value = row.get(key)
                kind, want = (str, "a string") if key == "model_id" else ((int, float), "a finite number")
                if (
                    not isinstance(value, kind)
                    or isinstance(value, bool)
                    or (isinstance(value, float) and not math.isfinite(value))
                ):
                    raise ConfigError(f"{path}: line {n}: ok row needs {key!r} as {want}, got {value!r}", key=key)
            rows.append(row)
    if torn is not None:
        log.warning("%s: skipping unparseable last line %d (torn write?)", path, torn)
    return rows


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _read_plan_hash(path) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: unreadable manifest: {err}") from err
    return manifest.get("plan_hash") if isinstance(manifest, dict) else None


def sweep(
    plan: SweepPlan,
    ds: Dataset,
    out_dir: str,
    workers: int = 1,
    resume: bool = False,
) -> list[dict]:
    """Run all plan cells, emitting results.jsonl, results.csv, stats report.

    The pool has ``min(workers, pending cells, CPUs)`` processes; with one,
    cells run in this process. Rows land in canonical order either way,
    each flushed to ``results.jsonl.partial`` as the module docstring says.
    ``manifest.json`` pins the plan's hash before any cell runs; a resume
    against a different plan's manifest is a ConfigError, and a directory
    without one resumes unchecked. Without ``resume``, the results, the
    moved-aside partials and the derived files of an earlier run are
    removed first.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    os.makedirs(out_dir, exist_ok=True)
    results_path = os.path.join(out_dir, "results.jsonl")
    partial_path = results_path + ".partial"
    manifest_path = os.path.join(out_dir, "manifest.json")
    if resume and os.path.exists(manifest_path):
        found = _read_plan_hash(manifest_path)
        if found != plan.plan_hash:
            raise ConfigError(
                f"{manifest_path}: results were written by plan {found}, "
                f"not by this plan {plan.plan_hash}; refusing to resume"
            )
    write_json(manifest_path, {"format_version": FORMAT_VERSION, "plan_hash": plan.plan_hash})

    # Earlier partials, moved aside by resumes that have not finished yet.
    aside = glob.glob(glob.escape(partial_path) + ".[0-9]*")
    done = {}
    if resume:
        stored = [row for path in [results_path, partial_path, *aside] for row in read_results(path, RESULT_FIELDS)]
        ok = [r for r in stored if r.get("status") == "ok"]
        done = {(r["model_id"], r["fraction"], r["seed"]): json.dumps(r, sort_keys=True) for r in ok}
        log.info("resume: reusing %d completed cells", len(done))
        if os.path.exists(partial_path):  # kept until results.jsonl lands
            n = len(aside) + 1
            while os.path.exists(f"{partial_path}.{n}"):
                n += 1
            aside.append(f"{partial_path}.{n}")
            os.replace(partial_path, aside[-1])
    else:  # outputs of whatever plan the manifest named before, rows and derived files
        derived = [os.path.join(out_dir, name) for name in ("results.csv", "stats_report.json", "stats_report.txt")]
        for path in [results_path, *aside, *derived]:
            if os.path.exists(path):
                os.remove(path)
        aside = []

    args = [(ds, plan, *c) for c in plan.cells if c not in done]
    pool_size = min(workers, len(args), os.cpu_count() or 1)
    rows = []
    with (
        open(partial_path, "w", encoding="utf-8") as fh,
        ProcessPoolExecutor(max_workers=pool_size) if pool_size > 1 else nullcontext() as pool,
    ):
        fresh = pool.map(run_cell, *zip(*args)) if pool else starmap(run_cell, args)
        for c in plan.cells:
            line = done.get(c) or json.dumps(next(fresh), sort_keys=True)
            fh.write(line + "\n")
            fh.flush()
            rows.append(json.loads(line))
    os.replace(partial_path, results_path)
    for path in aside:
        os.remove(path)

    write_results_csv(os.path.join(out_dir, "results.csv"), rows)
    write_stats_report(out_dir, rows, plan.comparisons)
    return rows


def write_results_csv(path, rows: list[dict]) -> None:
    """Plot-ready projection of the ok rows, in result-field order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(RESULT_FIELDS) + "\n")
        for row in rows:
            if row.get("status") != "ok":
                continue
            fh.write(",".join(repr(row[k]) if isinstance(row[k], float) else str(row[k]) for k in RESULT_FIELDS) + "\n")


# -- statistics over a results table ---------------------------------------


def _fraction_text(f: float) -> str:
    """``f`` as the report's keys and text show it: ``format(f, "g")`` when
    that parses back to ``f``, else ``repr(f)``, so no two fractions share one."""
    text = format(f, "g")
    return text if float(text) == f else repr(f)


def _paired_values(by_cell: dict, a: str, b: str, fraction: float, seeds: list, metric: str):
    """Paired ``(x, y, missing)`` for models a and b at one fraction, oriented
    so that x > y favors a: higher accuracy, lower tau."""
    key = "tau" if metric == "tau" else "eval_accuracy"
    a_vals, b_vals, missing = [], [], []
    for s in seeds:
        ra = by_cell.get((a, fraction, s))
        rb = by_cell.get((b, fraction, s))
        if ra is None or rb is None:
            missing.append([a if ra is None else b, fraction, s])
            continue
        a_vals.append(ra[key])
        b_vals.append(rb[key])
    if metric == "accuracy":
        return np.asarray(a_vals), np.asarray(b_vals), missing
    return np.asarray(b_vals), np.asarray(a_vals), missing


def _run_test(testfn, x, y) -> dict:
    """``testfn(x, y)`` as a report block: its statistic and p-value, or its error."""
    try:
        return testfn(x, y)._asdict()
    except ValueError as err:
        return {"error": str(err)}


def stats_report(rows: list[dict], comparisons: list[tuple[str, str, str]]) -> dict:
    """Per-fraction summaries plus paired tests for each declared comparison.

    Tests are oriented so the alternative is "model_a is better": higher
    accuracy, lower tau; mean_gap > 0 favors model_a in both cases. The
    Bonferroni correction is applied here, per test type: the family is
    every executed (comparison x fraction) instance, and each test block
    that has a p-value gets ``p_adjusted = min(1, m * p_value)`` and
    ``bonferroni_m = m``. The pooled tests are not corrected.
    """
    ok = [r for r in rows if r.get("status") == "ok"]
    by_cell = {(r["model_id"], r["fraction"], r["seed"]): r for r in ok}
    models = sorted({r["model_id"] for r in ok})
    fractions = sorted({r["fraction"] for r in ok})
    seeds = sorted({r["seed"] for r in ok})

    summary: dict = {}
    for m in models:
        summary[m] = {}
        for f in fractions:
            cells = [r for r in ok if r["model_id"] == m and r["fraction"] == f]
            if not cells:
                continue
            block = {}
            for key in ("eval_accuracy", "tau", "mean_norm", "p99_norm"):
                vals = np.asarray([r[key] for r in cells])
                block[key] = {
                    "mean": float(vals.mean()),
                    "std": float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
                    "n": int(vals.size),
                }
            summary[m][_fraction_text(f)] = block

    instances = []
    pooled = []
    for a, b, metric in comparisons:
        xs, ys = [], []
        for f in fractions:
            x, y, missing = _paired_values(by_cell, a, b, f, seeds, metric)
            xs.extend(x)
            ys.extend(y)
            entry = {
                "model_a": a,
                "model_b": b,
                "metric": metric,
                "fraction": f,
                "n_pairs": int(len(x)),
                "missing_cells": missing,
            }
            if len(x) >= 2:
                entry["mean_gap"] = float(np.mean(x - y))
                entry["t"] = _run_test(paired_t_one_sided, x, y)
                entry["wilcoxon"] = _run_test(wilcoxon_signed_rank, x, y)
            else:
                entry["error"] = "insufficient paired rows"
            instances.append(entry)
        entry = {"model_a": a, "model_b": b, "metric": metric, "n_pairs": len(xs)}
        if len(xs) >= 2:
            xs_a, ys_a = np.asarray(xs), np.asarray(ys)
            entry["mean_gap"] = float(np.mean(xs_a - ys_a))
            entry["t"] = _run_test(paired_t_one_sided, xs_a, ys_a)
        pooled.append(entry)

    executed = [e for e in instances if "t" in e]
    m_family = max(1, len(executed))
    for block in (e[name] for e in executed for name in ("t", "wilcoxon")):
        if "p_value" in block:
            block.update(p_adjusted=min(1.0, m_family * block["p_value"]), bonferroni_m=m_family)

    return {
        "format_version": FORMAT_VERSION,
        "models": models,
        "fractions": fractions,
        "seeds": seeds,
        "summary": summary,
        "comparisons": instances,
        "pooled": pooled,
        "bonferroni_m": m_family,
    }


def render_stats_text(report: dict) -> str:
    lines = ["== per-model summary (mean +/- std over seeds) =="]
    for m in report["models"]:
        for f_key, block in report["summary"][m].items():
            acc = block["eval_accuracy"]
            tau = block["tau"]
            lines.append(
                f"{m:>12s}  f={f_key:>5s}  acc {acc['mean']:.4f} +/- {acc['std']:.4f}"
                f"  tau {tau['mean']:.4f} +/- {tau['std']:.4f}  (n={acc['n']})"
            )
    lines.append("")
    lines.append(f"== paired comparisons (alternative: model_a better; m={report['bonferroni_m']}) ==")
    for e in report["comparisons"]:
        head = f"{e['model_a']} vs {e['model_b']} [{e['metric']}] f={_fraction_text(e['fraction'])}"
        if "error" in e:
            lines.append(f"{head}: {e['error']}")
            continue
        parts = [f"gap {e['mean_gap']:+.4f}", f"n={e['n_pairs']}"]
        for name in ("t", "wilcoxon"):
            block = e[name]
            if "error" in block:
                parts.append(f"{name}: {block['error']}")
            else:
                parts.append(f"{name} p={block['p_value']:.4g} adj={block['p_adjusted']:.4g}")
        lines.append(f"{head}: " + ", ".join(parts))
    lines.append("")
    lines.append("== pooled over fractions ==")
    for e in report["pooled"]:
        head = f"{e['model_a']} vs {e['model_b']} [{e['metric']}]"
        if "mean_gap" not in e:
            lines.append(f"{head}: insufficient rows")
            continue
        t = e["t"]
        p_txt = f" t p={t['p_value']:.4g}" if "p_value" in t else ""
        lines.append(f"{head}: gap {e['mean_gap']:+.4f} over {e['n_pairs']} pairs{p_txt}")
    return "\n".join(lines) + "\n"


def write_stats_report(out_dir: str, rows: list[dict], comparisons: list[tuple[str, str, str]]) -> tuple[dict, str]:
    """``stats_report`` over ``rows`` and its text, written to <out_dir>/stats_report.json and .txt."""
    report = stats_report(rows, comparisons)
    text = render_stats_text(report)
    write_json(os.path.join(out_dir, "stats_report.json"), report)
    with open(os.path.join(out_dir, "stats_report.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    return report, text
