"""Paired benchmark runs of two polygrad checkouts.

Usage, from anywhere:

    python3 tools/bench_pair.py --parent DIR --change DIR --workload sweep_small \
        [--workload train_full:0-4 ...] --seeds 0-9 --out BENCH_<n>.json

For each workload and seed, ``perfbench/run.py --workload W --seed S``
runs once for each checkout (end-to-end mode; ``--workload W:A-B`` gives
W its own seeds instead of ``--seeds``), the two sides taking turns at
going first, so a drift in the host's speed falls on both sides alike.
Then each side makes one traced run (``--trace 1``) of W at its first
seed, which checks the traced outputs and step count as well.
Every run works in a fresh copy of its checkout's ``git ls-files``, as
they stand in the working tree, made in a new temporary directory and
removed after the run: a long-lived directory can read a steady gap of
several percent that no code causes, and a fresh copy does not carry it
from run to run. Each run's last output line is its result. The output
file holds every run; per workload, whether every run (the traced ones
too) read correct with no failed operation; and per workload and
end-to-end metric the per-side median and quartiles, the number of
pairs the change wins, whether the change's median beats the parent's
by more than the parent's interquartile range, whether the two together
meet the claim rule (the change wins at least 9 in 10 of all pairs, a
tie counting for neither side, and beats the parent's IQR:
``meets_claim_rule``), and whether it is worse
than the parent's by more than the metric's relative ``bound`` in
``BENCHMARK.json`` (``worse_than_bound``). It also
records, per side, the code it measured: the sha256 of
``src/polygrad/*.py``, their line count (``wc -l``'s total) and the
checkout's git HEAD, and warns when both
sides hash the same. Standard library only;
both checkouts must be git checkouts with their own ``perfbench/`` and
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def checkout_files(checkout: str) -> list[str]:
    """The checkout's ``git ls-files`` that exist in its working tree, relative to it."""
    proc = subprocess.run(["git", "ls-files", "-z"], cwd=checkout, capture_output=True, text=True, check=True)
    return [name for name in proc.stdout.split("\0") if name and os.path.isfile(os.path.join(checkout, name))]


def run_once(checkout: str, workload: str, seed: int, seconds: int | None, trace: int) -> dict:
    """One ``perfbench/run.py`` run in a fresh copy of ``checkout``; its result line as a dict."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    with tempfile.TemporaryDirectory(prefix="bench_pair-") as copy:
        for name in checkout_files(checkout):
            os.makedirs(os.path.join(copy, os.path.dirname(name)), exist_ok=True)
            shutil.copy2(os.path.join(checkout, name), os.path.join(copy, name))
        proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def code_identity(checkout: str) -> dict:
    """The sha256 of ``src/polygrad/*.py`` (each file's name and bytes, in
    sorted order), their newline count (``wc -l``'s total) and
    ``git rev-parse HEAD``, null outside a git checkout."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(glob.glob(os.path.join(checkout, "src", "polygrad", "*.py"))):
        digest.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(data)
        lines += data.count(b"\n")
    head = None
    if os.path.exists(os.path.join(checkout, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
        head = proc.stdout.strip() if proc.returncode == 0 else None
    return {"src_sha256": digest.hexdigest(), "src_lines": lines, "git_head": head}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: each side's quartiles, pair wins, the claim
    rule, and whether the change's median is worse than the parent's by
    more than the metric's relative ``bound``."""
    out = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        sign = -1.0 if lower else 1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        gain = sign * (stats["change"]["median"] - stats["parent"]["median"])
        beats_iqr = gain > stats["parent"]["iqr"]
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            **stats,
            "change_wins": wins,
            "pairs": len(pairs),
            "median_change_rel": stats["change"]["median"] / stats["parent"]["median"] - 1.0,
            "beats_parent_iqr": beats_iqr,
            "meets_claim_rule": 10 * wins >= 9 * len(pairs) and beats_iqr,
            "worse_than_bound": -gain > spec["bound"] * abs(stats["parent"]["median"]),
        }
    return out


def run_pairs(dirs: dict, workload: str, seeds: list[int], seconds: int | None, metrics: list[dict]) -> list[dict]:
    pairs = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(dirs[side], workload, seed, seconds, trace=0)
            print(
                f"{workload} seed {seed} {side:6s} correct={pair[side]['correct']} failed={pair[side]['failed']} "
                + " ".join(f"{m['name']}={pair[side]['metrics'][m['name']]['value']:.4g}" for m in metrics),
                flush=True,
            )
        pairs.append(pair)
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True, help="W or W:A-B; repeat for several")
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="A-B, inclusive (or one seed)")
    parser.add_argument("--seconds", type=int, default=None, help="passed to run.py; its default otherwise")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    dirs = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(dirs["parent"], "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]

    code = {side: code_identity(dirs[side]) for side in SIDES}
    if code["parent"]["src_sha256"] == code["change"]["src_sha256"]:
        print("warning: both sides have the same src/polygrad sources; the pairs compare no code change",
              file=sys.stderr, flush=True)
    record = {"seeds": args.seeds, "seconds": args.seconds, "code": code, "workloads": {}}
    for arg in args.workload:
        workload, _, seed_text = arg.partition(":")
        seeds = parse_seeds(seed_text) if seed_text else args.seeds
        pairs = run_pairs(dirs, workload, seeds, args.seconds, metrics)
        summary = summarize(pairs, metrics)
        traced = {}
        for side in SIDES:
            result = run_once(dirs[side], workload, seeds[0], args.seconds, trace=1)
            traced[side] = {key: result[key] for key in ("correct", "attempted", "failed")}
            print(f"{workload} seed {seeds[0]} {side:6s} traced correct={result['correct']} "
                  f"failed={result['failed']}", flush=True)
        runs = [p[s] for p in pairs for s in SIDES] + list(traced.values())
        record["workloads"][workload] = {
            "seeds": seeds,
            "all_correct": all(r["correct"] and r["failed"] == 0 for r in runs),
            "traced": traced,
            "metrics": summary,
            "pairs": pairs,
        }
        for name, m in summary.items():
            print(
                f"{workload} {name:14s} parent {m['parent']['median']:.4g} "
                f"[{m['parent']['q1']:.4g}, {m['parent']['q3']:.4g}]  change {m['change']['median']:.4g} "
                f"[{m['change']['q1']:.4g}, {m['change']['q3']:.4g}]  wins {m['change_wins']}/{m['pairs']}  "
                f"beats parent IQR: {m['beats_parent_iqr']}  meets claim rule: {m['meets_claim_rule']}  "
                f"worse than bound: {m['worse_than_bound']}",
                flush=True,
            )
        with open(args.out, "w", encoding="utf-8") as fh:  # rewritten after each workload
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all(w["all_correct"] for w in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
