"""Paired benchmark runs of two polygrad checkouts.

Usage, from anywhere:

    python3 tools/bench_pair.py --parent DIR --change DIR --workload sweep_small \
        [--workload train_full:0-4 ...] --seeds 0-9 --out BENCH_<n>.json

For each workload and seed, ``perfbench/run.py --workload W --seed S``
runs once in each checkout (end-to-end mode; ``--workload W:A-B`` gives
W its own seeds instead of ``--seeds``), the two sides taking turns
at going first, so a drift in the host's speed falls on both sides
alike. Each run's last output line is its result. The output file holds
every run, and per workload and end-to-end metric the per-side median
and quartiles, the number of pairs the change wins, and whether the
change's median beats the parent's by more than the parent's
interquartile range. It also records, per side, the code it measured:
the sha256 of ``src/polygrad/*.py`` and the checkout's git HEAD (null
when the checkout is not the root of a git repository), and warns when
both sides hash the same. Standard library only; both checkouts need their
own ``perfbench/`` and ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_once(checkout: str, workload: str, seed: int, seconds: int | None) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``; its result line as a dict."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def code_identity(checkout: str) -> dict:
    """The sha256 of ``src/polygrad/*.py`` (each file's name and bytes, in
    sorted order) and ``git rev-parse HEAD``, null outside a git checkout."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(checkout, "src", "polygrad", "*.py"))):
        digest.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    head = None
    if os.path.exists(os.path.join(checkout, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
        head = proc.stdout.strip() if proc.returncode == 0 else None
    return {"src_sha256": digest.hexdigest(), "git_head": head}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: each side's quartiles, pair wins, and the claim test."""
    out = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        sign = -1.0 if lower else 1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        gain = sign * (stats["change"]["median"] - stats["parent"]["median"])
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            **stats,
            "change_wins": wins,
            "pairs": len(pairs),
            "median_change_rel": stats["change"]["median"] / stats["parent"]["median"] - 1.0,
            "beats_parent_iqr": gain > stats["parent"]["iqr"],
        }
    return out


def run_pairs(dirs: dict, workload: str, seeds: list[int], seconds: int | None, metrics: list[dict]) -> list[dict]:
    pairs = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(dirs[side], workload, seed, seconds)
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
        record["workloads"][workload] = {
            "seeds": seeds,
            "all_correct": all(p[s]["correct"] and p[s]["failed"] == 0 for p in pairs for s in SIDES),
            "metrics": summary,
            "pairs": pairs,
        }
        for name, m in summary.items():
            print(
                f"{workload} {name:14s} parent {m['parent']['median']:.4g} "
                f"[{m['parent']['q1']:.4g}, {m['parent']['q3']:.4g}]  change {m['change']['median']:.4g} "
                f"[{m['change']['q1']:.4g}, {m['change']['q3']:.4g}]  wins {m['change_wins']}/{m['pairs']}  "
                f"beats parent IQR: {m['beats_parent_iqr']}",
                flush=True,
            )
        with open(args.out, "w", encoding="utf-8") as fh:  # rewritten after each workload
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all(w["all_correct"] for w in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
