#!/usr/bin/env python3
"""Run perfbench on two checkouts in alternating pairs and summarise the runs.

Usage:
    python3 scripts/bench_pairs.py PARENT CHANGE --workload binary-knn \\
        --pairs 10 --seed 0 --out BENCH.json

Each pair runs ``python3 perfbench/run.py --workload W --seed S --trace 0``
once in each checkout, at the run length run.py sets, the parent first in odd
pairs (1, 3, ...) and the change first in even pairs.  The runs are
sequential, so the two sides never share the machine.  ``--out`` receives a
JSON object whose ``workloads[W]`` block holds, per side: the run count,
whether every run was correct, the failed and attempted checks summed over the
runs, and per end-to-end metric the median and quartiles,
``change_over_parent`` (the ratio of the medians) and the pairs won by the
change.  ``runs[W]`` lists every run's metrics, ``attempted`` and order.  A
metric's better direction is read from the change's ``BENCHMARK.json``
before the first run; a change checkout without that file ends the script at
once (exit 2).  An existing ``--out`` file keeps its other workloads.

A run that exits non-zero ends the script: ``--out`` then holds the runs
completed before it in ``runs[W]`` and, in ``failures[W]``, the failed run's
pair, side, exit code and last 20 lines of stderr, with no ``workloads[W]``
summary.  The failure record is printed and the script exits 1.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
STDERR_LINES = 20  # of a failed run, kept in --out


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One perfbench run; returns the JSON object on its last output line.

    A run that exits non-zero raises ``subprocess.CalledProcessError``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: dict, better: dict) -> dict:
    """The ``workloads`` block of one workload from each side's run records.

    ``runs`` maps "parent" and "change" to equally long lists of run.py
    results, pair i being the i-th of each; ``better`` maps a metric name to
    "lower" or "higher".
    """
    if len(runs["parent"]) != len(runs["change"]) or not runs["parent"]:
        raise ValueError("each side needs the same, nonzero number of runs")
    block = {
        "runs": {side: len(runs[side]) for side in SIDES},
        "correct": {side: all(r["correct"] for r in runs[side]) for side in SIDES},
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "metrics": {},
        "pairs won by change": {},
    }
    for name in runs["parent"][0]["metrics"]:
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        parent_median = stats["parent"]["median"]
        stats["change_over_parent"] = (stats["change"]["median"] / parent_median
                                       if parent_median else None)
        block["metrics"][name] = stats
        sign = -1.0 if better[name] == "higher" else 1.0
        block["pairs won by change"][name] = sum(
            sign * c < sign * p for p, c in zip(values["parent"], values["change"]))
    return block


def _better(checkout: Path) -> dict:
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if not (checkouts["change"] / "BENCHMARK.json").is_file():
        parser.error(f"{checkouts['change']} has no BENCHMARK.json")
    better = _better(checkouts["change"])
    runs = {side: [] for side in SIDES}
    records = []
    failure = None
    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for position, side in enumerate(order):
            try:
                result = run_once(checkouts[side], args.workload, args.seed)
            except subprocess.CalledProcessError as err:
                failure = {"pair": pair, "side": side, "exit code": err.returncode,
                           "stderr": err.stderr.splitlines()[-STDERR_LINES:]}
                break
            runs[side].append(result)
            records.append({"pair": pair, "side": side, "first": position == 0,
                            "attempted": result["attempted"], "failed": result["failed"],
                            "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"pair {pair} {side}: attempted={result['attempted']} "
                  f"correct={result['correct']}", file=sys.stderr)
        if failure:
            break

    out = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    out.setdefault("description", (
        "perfbench end-to-end metrics (python3 perfbench/run.py --trace 0), parent and "
        "change run alternately on one machine; medians with quartiles over the runs"))
    out.setdefault("runs", {})[args.workload] = records
    if failure:
        out.setdefault("workloads", {}).pop(args.workload, None)
        out.setdefault("failures", {})[args.workload] = failure
    else:
        out.setdefault("workloads", {})[args.workload] = {
            "seed": args.seed, **summarise(runs, better)}
        out.get("failures", {}).pop(args.workload, None)
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    if failure:
        print("run failed: " + json.dumps(failure, indent=1), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
