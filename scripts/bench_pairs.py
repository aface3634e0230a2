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
runs, the pairs whose two runs attempted a different number of checks
(``attempted differs``: a run cut by the deadline certifies fewer calls, so
its medians cover other queries), and per end-to-end metric the median and
quartiles,
``change_over_parent`` (the ratio of the medians) and the pairs won by the
change.  The same summary, lower being better, is made in ``median_ms`` of
the ``median_ms`` column that run.py prints per method table entry ("method
K=k"), so that entries which no end-to-end metric names alone (such as
``exact-linf``) can be compared too.  Raw milliseconds drift between
checkouts and runs, so ``median_refs`` summarises the same entries divided
by the run's printed ``reference.ms`` (the reference kernel's median call,
the unit of run.py's ``refs_per_query`` metrics).  That value shows how fast
the machine ran, so ``reference_ms`` holds its median and quartiles per side
and ``change_over_parent``, printed on stderr too: a ratio far from 1 means
the two sides met different load, which ``refs_per_query`` divides out only
in part.  ``runs[W]`` lists every run's metrics, printed medians in both
units, ``reference_ms``, ``attempted`` and order.  A
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


def printed_medians(stdout: str) -> dict:
    """The ``median_ms`` column of run.py's printed method table, keyed by entry.

    The table starts at the header line ``method n median_ms ...`` and ends
    at the ``checks:`` line; each row ends in five columns (n, median_ms,
    mean_ms, the high percentile, max_ms) after the entry's name.  Output
    without the table gives an empty dict."""
    medians = {}
    rows = False
    for line in stdout.splitlines():
        fields = line.split()
        if fields[:3] == ["method", "n", "median_ms"]:
            rows = True
        elif line.startswith("checks:"):
            rows = False
        elif rows and len(fields) > 5:
            medians[" ".join(fields[:-5])] = float(fields[-4])
    return medians


def printed_reference_ms(stdout: str) -> float | None:
    """The value of run.py's printed ``reference.ms = <value> ms`` line, or None."""
    for line in stdout.splitlines():
        fields = line.split()
        if fields[:2] == ["reference.ms", "="]:
            return float(fields[2])
    return None


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One perfbench run: the JSON object on its last output line, with the
    printed ``reference.ms`` added as ``reference_ms`` (None without that
    line) and the printed per-entry medians as ``median_ms`` and, divided by
    ``reference_ms``, as ``median_refs`` (empty without that line).

    A run that exits non-zero raises ``subprocess.CalledProcessError``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["median_ms"] = printed_medians(done.stdout)
    ref = result["reference_ms"] = printed_reference_ms(done.stdout)
    result["median_refs"] = ({entry: ms / ref for entry, ms in result["median_ms"].items()}
                             if ref else {})
    return result


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(values: dict, better: str) -> tuple[dict, int]:
    """Median and quartiles per side, ``change_over_parent`` (the ratio of
    the medians), and the pairs won by the change, from ``values`` mapping
    each side to its per-pair values; ``better`` is "lower" or "higher"."""
    stats = {side: quartiles(values[side]) for side in SIDES}
    parent_median = stats["parent"]["median"]
    stats["change_over_parent"] = (stats["change"]["median"] / parent_median
                                   if parent_median else None)
    sign = -1.0 if better == "higher" else 1.0
    won = sum(sign * c < sign * p for p, c in zip(values["parent"], values["change"]))
    return stats, won


def summarise(runs: dict, better: dict) -> dict:
    """The ``workloads`` block of one workload from each side's run records.

    ``runs`` maps "parent" and "change" to equally long lists of run.py
    results, pair i being the i-th of each; ``better`` maps a metric name to
    "lower" or "higher".  ``median_ms`` and ``median_refs`` each summarise
    the entries that every run of both sides holds in that key of its result,
    and ``reference_ms`` summarises that value when every run has one (else
    it is None).
    """
    if len(runs["parent"]) != len(runs["change"]) or not runs["parent"]:
        raise ValueError("each side needs the same, nonzero number of runs")
    block = {
        "runs": {side: len(runs[side]) for side in SIDES},
        "correct": {side: all(r["correct"] for r in runs[side]) for side in SIDES},
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "attempted differs": [
            pair for pair, (p, c) in enumerate(zip(runs["parent"], runs["change"]), start=1)
            if p["attempted"] != c["attempted"]],
        "metrics": {},
        "pairs won by change": {},
        "median_ms": {},
        "median_refs": {},
        "reference_ms": None,
    }
    for name in runs["parent"][0]["metrics"]:
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        block["metrics"][name], block["pairs won by change"][name] = compare(
            values, better[name])
    every = runs["parent"] + runs["change"]
    if all(r.get("reference_ms") for r in every):
        block["reference_ms"] = compare(
            {side: [r["reference_ms"] for r in runs[side]] for side in SIDES}, "lower")[0]
    for column in ("median_ms", "median_refs"):
        for entry in every[0].get(column, {}):
            if all(entry in r.get(column, {}) for r in every):
                values = {side: [r[column][entry] for r in runs[side]] for side in SIDES}
                stats, won = compare(values, "lower")
                block[column][entry] = {**stats, "pairs won by change": won}
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
                            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                            "median_ms": result["median_ms"],
                            "median_refs": result["median_refs"],
                            "reference_ms": result["reference_ms"]})
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
        block = summarise(runs, better)
        out.setdefault("workloads", {})[args.workload] = {"seed": args.seed, **block}
        out.get("failures", {}).pop(args.workload, None)
        ref = block["reference_ms"]
        load = (f"reference.ms change/parent {ref['change_over_parent']:.3f}" if ref
                else "no reference.ms")
        print(f"{args.workload}: {len(block['attempted differs'])} of {args.pairs} pairs "
              f"differ in attempted {block['attempted differs']}; {load}", file=sys.stderr)
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    if failure:
        print("run failed: " + json.dumps(failure, indent=1), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
