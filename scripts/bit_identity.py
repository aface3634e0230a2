#!/usr/bin/env python3
"""Compare the certificates of two checkouts, bit for bit.

Usage:
    python3 scripts/bit_identity.py PARENT CHANGE

Each checkout runs in its own subprocess (this script with ``--record``),
which imports ``knnrobust`` from the checkout's ``src``, the acceptance
corpus from its ``tests/helpers.py`` and the workloads from its
``perfbench/workloads.py``.  The inputs are the corpus, the corpus scaled by
0.3 (where exact distance ties become near ties), tie-heavy integer grids
of 450 to 800 points (each class large enough that ``data.stable_order``
checks its sorts for ties, and most distances shared), and the first 40
queries of every dataset of both perfbench workloads at seeds 0 and 1,
generated in memory.  Each input runs every method of the perfbench method
table at every K that the input allows, and the exact ablations at K=1
(unsorted, with ``n_scr=1`` and without screening).

Per call the record holds the epsilon as ``float.hex``, the SHA-1 of the
perturbation's bytes, the stats counts (built, solved, screened, solver
steps), the verifier's binding pair and pair count, or the type of the
library error raised.  The script prints, per method, the calls compared,
those that differ, the largest relative difference of an epsilon recorded
on both sides, and the calls whose raised error changed (an error on one
side only, or another type); then the first differences.  It exits 1 on any
difference, 2 when a recording subprocess fails.  BLAS runs on one thread,
as in perfbench.  Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SEEDS = (0, 1)
QUERIES_PER_DATASET = 40
TIE_GRIDS = 40
TIE_GRID_SEED = 11
TIE_GRID_KS = (1, 3, 5)
ABLATIONS = ("exact-unsorted", "exact-nscr1", "exact-noscreen")
SHOWN = 10  # differences printed
_ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS")}


def _certificate_record(cert) -> dict:
    s = cert.stats
    delta = None if cert.delta is None else hashlib.sha1(cert.delta.tobytes()).hexdigest()
    return {"eps": float(cert.epsilon).hex(), "delta": delta,
            "stats": [s.subproblems_built, s.subproblems_solved, s.subproblems_screened,
                      s.solver_iterations]}


def _run(method: str, ds, q, k: int) -> dict:
    """One call's record; a library error is recorded by its type name.

    Any other exception ends the recording subprocess with its traceback."""
    from knnrobust import (KnnRobustError, SolverConfig, exact_1nn, exact_1nn_lp, mean_attack,
                           naive_attack, qp_greedy_knn, qp_top_m, verify_knn)
    try:
        if method == "verifier":
            res = verify_knn(ds, q, k)
            return {"eps": float(res.epsilon_lower).hex(),
                    "binding": res.binding_pair and list(res.binding_pair),
                    "pairs": res.pair_bounds}
        if method == "exact":
            cert = exact_1nn(ds, q)
        elif method == "exact-unsorted":
            cert = exact_1nn(ds, q, sort_candidates=False)
        elif method == "exact-nscr1":
            cert = exact_1nn(ds, q, n_scr=1)
        elif method == "exact-noscreen":
            cert = exact_1nn(ds, q, SolverConfig(screening_enabled=False))
        elif method.startswith("exact-"):
            cert = exact_1nn_lp(ds, q, method[6:])
        elif method == "qp-greedy":
            cert = qp_greedy_knn(ds, q, k)
        elif method.startswith("qp-"):
            cert = qp_top_m(ds, q, int(method[3:]))
        elif method.startswith("naive-"):
            cert = naive_attack(ds, q, k, int(method[6:]))
        elif method == "mean":
            cert = mean_attack(ds, q, k)
        else:
            raise ValueError(f"unknown method {method!r}")
    except KnnRobustError as err:
        return {"error": type(err).__name__}
    return _certificate_record(cert)


def _tie_grid(rng):
    """A dataset on a coarse integer grid, with an integer query.

    Almost every distance from the query is shared by several points, and
    each of the two classes has 200 points or more, so the distance orders
    of every method are sorts that ``data.stable_order`` checks for ties.
    The query carries its 1-NN label.
    """
    import numpy as np
    from knnrobust import Dataset, Query, knn_predict
    while True:
        d = int(rng.integers(2, 4))
        side = {2: 41, 3: 13}[d]
        n = int(rng.integers(450, 801))
        flat = rng.choice(side ** d, size=n + 1, replace=False)
        coords = (np.stack(np.unravel_index(flat, (side,) * d), axis=1) - side // 2).astype(float)
        labels = rng.integers(1, 3, size=n)
        if np.bincount(labels)[1:].min() < 200:
            continue
        ds = Dataset(coords[:n], labels, 2)
        return ds, Query(coords[n], knn_predict(ds, coords[n], 1))


def _inputs():
    """``(name, dataset, query, ks, entries)`` for every input of the sweep."""
    import numpy as np
    from helpers import CORPUS_SEED, CORPUS_SIZE, random_grid_dataset
    from knnrobust import Dataset, Query
    from workloads import K1_TABLE, LP_METHODS, WORKLOADS, _table, generate

    corpus_table = _table(K1_TABLE + LP_METHODS, ks=(1, 3, 5))
    rng = np.random.default_rng(CORPUS_SEED)
    for i in range(CORPUS_SIZE):
        ds, q, ks = random_grid_dataset(rng)
        yield f"corpus/{i}", ds, q, ks, corpus_table
        yield (f"corpus*0.3/{i}", Dataset(0.3 * ds.points, ds.labels, ds.class_count),
               Query(0.3 * q.z, q.true_label), ks, corpus_table)
    rng = np.random.default_rng(TIE_GRID_SEED)
    for i in range(TIE_GRIDS):
        yield (f"tie-grid/{i}", *_tie_grid(rng), TIE_GRID_KS, corpus_table)
    for w in WORKLOADS.values():
        for seed in SEEDS:
            for b in range(w.datasets):
                points, labels, q_points, q_labels = generate(w, seed, b)
                ds = Dataset(points, labels, w.classes)
                for i in range(QUERIES_PER_DATASET):
                    yield (f"{w.name}:s{seed}:d{b}:q{i}", ds, Query(q_points[i], q_labels[i]),
                           w.ks, w.table)


def record(checkout: Path) -> dict:
    """Every record of the sweep on ``checkout``, keyed ``input/method/kK``."""
    for sub in ("src", "tests", "perfbench"):
        sys.path.insert(0, str(checkout / sub))
    import warnings
    warnings.simplefilter("ignore")
    out = {}
    for name, ds, q, ks, table in _inputs():
        entries = [(e.method, e.k) for e in table if e.k in ks]
        entries += [(m, 1) for m in ABLATIONS]
        for method, k in entries:
            out[f"{name}/{method}/k{k}"] = _run(method, ds, q, k)
    return out


def compare(parent: dict, change: dict) -> tuple[dict, list[str]]:
    """Per method ``[compared, differing]``, and one line per difference.

    A key on one side only counts as a difference of its method.
    """
    counts: dict = {}
    lines = []
    for key in sorted(parent.keys() | change.keys()):
        method = key.split("/")[-2]
        tally = counts.setdefault(method, [0, 0])
        tally[0] += 1
        old, new = parent.get(key), change.get(key)
        if old != new:
            tally[1] += 1
            lines.append(f"{key}: parent {old} change {new}")
    return counts, lines


def sizes(parent: dict, change: dict) -> dict:
    """Per method ``[largest relative epsilon difference, errors changed]``.

    The first is over the calls with an epsilon on both sides (0 when none
    differs, inf when a zero epsilon became nonzero); the second counts the
    calls on both sides where either raised and the two records' errors
    differ: an error on one side only, or another type.
    """
    out: dict = {}
    for key in parent.keys() & change.keys():
        size = out.setdefault(key.split("/")[-2], [0.0, 0])
        old, new = parent[key], change[key]
        if "error" in old or "error" in new:
            size[1] += old.get("error") != new.get("error")
            continue
        eps_old, eps_new = float.fromhex(old["eps"]), float.fromhex(new["eps"])
        if eps_old != eps_new:
            rel = abs(eps_new - eps_old) / abs(eps_old) if eps_old else float("inf")
            size[0] = max(size[0], rel)
    return out


def _record_in_subprocess(checkout: Path) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--record",
                             str(checkout)], stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **_ONE_THREAD})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--record", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record:
        json.dump(record(args.record.resolve()), sys.stdout)
        return 0
    if args.parent is None or args.change is None:
        parser.error("PARENT and CHANGE are required")

    procs = [_record_in_subprocess(p.resolve()) for p in (args.parent, args.change)]
    outputs = [proc.communicate()[0] for proc in procs]
    for path, proc in zip((args.parent, args.change), procs):
        if proc.returncode:
            print(f"recording {path} failed with exit code {proc.returncode}", file=sys.stderr)
            return 2
    records = [json.loads(out) for out in outputs]
    counts, lines = compare(*records)
    largest = sizes(*records)
    width = max(map(len, counts))
    for method, (compared, differing) in sorted(counts.items()):
        rel, errors = largest.get(method, (0.0, 0))
        print(f"{method:<{width}}  {compared:6d} compared  {differing:6d} differ  "
              f"max rel eps diff {rel:.2e}  {errors} errors changed")
    print(f"total: {sum(c for c, _ in counts.values())} compared, {len(lines)} differ")
    for line in lines[:SHOWN]:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
