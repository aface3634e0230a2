"""Seeded synthetic workloads and their method tables.

The data come from this file's own numpy code, never from the library's
generator, so that a change to the library cannot change a workload.  Each
workload is written as CSV and read back through ``load_csv`` /
``load_queries``, the path a user of the command line takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Method names as the command line spells them, mapped to metric prefixes.
METRIC_PREFIX = {
    "exact": "exact",
    "verifier": "verify",
    "qp-1": "qp1",
    "qp-10": "qp10",
    "qp-greedy": "greedy",
    "naive-1": "naive1",
    "naive-10": "naive10",
    "mean": "mean",
    "exact-linf": "lp_linf",
    "exact-l1": "lp_l1",
}
LOWER = "verifier"
EXACT_L2 = "exact"
LP_METHODS = ("exact-linf", "exact-l1")
# naive-1 runs at K=1 only: there its line search ends on the nearest
# other-class point, so it always flips the vote.  At K > 1 it walks toward a
# cluster centroid and may find no flip (SolverError); at seeds 0-4 it did so
# on 0, 2, 17 and 34 of 1500 binary-knn queries at K = 3, 5, 7, 9.  How many
# such queries a time-boxed run reaches varies from run to run, and the
# benchmark's workloads must be ones on which no call fails.
K1_ONLY = ("exact", "qp-1", "qp-10", "naive-1", "naive-10", "exact-linf", "exact-l1")


@dataclass(frozen=True)
class Entry:
    """One row of a method table: a method at one K."""

    method: str
    k: int


@dataclass(frozen=True)
class Workload:
    name: str
    classes: int
    per_class: int
    d: int
    separation: float
    datasets: int           # independent datasets, each with its own queries
    queries: int            # rows in each query CSV, before selection
    ks: tuple[int, ...]
    table: tuple[Entry, ...]
    trace_queries: int      # queries certified by a traced run


def _table(methods: tuple[str, ...], ks=(1,)) -> tuple[Entry, ...]:
    """Entries for every method at every K it is defined for."""
    return tuple(Entry(method, k) for k in ks for method in methods
                 if k == 1 or method not in K1_ONLY)


K1_TABLE = ("exact", "verifier", "qp-1", "qp-10", "qp-greedy", "naive-1", "naive-10", "mean")

# Why each workload exists is stated in BENCHMARK.json.  In short: binary-knn
# has low d and K up to 9, where the verifier's pair-bound blocks and
# multi-target K-NN subproblems cost most; lp-norms is the only workload that
# runs the LP pipeline, and its small QPs (m=10, d=20) are where a solver
# tuned for d=784 must show no change.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="binary-knn", classes=2, per_class=500, d=20, separation=3.0,
            datasets=4, queries=200, ks=(1, 3, 5, 7, 9),
            table=_table(K1_TABLE, ks=(1, 3, 5, 7, 9)),
            trace_queries=30,
        ),
        Workload(
            name="lp-norms", classes=2, per_class=10, d=20, separation=8.0,
            datasets=32, queries=100, ks=(1,),
            table=_table(K1_TABLE + LP_METHODS),
            trace_queries=30,
        ),
    )
}


def generate(w: Workload, seed: int, dataset: int = 0):
    """Gaussian blobs with unit noise around class means on the axes.

    Class means are ``separation`` apart.  Queries are fresh draws from the
    same mixture with uniformly random labels.  Returns (points, labels,
    query points, query labels).
    """
    rng = np.random.default_rng([seed, dataset])
    means = np.zeros((w.classes, w.d))
    for c in range(w.classes):
        means[c, c % w.d] = w.separation / np.sqrt(2.0) * (1 + c // w.d)
    labels = np.repeat(np.arange(1, w.classes + 1), w.per_class)
    points = means[labels - 1] + rng.standard_normal((labels.size, w.d))
    q_labels = rng.integers(1, w.classes + 1, size=w.queries)
    q_points = means[q_labels - 1] + rng.standard_normal((w.queries, w.d))
    return points, labels, q_points, q_labels


def _write_csv(path: Path, labels: np.ndarray, points: np.ndarray) -> None:
    table = np.column_stack([labels.astype(np.float64), points])
    fmt = ["%d"] + ["%.10g"] * points.shape[1]
    np.savetxt(path, table, fmt=fmt, delimiter=",")


def write_csvs(w: Workload, seed: int, directory: Path) -> list[tuple[Path, Path]]:
    """Write ``train<b>.csv`` and ``queries<b>.csv`` per dataset; return the path pairs."""
    paths = []
    for b in range(w.datasets):
        points, labels, q_points, q_labels = generate(w, seed, b)
        pair = (directory / f"train{b}.csv", directory / f"queries{b}.csv")
        _write_csv(pair[0], labels, points)
        _write_csv(pair[1], q_labels, q_points)
        paths.append(pair)
    return paths
