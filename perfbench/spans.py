"""Spans recorded from outside the library, and the per-layer metrics.

A traced run rebinds, for its duration only, the names each caller in the
library looks up (module globals and ``Dataset.distances_sq``) to wrappers
that record a span per call.  Spans stay in memory; the metrics below are
computed from them when the run ends.  A span's self time is its duration
minus the durations of its child spans, which on one thread never overlap.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

import numpy as np

from knnrobust import attack, lp, verify
from knnrobust.data import Dataset


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    query: str              # "<dataset>:<query row>", "" outside a query
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.query = ""
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span = Span(name, 0.0, 0.0, self._open[-1] if self._open else None, self.query)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(args, result)`` adds counts."""
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if count is not None:
                span.counts = count(args, result)
            return result
        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def _count_solve(args, sol):
    sp = args[0]
    return {"iterations": sol.iterations, "flop": 2 * sp.m * sp.d * sol.iterations,
            "status": sol.status.value}


def _count_build(args, sp):
    return {"rows": sp.m, "bytes": sp.rows.nbytes}


def _count_lp_build(args, program):
    return {"cells": program.matrix.size}


def _count_attack(args, cert):
    """Counts from ``AttackStats``; qp-greedy's candidates are the subproblems it builds."""
    s = cert.stats
    return {"candidates": s.subproblems_built, "built": s.subproblems_built,
            "solved": s.subproblems_solved, "screened": s.subproblems_screened}


def _count_1nn_attack(args, cert):
    """Counts of ``exact_1nn`` and ``qp_top_m``: every other-class point is a candidate.

    Their stats count a candidate dropped by the screen after its build both
    as built and as screened, so the candidates are counted from the data.
    """
    counts = _count_attack(args, cert)
    if counts["built"]:
        ds, q = args[0], args[1]
        others = int(np.count_nonzero(ds.labels != q.true_label))
        limit = args[2] if len(args) > 2 and isinstance(args[2], int) else others
        counts["candidates"] = min(others, limit)
    return counts


def _count_verify(args, res):
    ds, q = args[0], args[1]
    if res.misclassified:
        return {"pairs": 0}
    same = int(np.count_nonzero(ds.labels == q.true_label))
    return {"pairs": same * (ds.n - same)}


# (owner, attribute, span name, counter).  Root spans are the per-method
# entry points; the rest are the names the library's callers look up.
REBOUND = (
    (attack, "exact_1nn", "attack.root", _count_1nn_attack),
    (attack, "qp_top_m", "attack.root", _count_1nn_attack),
    (attack, "qp_greedy_knn", "attack.root", _count_attack),
    (attack, "naive_attack", "attack.root", _count_attack),
    (attack, "mean_attack", "attack.root", _count_attack),
    (verify, "verify_knn", "verify.root", _count_verify),
    (lp, "exact_1nn_lp", "lp.root", None),
    (attack, "solve_dual_gca", "qp_solver.solve", _count_solve),
    (attack, "recover_primal", "qp_solver.recover", None),
    (attack, "build_1nn_subproblem", "subproblem.build", _count_build),
    (attack, "build_knn_subproblem", "subproblem.build", _count_build),
    (lp, "build_1nn_subproblem", "subproblem.build", _count_build),
    (lp, "solve_lp", "lp.solve", None),
    (lp, "build_linf_lp", "lp.build", _count_lp_build),
    (lp, "build_l1_lp", "lp.build", _count_lp_build),
    (attack, "knn_predict", "data.knn_predict", None),
    (verify, "knn_predict", "data.knn_predict", None),
    (lp, "knn_predict", "data.knn_predict", None),
    (Dataset, "distances_sq", "data.distances_sq", None),
)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind every name in ``REBOUND`` to a tracing wrapper, then restore it."""
    saved = []
    try:
        for owner, attr, name, count in REBOUND:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# Per-layer metrics: name -> (unit, better).
LAYER_METRICS = {
    "qp_solver.solve.calls": ("count", "lower"),
    "qp_solver.solve.self_ms": ("ms", "lower"),
    "qp_solver.iterations": ("count", "lower"),
    "qp_solver.us_per_iteration": ("us", "lower"),
    "qp_solver.gflop_computed": ("GFLOP", "lower"),
    "qp_solver.status.converged": ("count", "higher"),
    "qp_solver.status.iteration_cap": ("count", "lower"),
    "qp_solver.status.objective_cap": ("count", "lower"),
    "data.distances_sq.calls": ("count", "lower"),
    "data.distances_sq.self_ms": ("ms", "lower"),
    "data.knn_predict.calls": ("count", "lower"),
    "data.knn_predict.self_ms": ("ms", "lower"),
    "data.load.self_ms": ("ms", "lower"),
    "subproblem.build.calls": ("count", "lower"),
    "subproblem.build.self_ms": ("ms", "lower"),
    "subproblem.rows": ("count", "lower"),
    "subproblem.mbytes_computed": ("MB", "lower"),
    "attack.self_ms": ("ms", "lower"),
    "attack.candidates": ("count", "lower"),
    "attack.subproblems_built": ("count", "lower"),
    "attack.subproblems_solved": ("count", "lower"),
    "attack.subproblems_screened": ("count", "higher"),
    "attack.solve_ratio": ("1", "lower"),
    "verify.calls": ("count", "lower"),
    "verify.self_ms": ("ms", "lower"),
    "verify.pair_bounds": ("count", "lower"),
    "verify.ns_per_pair_bound": ("ns", "lower"),
    "lp.build.calls": ("count", "lower"),
    "lp.build.self_ms": ("ms", "lower"),
    "lp.solve.calls": ("count", "lower"),
    "lp.solve.self_ms": ("ms", "lower"),
    "lp.ms_per_solve": ("ms", "lower"),
    "lp.tableau_cells": ("count", "lower"),
    "trace.overhead_ms_per_query": ("ms", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Aggregate spans into the ``LAYER_METRICS`` values (without the overhead).

    Byte and flop counts are computed from shapes, not measured.
    """
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    totals: dict[str, float] = {}
    for s, t in zip(spans, own):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_ms[s.name] = self_ms.get(s.name, 0.0) + 1e3 * t
        for key, value in s.counts.items():
            if key == "status":
                key = f"status.{value}"
                value = 1
            totals[f"{s.name}.{key}"] = totals.get(f"{s.name}.{key}", 0) + value

    def tot(key):
        return totals.get(key, 0)

    out = {
        "qp_solver.solve.calls": calls.get("qp_solver.solve", 0),
        "qp_solver.solve.self_ms": self_ms.get("qp_solver.solve", 0.0),
        "qp_solver.iterations": tot("qp_solver.solve.iterations"),
        "qp_solver.gflop_computed": tot("qp_solver.solve.flop") / 1e9,
        "data.distances_sq.calls": calls.get("data.distances_sq", 0),
        "data.distances_sq.self_ms": self_ms.get("data.distances_sq", 0.0),
        "data.knn_predict.calls": calls.get("data.knn_predict", 0),
        "data.knn_predict.self_ms": self_ms.get("data.knn_predict", 0.0),
        "data.load.self_ms": self_ms.get("data.load", 0.0),
        "subproblem.build.calls": calls.get("subproblem.build", 0),
        "subproblem.build.self_ms": self_ms.get("subproblem.build", 0.0),
        "subproblem.rows": tot("subproblem.build.rows"),
        "subproblem.mbytes_computed": tot("subproblem.build.bytes") / 1e6,
        "attack.self_ms": self_ms.get("attack.root", 0.0),
        "attack.candidates": tot("attack.root.candidates"),
        "attack.subproblems_built": tot("attack.root.built"),
        "attack.subproblems_solved": tot("attack.root.solved"),
        "attack.subproblems_screened": tot("attack.root.screened"),
        "verify.calls": calls.get("verify.root", 0),
        "verify.self_ms": self_ms.get("verify.root", 0.0),
        "verify.pair_bounds": tot("verify.root.pairs"),
        "lp.build.calls": calls.get("lp.build", 0),
        "lp.build.self_ms": self_ms.get("lp.build", 0.0),
        "lp.solve.calls": calls.get("lp.solve", 0),
        "lp.solve.self_ms": self_ms.get("lp.solve", 0.0),
        "lp.tableau_cells": tot("lp.build.cells"),
    }
    for status in ("converged", "iteration_cap", "objective_cap"):
        out[f"qp_solver.status.{status}"] = tot(f"qp_solver.solve.status.{status}")
    out["qp_solver.us_per_iteration"] = _ratio(1e3 * out["qp_solver.solve.self_ms"],
                                               out["qp_solver.iterations"])
    out["attack.solve_ratio"] = _ratio(out["attack.subproblems_solved"], out["attack.candidates"])
    out["verify.ns_per_pair_bound"] = _ratio(1e6 * out["verify.self_ms"], out["verify.pair_bounds"])
    out["lp.ms_per_solve"] = _ratio(out["lp.solve.self_ms"], out["lp.solve.calls"])
    return out
