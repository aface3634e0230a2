"""Certify a workload's method table over its query sample, checking every output.

Each (method, query, K) calls the public function that ``cli._run_method``
calls, with the arguments the command line's default ``RunConfig`` gives it.
The table is not run through ``cli.bench``: that aborts the whole table on
one solver error and reloads the CSV for each K.  A raised ``KnnRobustError``
or a failed check counts against its certificate, and the run goes on.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from knnrobust import attack, lp, verify
from knnrobust.cli import RunConfig
from knnrobust.data import knn_predict, load_csv, load_queries
from knnrobust.errors import CertificationError, KnnRobustError

import outputs
from spans import Tracer, instrument, layer_metrics
from workloads import EXACT_L2, LOWER, LP_METHODS, METRIC_PREFIX, Entry, Workload

FINGERPRINT_PATH = Path(__file__).with_name("fingerprint.json")
FINGERPRINT_METHODS = ("exact", "exact-linf", "exact-l1", "verifier")
# The baselines that may find no flipping direction and raise ``SolverError``
# (naive-1 does at K >= 5, so the tables run it at K=1 only).  Their errors
# are counted in ``failed``, not as failed checks; an error from any other
# method is a failed check.
MAY_RAISE = ("naive-1", "naive-10", "mean")
# The LP methods certify every LP_STRIDE-th query only.  One LP query costs
# about a hundred times a QP query on lp-norms; run on every query, they left
# the QP methods ~135 queries a run, and the QP times spread by 0.12-0.25
# between seeds.
LP_STRIDE = 16
DEFAULT_SEED = 0
# Set-up is repeated at least this often and for at least this long.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
# The end-to-end metrics every workload reports.  Times other than set-up are
# in units of the reference kernel's median call ("ref").  The LP methods run
# on one workload only, so their times are printed but not part of this list.
END_TO_END = (
    "setup_s", "table.refs_per_query", "exact.refs_per_query", "verify.refs_per_query",
    "qp1.refs_per_query", "qp10.refs_per_query", "greedy.refs_per_query",
    "naive1.refs_per_query", "naive10.refs_per_query", "mean.refs_per_query",
    "bracket_ratio", "peak_rss_mb",
)


class Reference:
    """A fixed numpy kernel that depends on neither the seed nor the library.

    Timed between the table's calls all through a run, it measures how fast
    the machine ran meanwhile: on a shared host that speed drifts by tens of
    percent over minutes, far more than a run's own noise.  It mixes the two kinds of
    work the library does, a distance computation and sort over a mid-sized
    matrix and a loop of small matrix-vector steps.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(1906)
        self.points = rng.standard_normal((256, 784))
        self.x = rng.standard_normal(784)
        self.rows = rng.standard_normal((30, 20))
        self.v = rng.standard_normal(20)

    def __call__(self) -> float:
        """Run the kernel once and return its wall time in seconds."""
        started = time.perf_counter()
        diff = self.points - self.x
        np.argsort(np.einsum("ij,ij->i", diff, diff), kind="stable")
        g = self.v.copy()
        for _ in range(100):
            g -= 1e-3 * self.rows[int(np.argmax(np.abs(self.rows @ g)))]
        return time.perf_counter() - started


# Only the solver, tie and screening settings are read from it.
CLI_DEFAULTS = RunConfig(command="bench", data_path="", query_path="")


def setup(w: Workload, paths, tracer: Tracer | None = None) -> list:
    """Load each dataset's CSVs and keep the queries classified correctly at every K.

    Returns ``(key, dataset, query)`` items, taking the datasets in turn so
    that any prefix of the list draws on all of them.  ``key`` is
    ``"<dataset>:<query row>"``.
    """
    tie = CLI_DEFAULTS.tie_rule()
    per_dataset = []
    for b, (data_path, query_path) in enumerate(paths):
        if tracer is None:
            ds = load_csv(data_path)
            queries = load_queries(query_path)
        else:
            with tracer.span("data.load"):
                ds = load_csv(data_path)
            with tracer.span("data.load"):
                queries = load_queries(query_path)
        per_dataset.append([
            (f"{b}:{i}", ds, q) for i, q in enumerate(queries)
            if all(knn_predict(ds, q.z, k, tie, true_label=q.true_label) == q.true_label
                   for k in w.ks)
        ])
    return [item for group in itertools.zip_longest(*per_dataset) for item in group
            if item is not None]


def timed_setup(w: Workload, paths):
    """Repeat ``setup``; return its last result and the seconds of every repeat."""
    seconds = []
    while len(seconds) < SETUP_REPEATS or sum(seconds) < SETUP_SECONDS:
        started = time.perf_counter()
        sample = setup(w, paths)
        seconds.append(time.perf_counter() - started)
    return sample, seconds


def certify(method: str, ds, q, k: int):
    """Return (epsilon, delta or None, norm) for one method, as the CLI runs it."""
    cfg = CLI_DEFAULTS
    solver = cfg.solver_config()
    tie = cfg.tie_rule()
    if method == "verifier":
        return verify.verify_knn(ds, q, k, tie).epsilon_lower, None, "l2"
    if method == "exact":
        cert = attack.exact_1nn(ds, q, solver, n_scr=cfg.n_scr,
                                sort_candidates=cfg.sorting, tie=tie)
    elif method in LP_METHODS:
        norm = method.split("-")[1]
        cert = lp.exact_1nn_lp(ds, q, norm, tie=tie)
        return cert.epsilon, cert.delta, norm
    elif method.startswith("qp-") and method[3:].isdigit():
        cert = attack.qp_top_m(ds, q, int(method[3:]), solver, n_scr=cfg.n_scr, tie=tie)
    elif method == "qp-greedy":
        cert = attack.qp_greedy_knn(ds, q, k, solver, tie=tie)
    elif method.startswith("naive-"):
        cert = attack.naive_attack(ds, q, k, int(method[6:]), tie=tie)
    elif method == "mean":
        cert = attack.mean_attack(ds, q, k, tie=tie)
    else:
        raise ValueError(f"unknown method {method!r}")
    return cert.epsilon, cert.delta, "l2"


@dataclass
class Results:
    """Everything a run measured and every check it failed."""

    seconds: dict = field(default_factory=dict)      # (method, K) -> [s per call]
    reference: list = field(default_factory=list)    # s per reference kernel call
    calls: dict = field(default_factory=dict)        # (entry, query) -> (s, epsilon or None)
    brackets: list = field(default_factory=list)     # lower / best upper per (query, K)
    epsilons: dict = field(default_factory=dict)     # fingerprint key -> epsilon, None if raised
    attempted: int = 0
    failed: set = field(default_factory=set)         # (method, query, K)
    failures: Counter = field(default_factory=Counter)  # failed check -> count
    errors: Counter = field(default_factory=Counter)    # "method K=k: exception" -> count

    def fail(self, check: str, keys) -> None:
        self.failures[check] += 1
        self.failed.update(keys)


def _certify_entry(e: Entry, item, res: Results) -> float:
    """Certify and check one (method, query, K); return the seconds it took."""
    index, ds, q = item
    key = (e.method, index, e.k)
    res.attempted += 1
    epsilon = None
    started = time.perf_counter()
    try:
        epsilon, delta, norm = certify(e.method, ds, q, e.k)
    except KnnRobustError as exc:
        elapsed = time.perf_counter() - started
        res.errors[f"{e.method} K={e.k}: {type(exc).__name__}"] += 1
        if isinstance(exc, CertificationError) or e.method not in MAY_RAISE:
            res.fail(f"raised {type(exc).__name__}", [key])
        else:
            res.failed.add(key)
    else:
        elapsed = time.perf_counter() - started
        if delta is not None:
            for name in outputs.certificate_checks(
                    ds.points, ds.labels, q.z, q.true_label, e.k, norm, delta, epsilon):
                res.fail(name, [key])
    res.seconds.setdefault((e.method, e.k), []).append(elapsed)
    if e.method in FINGERPRINT_METHODS:
        res.epsilons[f"{e.method}|k={e.k}|q={index}"] = epsilon
    res.calls[(e, index)] = (elapsed, epsilon)
    return elapsed


def _cross_checks(w: Workload, sample, res: Results) -> None:
    """Orderings, sandwich and bracket per (query, K) the table reached."""
    for index, ds, _ in sample:
        done = {e: res.calls[(e, index)] for e in w.table if (e, index) in res.calls}
        for k in w.ks:
            eps = {e.method: v for e, (_, v) in done.items() if e.k == k and v is not None}
            lower = {m: v for m, v in eps.items() if m == LOWER}
            exact = {m: v for m, v in eps.items() if m == EXACT_L2}
            upper = {m: v for m, v in eps.items() if m not in (LOWER, EXACT_L2, *LP_METHODS)}
            found = outputs.ordering_checks(lower, exact, upper)
            if all(m in eps for m in (EXACT_L2, *LP_METHODS)):
                found += outputs.sandwich_checks(eps[EXACT_L2], eps["exact-linf"],
                                                 eps["exact-l1"], ds.d)
            for name, methods in found:
                res.fail(name, [(m, index, k) for m in methods])
            if lower and (exact or upper):
                res.brackets.append(max(lower.values()) / min({**exact, **upper}.values()))


def run_table(w: Workload, sample, res: Results, *,
              seconds: float | None = None, tracer: Tracer | None = None) -> float:
    """Certify the table query by query, every entry on each query.

    The LP methods take only every ``LP_STRIDE``-th query of the sample.
    Returns the seconds spent certifying.  With ``seconds``, no query is
    started after that long, and the reference kernel runs once after each
    call, so that its median is taken over the same stretch of time as the
    calls' medians.
    """
    reference = Reference() if seconds is not None else None
    deadline = None if seconds is None else time.perf_counter() + seconds
    wall = 0.0
    for position, item in enumerate(sample):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.query = item[0]
        for e in w.table:
            if e.method in LP_METHODS and position % LP_STRIDE:
                continue
            wall += _certify_entry(e, item, res)
            if reference is not None:
                res.reference.append(reference())
    _cross_checks(w, sample, res)
    return wall


def _load_fingerprint() -> dict:
    if FINGERPRINT_PATH.exists():
        return json.loads(FINGERPRINT_PATH.read_text())
    return {}


def record_fingerprint(w: Workload, paths, seconds: float) -> int:
    """Store the exact and verifier epsilons that ``seconds`` of certifying reach.

    Only the fingerprinted entries run, in their usual order over the sample,
    so they reach further than a timed run of the same length.
    """
    res = Results()
    subset = replace(w, table=tuple(e for e in w.table if e.method in FINGERPRINT_METHODS))
    run_table(subset, setup(w, paths), res, seconds=seconds)
    if res.failures or res.errors:
        raise SystemExit(f"failures while recording: {dict(res.failures + res.errors)}")
    stored = _load_fingerprint()
    stored[w.name] = {key: res.epsilons[key] for key in sorted(res.epsilons)}
    FINGERPRINT_PATH.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return len(res.epsilons)


def fingerprint_check(w: Workload, seed: int, res: Results) -> int:
    """At the default seed, count mismatches against the stored reference."""
    if seed != DEFAULT_SEED:
        return 0
    reference = _load_fingerprint().get(w.name, {})
    compared, bad = outputs.fingerprint_mismatches(res.epsilons, reference)
    for key in bad:
        method, k, q = key.split("|")
        res.fail("fingerprint", [(method, q[2:], int(k[2:]))])
    return compared


def _percentile_summary(values: list[float]) -> dict:
    """Median, mean, max, the highest of p90/p95/p99 with ten samples beyond it, and n."""
    arr = np.sort(np.asarray(values))
    out = {"n": int(arr.size), "median_ms": 1e3 * float(np.median(arr)),
           "mean_ms": 1e3 * float(arr.mean()), "max_ms": 1e3 * float(arr[-1])}
    for p in (99, 95, 90):
        if arr.size * (1 - p / 100) >= 10:
            out[f"p{p}_ms"] = 1e3 * float(np.percentile(arr, p))
            break
    return out


def method_summaries(res: Results) -> dict:
    return {f"{m} K={k}": _percentile_summary(v) for (m, k), v in res.seconds.items()}


def end_to_end(res: Results, setup_seconds: list[float], peak_rss_mb: float) -> dict:
    """Every end-to-end metric the run can give: name -> (value, unit)."""
    ref = statistics.median(res.reference)
    metrics = {"setup_s": (statistics.median(setup_seconds), "s"),
               "reference.ms": (1e3 * ref, "ms")}
    per_k: dict[str, list[float]] = {}
    for (method, _), values in res.seconds.items():
        per_k.setdefault(method, []).append(statistics.median(values))
    # The whole table for one typical query: every entry's median, summed.
    times = {"table": sum(sum(medians) for medians in per_k.values())}
    for method, medians in per_k.items():
        # A method run at several K reports the geometric mean of its per-K
        # medians, so that the slowest K does not carry all of its noise.
        times[METRIC_PREFIX[method]] = statistics.geometric_mean(medians)
    for name, seconds in times.items():
        metrics[f"{name}.ms_per_query"] = (1e3 * seconds, "ms")
        metrics[f"{name}.refs_per_query"] = (seconds / ref, "ref")
    if res.brackets:
        metrics["bracket_ratio"] = (float(np.mean(res.brackets)), "1")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics


def traced_layers(w: Workload, paths, queries: int, res: Results):
    """Set up, then certify each of ``queries`` queries untraced and again traced.

    Alternating per query keeps the host's drift out of the overhead.  The
    traced calls fill ``res``.  Returns the per-layer metrics, the tracing
    overhead per query included.
    """
    tracer = Tracer()
    sample = setup(w, paths, tracer)[:queries]
    untraced = traced = 0.0
    for item in sample:
        untraced += run_table(w, [item], Results())
        with instrument(tracer):
            traced += run_table(w, [item], res, tracer=tracer)
    layers = layer_metrics(tracer.spans)
    layers["trace.overhead_ms_per_query"] = 1e3 * (traced - untraced) / max(len(sample), 1)
    return layers
