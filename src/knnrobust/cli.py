"""Command-line surface: batch robustness runs and benchmark tables.

Four subcommands share one structured JSON report format:

* ``exact``  -- exact minimum perturbation per query (1-NN; or the LP
  pipeline when ``--norm linf/l1``)
* ``verify`` -- certified lower bound per query for any odd K
* ``attack`` -- one upper-bound method (``qp-<m>``, ``qp-greedy``,
  ``naive-<t>`` or ``mean``, spelled as in ``bench --methods``)
* ``bench``  -- several methods over the same query sample, emitted as a
  comparison table with a built-in bound-ordering self check

Each subcommand takes only the flags that some path of it reads; any other
flag is a usage error (exit 2) rather than a setting echoed and ignored.

Exit codes: 0 ok, 2 bad configuration, 3 I/O or data format problem,
4 solver failure, 5 internal certification violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import attack as attack_mod
from .attack import DEFAULT_N_SCR, AttackStats, CertificateKind, PerturbationCertificate
from .data import Dataset, Query, knn_predict, load_csv, load_queries
from .errors import CertificationError, DataFormatError, KnnRobustError, SolverError
from .lp import exact_1nn_lp
from .qp_solver import SolverConfig
from .verify import verify_knn

SCHEMA_VERSION = 1
_ORDER_TOL = 1e-7

_BENCH_1NN = ("exact", "verifier", "qp-1", "qp-10", "qp-greedy", "naive-1", "naive-10", "mean")
_BENCH_KNN = ("verifier", "qp-greedy", "naive-1", "mean")
_NAMED_METHODS = ("exact", "verifier", "qp-greedy", "mean")


def _method_count(name: str) -> tuple[str, int | None]:
    """The prefix of a method name and, for ``qp-<m>`` and ``naive-<t>``, its
    count: None unless spelled exactly as ``str(int(count))``, so that a row of
    the bench table and its query records carry one name (``qp-01`` is none)."""
    prefix, _, count = name.partition("-")
    if prefix in ("qp", "naive") and count.isdecimal() and count == str(int(count)):
        return prefix, int(count)
    return prefix, None


@dataclass(frozen=True)
class RunConfig:
    command: str
    data_path: str
    query_path: str
    k: int = 1
    norm: str = "l2"
    method: str = "qp-greedy"
    n_scr: int = DEFAULT_N_SCR
    workers: int = 1               # validated and echoed; queries run in order
    seed: int = 0
    output_path: str | None = None
    sample: int = 100
    repeats: int = 1
    emit_deltas: bool = False
    omit_timing: bool = False
    screening: bool = True
    sorting: bool = True
    has_header: bool = False
    methods: tuple[str, ...] | None = None
    nscr_sweep: tuple[int, ...] | None = None
    table_csv: str | None = None

    def __post_init__(self) -> None:
        if self.command not in ("exact", "verify", "attack", "bench"):
            raise ValueError(f"unknown command {self.command!r}")
        if self.k < 1 or self.k % 2 == 0:
            raise ValueError(f"k must be odd and >= 1, got {self.k}")
        if self.norm not in ("l2", "linf", "l1"):
            raise ValueError(f"norm must be l2, linf or l1, got {self.norm!r}")
        if self.command == "attack" and self.method in ("exact", "verifier"):
            raise ValueError(f"attack takes an upper-bound method, got {self.method!r}")
        if self.n_scr < 1 or self.workers < 1 or self.repeats < 1:
            raise ValueError("n_scr, workers and repeats must all be >= 1")
        if self.sample < 1 or self.seed < 0:
            raise ValueError("sample must be >= 1 and seed must be >= 0")
        if self.methods is not None and not (self.methods and all(self.methods)):
            raise ValueError(f"methods must be non-empty names, got {self.methods}")
        for name in self.method_names():
            prefix, count = _method_count(name)
            if name not in _NAMED_METHODS and not count:  # None, or a count of 0
                raise ValueError(f"unknown method {name!r}; expected exact, verifier, qp-<m>, "
                                 "qp-greedy, naive-<t> or mean, with m, t >= 1")
            if self.k != 1 and prefix in ("exact", "qp") and name != "qp-greedy":
                raise ValueError(f"{name} is defined for k=1 only")
        if self.nscr_sweep is not None and not (self.nscr_sweep and min(self.nscr_sweep) >= 1):
            raise ValueError(f"nscr_sweep values must be >= 1, got {self.nscr_sweep}")
        for name, items in (("methods", self.methods), ("nscr_sweep", self.nscr_sweep)):
            if items is not None and len(set(items)) < len(items):
                raise ValueError(f"{name} lists an item twice: {items}")
        if self.command != "exact" and self.norm != "l2":
            raise ValueError("--norm linf/l1 applies to the exact command only")
        if self.nscr_sweep is not None and self.k != 1:
            raise ValueError("the n_scr sweep runs exact, which is defined for k=1 only")
        if self.nscr_sweep is not None and not self.screening:
            raise ValueError("--nscr-sweep varies the bound --no-screening switches off")

    def method_names(self) -> tuple[str, ...]:
        """The methods this command computes, in table order."""
        if self.command == "bench":
            return self.methods or (_BENCH_1NN if self.k == 1 else _BENCH_KNN)
        return ({"exact": "exact", "verify": "verifier", "attack": self.method}[self.command],)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(screening_enabled=self.screening)

    def tie_rule(self) -> None:
        """None: the tie rule is fixed, and the entry points ignore ``tie``."""
        return None


@dataclass
class RobustnessReport:
    """Per-query records plus aggregate statistics; JSON round-trippable."""

    command: str
    config: dict
    queries: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    table: list = field(default_factory=list)
    sweep: list = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "config": self.config,
            "queries": self.queries,
            "aggregates": self.aggregates,
        }
        if self.table:
            out["table"] = self.table
        if self.sweep:
            out["sweep"] = self.sweep
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, payload: dict) -> "RobustnessReport":
        if payload.get("schema_version") != SCHEMA_VERSION:
            raise DataFormatError(f"unsupported schema_version {payload.get('schema_version')!r}")
        return cls(
            command=payload["command"],
            config=payload["config"],
            queries=payload["queries"],
            aggregates=payload["aggregates"],
            table=payload.get("table", []),
            sweep=payload.get("sweep", []),
        )


def _certificate_record(index: int, q: Query, cert: PerturbationCertificate,
                        cfg: RunConfig) -> dict:
    stats = asdict(cert.stats)
    if cfg.omit_timing:
        stats.pop("wall_time")
    record = {
        "query_index": index,
        "true_label": q.true_label,
        # _sample_queries keeps only queries predicted as their true label.
        "predicted_label": q.true_label,
        "epsilon": cert.epsilon,
        "kind": cert.kind.value,
        "method": cert.method,
        "stats": stats,
    }
    if cfg.emit_deltas and cert.delta is not None:
        record["delta"] = [float(v) for v in cert.delta]
    return record


def _run_method(ds: Dataset, q: Query, method: str, cfg: RunConfig) -> PerturbationCertificate:
    solver = cfg.solver_config()
    if method == "exact":
        if cfg.norm == "l2":
            return attack_mod.exact_1nn(ds, q, solver, n_scr=cfg.n_scr,
                                        sort_candidates=cfg.sorting)
        return exact_1nn_lp(ds, q, cfg.norm, cfg=solver, n_scr=cfg.n_scr,
                            sort_candidates=cfg.sorting)
    if method == "verifier":
        started = time.perf_counter()
        res = verify_knn(ds, q, cfg.k)
        return PerturbationCertificate(
            delta=None, epsilon=res.epsilon_lower, kind=CertificateKind.LOWER_BOUND,
            method="verifier", misclassified=res.misclassified,
            stats=AttackStats(wall_time=time.perf_counter() - started),
        )
    prefix, count = _method_count(method)
    if prefix == "qp" and count is not None:
        return attack_mod.qp_top_m(ds, q, count, solver, n_scr=cfg.n_scr)
    if method == "qp-greedy":
        return attack_mod.qp_greedy_knn(ds, q, cfg.k)
    if prefix == "naive" and count is not None:
        return attack_mod.naive_attack(ds, q, cfg.k, count)
    if method == "mean":
        return attack_mod.mean_attack(ds, q, cfg.k)
    raise ValueError(f"unknown method {method!r}")


def _sample_queries(ds: Dataset, queries: list[Query], cfg: RunConfig) -> list[tuple[int, Query]]:
    """Seeded uniform sample of correctly classified queries, index order."""
    if any(q.z.size != ds.d for q in queries):
        raise DataFormatError("query dimension does not match the dataset")
    correct = [
        (i, q) for i, q in enumerate(queries)
        if knn_predict(ds, q.z, cfg.k, true_label=q.true_label) == q.true_label
    ]
    if len(correct) > cfg.sample:
        rng = np.random.default_rng(cfg.seed)
        chosen = rng.choice(len(correct), size=cfg.sample, replace=False)
        correct = [correct[i] for i in sorted(chosen)]
    return correct


def _evaluate(ds: Dataset, sample: list[tuple[int, Query]], method: str,
              cfg: RunConfig) -> list[tuple[int, Query, PerturbationCertificate]]:
    return [(index, q, _run_method(ds, q, method, cfg)) for index, q in sample]


def _aggregates(results) -> dict:
    """Mean epsilon, count and mean pruning counts, in the bench table's column order."""
    eps = [cert.epsilon for _, _, cert in results if not cert.misclassified]
    built = [cert.stats.subproblems_built for _, _, cert in results]
    solved = [cert.stats.subproblems_solved for _, _, cert in results]
    screened = [cert.stats.subproblems_screened for _, _, cert in results]
    return {
        "mean_epsilon": float(np.mean(eps)) if eps else None,
        "count": len(results),
        "mean_subproblems_built": float(np.mean(built)) if built else None,
        "mean_subproblems_solved": float(np.mean(solved)) if solved else None,
        "mean_subproblems_screened": float(np.mean(screened)) if screened else None,
    }


def run(cfg: RunConfig) -> RobustnessReport:
    """Execute a non-bench command and assemble its report."""
    ds = load_csv(cfg.data_path, cfg.has_header)
    queries = load_queries(cfg.query_path, cfg.has_header)
    sample = _sample_queries(ds, queries, cfg)
    (method,) = cfg.method_names()
    results = _evaluate(ds, sample, method, cfg)
    report = RobustnessReport(command=cfg.command, config=asdict(cfg))
    for index, q, cert in results:
        report.queries.append(_certificate_record(index, q, cert, cfg))
    report.aggregates = _aggregates(results)
    if not cfg.omit_timing:
        report.aggregates["total_wall_time"] = float(
            sum(cert.stats.wall_time for _, _, cert in results))
    return report


# (lower, upper) rows whose per-query ordering is a theorem beyond the kinds.
# qp-10 solves a superset of qp-1's targets.  Along the segment from z to
# the nearest other-class point x_j, x_j stays the nearest other-class
# point, so naive-1's first flip lies in x_j's region, which qp-1 minimizes over.
_THEOREM_PAIRS = (("qp-10", "qp-1"), ("qp-1", "naive-1"))


def _extreme(certs: dict[str, PerturbationCertificate], pick, *kinds) -> str | None:
    """The name whose epsilon ``pick`` (max or min) chooses among ``kinds``, or None."""
    names = [name for name, cert in certs.items() if cert.kind in kinds]
    return pick(names, key=lambda name: certs[name].epsilon, default=None)


def _check_bound_ordering(per_method: dict[str, list], methods: list[str]) -> None:
    """Abort with a certification error if any certified ordering is violated.

    Per query, the largest lower bound must not exceed the smallest exact or
    upper value, the largest exact value must not exceed the smallest upper
    bound, and each pair in ``_THEOREM_PAIRS`` must hold.  The slack is
    ``_ORDER_TOL`` times the upper value, with no absolute floor.
    """
    by_query: dict[int, dict[str, PerturbationCertificate]] = {}
    for name in methods:
        for index, _, cert in per_method[name]:
            by_query.setdefault(index, {})[name] = cert
    lower, exact = CertificateKind.LOWER_BOUND, CertificateKind.EXACT
    upper = CertificateKind.UPPER_BOUND
    for qi, certs in by_query.items():
        pairs = [
            (_extreme(certs, max, lower), _extreme(certs, min, exact, upper)),
            (_extreme(certs, max, exact), _extreme(certs, min, upper)),
            *_THEOREM_PAIRS,
        ]
        for low_name, high_name in pairs:
            if low_name not in certs or high_name not in certs:
                continue
            low, high = certs[low_name].epsilon, certs[high_name].epsilon
            if low > high + _ORDER_TOL * abs(high):
                raise CertificationError(
                    f"bound ordering violated on query {qi}: "
                    f"{low_name}={low:.9g} > {high_name}={high:.9g}"
                )


def bench(cfg: RunConfig) -> RobustnessReport:
    """Run the comparison table over one shared query sample."""
    ds = load_csv(cfg.data_path, cfg.has_header)
    queries = load_queries(cfg.query_path, cfg.has_header)
    sample = _sample_queries(ds, queries, cfg)
    methods = cfg.method_names()

    report = RobustnessReport(command="bench", config=asdict(cfg))
    per_method = {}
    for method in methods:
        runtimes = []
        for _ in range(cfg.repeats):
            started = time.perf_counter()
            results = _evaluate(ds, sample, method, cfg)
            runtimes.append(time.perf_counter() - started)
        per_method[method] = results
        row = {"method": method, **_aggregates(results)}
        if not cfg.omit_timing:
            row["runtime_seconds"] = float(np.mean(runtimes))
        report.table.append(row)
        for index, q, cert in results:
            report.queries.append(_certificate_record(index, q, cert, cfg))
    _check_bound_ordering(per_method, methods)

    if cfg.nscr_sweep:
        for n_scr in cfg.nscr_sweep:
            sweep_cfg = replace(cfg, n_scr=n_scr)
            started = time.perf_counter()
            results = _evaluate(ds, sample, "exact", sweep_cfg)
            elapsed = time.perf_counter() - started
            agg = _aggregates(results)
            entry = {"n_scr": n_scr, **{key: value for key, value in agg.items()
                                        if key.startswith("mean_subproblems_")}}
            if not cfg.omit_timing:
                entry["runtime_seconds"] = elapsed
            report.sweep.append(entry)
    report.aggregates = {"count": len(sample)}
    return report


def _format_table(report: RobustnessReport) -> str:
    lines = [f"{'method':>12}  {'mean epsilon':>14}  {'solved':>8}  {'runtime (s)':>12}"]
    for row in report.table:
        eps = f"{row['mean_epsilon']:.6g}" if row["mean_epsilon"] is not None else "-"
        solved = f"{row['mean_subproblems_solved']:.3g}" if row["mean_subproblems_solved"] is not None else "-"
        rt = f"{row['runtime_seconds']:.3f}" if "runtime_seconds" in row else "-"
        lines.append(f"{row['method']:>12}  {eps:>14}  {solved:>8}  {rt:>12}")
    return "\n".join(lines)


def _write_outputs(report: RobustnessReport, cfg: RunConfig) -> None:
    payload = report.to_json()
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8") as handle:
            handle.write(payload)
    if cfg.command == "bench":
        print(_format_table(report))
        if cfg.table_csv:
            with open(cfg.table_csv, "w", encoding="utf-8") as handle:
                handle.write(",".join(report.table[0]) + "\n")
                for row in report.table:
                    handle.write(",".join(str(v) for v in row.values()) + "\n")
    else:
        agg = report.aggregates
        eps = f"{agg['mean_epsilon']:.6g}" if agg["mean_epsilon"] is not None else "-"
        print(f"{cfg.command}: {agg['count']} queries, mean epsilon {eps}")
    if not cfg.output_path:
        print(payload, end="")


def _build_parser() -> argparse.ArgumentParser:
    """Flags only: an absent flag stays out of the namespace, so every
    default comes from ``RunConfig``."""
    parser = argparse.ArgumentParser(
        prog="knnrobust",
        description="Minimum adversarial perturbations and certified bounds for K-NN",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("exact", "verify", "attack", "bench"):
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS, allow_abbrev=False)
        p.add_argument("--data", "--data-path", dest="data_path", required=True)
        p.add_argument("--queries", "--query-path", dest="query_path", required=True)
        p.add_argument("--k", type=int)
        p.add_argument("--workers", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--output", "--output-path", dest="output_path")
        p.add_argument("--sample", type=int)
        p.add_argument("--omit-timing", action="store_true")
        p.add_argument("--has-header", action="store_true")
        if name == "verify":
            continue        # verify_knn reads no solver setting; a lower bound has no delta
        p.add_argument("--n-scr", dest="n_scr", type=int)
        p.add_argument("--no-screening", dest="screening", action="store_false")
        p.add_argument("--emit-deltas", action="store_true")
        if name != "attack":                # qp_top_m always sorts its targets
            p.add_argument("--no-sorting", dest="sorting", action="store_false")
        if name == "exact":
            p.add_argument("--norm", choices=("l2", "linf", "l1"))
        if name == "attack":
            p.add_argument("--method", required=True,
                           help="qp-<m>, qp-greedy, naive-<t> or mean")
        if name == "bench":
            p.add_argument("--repeats", type=int)
            p.add_argument("--methods", help="comma list of table rows (default depends on k)")
            p.add_argument("--nscr-sweep", dest="nscr_sweep",
                           help="comma list of n_scr values to sweep")
            p.add_argument("--table-csv", dest="table_csv")
    return parser


# Comma-list flags, parsed after argparse so that a bad item is a
# configuration error (exit 2) rather than a usage error.
_COMMA_LISTS = {"methods": str.strip, "nscr_sweep": int}


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    try:
        for key, item in _COMMA_LISTS.items():
            if key in args:
                args[key] = tuple(item(s) for s in args[key].split(","))
        cfg = RunConfig(**args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        report = bench(cfg) if cfg.command == "bench" else run(cfg)
        _write_outputs(report, cfg)
    except CertificationError as exc:
        print(f"certification violation: {exc}", file=sys.stderr)
        return 5
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 4
    except (DataFormatError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except KnnRobustError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
