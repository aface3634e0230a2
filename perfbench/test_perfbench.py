"""Tests of the benchmark's own machinery: generator, checkers and tracing."""

import json
from pathlib import Path

import numpy as np
import pytest

from knnrobust import attack
from knnrobust.data import load_csv, load_queries
from knnrobust.errors import SolverError

import harness
import outputs
from spans import (LAYER_METRICS, REBOUND, Span, Tracer, _count_1nn_attack, instrument,
                   layer_metrics, self_times)
from workloads import WORKLOADS, Entry, Workload, write_csvs

ROOT = Path(__file__).resolve().parent.parent


def test_generator_is_seeded(tmp_path):
    w = WORKLOADS["lp-norms"]
    paths = {}
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        (tmp_path / name).mkdir()
        paths[name] = write_csvs(w, seed, tmp_path / name)
    assert len(paths["a"]) == w.datasets > 1
    for a, b, c in zip(paths["a"], paths["b"], paths["c"]):
        for i in range(2):
            assert a[i].read_bytes() == b[i].read_bytes()
            assert a[i].read_bytes() != c[i].read_bytes()
    # Datasets within one seed differ from each other too.
    assert paths["a"][0][0].read_bytes() != paths["a"][1][0].read_bytes()


def test_ordering_checks_reject_planted_violations():
    ok = outputs.ordering_checks({"verifier": 1.0}, {"exact": 2.0},
                                 {"qp-10": 2.0, "qp-1": 2.5, "naive-1": 3.0, "mean": 4.0})
    assert ok == []
    assert ("lower<=upper", ("verifier", "exact")) in outputs.ordering_checks(
        {"verifier": 2.1}, {"exact": 2.0}, {})
    assert ("exact<=upper", ("exact", "mean")) in outputs.ordering_checks(
        {}, {"exact": 2.0}, {"mean": 1.9})
    assert ("qp10<=qp1<=naive1", ("qp-10", "qp-1")) in outputs.ordering_checks(
        {}, {}, {"qp-10": 2.6, "qp-1": 2.5})
    assert ("qp10<=qp1<=naive1", ("qp-1", "naive-1")) in outputs.ordering_checks(
        {}, {}, {"qp-1": 3.1, "naive-1": 3.0})
    # Within the command line's relative tolerance is not a violation.
    assert outputs.ordering_checks({"verifier": 2.0 + 1e-8}, {"exact": 2.0}, {}) == []


def test_sandwich_check_rejects_planted_violations():
    d = 4  # sqrt(d) = 2
    assert outputs.sandwich_checks(l2=1.0, linf=0.6, l1=1.5, d=d) == []
    for l2, linf, l1 in ((1.0, 1.1, 1.5), (1.0, 0.6, 0.9), (1.0, 0.6, 2.1), (1.3, 0.6, 1.5)):
        assert outputs.sandwich_checks(l2, linf, l1, d), (l2, linf, l1)


def test_certificate_checks_reject_planted_violations():
    points = np.array([[0.0], [2.0]])
    labels = np.array([1, 2])
    z = np.array([0.5])
    good = np.array([0.5])  # lands on the bisector: flips only under the tie rule
    assert outputs.certificate_checks(points, labels, z, 1, 1, "l2", good, 0.5) == []
    assert outputs.certificate_checks(points, labels, z, 1, 1, "l2", good, 0.6) == ["norm"]
    short = np.array([0.4])
    assert outputs.certificate_checks(points, labels, z, 1, 1, "l2", short, 0.4) == ["flip"]


def test_fingerprint_mismatch_is_reported():
    reference = {"exact|k=1|q=0": 1.0, "verifier|k=1|q=0": 0.5, "exact|k=1|q=1": 2.0}
    compared, bad = outputs.fingerprint_mismatches(
        {"exact|k=1|q=0": 1.0 + 1e-9, "verifier|k=1|q=0": 0.51, "exact|k=1|q=9": 3.0,
         "exact|k=1|q=1": None}, reference)
    assert compared == 3
    assert bad == ["verifier|k=1|q=0", "exact|k=1|q=1"]


def test_planted_errors_fail_the_run(tmp_path, monkeypatch):
    w = _tiny_workload()
    sample = harness.setup(w, write_csvs(w, 0, tmp_path))[:2]
    planted = sample[0][0]

    def raising(original):
        def call(ds, q, *args, **kwargs):
            if q is sample[0][2]:
                raise SolverError("planted")
            return original(ds, q, *args, **kwargs)
        return call

    monkeypatch.setattr(attack, "exact_1nn", raising(attack.exact_1nn))
    monkeypatch.setattr(attack, "naive_attack", raising(attack.naive_attack))
    res = harness.Results()
    harness.run_table(w, sample, res)
    # exact does not raise at this commit, so its error fails the run; the
    # naive baselines may find no flip, so theirs only count.
    assert res.failures == {"raised SolverError": 1}
    assert ("exact", planted, 1) in res.failed
    assert {("naive-1", planted, 1), ("naive-10", planted, 1)} <= res.failed
    assert res.errors["naive-10 K=1: SolverError"] == 1
    assert len(res.seconds[("exact", 1)]) == 2  # raised calls are timed too

    fingerprint = tmp_path / "fingerprint.json"
    fingerprint.write_text(json.dumps({w.name: {f"exact|k=1|q={planted}": 1.0}}))
    monkeypatch.setattr(harness, "FINGERPRINT_PATH", fingerprint)
    assert harness.fingerprint_check(w, harness.DEFAULT_SEED, res) == 1
    assert res.failures["fingerprint"] == 1


def test_self_times_on_hand_built_tree():
    spans = [
        Span("attack.root", 0.0, 10.0, None, "0:0",
             {"candidates": 10, "built": 4, "solved": 2, "screened": 7}),
        Span("subproblem.build", 1.0, 4.0, 0, "0:0", {"rows": 7, "bytes": 56}),
        Span("data.distances_sq", 2.0, 3.0, 1, "0:0"),
        Span("qp_solver.solve", 5.0, 9.0, 0, "0:0",
             {"iterations": 8, "flop": 1000, "status": "converged"}),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    layers = layer_metrics(spans)
    assert layers["attack.self_ms"] == 3000.0
    assert layers["subproblem.build.self_ms"] == 2000.0
    assert layers["data.distances_sq.self_ms"] == 1000.0
    assert layers["qp_solver.solve.self_ms"] == 4000.0
    assert layers["qp_solver.us_per_iteration"] == 4e6 / 8
    assert layers["qp_solver.status.converged"] == 1
    assert layers["subproblem.rows"] == 7
    assert layers["attack.candidates"] == 10
    assert layers["attack.solve_ratio"] == 0.2


def test_exact_candidates_are_the_other_class_points(tmp_path):
    w = _tiny_workload()
    data, queries = write_csvs(w, 0, tmp_path)[0]
    ds, q = load_csv(data), load_queries(queries)[0]
    others = int(np.count_nonzero(ds.labels != q.true_label))
    args = (ds, q, harness.CLI_DEFAULTS.solver_config())
    counts = _count_1nn_attack(args, attack.exact_1nn(*args))
    assert counts["candidates"] == others <= counts["built"] + counts["screened"]
    args = (ds, q, 3, harness.CLI_DEFAULTS.solver_config())
    assert _count_1nn_attack(args, attack.qp_top_m(*args))["candidates"] == 3


def _tiny_workload() -> Workload:
    methods = ("exact", "verifier", "qp-1", "qp-10", "qp-greedy", "naive-1", "naive-10",
               "mean", "exact-linf", "exact-l1")
    table = tuple(Entry(m, 1) for m in methods) + tuple(
        Entry(m, 3) for m in ("verifier", "qp-greedy", "naive-1", "mean"))
    return Workload(name="tiny", classes=2, per_class=12, d=3, separation=4.0, datasets=2,
                    queries=8, ks=(1, 3), table=table, trace_queries=2)


def test_traced_run_restores_every_name(tmp_path):
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in REBOUND]
    w = _tiny_workload()
    res = harness.Results()
    layers = harness.traced_layers(w, write_csvs(w, 0, tmp_path), w.trace_queries, res)
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"
    assert set(layers) == set(LAYER_METRICS)
    assert layers["qp_solver.solve.calls"] > 0
    assert layers["lp.solve.calls"] > 0
    assert layers["verify.calls"] == 2 * w.trace_queries
    assert res.attempted == len(w.table) * w.trace_queries
    assert not res.failures


def test_names_are_restored_after_an_error():
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in REBOUND]
    with pytest.raises(RuntimeError):
        with instrument(Tracer()):
            assert vars(originals[0][0])[originals[0][1]] is not originals[0][2]
            raise RuntimeError
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == LAYER_METRICS
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
