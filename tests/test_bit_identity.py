import importlib.util
import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bit_identity.py"
_spec = importlib.util.spec_from_file_location("bit_identity", _PATH)
bit_identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bit_identity)

_EXACT = {"eps": "0x1.8p+0", "delta": "ab12", "kind": "exact", "stats": [3, 2, 1, 7]}
_VERIFIER = {"eps": "0x1.0p-1", "binding": [4, 9], "pairs": 12}


def _records():
    return {"corpus/0/exact/k1": dict(_EXACT),
            "corpus/0/verifier/k1": dict(_VERIFIER),
            "corpus*0.3/0/verifier/k3": {"error": "InsufficientPointsError"},
            "binary-knn:s0:d1:q2/qp-10/k1": dict(_EXACT)}


def test_identical_records_have_no_difference():
    counts, lines = bit_identity.compare(_records(), _records())
    assert counts == {"exact": [1, 0, 0], "verifier": [2, 0, 0], "qp-10": [1, 0, 0]}
    assert lines == []


def test_each_kind_of_difference_is_counted_under_its_method():
    change = _records()
    change["corpus/0/exact/k1"]["stats"] = [3, 2, 1, 8]             # one more solver step
    change["corpus/0/verifier/k1"]["binding"] = [5, 9]              # another binding row
    change["corpus*0.3/0/verifier/k3"] = {"eps": "0x0.0p+0", "binding": None, "pairs": 0}
    del change["binary-knn:s0:d1:q2/qp-10/k1"]                       # missing on one side
    change["binary-knn:s0:d1:q2/mean/k3"] = {"error": "SolverError"}  # new on one side
    counts, lines = bit_identity.compare(_records(), change)
    # The extra solver step is a count; every other change moves an outcome.
    assert counts == {"exact": [1, 0, 1], "verifier": [2, 2, 0], "qp-10": [1, 1, 0],
                      "mean": [1, 1, 0]}
    assert len(lines) == 5
    assert any(line.startswith("binary-knn:s0:d1:q2/qp-10/k1: parent {") and
               line.endswith("change None") for line in lines)
    assert lines[-1].startswith("corpus/0/exact/k1: ")   # outcome differences first


def test_equal_epsilon_with_another_delta_differs():
    change = _records()
    change["corpus/0/exact/k1"]["delta"] = "ab13"
    counts, lines = bit_identity.compare(_records(), change)
    assert counts["exact"] == [1, 1, 0] and len(lines) == 1


def test_another_kind_is_an_outcome_difference(fix_c):
    # The same epsilon and perturbation labelled an upper bound, not exact.
    change = _records()
    change["corpus/0/exact/k1"]["kind"] = "upper_bound"
    counts, lines = bit_identity.compare(_records(), change)
    assert counts["exact"] == [1, 1, 0] and len(lines) == 1
    ds, q = fix_c
    for method, kind in (("exact", "exact"), ("exact-linf", "exact"), ("qp-10", "upper_bound"),
                         ("qp-greedy", "upper_bound"), ("mean", "upper_bound")):
        assert bit_identity._run(method, ds, q, 1)["kind"] == kind, method


def test_another_plain_vote_is_an_outcome_difference():
    parent = dict(_records(), **{"corpus/0/plain-vote/k1": {"vote": 1},
                                 "corpus/0/exact/k1": dict(_EXACT, vote=2)})
    change = dict(parent, **{"corpus/0/plain-vote/k1": {"vote": 2},
                             "corpus/0/exact/k1": dict(_EXACT, vote=1)})
    counts, lines = bit_identity.compare(parent, change)
    assert counts["plain-vote"] == [1, 1, 0] and counts["exact"] == [1, 1, 0]
    assert len(lines) == 2
    assert bit_identity.sizes(parent, change)["plain-vote"] == [0.0, 0]


def test_input_records_hold_the_plain_votes(fix_c):
    from knnrobust import knn_predict, qp_greedy_knn
    ds, q = fix_c
    table = [SimpleNamespace(method="qp-greedy", k=3), SimpleNamespace(method="verifier", k=1),
             SimpleNamespace(method="mean", k=5)]
    records = bit_identity._input_records("fix_c", ds, q, (1, 3), table)
    assert {key.split("/")[1] for key in records} == {
        "plain-vote", "qp-greedy", "verifier", *bit_identity.ABLATIONS}
    for k in (1, 3):
        assert records[f"fix_c/plain-vote/k{k}"] == {"vote": knn_predict(ds, q.z, k)}
    # The plain vote at z + delta, with no true label, beside each perturbation.
    delta = qp_greedy_knn(ds, q, 3).delta
    assert records["fix_c/qp-greedy/k3"]["vote"] == knn_predict(ds, q.z + delta, 3)
    # Exact lands on the bisector of -0.5 and 2, where the lower index wins.
    assert records["fix_c/exact-nscr1/k1"]["vote"] == 1
    assert "vote" not in records["fix_c/verifier/k1"]
    # A vote the library refuses is recorded by its error.
    assert bit_identity._plain_vote(ds, q.z, 7) == "InsufficientPointsError"


def test_count_only_differences_are_told_apart_from_outcomes():
    change = _records()
    change["corpus/0/exact/k1"]["stats"] = [3, 3, 0, 9]       # a screened target solved
    change["corpus/0/verifier/k1"]["pairs"] = 10              # fewer pair bounds
    change["binary-knn:s0:d1:q2/qp-10/k1"]["stats"] = [4, 2, 1, 7]
    counts, lines = bit_identity.compare(_records(), change)
    assert counts == {"exact": [1, 0, 1], "verifier": [2, 0, 1], "qp-10": [1, 0, 1]}
    assert len(lines) == 3
    # The same pair count beside another binding pair is an outcome difference.
    change["corpus/0/verifier/k1"] = dict(_VERIFIER, binding=[4, 8])
    assert bit_identity.compare(_records(), change)[0]["verifier"] == [2, 1, 0]


def _replay(monkeypatch, *records):
    """Make ``main`` read ``records`` in turn instead of recording checkouts."""
    recorded = iter(records)

    class _Done:
        returncode = 0

        def communicate(self):
            return json.dumps(next(recorded)), None

    monkeypatch.setattr(bit_identity, "_record_in_subprocess", lambda checkout: _Done())


def test_main_prints_both_counts_and_exits_1_on_counts_alone(monkeypatch, capsys):
    change = _records()
    change["corpus/0/exact/k1"]["stats"] = [3, 3, 0, 9]
    _replay(monkeypatch, _records(), change, _records(), _records())
    assert bit_identity.main(["parent", "change"]) == 1
    out = capsys.readouterr().out
    exact = next(line for line in out.splitlines() if line.startswith("exact "))
    assert re.search(r"\b1 compared\s+0 outcome differ\s+1 counts only\b", exact)
    assert "total: 4 compared, 0 outcome differ, 1 counts only" in out
    assert bit_identity.main(["parent", "change"]) == 0


def test_main_prints_every_difference(monkeypatch, capsys):
    parent = {f"corpus/{i}/exact/k1": dict(_EXACT) for i in range(13)}
    change = {key: dict(entry, eps="0x1.0p+1") for key, entry in parent.items()}
    _replay(monkeypatch, parent, change)
    assert bit_identity.main(["parent", "change"]) == 1
    shown = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("corpus/")]
    assert shown == bit_identity.compare(parent, change)[1]
    assert len(shown) == 13


def test_sizes_report_the_largest_epsilon_move_and_changed_errors():
    change = _records()
    change["corpus/0/exact/k1"]["eps"] = "0x1.8000000000001p+0"   # one ulp up
    change["corpus*0.3/0/verifier/k3"] = {"error": "SolverError"}        # another type
    change["binary-knn:s0:d1:q2/qp-10/k1"] = {"error": "SolverError"}    # now raises
    sizes = bit_identity.sizes(_records(), change)
    assert sizes["exact"] == [2 ** -52 / 1.5, 0]
    assert sizes["verifier"] == [0.0, 1]
    assert sizes["qp-10"] == [0.0, 1]
    assert bit_identity.sizes(_records(), _records()) == {
        "exact": [0.0, 0], "verifier": [0.0, 0], "qp-10": [0.0, 0]}


def test_ingestion_records_compare_as_outcomes(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(_PATH.parent.parent / "perfbench"))
    records = bit_identity._ingestion(tmp_path)
    assert records == bit_identity._ingestion(tmp_path)       # rewritten files, same hashes
    methods = {key.split("/")[-2] for key in records}
    assert methods == {"load_csv", "load_queries"}
    assert all(set(entry) == {"sha1"} for entry in records.values())
    key = next(k for k in records if "/load_queries/" in k)
    change = dict(records, **{key: {"sha1": "0" * 40}})
    counts, lines = bit_identity.compare(records, change)
    assert counts["load_queries"][1:] == [1, 0] and counts["load_csv"][1:] == [0, 0]
    assert lines == [f"{key}: parent {records[key]} change {change[key]}"]
    assert bit_identity.sizes(records, change)["load_queries"] == [0.0, 0]


def test_ingestion_hash_sees_every_array():
    a, b = np.zeros((2, 3)), np.arange(2)
    base = bit_identity._arrays_sha1(a, b)
    assert bit_identity._arrays_sha1(a.copy(), b.copy()) == base
    assert bit_identity._arrays_sha1(-a, b) != base                 # -0.0 is another value
    assert bit_identity._arrays_sha1(a.reshape(3, 2), b) != base
    assert bit_identity._arrays_sha1(a, b.astype(np.int32)) != base


def test_lp_ablations_pass_their_arguments_to_the_lp(fix_c, monkeypatch):
    # "exact-l1-unsorted" is an ablation of exact-l1, not a norm "l1-unsorted".
    import knnrobust
    calls = []

    def lp(ds, q, norm, **kwargs):
        calls.append((norm, kwargs))
        raise knnrobust.SolverError("not solved")

    monkeypatch.setattr(knnrobust, "exact_1nn_lp", lp)
    ds, q = fix_c
    lp_methods = [m for m in bit_identity.ABLATIONS if m.startswith(("exact-linf", "exact-l1"))]
    assert lp_methods == ["exact-linf-nscr1", "exact-linf-noscreen", "exact-l1-nscr1",
                          "exact-l1-unsorted"]
    for method in ["exact-linf", "exact-l1"] + lp_methods:
        assert bit_identity._run(method, ds, q, 1) == {"error": "SolverError"}
    assert calls == [("linf", {}), ("l1", {}), ("linf", {"n_scr": 1}),
                     ("linf", {"cfg": knnrobust.SolverConfig(screening_enabled=False)}),
                     ("l1", {"n_scr": 1}), ("l1", {"sort_candidates": False})]


def test_l2_ablations_pass_their_arguments_to_exact(fix_c, monkeypatch):
    # Every mode of the 1-NN loop runs: sorted or not, screened or not.
    import knnrobust
    calls = []

    def exact(ds, q, **kwargs):
        calls.append(kwargs)
        raise knnrobust.SolverError("not solved")

    monkeypatch.setattr(knnrobust, "exact_1nn", exact)
    ds, q = fix_c
    l2_methods = [m for m in bit_identity.ABLATIONS if not m.startswith(("exact-linf", "exact-l1"))]
    assert l2_methods == ["exact-unsorted", "exact-nscr1", "exact-noscreen",
                          "exact-unsorted-noscreen"]
    for method in ["exact"] + l2_methods:
        assert bit_identity._run(method, ds, q, 1) == {"error": "SolverError"}
    off = knnrobust.SolverConfig(screening_enabled=False)
    assert calls == [{}, {"sort_candidates": False}, {"n_scr": 1}, {"cfg": off},
                     {"sort_candidates": False, "cfg": off}]
