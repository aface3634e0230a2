import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(table, ratio, attempted=100, correct=True):
    return {"correct": correct, "attempted": attempted, "failed": 0,
            "metrics": {"table.refs_per_query": {"value": table, "unit": "ref"},
                        "bracket_ratio": {"value": ratio, "unit": "1"}}}


_BETTER = {"table.refs_per_query": "lower", "bracket_ratio": "higher"}


def test_summary_of_two_fake_sides():
    runs = {"parent": [_run(10.0, 0.70), _run(12.0, 0.75), _run(11.0, 0.80)],
            "change": [_run(9.0, 0.72, attempted=90), _run(12.5, 0.74), _run(10.0, 0.81)]}
    block = bench_pairs.summarise(runs, _BETTER)
    assert block["runs"] == {"parent": 3, "change": 3}
    assert block["correct"] == {"parent": True, "change": True}
    assert block["attempted"] == {"parent": 300, "change": 290}
    assert block["attempted differs"] == [1]
    table = block["metrics"]["table.refs_per_query"]
    assert table["parent"] == {"median": 11.0, "q1": 10.5, "q3": 11.5}
    assert table["change"] == {"median": 10.0, "q1": 9.5, "q3": 11.25}
    assert table["change_over_parent"] == pytest.approx(10.0 / 11.0)
    # Lower wins for the table, higher for the bracket ratio.
    assert block["pairs won by change"] == {"table.refs_per_query": 2, "bracket_ratio": 2}


def test_summary_reports_an_incorrect_run_and_rejects_unpaired_sides():
    runs = {"parent": [_run(1.0, 0.5)], "change": [_run(1.0, 0.5, correct=False)]}
    block = bench_pairs.summarise(runs, _BETTER)
    assert block["correct"] == {"parent": True, "change": False}
    assert block["metrics"]["table.refs_per_query"]["change"]["q1"] == 1.0
    assert block["pairs won by change"]["table.refs_per_query"] == 0
    with pytest.raises(ValueError):
        bench_pairs.summarise({"parent": runs["parent"], "change": []}, _BETTER)


_OK_RUN = """import json
print(json.dumps({"correct": True, "attempted": 5, "failed": 0,
                  "metrics": {"table.refs_per_query": {"value": 2.0, "unit": "ref"}}}))
"""
_FAILING_RUN = """import sys
for i in range(30):
    print(f"line {i}", file=sys.stderr)
sys.exit(3)
"""


_SPEC = {"end_to_end": [{"name": "table.refs_per_query", "better": "lower"}]}


def _checkout(root, script, spec=True):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(script, encoding="utf-8")
    if spec:
        (root / "BENCHMARK.json").write_text(json.dumps(_SPEC), encoding="utf-8")
    return root


def test_failed_run_keeps_the_completed_runs(tmp_path, capsys):
    # Pair 1 runs the parent first, then the change, whose run exits 3.
    parent = _checkout(tmp_path / "parent", _OK_RUN)
    change = _checkout(tmp_path / "change", _FAILING_RUN)
    out = tmp_path / "bench.json"
    code = bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "3",
                             "--out", str(out)])
    assert code == 1
    written = json.loads(out.read_text(encoding="utf-8"))
    assert [(r["pair"], r["side"]) for r in written["runs"]["w"]] == [(1, "parent")]
    assert written["runs"]["w"][0]["metrics"] == {"table.refs_per_query": 2.0}
    failure = {"pair": 1, "side": "change", "exit code": 3,
               "stderr": [f"line {i}" for i in range(10, 30)]}
    assert written["failures"]["w"] == failure
    assert "w" not in written["workloads"]
    assert '"exit code": 3' in capsys.readouterr().err


def test_change_without_benchmark_json_stops_before_any_run(tmp_path):
    parent = _checkout(tmp_path / "parent", _OK_RUN)
    change = _checkout(tmp_path / "change", _FAILING_RUN, spec=False)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main([str(parent), str(change), "--workload", "w", "--out", str(out)])
    assert exit_info.value.code == 2
    assert not out.exists()


def test_completed_pairs_are_summarised(tmp_path, capsys):
    parent = _checkout(tmp_path / "parent", _OK_RUN)
    change = _checkout(tmp_path / "change", _OK_RUN)
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "2",
                             "--out", str(out)]) == 0
    written = json.loads(out.read_text(encoding="utf-8"))
    block = written["workloads"]["w"]
    assert block["runs"] == {"parent": 2, "change": 2}
    assert block["pairs won by change"] == {"table.refs_per_query": 0}
    assert block["attempted differs"] == []
    # Without a printed reference.ms there is no load to show.
    assert [r["reference_ms"] for r in written["runs"]["w"]] == [None] * 4
    assert block["reference_ms"] is None
    assert "w: 0 of 2 pairs differ in attempted []; no reference.ms" in capsys.readouterr().err


# A run cut by the deadline: the checkout's n-th run attempts 5 - n checks
# when a counter file says so, so only some pairs differ.
_COUNTING_RUN = """import json, pathlib
counter = pathlib.Path("count.txt")
n = int(counter.read_text()) + 1 if counter.exists() else 1
counter.write_text(str(n))
cut = pathlib.Path("cut.txt").exists() and n in (1, 3)
print(json.dumps({"correct": True, "attempted": 5 - n if cut else 5, "failed": 0,
                  "metrics": {"table.refs_per_query": {"value": 2.0, "unit": "ref"}}}))
"""


def test_pairs_with_different_attempted_counts_are_listed(tmp_path, capsys):
    parent = _checkout(tmp_path / "parent", _COUNTING_RUN)
    change = _checkout(tmp_path / "change", _COUNTING_RUN)
    (change / "cut.txt").write_text("", encoding="utf-8")
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "4",
                             "--out", str(out)]) == 0
    written = json.loads(out.read_text(encoding="utf-8"))
    assert [(r["pair"], r["side"], r["attempted"]) for r in written["runs"]["w"]] == [
        (1, "parent", 5), (1, "change", 4), (2, "change", 5), (2, "parent", 5),
        (3, "parent", 5), (3, "change", 2), (4, "change", 5), (4, "parent", 5)]
    block = written["workloads"]["w"]
    assert block["attempted differs"] == [1, 3]
    assert block["attempted"] == {"parent": 20, "change": 16}
    assert "w: 2 of 4 pairs differ in attempted [1, 3]" in capsys.readouterr().err


def _table_run(linf_ms, ref_ms=0.5):
    """A run.py stand-in that prints a method table and the metric lines in
    run.py's layout."""
    return f"""import json
print("perfbench workload=w seed=0 seconds=40.0 trace=0")
print(f"{{'method':>15}} {{'n':>5}} {{'median_ms':>10}} {{'mean_ms':>10}} {{'high pct':>16}} {{'max_ms':>10}}")
print(f"{{'exact K=1':>15}} {{20:>5}} {{0.66:>10.2f}} {{0.71:>10.2f}} {{'p95=1.58':>16}} {{13.77:>10.2f}}")
print(f"{{'exact-linf K=1':>15}} {{2:>5}} {{{linf_ms}:>10.2f}} {{3.0:>10.2f}} {{'-':>16}} {{4.0:>10.2f}}")
print("checks: attempted=5 failed=0 failed_ratio=0 (1) failed checks={{}} raised={{}}")
print("reference.ms = {ref_ms:.6g} ms")
print("table.refs_per_query = 2 ref")
print(json.dumps({{"correct": True, "attempted": 5, "failed": 0,
                  "metrics": {{"table.refs_per_query": {{"value": 2.0, "unit": "ref"}}}}}}))
"""


def test_printed_medians_reads_run_py_table():
    out = subprocess.run([sys.executable, "-c", _table_run(2.47)], capture_output=True,
                         text=True, check=True).stdout
    assert bench_pairs.printed_medians(out) == {"exact K=1": 0.66, "exact-linf K=1": 2.47}
    assert bench_pairs.printed_medians('{"correct": true}') == {}
    assert bench_pairs.printed_reference_ms(out) == 0.5
    assert bench_pairs.printed_reference_ms('{"correct": true}') is None


def test_run_once_without_reference_line_has_no_refs(tmp_path):
    checkout = _checkout(tmp_path / "c", _OK_RUN)
    result = bench_pairs.run_once(checkout, "w", 0)
    assert result["median_ms"] == {} and result["median_refs"] == {}


def test_printed_medians_are_summarised_per_side(tmp_path, capsys):
    # The change's reference kernel runs twice as fast, so its halved
    # exact-linf median is the same number of refs.
    parent = _checkout(tmp_path / "parent", _table_run(2.5, ref_ms=0.5))
    change = _checkout(tmp_path / "change", _table_run(1.25, ref_ms=0.25))
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "2",
                             "--out", str(out)]) == 0
    written = json.loads(out.read_text(encoding="utf-8"))
    # The reference kernel's times show the load each side met.
    assert [r["reference_ms"] for r in written["runs"]["w"]] == [0.5, 0.25, 0.25, 0.5]
    assert written["workloads"]["w"]["reference_ms"] == {
        "parent": {"median": 0.5, "q1": 0.5, "q3": 0.5},
        "change": {"median": 0.25, "q1": 0.25, "q3": 0.25},
        "change_over_parent": 0.5}
    assert "w: 0 of 2 pairs differ in attempted []; reference.ms change/parent 0.500" in (
        capsys.readouterr().err)
    assert [r["median_ms"] for r in written["runs"]["w"]] == [
        {"exact K=1": 0.66, "exact-linf K=1": v} for v in (2.5, 1.25, 1.25, 2.5)]
    medians = written["workloads"]["w"]["median_ms"]
    assert medians["exact-linf K=1"] == {
        "parent": {"median": 2.5, "q1": 2.5, "q3": 2.5},
        "change": {"median": 1.25, "q1": 1.25, "q3": 1.25},
        "change_over_parent": 0.5, "pairs won by change": 2}
    assert medians["exact K=1"]["pairs won by change"] == 0
    assert [r["median_refs"] for r in written["runs"]["w"]] == [
        {"exact K=1": 0.66 / ref, "exact-linf K=1": 5.0} for ref in (0.5, 0.25, 0.25, 0.5)]
    refs = written["workloads"]["w"]["median_refs"]
    assert refs["exact-linf K=1"] == {
        "parent": {"median": 5.0, "q1": 5.0, "q3": 5.0},
        "change": {"median": 5.0, "q1": 5.0, "q3": 5.0},
        "change_over_parent": 1.0, "pairs won by change": 0}
    assert refs["exact K=1"]["change_over_parent"] == pytest.approx(2.0)
    assert refs["exact K=1"]["pairs won by change"] == 0
