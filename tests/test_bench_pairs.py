import importlib.util
import json
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


def test_completed_pairs_are_summarised(tmp_path):
    parent = _checkout(tmp_path / "parent", _OK_RUN)
    change = _checkout(tmp_path / "change", _OK_RUN)
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "2",
                             "--out", str(out)]) == 0
    block = json.loads(out.read_text(encoding="utf-8"))["workloads"]["w"]
    assert block["runs"] == {"parent": 2, "change": 2}
    assert block["pairs won by change"] == {"table.refs_per_query": 0}
