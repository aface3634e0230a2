import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bit_identity.py"
_spec = importlib.util.spec_from_file_location("bit_identity", _PATH)
bit_identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bit_identity)

_EXACT = {"eps": "0x1.8p+0", "delta": "ab12", "stats": [3, 2, 1, 7]}
_VERIFIER = {"eps": "0x1.0p-1", "binding": [4, 9], "pairs": 12}


def _records():
    return {"corpus/0/exact/k1": dict(_EXACT),
            "corpus/0/verifier/k1": dict(_VERIFIER),
            "corpus*0.3/0/verifier/k3": {"error": "InsufficientPointsError"},
            "binary-knn:s0:d1:q2/qp-10/k1": dict(_EXACT)}


def test_identical_records_have_no_difference():
    counts, lines = bit_identity.compare(_records(), _records())
    assert counts == {"exact": [1, 0], "verifier": [2, 0], "qp-10": [1, 0]}
    assert lines == []


def test_each_kind_of_difference_is_counted_under_its_method():
    change = _records()
    change["corpus/0/exact/k1"]["stats"] = [3, 2, 1, 8]             # one more solver step
    change["corpus/0/verifier/k1"]["binding"] = [5, 9]              # another binding row
    change["corpus*0.3/0/verifier/k3"] = {"eps": "0x0.0p+0", "binding": None, "pairs": 0}
    del change["binary-knn:s0:d1:q2/qp-10/k1"]                       # missing on one side
    change["binary-knn:s0:d1:q2/mean/k3"] = {"error": "SolverError"}  # new on one side
    counts, lines = bit_identity.compare(_records(), change)
    assert counts == {"exact": [1, 1], "verifier": [2, 2], "qp-10": [1, 1], "mean": [1, 1]}
    assert len(lines) == 5
    assert any(line.startswith("binary-knn:s0:d1:q2/qp-10/k1: parent {") and
               line.endswith("change None") for line in lines)


def test_equal_epsilon_with_another_delta_differs():
    change = _records()
    change["corpus/0/exact/k1"]["delta"] = "ab13"
    counts, lines = bit_identity.compare(_records(), change)
    assert counts["exact"] == [1, 1] and len(lines) == 1


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
