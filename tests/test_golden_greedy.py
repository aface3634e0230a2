"""Golden qp-greedy certificates.

Each call's epsilon (``float.hex``) and built and solved counts, or the type
of the library error it raised.  The inputs are the corpus and the corpus
scaled by 0.3 at each K they allow, and 40 queries of a perfbench-like
binary-knn dataset at K = 1..9.  Any change that keeps qp-greedy's
arithmetic must reproduce them bit for bit.
``PYTHONPATH=src python3 tests/test_golden_greedy.py`` lists every call whose
epsilon bits or counts moved; ``--record`` records the file again.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from knnrobust import Dataset, KnnRobustError, Query, qp_greedy_knn

_GOLDEN = Path(__file__).with_name("golden_greedy.json")
_BLOB_KS = (1, 3, 5, 7, 9)


def _blobs():
    """Two Gaussian blobs of 500 points in d=20 with class means 3 apart on
    the axes, and the first 40 of their 200 queries: perfbench's binary-knn
    dataset 0 at seed 0, drawn the same way."""
    rng = np.random.default_rng([0, 0])
    means = np.zeros((2, 20))
    means[0, 0] = means[1, 1] = 3.0 / np.sqrt(2.0)
    labels = np.repeat([1, 2], 500)
    points = means[labels - 1] + rng.standard_normal((1000, 20))
    q_labels = rng.integers(1, 3, size=200)
    q_points = means[q_labels - 1] + rng.standard_normal((200, 20))
    return Dataset(points, labels, 2), [Query(q_points[i], int(q_labels[i])) for i in range(40)]


def _calls(corpus):
    """``(key, dataset, query, k)`` for every pinned call."""
    for i, (ds, q, ks) in enumerate(corpus):
        scaled = (Dataset(0.3 * ds.points, ds.labels, ds.class_count),
                  Query(0.3 * q.z, q.true_label))
        for k in ks:
            yield f"corpus/{i}/k{k}", ds, q, k
            yield f"corpus*0.3/{i}/k{k}", *scaled, k
    ds, queries = _blobs()
    for i, q in enumerate(queries):
        for k in _BLOB_KS:
            yield f"blobs/{i}/k{k}", ds, q, k


def _outcome(ds, q, k):
    """The certificate as hex epsilon, built and solved counts, or the error's type name."""
    try:
        cert = qp_greedy_knn(ds, q, k)
    except KnnRobustError as err:
        return type(err).__name__
    return [float(cert.epsilon).hex(), cert.stats.subproblems_built,
            cert.stats.subproblems_solved]


def golden_greedy(corpus):
    return {key: _outcome(ds, q, k) for key, ds, q, k in _calls(corpus)}


def _corpus():
    from helpers import CORPUS_SEED, CORPUS_SIZE, random_grid_dataset
    rng = np.random.default_rng(CORPUS_SEED)
    return [random_grid_dataset(rng) for _ in range(CORPUS_SIZE)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_golden_greedy(corpus):
    expected = json.loads(_GOLDEN.read_text(encoding="utf-8"))
    got = golden_greedy(corpus)
    assert sorted(got) == sorted(expected)
    bad = [key for key in expected if got[key] != expected[key]]
    assert not bad, (f"{len(bad)} of {len(expected)} calls differ, first {bad[0]}: "
                     f"{got[bad[0]]} != {expected[bad[0]]}")


def _report(expected, got):
    """One line per call whose epsilon bits or counts moved."""
    for key in expected:
        if got[key] != expected[key]:
            print(f"{key}: recorded {expected[key]} now {got[key]}")


if __name__ == "__main__":
    import warnings
    warnings.simplefilter("ignore")
    sys.path.insert(0, str(Path(__file__).parent))
    got = golden_greedy(_corpus())
    if sys.argv[1:] == ["--record"]:
        lines = (f"{json.dumps(key)}: {json.dumps(got[key])}" for key in sorted(got))
        _GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    else:
        _report(json.loads(_GOLDEN.read_text(encoding="utf-8")), got)
