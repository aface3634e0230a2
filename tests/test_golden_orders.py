"""Golden outputs of every path that orders distances or bounds.

Ties in those orders are broken by index, so a change in how an order is
computed shows here first.  The values were recorded from the code that
ordered every array with ``np.argsort(kind="stable")``; any order that
equals it must reproduce them bit for bit.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from knnrobust import (Dataset, KnnRobustError, Query, SolverConfig, exact_1nn, k_nearest,
                       knn_predict, naive_attack, qp_greedy_knn, qp_top_m, verify_knn)

_GOLDEN_ORDERS = Path(__file__).with_name("golden_orders.json")
# Small grids (n <= 20) and large ones (n >= 220), on either side of the
# size below which ``data.stable_order`` sorts stably without a tie check.
_TIE_GRIDS = {"grid": 200, "big-grid": 20}
_TIE_GRID_SEED = 7


def _tie_grid(rng, big=False):
    """Points on a coarse integer grid around an integer query.

    Almost every distance from the query is shared by several points, and so
    are many pair bounds, so every order below leans on its tie rule.
    """
    while True:
        d = int(rng.integers(2, 4)) if big else int(rng.integers(1, 4))
        side = ({2: 21, 3: 9} if big else {1: 9, 2: 5, 3: 3})[d]
        cells = side ** d
        n = int(rng.integers(220, 401)) if big else int(rng.integers(6, min(20, cells - 1) + 1))
        flat = rng.choice(cells, size=n + 1, replace=False)
        coords = np.stack(np.unravel_index(flat, (side,) * d), axis=1) - side // 2
        labels = rng.integers(1, 3, size=n)
        if np.unique(labels).size < 2:
            continue
        ds = Dataset(coords[:n].astype(np.float64), labels, 2)
        z = coords[n].astype(np.float64)
        return ds, Query(z, knn_predict(ds, z, 1)), [k for k in (1, 3, 5) if k <= n]


def _outcome(call):
    """``call()``'s certificate as hex epsilon and counts, or the error's type name."""
    try:
        cert = call()
    except KnnRobustError as err:
        return type(err).__name__
    s = cert.stats
    return [float(cert.epsilon).hex(), s.subproblems_built, s.subproblems_solved,
            s.subproblems_screened]


def _verified(ds, q, k):
    try:
        res = verify_knn(ds, q, k)
    except KnnRobustError as err:
        return type(err).__name__
    return [float(res.epsilon_lower).hex(), res.binding_pair and list(res.binding_pair),
            res.pair_bounds]


def _instances(corpus):
    out = [(f"corpus/{i}", ds, q, ks) for i, (ds, q, ks) in enumerate(corpus)]
    out += [(f"corpus*0.3/{i}", Dataset(0.3 * ds.points, ds.labels, ds.class_count),
             Query(0.3 * q.z, q.true_label), ks) for i, (ds, q, ks) in enumerate(corpus)]
    rng = np.random.default_rng(_TIE_GRID_SEED)
    for kind, count in _TIE_GRIDS.items():
        grids = [_tie_grid(rng, kind == "big-grid") for _ in range(count)]
        out += [(f"{kind}/{i}", *grid) for i, grid in enumerate(grids)]
    # Scaled by 0.3, the big grids' exact ties become near ties, which the
    # unstable sort orders by value alone.
    out += [(f"big-grid*0.3/{i}", Dataset(0.3 * ds.points, ds.labels, ds.class_count),
             Query(0.3 * q.z, q.true_label), ks) for i, (ds, q, ks) in enumerate(grids)]
    return out


def golden_orders(corpus):
    """Every value the golden order test pins, keyed by instance.

    Per instance: ``k_nearest`` over all points, and the exact (sorted,
    unsorted and with ``n_scr=1``), qp-1 and qp-10 certificates at K=1.  Per
    K in 1, 3, 5 that the instance allows: the verifier's epsilon, binding
    pair and pair count, and qp-greedy, naive-1 and naive-3.
    """
    cfg = SolverConfig()
    out = {}
    for name, ds, q, ks in _instances(corpus):
        entry = {
            "k_nearest": k_nearest(ds, q.z, ds.n).tolist(),
            "exact": _outcome(lambda: exact_1nn(ds, q, cfg)),
            "exact-unsorted": _outcome(lambda: exact_1nn(ds, q, cfg, sort_candidates=False)),
            "exact-nscr1": _outcome(lambda: exact_1nn(ds, q, cfg, n_scr=1)),
            "qp-1": _outcome(lambda: qp_top_m(ds, q, 1, cfg)),
            "qp-10": _outcome(lambda: qp_top_m(ds, q, 10, cfg)),
        }
        for k in ks:
            entry[f"k{k}"] = {
                "verifier": _verified(ds, q, k),
                "qp-greedy": _outcome(lambda: qp_greedy_knn(ds, q, k, cfg)),
                "naive-1": _outcome(lambda: naive_attack(ds, q, k, 1)),
                "naive-3": _outcome(lambda: naive_attack(ds, q, k, 3)),
            }
        out[name] = entry
    return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_golden_orders(corpus):
    expected = json.loads(_GOLDEN_ORDERS.read_text(encoding="utf-8"))
    got = json.loads(json.dumps(golden_orders(corpus)))
    assert sorted(got) == sorted(expected)
    mismatched = [key for key in expected if got[key] != expected[key]]
    assert not mismatched, (f"{len(mismatched)} of {len(expected)} instances differ, first "
                            f"{mismatched[0]}: {got[mismatched[0]]} != {expected[mismatched[0]]}")
    for kind, count in _TIE_GRIDS.items():
        assert sum(key.startswith(f"{kind}/") for key in expected) == count
