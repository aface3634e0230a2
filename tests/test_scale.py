"""Scale equivariance of the l2 path.

Scaling the data and the query by s scales the minimum perturbation and its
bounds by s, so each value must come out as s times its value at scale 1.
At powers of two the scaling is exact in floating point and the values must
match bit for bit; at other scales rounding differs and they must match to
1e-12 relative.  qp-greedy is left out: its radius cap adds a constant.
"""

import pytest

from knnrobust import (
    Dataset,
    Query,
    SolverError,
    exact_1nn,
    generate_synthetic,
    knn_predict,
    mean_attack,
    naive_attack,
    qp_top_m,
    verify_knn,
)


def _scaled(ds, q, s):
    return Dataset(ds.points * s, ds.labels, ds.class_count), Query(q.z * s, q.true_label)


def _certified(ds, q, ks):
    """exact, qp-10 and the verifier at every K: the values that no distance
    tie among the candidates can change."""
    out = {"exact": exact_1nn(ds, q).epsilon, "qp-10": qp_top_m(ds, q, 10).epsilon}
    for k in ks:
        out[f"verifier K={k}"] = verify_knn(ds, q, k).epsilon_lower
    return out


def _all_values(ds, q, ks):
    """``_certified`` plus qp-1, naive-3 and mean at every K; a baseline that
    finds no flipping direction is recorded as the error it raises."""
    out = _certified(ds, q, ks)
    out["qp-1"] = qp_top_m(ds, q, 1).epsilon
    for k in ks:
        for name, method in (("naive-3", lambda: naive_attack(ds, q, k, 3)),
                             ("mean", lambda: mean_attack(ds, q, k))):
            try:
                out[f"{name} K={k}"] = method().epsilon
            except SolverError:
                out[f"{name} K={k}"] = "SolverError"
    return out


@pytest.fixture(scope="module")
def certified_at_one(corpus):
    return [_certified(ds, q, ks) for ds, q, ks in corpus]


@pytest.fixture(scope="module")
def all_at_one(corpus):
    return [_all_values(ds, q, ks) for ds, q, ks in corpus]


# qp-1 and naive-3 are not here: they take the nearest other-class points,
# and where two of those tie in distance, rounding at a scale that is not a
# power of two decides which comes first.
@pytest.mark.parametrize("s", [1e-6, 1e-3, 1e3, 1e6])
def test_certified_values_scale_with_the_data(corpus, certified_at_one, s):
    worst = 0.0
    for (ds, q, ks), ref in zip(corpus, certified_at_one):
        got = _certified(*_scaled(ds, q, s), ks)
        for name, value in ref.items():
            worst = max(worst, abs(got[name] - s * value) / (s * value))
    assert worst <= 1e-12


@pytest.mark.parametrize("s", [2.0 ** -20, 2.0 ** -10, 2.0 ** 10, 2.0 ** 20])
def test_values_bit_exact_at_powers_of_two(corpus, all_at_one, s):
    for (ds, q, ks), ref in zip(corpus, all_at_one):
        got = _all_values(*_scaled(ds, q, s), ks)
        want = {name: v if isinstance(v, str) else s * v for name, v in ref.items()}
        assert got == want


def test_knn_predict_same_at_small_scale():
    # Squared distances here are about 1e-12 to 1e-11, so a tie window with an
    # absolute floor (about 1.1e-13) would tie points that are not tied.
    ds = generate_synthetic(100, 3, 3, separation=3.0, seed=5)
    queries = generate_synthetic(40, 3, 3, separation=3.0, seed=6)
    s = 2.0 ** -20
    small = Dataset(ds.points * s, ds.labels, ds.class_count)
    changed = 0
    for z, label in zip(queries.points, queries.labels):
        for k in (1, 3, 5, 7, 9):
            for true_label in (None, int(label)):
                changed += (knn_predict(ds, z, k, true_label=true_label)
                            != knn_predict(small, s * z, k, true_label=true_label))
    assert changed == 0
