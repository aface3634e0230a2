import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnrobust import (
    Dataset,
    DegeneratePairError,
    Query,
    build_1nn_subproblem,
    build_knn_subproblem,
    pair_bound,
)


class TestBuild1nn:
    def test_fix_b_row(self, fix_b):
        ds, q = fix_b
        sp = build_1nn_subproblem(ds, q, 1)
        np.testing.assert_allclose(sp.rows, [[1.0, -1.0]])
        np.testing.assert_allclose(sp.offsets, [-1.0])
        assert sp.target_ids == (1,)
        assert sp.excluded_ids == ()

    def test_fix_a_row(self, fix_a):
        ds, q = fix_a
        sp = build_1nn_subproblem(ds, q, 1)
        np.testing.assert_allclose(sp.rows, [[4.0]])
        np.testing.assert_allclose(sp.offsets, [-4.0])

    def test_equidistant_offset_zero(self):
        ds = Dataset(np.array([[0.0, 2.0], [2.0, 0.0]]), np.array([1, 2]))
        q = Query(np.array([0.0, 0.0]), 1)
        sp = build_1nn_subproblem(ds, q, 1)
        np.testing.assert_allclose(sp.rows, [[2.0, -2.0]])
        np.testing.assert_allclose(sp.offsets, [0.0])

    def test_rejects_same_label_target(self, fix_a):
        ds, q = fix_a
        with pytest.raises(ValueError):
            build_1nn_subproblem(ds, q, 0)

    def test_rejects_cross_class_duplicate(self):
        ds = Dataset(np.array([[1.0], [1.0], [3.0]]), np.array([1, 2, 2]))
        q = Query(np.array([0.0]), 1)
        with pytest.raises(DegeneratePairError):
            build_1nn_subproblem(ds, q, 1)

    def test_target_point_always_feasible(self):
        # Perturbing z exactly onto x_j satisfies every constraint row.
        rng = np.random.default_rng(5)
        for _ in range(50):
            points = rng.normal(size=(8, 3))
            labels = np.array([1, 1, 1, 1, 2, 2, 2, 2])
            ds = Dataset(points, labels)
            q = Query(rng.normal(size=3), 1)
            j = int(rng.integers(4, 8))
            sp = build_1nn_subproblem(ds, q, j)
            delta = ds.points[j] - q.z
            assert np.min(sp.residual(delta)) >= -1e-12


class TestBuildKnn:
    def test_fix_c_four_rows(self, fix_c):
        ds, q = fix_c
        sp = build_knn_subproblem(ds, q, [2, 3])
        assert sp.m == 4
        got = {
            (int(i), int(j)): (float(a[0]), float(b))
            for i, j, a, b in zip(sp.row_source_ids, sp.row_target_ids, sp.rows, sp.offsets)
        }
        assert got == {
            (0, 2): (2.5, -1.875),
            (1, 2): (3.0, -1.5),
            (0, 3): (3.5, -4.375),
            (1, 3): (4.0, -4.0),
        }

    def test_excluded_drops_rows(self, fix_c):
        ds, q = fix_c
        sp = build_knn_subproblem(ds, q, [2, 3], excluded=[1])
        assert sp.m == 2
        assert set(sp.row_source_ids) == {0}
        assert sp.excluded_ids == (1,)

    def test_singleton_matches_1nn(self, fix_c):
        ds, q = fix_c
        a = build_knn_subproblem(ds, q, [2])
        b = build_1nn_subproblem(ds, q, 2)
        np.testing.assert_allclose(a.rows, b.rows)
        np.testing.assert_allclose(a.offsets, b.offsets)

    def test_mixed_labels_rejected(self):
        ds = Dataset(
            np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([1, 2, 3, 2]), 3
        )
        q = Query(np.array([0.5]), 1)
        with pytest.raises(ValueError, match="mixes"):
            build_knn_subproblem(ds, q, [1, 2])

    def test_excluded_must_be_same_class(self, fix_c):
        ds, q = fix_c
        with pytest.raises(ValueError):
            build_knn_subproblem(ds, q, [2], excluded=[3])


@pytest.mark.parametrize("build", [
    lambda ds, q, **kw: build_1nn_subproblem(ds, q, 3, **kw),
    lambda ds, q, **kw: build_knn_subproblem(ds, q, (2, 3), (0,), **kw),
], ids=["1nn", "knn"])
def test_given_distances_are_used_unchanged(fix_c, build, monkeypatch):
    ds, q = fix_c
    plain = build(ds, q)
    dist_sq = ds.distances_sq(q.z)
    monkeypatch.setattr(Dataset, "distances_sq", lambda self, z: pytest.fail("recomputed"))
    given = build(ds, q, dist_sq=dist_sq)
    assert np.array_equal(given.rows, plain.rows)
    assert np.array_equal(given.offsets, plain.offsets)


class TestPairBound:
    def test_fix_b(self, fix_b):
        ds, q = fix_b
        assert pair_bound(ds, q.z, 0, 1) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_fix_c(self, fix_c):
        ds, q = fix_c
        assert pair_bound(ds, q.z, 0, 2) == pytest.approx(0.75, abs=1e-12)

    def test_clips_at_zero(self, fix_b):
        ds, q = fix_b
        # Swapping roles puts z on the target side already.
        assert pair_bound(ds, q.z, 1, 0) == 0.0

    def test_identical_points_rejected(self):
        ds = Dataset(np.array([[1.0], [1.0]]), np.array([1, 2]))
        with pytest.raises(DegeneratePairError):
            pair_bound(ds, np.array([0.0]), 0, 1)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_single_coordinate_dual_value(self, seed):
        # pair_bound^2 / 2 equals the best one-variable dual objective of
        # the corresponding constraint row.
        rng = np.random.default_rng(seed)
        points = rng.integers(-5, 6, size=(6, 2)).astype(float)
        if any(np.array_equal(points[i], points[j]) for i in range(3) for j in range(3, 6)):
            return
        ds = Dataset(points, np.array([1, 1, 1, 2, 2, 2]))
        z = rng.integers(-5, 6, size=2).astype(float)
        q = Query(z, 1)
        j = int(rng.integers(3, 6))
        sp = build_1nn_subproblem(ds, q, j)
        for row in range(sp.m):
            i = int(sp.row_source_ids[row])
            dual_value = max(-sp.offsets[row], 0.0) ** 2 / (2 * sp.row_norms_sq[row])
            assert pair_bound(ds, z, i, j) ** 2 / 2 == pytest.approx(dual_value, abs=1e-9)


def test_row_order_invariance(fix_c):
    ds, q = fix_c
    perm = np.array([4, 2, 0, 3, 1])
    ds2 = Dataset(ds.points[perm], ds.labels[perm])
    sp1 = build_1nn_subproblem(ds, q, 2)
    sp2 = build_1nn_subproblem(ds2, q, 1)  # q1 moved to index 1
    rows1 = sorted(map(tuple, np.column_stack([sp1.rows, sp1.offsets]).tolist()))
    rows2 = sorted(map(tuple, np.column_stack([sp2.rows, sp2.offsets]).tolist()))
    assert rows1 == rows2
