import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnrobust import (
    Dataset,
    DegeneratePairError,
    Query,
    SolveStatus,
    Subproblem,
    build_1nn_subproblem,
    build_knn_subproblem,
    pair_bound,
    recover_primal,
    solve_dual_gca,
)
from knnrobust import subproblem
from knnrobust.subproblem import pair_bound_block


class TestBuild1nn:
    def test_fix_b_row(self, fix_b):
        ds, q = fix_b
        sp = build_1nn_subproblem(ds, q, 1)
        np.testing.assert_allclose(sp.rows, [[1.0, -1.0]])
        np.testing.assert_allclose(sp.offsets, [-1.0])
        assert sp.targets.tolist() == [1]
        assert sp.sources.tolist() == [0]

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
        with pytest.raises(ValueError, match="target 0 has the query's own label 1"):
            build_1nn_subproblem(ds, q, 0)

    def test_rejects_a_query_label_without_points(self):
        # Class 1 exists but has no point: there is no row to build.
        ds = Dataset(np.array([[1.0], [3.0]]), np.array([2, 3]), 3)
        with pytest.raises(ValueError, match="constraint set is empty"):
            build_1nn_subproblem(ds, Query(np.array([0.0]), 1), 0)

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
            (int(sp.sources[row % 2]), int(sp.targets[row // 2])): (float(a[0]), float(b))
            for row, (a, b) in enumerate(zip(sp.rows, sp.offsets))  # two sources per target
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
        assert sp.sources.tolist() == [0]
        assert sp.targets.tolist() == [2, 3]
        np.testing.assert_allclose(sp.rows, [[2.5], [3.5]])

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

    def test_empty_target_set_rejected(self, fix_c):
        ds, q = fix_c
        with pytest.raises(ValueError, match="s_minus must be nonempty"):
            build_knn_subproblem(ds, q, [])

    def test_target_of_the_query_label_rejected(self, fix_c):
        ds, q = fix_c
        with pytest.raises(ValueError, match="target 1 has the query's own label 1"):
            build_knn_subproblem(ds, q, [1, 0])

    def test_excluded_must_be_same_class(self, fix_c):
        ds, q = fix_c
        with pytest.raises(ValueError):
            build_knn_subproblem(ds, q, [2], excluded=[3])

    def test_without_sources_equals_rebuild(self):
        # qp-greedy's refinement drops 1 to (K-1)/2 same-class sources from
        # its first system; that must be the system built without them, bit
        # for bit, down to its source and target ids.
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(300):
            n, d = int(rng.integers(6, 40)), int(rng.integers(1, 25))
            ds = Dataset(rng.normal(size=(n, d)), rng.integers(1, 4, size=n), 3)
            q = Query(rng.normal(size=d), int(rng.integers(1, 4)))
            k = int(rng.choice([3, 5, 7, 9]))
            same = ds.class_indices(q.true_label)
            target = ds.class_indices(q.true_label % 3 + 1)
            if same.size < 2 or target.size < (k + 1) // 2:
                continue
            s_minus = rng.choice(target, size=(k + 1) // 2, replace=False)
            size = int(rng.integers(1, min((k - 1) // 2, same.size - 1) + 1))
            s_plus = rng.choice(same, size=size, replace=False).tolist()
            carved = build_knn_subproblem(ds, q, s_minus).without_sources(s_plus)
            built = build_knn_subproblem(ds, q, s_minus, s_plus)
            for name in ("rows", "offsets", "sources", "targets"):
                a, b = getattr(carved, name), getattr(built, name)
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            checked += 1
        assert checked >= 100

    def test_without_every_source_is_empty(self, fix_c):
        ds, q = fix_c
        sp = build_knn_subproblem(ds, q, [2, 3])
        with pytest.raises(ValueError, match="constraint set is empty"):
            sp.without_sources([0, 1])
        with pytest.raises(ValueError, match="constraint set is empty"):
            build_knn_subproblem(ds, q, [2, 3], excluded=[0, 1])

    def test_offset_scale_is_the_largest_offset(self, fix_c):
        # Offsets (d_i^2 - d_j^2)/2 with d^2 = 0.25, 1 (sources) and 4, 9
        # (targets): the largest |b| is 4.375, on source 0 and target 3.
        ds, q = fix_c
        built = build_knn_subproblem(ds, q, [2, 3])
        assert built.offset_scale == 4.375
        assert vars(built)["offset_scale"] == 4.375  # kept after the first read
        carved = built.without_sources([0])
        assert carved.offset_scale == 4.0 == float(np.max(np.abs(carved.offsets)))
        assert built.offset_scale == 4.375
        hand = Subproblem(np.array([[1.0], [2.0]]), np.array([0.5, -3.0]))
        assert hand.offset_scale == 3.0
        rng = np.random.default_rng(5)
        for _ in range(20):
            sp = Subproblem(rng.normal(size=(7, 3)), rng.normal(size=7))
            assert sp.offset_scale == float(np.max(np.abs(sp.offsets)))


class TestGrid:
    @pytest.mark.parametrize("targets", [(9,), (7, 5, 10)], ids=["1nn", "knn"])
    def test_row_pairs_a_target_with_a_source(self, targets):
        # Row t*n + s is x_targets[t] - x_sources[s], with offset
        # (d_s^2 - d_t^2)/2, bit for bit.
        rng = np.random.default_rng(23)
        ds = Dataset(rng.normal(size=(12, 5)), np.repeat([1, 2, 1], [3, 8, 1]))
        q = Query(rng.normal(size=5), 1)
        if len(targets) == 1:
            sp = build_1nn_subproblem(ds, q, targets[0])
        else:
            sp = build_knn_subproblem(ds, q, targets)
        dist_sq = ds.distances_sq(q.z)
        assert sp.sources.tolist() == [0, 1, 2, 11] and sp.targets.tolist() == list(targets)
        assert sp.m == 4 * len(targets)
        for t, j in enumerate(targets):
            for s, i in enumerate(sp.sources):
                row = t * sp.sources.size + s
                assert sp.rows[row].tobytes() == (ds.points[j] - ds.points[i]).tobytes()
                assert sp.offsets[row] == 0.5 * (dist_sq[i] - dist_sq[j])

    @pytest.mark.parametrize("rows, offsets", [
        (np.ones((3, 2)), np.zeros(2)),     # one offset short
        (np.ones(3), np.zeros(3)),          # a vector, not (m, d)
        (np.ones((0, 2)), np.zeros(0)),     # m = 0
    ])
    def test_rows_must_be_a_nonempty_matrix_with_one_offset_each(self, rows, offsets):
        with pytest.raises(ValueError, match="one offset per row, m >= 1"):
            Subproblem(rows, offsets)

    def test_rows_must_form_the_grid(self):
        rows, offsets = np.ones((3, 2)), np.zeros(3)
        with pytest.raises(ValueError, match="targets x sources grid"):
            Subproblem(rows, offsets, np.array([0, 1]), np.array([2]))
        with pytest.raises(ValueError, match="targets x sources grid"):
            Subproblem(rows, offsets, sources=np.array([0, 1, 4]))
        hand = Subproblem(rows, offsets)
        assert hand.sources.size == hand.targets.size == 0

    def test_hand_built_zero_row_is_a_constraint(self):
        # Only a build rejects a zero row.  A violated one makes the system
        # infeasible; a satisfied one never joins the active set.
        rows = np.array([[1.0, 0.0], [0.0, 0.0]])
        violated = Subproblem(rows, np.array([-1.0, -0.5]))
        assert solve_dual_gca(violated).status is SolveStatus.INFEASIBLE
        satisfied = Subproblem(rows, np.array([-1.0, 0.5]))
        sol = solve_dual_gca(satisfied)
        assert sol.status is SolveStatus.CONVERGED and sol.indices.tolist() == [0]
        np.testing.assert_array_equal(recover_primal(satisfied, sol), [1.0, 0.0])

    def test_cross_class_duplicate_names_both_points(self):
        # Point 1 (the query's class) and point 2 coincide; target 3 does not.
        ds = Dataset(np.array([[0.0, 1.0], [2.0, 2.0], [2.0, 2.0], [3.0, 0.0]]),
                     np.array([1, 1, 2, 2]))
        q = Query(np.array([0.0, 0.0]), 1)
        message = "points 1 and 2 coincide across classes"
        with pytest.raises(DegeneratePairError, match=message):
            build_1nn_subproblem(ds, q, 2)
        with pytest.raises(DegeneratePairError, match=message):
            build_knn_subproblem(ds, q, (3, 2))
        assert build_1nn_subproblem(ds, q, 3).m == 2


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
            i = int(sp.sources[row])
            dual_value = max(-sp.offsets[row], 0.0) ** 2 / (2 * float(sp.rows[row] @ sp.rows[row]))
            assert pair_bound(ds, z, i, j) ** 2 / 2 == pytest.approx(dual_value, abs=1e-9)


def _block(ds, z, sources, targets, norm="l2"):
    dist_sq = ds.distances_sq(z)
    return pair_bound_block(ds, z, np.asarray(sources), dist_sq[sources], np.asarray(targets),
                            dist_sq[targets], norm)


class TestPairBoundBlock:
    @pytest.mark.parametrize("offset", [1e5, 1e6])
    def test_near_duplicates_far_from_the_origin_are_recomputed(self, offset, monkeypatch):
        # The bisector of 0.001 and 0.004 lies 0.0025 from the query.  The
        # Gram form cancels: it gives 0.00272 at 1e5 and a zero distance at
        # 1e6, and the recompute in difference form gives pair_bound's value.
        ds = Dataset(np.array([[0.001], [0.004]]) + offset, np.array([1, 2]))
        z = np.array([offset])
        bound = _block(ds, z, [0], [1])[0, 0]
        assert bound == pytest.approx(pair_bound(ds, z, 0, 1), rel=1e-12, abs=0.0)
        assert bound == pytest.approx(0.0025, rel=1e-6, abs=0.0)
        if offset == 1e5:
            monkeypatch.setattr(subproblem, "_GRAM_REL_TOL", -np.inf)
            assert _block(ds, z, [0], [1])[0, 0] == pytest.approx(0.00272, rel=1e-2)

    def test_random_near_duplicates_far_from_the_origin(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            offset = 10.0 ** rng.uniform(3, 6) * rng.choice([-1.0, 1.0], size=3)
            ds = Dataset(offset + 1e-3 * rng.normal(size=(8, 3)), np.repeat([1, 2], 4))
            z = offset + 1e-3 * rng.normal(size=3)
            c = _block(ds, z, [0, 1, 2, 3], [4, 5, 6, 7])
            for (s, t), bound in np.ndenumerate(c):
                assert bound == pytest.approx(pair_bound(ds, z, s, 4 + t), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("norm", ["l2", "linf", "l1"])
    def test_coincident_pair_has_bound_zero(self, norm):
        ds = Dataset(np.array([[1.0, 0.0], [4.0, 0.0], [4.0, 0.0]]), np.array([1, 1, 2]))
        # Point 1 coincides with target 2; point 0's bisector with it is x = 2.5.
        np.testing.assert_array_equal(_block(ds, np.zeros(2), [0, 1], [2], norm), [[2.5], [0.0]])


def test_row_order_invariance(fix_c):
    ds, q = fix_c
    perm = np.array([4, 2, 0, 3, 1])
    ds2 = Dataset(ds.points[perm], ds.labels[perm])
    sp1 = build_1nn_subproblem(ds, q, 2)
    sp2 = build_1nn_subproblem(ds2, q, 1)  # q1 moved to index 1
    rows1 = sorted(map(tuple, np.column_stack([sp1.rows, sp1.offsets]).tolist()))
    rows2 = sorted(map(tuple, np.column_stack([sp2.rows, sp2.offsets]).tolist()))
    assert rows1 == rows2
