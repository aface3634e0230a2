import math

import numpy as np
import pytest

from knnrobust import (
    Dataset,
    InsufficientPointsError,
    Query,
    exact_1nn,
    generate_synthetic,
    knn_predict,
    pair_bound,
    verify_1nn,
    verify_knn,
)

from helpers import (knn_pair_bound_exact_sq, knn_pair_bound_reference, no_flip_below_1d,
                     preserved_fraction, random_grid_dataset)


class TestVerify1nn:
    def test_fix_b_tight(self, fix_b):
        ds, q = fix_b
        res = verify_1nn(ds, q)
        assert res.epsilon_lower == pytest.approx(1 / np.sqrt(2), abs=1e-9)
        assert res.k_used == 1
        assert res.binding_pair == (0, 1)

    def test_fix_a_tight(self, fix_a):
        ds, q = fix_a
        assert verify_1nn(ds, q).epsilon_lower == pytest.approx(1.0, abs=1e-12)

    def test_fix_c_per_target_maxima(self, fix_c):
        ds, q = fix_c
        # Inner maxima per target, then the outer minimum.
        maxima = {
            j: max(pair_bound(ds, q.z, i, j) for i in (0, 1)) for j in (2, 3, 4)
        }
        assert maxima[2] == pytest.approx(0.75)
        assert maxima[3] == pytest.approx(1.25)
        assert maxima[4] == pytest.approx(1.75)
        assert verify_1nn(ds, q).epsilon_lower == pytest.approx(0.75, abs=1e-12)

    def test_misclassified_returns_zero_flagged(self, fix_a):
        ds, _ = fix_a
        res = verify_1nn(ds, Query(np.array([2.9]), 1))
        assert res.misclassified
        assert res.epsilon_lower == 0.0

    def test_never_exceeds_exact(self):
        rng = np.random.default_rng(83)
        for _ in range(80):
            ds, q, _ = random_grid_dataset(rng)
            assert verify_1nn(ds, q).epsilon_lower <= exact_1nn(ds, q).epsilon + 1e-9


class TestVerifyKnn:
    def test_fix_c_k3_order_statistics(self, fix_c):
        ds, q = fix_c
        res = verify_knn(ds, q, 3)
        assert res.k_used == 2
        assert res.epsilon_lower == pytest.approx(1.0, abs=1e-12)

    def test_k1_reduces_to_1nn(self):
        rng = np.random.default_rng(89)
        for _ in range(60):
            ds, q, _ = random_grid_dataset(rng)
            a = verify_knn(ds, q, 1)
            b = verify_1nn(ds, q)
            assert a.epsilon_lower == b.epsilon_lower
            assert a.binding_pair == b.binding_pair

    def test_fix_c_k5_insufficient(self, fix_c):
        ds, q = fix_c
        with pytest.raises(InsufficientPointsError):
            verify_knn(ds, q, 5)

    def test_even_k_rejected(self, fix_c):
        ds, q = fix_c
        with pytest.raises(ValueError):
            verify_knn(ds, q, 2)

    def test_bound_not_monotone_in_k(self, fix_c):
        # The bound is NOT monotone in K in general: with sparse targets,
        # needing two of them raises the certified radius.  The canonical
        # 1-D fixture already exhibits the increase.
        ds, q = fix_c
        assert verify_knn(ds, q, 1).epsilon_lower == pytest.approx(0.75)
        assert verify_knn(ds, q, 3).epsilon_lower == pytest.approx(1.0)

    def test_sound_for_every_k(self):
        # What actually holds for every K: the bound never exceeds the true
        # minimum flipping magnitude at that K (checked densely in 1-D).
        rng = np.random.default_rng(97)
        checked = 0
        while checked < 30:
            ds, q, ks = random_grid_dataset(rng, max_d=1)
            if 3 not in ks:
                continue
            for k in (1, 3):
                bound = verify_knn(ds, q, k).epsilon_lower
                assert no_flip_below_1d(ds, q, k, 0.999 * bound)
            checked += 1

    def test_permutation_invariance(self, fix_c):
        ds, q = fix_c
        perm = np.array([3, 0, 4, 1, 2])
        ds2 = Dataset(ds.points[perm], ds.labels[perm])
        assert verify_knn(ds2, q, 3).epsilon_lower == pytest.approx(
            verify_knn(ds, q, 3).epsilon_lower, abs=1e-12
        )

    def test_multiclass_merges_negatives(self):
        # Three classes; the bound must treat both non-true classes as one
        # negative pool.
        ds = Dataset(
            np.array([[0.0, 0.0], [1.0, 0.0], [4.0, 0.0], [0.0, 4.0]]),
            np.array([1, 1, 2, 3]),
            3,
        )
        q = Query(np.array([0.5, 0.0]), 1)
        res = verify_knn(ds, q, 1)
        merged = Dataset(ds.points, np.array([1, 1, 2, 2]), 2)
        assert res.epsilon_lower == pytest.approx(
            verify_knn(merged, q, 1).epsilon_lower, abs=1e-12
        )

    @pytest.mark.parametrize("classes, d", [(2, 2), (3, 2), (2, 20), (3, 20)])
    def test_sorted_stop_matches_reference(self, classes, d):
        # Gaussian blobs of 100 points per class: large enough that the walk
        # stops before the farthest targets, unlike the grid corpus.
        seed = 10 * classes + d
        ds = generate_synthetic(100, d, classes, 3.0, seed)
        queries = generate_synthetic(4, d, classes, 3.0, 1000 + seed)
        checked = stopped = 0
        for z, label in zip(queries.points, queries.labels):
            q = Query(z, label)
            same = int(np.count_nonzero(ds.labels == label))
            for k in (1, 3, 5, 7, 9):
                res = verify_knn(ds, q, k)
                if res.misclassified:
                    continue
                r = (k + 1) // 2
                ref = knn_pair_bound_reference(ds, q, r, r)
                assert res.epsilon_lower == pytest.approx(ref, rel=1e-12, abs=0.0)
                assert pair_bound(ds, q.z, *res.binding_pair) == pytest.approx(
                    res.epsilon_lower, rel=1e-12)
                checked += 1
                stopped += res.pair_bounds < same * (ds.n - same)
        assert checked >= 20
        assert stopped > 0.8 * checked

    def test_one_row_blocks_beyond_d_8192(self):
        # One same-class row per block, d = 9000: the row norm comes from
        # Dataset.norms_sq, summed with every other row, which beyond
        # d = 8192 may differ in its last bit from a lone row's einsum
        # (see _pair_bound_block).  The bound stays the reference's.
        rng = np.random.default_rng(9000)
        labels = np.array([1, 2, 2, 2, 2])
        ds = Dataset(rng.standard_normal((5, 9000)) + 0.05 * labels[:, None], labels)
        q = Query(ds.points[0] + 0.3 * rng.standard_normal(9000), 1)
        np.testing.assert_array_equal(ds.norms_sq, np.einsum("ij,ij->i", ds.points, ds.points))
        res = verify_knn(ds, q, 1)
        assert not res.misclassified and res.binding_pair[0] == 0
        ref = knn_pair_bound_reference(ds, q, 1, 1)
        assert res.epsilon_lower == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert pair_bound(ds, q.z, *res.binding_pair) == pytest.approx(
            res.epsilon_lower, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("extra", [[], [[9.0, 0.0]]], ids=["last-target", "mid-block"])
    def test_cross_class_duplicate_has_zero_pair_bound(self, extra):
        # Points 2 and 4 coincide across classes.  Their row 0.delta + 0 >= 0
        # has pair bound 0, so the bound stays sound, and it is never
        # evaluated because both points are equally far from z.  A farther
        # target (9, 0) puts the pair inside a block without changing the bound.
        points = [[0.0, 0.0], [1.0, 0.0], [6.0, 0.0], [3.0, 0.0], [6.0, 0.0]] + extra
        ds = Dataset(np.array(points), np.array([1, 1, 1, 2, 2] + [2] * len(extra)))
        q = Query(np.array([0.2, 0.0]), 1)
        rng = np.random.default_rng(107)
        directions = rng.normal(size=(2000, 2))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        # Tight by hand: K=1 flips at the (1,0)-(3,0) bisector x = 2, and K=3
        # at x = 3, where (3,0) and a tie at distance 3 give class 2 two votes.
        for k, expected in ((1, 1.8), (3, 2.8)):
            bound = verify_knn(ds, q, k).epsilon_lower
            assert bound == pytest.approx(expected, rel=1e-12, abs=0.0)
            z_batch = q.z + 0.999 * bound * directions
            assert preserved_fraction(ds, q.true_label, z_batch, k) == 1.0
            flipped = q.z + np.array([bound, 0.0])
            assert knn_predict(ds, flipped, k, true_label=q.true_label) != q.true_label


class TestSoundness:
    def test_random_radius_sampling_never_flips(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            ds, q, ks = random_grid_dataset(rng)
            for k in (1, 3):
                if k not in ks:
                    continue
                bound = verify_knn(ds, q, k).epsilon_lower
                if bound <= 0:
                    continue
                directions = rng.normal(size=(500, ds.d))
                directions /= np.linalg.norm(directions, axis=1, keepdims=True)
                z_batch = q.z + 0.999 * bound * directions
                assert preserved_fraction(ds, q.true_label, z_batch, k) == 1.0

    def test_dense_1d_search_confirms_bound(self):
        rng = np.random.default_rng(103)
        checked = 0
        while checked < 25:
            ds, q, ks = random_grid_dataset(rng, max_d=1)
            for k in (1, 3):
                if k not in ks:
                    continue
                bound = verify_knn(ds, q, k).epsilon_lower
                assert no_flip_below_1d(ds, q, k, 0.999 * bound)
            checked += 1


class TestFarFromOrigin:
    """Near-duplicate points far from the origin, checked against exact arithmetic.

    There the Gram form ``||x_i||^2 + ||x_j||^2 - 2 x_i.x_j`` of a cross
    distance cancels: at 1e5 from the origin the squares are 1e10 and a
    squared distance of 9e-6 keeps about one digit.  A distance shrunk that
    way inflates the certified bound; one rounded to zero raises
    ``DegeneratePairError`` on distinct points.
    """

    @pytest.mark.parametrize("offset", [1e5, 1e6])
    def test_planted_pair(self, offset):
        # The bisector of 0.001 and 0.004 lies 0.0025 from the query; the
        # Gram form gives 0.00272 at 1e5 and a zero distance at 1e6.
        ds = Dataset(np.array([[0.001], [0.004]]) + offset, np.array([1, 2]))
        q = Query(np.array([offset]), 1)
        bound = verify_knn(ds, q, 1).epsilon_lower
        assert bound == pytest.approx(0.0025, rel=1e-6, abs=0.0)
        assert bound <= math.sqrt(knn_pair_bound_exact_sq(ds, q, 1, 1)) * (1.0 + 1e-12)

    def test_random_near_duplicates(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(150):
            d = int(rng.integers(1, 4))
            offset = 10.0 ** rng.uniform(2, 6) * rng.choice([-1.0, 1.0], size=d)
            spread = 10.0 ** rng.uniform(-4, 0)
            ds = Dataset(offset + spread * rng.normal(size=(6, d)), np.array([1, 1, 1, 2, 2, 2]))
            q = Query(offset + spread * rng.normal(size=d), 1)
            for k in (1, 3):
                res = verify_knn(ds, q, k)
                if res.misclassified:
                    continue
                exact = math.sqrt(knn_pair_bound_exact_sq(ds, q, res.k_used, res.k_used))
                assert res.epsilon_lower <= exact * (1.0 + 1e-12)
                checked += 1
        assert checked > 100
