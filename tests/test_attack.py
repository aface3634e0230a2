import json
from pathlib import Path

import numpy as np
import pytest

from knnrobust import (
    DEFAULT_TIE_RULE,
    AttackStats,
    CertificateKind,
    CertificationError,
    DataFormatError,
    Dataset,
    DegeneratePairError,
    DualSolution,
    InsufficientPointsError,
    KnnRobustError,
    Query,
    SolveStatus,
    SolverConfig,
    SolverError,
    Subproblem,
    build_knn_subproblem,
    exact_1nn,
    exact_1nn_lp,
    generate_synthetic,
    is_adversarial,
    knn_predict,
    mean_attack,
    naive_attack,
    qp_greedy_knn,
    qp_top_m,
    screen_subproblem,
    verify_1nn,
    verify_knn,
)

from knnrobust import attack, subproblem
from knnrobust.attack import _solve_candidate
from knnrobust.subproblem import pair_bound, pair_bound_block

from helpers import (active_set_oracle, brute_force_exact_1nn, line_flip_reference, min_flip_1d,
                     random_grid_dataset, ray_flip_reference)


class TestExact1nn:
    def test_fix_a(self, fix_a):
        ds, q = fix_a
        cert = exact_1nn(ds, q)
        assert cert.kind is CertificateKind.EXACT
        assert cert.epsilon == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(cert.delta, [1.0], atol=1e-8)

    def test_fix_b_matches_oracle(self, fix_b):
        ds, q = fix_b
        cert = exact_1nn(ds, q)
        assert cert.epsilon == pytest.approx(np.sqrt(0.5), abs=1e-8)
        np.testing.assert_allclose(cert.delta, [0.5, -0.5], atol=1e-8)
        assert cert.epsilon == pytest.approx(brute_force_exact_1nn(ds, q), abs=1e-9)

    def test_fix_c_as_1nn(self, fix_c):
        ds, q = fix_c
        cert = exact_1nn(ds, q)
        assert cert.epsilon == pytest.approx(0.75, abs=1e-9)
        assert cert.epsilon == pytest.approx(min_flip_1d(ds, q, 1, hi=3.0), abs=1e-6)

    def test_misclassified_query_flagged_zero(self, fix_a):
        ds, _ = fix_a
        cert = exact_1nn(ds, Query(np.array([2.9]), 1))
        assert cert.misclassified
        assert cert.epsilon == 0.0
        np.testing.assert_array_equal(cert.delta, [0.0])

    def test_perturbation_that_does_not_flip_raises(self, fix_c, monkeypatch):
        monkeypatch.setattr(attack, "is_adversarial", lambda *args, **kwargs: False)
        ds, q = fix_c
        with pytest.raises(CertificationError,
                           match="^exact-1nn: produced perturbation does not flip the 1-NN"):
            exact_1nn(ds, q)

    def test_perturbation_without_a_finite_norm_never_wins(self, fix_c, monkeypatch):
        # A solve that returns NaN leaves no incumbent to validate.
        monkeypatch.setattr(attack, "_solve_candidate",
                            lambda sp, stats: (np.full(sp.d, np.nan), None))
        ds, q = fix_c
        with pytest.raises(SolverError, match="no candidate subproblem produced a perturbation"):
            exact_1nn(ds, q)

    def test_stats_populated(self, fix_c):
        ds, q = fix_c
        cert = exact_1nn(ds, q)
        assert cert.stats.subproblems_solved >= 1
        assert cert.stats.subproblems_solved + cert.stats.subproblems_screened >= 3
        assert cert.stats.wall_time > 0

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            ds, q, _ = random_grid_dataset(rng)
            cert = exact_1nn(ds, q)
            assert cert.epsilon == pytest.approx(brute_force_exact_1nn(ds, q), abs=1e-8)

    @pytest.mark.parametrize("kwargs", [{"sort_candidates": False},
                                        {"cfg": SolverConfig(screening_enabled=False)}],
                             ids=["unsorted", "unscreened"])
    def test_ablations_match_the_oracle(self, kwargs):
        rng = np.random.default_rng(41)
        for _ in range(100):
            ds, q, _ = random_grid_dataset(rng)
            cert = exact_1nn(ds, q, **kwargs)
            assert cert.epsilon == pytest.approx(brute_force_exact_1nn(ds, q), abs=1e-8)

    def test_screening_neutrality(self):
        rng = np.random.default_rng(43)
        on = SolverConfig(screening_enabled=True)
        off = SolverConfig(screening_enabled=False)
        for _ in range(200):
            ds, q, _ = random_grid_dataset(rng)
            a = exact_1nn(ds, q, on)
            b = exact_1nn(ds, q, off)
            assert a.epsilon == pytest.approx(b.epsilon, abs=1e-8)

    def test_sorting_off_solves_more(self):
        rng = np.random.default_rng(47)
        solved_sorted = solved_unsorted = 0
        for _ in range(50):
            ds, q, _ = random_grid_dataset(rng)
            solved_sorted += exact_1nn(ds, q, sort_candidates=True).stats.subproblems_solved
            solved_unsorted += exact_1nn(ds, q, sort_candidates=False).stats.subproblems_solved
        assert solved_unsorted >= solved_sorted


@pytest.mark.parametrize("points, labels, z, label, expected", [
    ([[0, -2], [-2, 5], [3, -1], [-2, 4], [-1, -3], [-5, 1], [-2, 0]],
     [1, 1, 1, 1, 1, 2, 1], [-5, 5], 1, np.sqrt(0.5)),
    ([[-4, 1], [-3, 2], [3, -1], [5, -1], [-4, 0], [3, 3], [-2, 5], [-2, -5], [2, -2],
      [0, 3], [-2, -3]],
     [2, 1, 2, 1, 2, 1, 1, 2, 2, 1, 2], [-4, -1], 2, 3.0 / np.sqrt(2.0)),
], ids=["grid-1", "grid-2"])
def test_exact_vertex_at_degenerate_optimum(points, labels, z, label, expected):
    # Two grid draws whose optimum is a degenerate vertex: a solver that
    # stops a residual of ~1e-8 short of it leaves a point that does not
    # flip the prediction, and exact_1nn used to raise CertificationError.
    ds = Dataset(np.array(points, dtype=np.float64), np.array(labels))
    q = Query(np.array(z, dtype=np.float64), label)
    cert = exact_1nn(ds, q)
    assert cert.epsilon == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert cert.epsilon == pytest.approx(brute_force_exact_1nn(ds, q), rel=1e-12)


def _two_row_system():
    # Rows x >= 3 and y >= x - 1: the optimum is (3, 2), where both are tight.
    return Subproblem(rows=np.array([[1.0, 0.0], [-1.0, 1.0]]), offsets=np.array([-3.0, 1.0]),
                      sources=np.array([0, 1]), targets=np.array([2]))


class TestSolveCandidate:
    def test_unscreened_solve_reaches_optimum(self):
        stats = AttackStats()
        delta, _ = _solve_candidate(_two_row_system(), stats)
        np.testing.assert_allclose(delta, [3.0, 2.0], atol=1e-12)
        assert stats.subproblems_solved == 1
        assert stats.subproblems_screened == 0

    def test_violation_without_screened_rows_raises(self, monkeypatch):
        # A solver result that violates a row is a failure.
        sp = _two_row_system()
        empty = DualSolution(indices=np.empty(0, dtype=np.int64), values=np.empty(0),
                             objective=0.0, iterations=0, status=SolveStatus.CONVERGED,
                             size=sp.m)
        monkeypatch.setattr(attack, "solve_dual_gca", lambda sp: empty)
        with pytest.raises(SolverError):
            _solve_candidate(sp, AttackStats())

    def test_every_row_reaches_the_solver(self, monkeypatch):
        # A 1-NN subproblem has one row per point of the query's class, and
        # each built subproblem is solved whole, on data where a row screen
        # by min(d_j, incumbent) would have dropped rows.
        ds = generate_synthetic(30, 4, 2, 3.0, seed=11)
        queries = generate_synthetic(5, 4, 2, 3.0, seed=12)
        rows = []
        solve = attack.solve_dual_gca
        monkeypatch.setattr(attack, "solve_dual_gca", lambda sp: (rows.append(sp.m), solve(sp))[1])
        solves = 0
        for z, label in zip(queries.points, queries.labels):
            q = Query(z, int(label))
            if knn_predict(ds, z, 1, true_label=q.true_label) != q.true_label:
                continue
            rows.clear()
            exact_1nn(ds, q)
            qp_top_m(ds, q, 10)
            assert set(rows) == {int(np.count_nonzero(ds.labels == q.true_label))}
            solves += len(rows)
        assert solves > 10


class TestScreenSubproblem:
    def test_removable(self, fix_b):
        ds, q = fix_b
        assert screen_subproblem(ds, q, 1, incumbent_sq=0.25) is True

    def test_boundary_not_removable(self, fix_b):
        ds, q = fix_b
        assert screen_subproblem(ds, q, 1, incumbent_sq=0.5) is False

    def test_nonnegative_offsets_never_removable(self):
        ds = Dataset(np.array([[5.0], [0.5]]), np.array([1, 2]))
        q = Query(np.array([0.0]), 1)
        assert screen_subproblem(ds, q, 1, incumbent_sq=1e-12) is False

    def test_target_of_the_query_label_rejected(self):
        # Point 1 shares the query's label: its pair with itself has bound 0,
        # but the rows (2, 1) and (3, 1) would prove a radius above 0.
        ds = Dataset(np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [4.0, 0.0]]),
                     np.array([1, 1, 2, 2]))
        q = Query(np.array([0.2, 0.0]), 1)
        with pytest.raises(ValueError, match="target 1 has the query's own label 1"):
            screen_subproblem(ds, q, 1, incumbent_sq=0.0)

    def test_squared_distance_underflow_raises(self):
        # The points differ, but 1e-165 squared underflows to 0 while the
        # squared distances from the query still differ by about 2e-320.
        ds = Dataset(np.array([[0.0], [1e-165]]), np.array([1, 2]))
        q = Query(np.array([-1e-155]), 1)
        with pytest.raises(DegeneratePairError,
                           match="^points 0 and 1 differ, but their squared distance underflows"):
            screen_subproblem(ds, q, 1, incumbent_sq=1.0)

    def test_screening_rows_break_ties_at_the_cut_by_index(self):
        # Same-class points at -1 and +1 tie at distance 1 from the query at
        # 0; against the target at 3 their pair bounds are 1 and 2.  With
        # n_scr = 1 the block bound takes the lower index of the two.
        z, same, target = np.zeros(1), np.array([0, 1]), np.array([2])
        for points, first in (([-1.0, 1.0, 3.0], 1.0), ([1.0, -1.0, 3.0], 2.0)):
            ds = Dataset(np.array(points)[:, None], np.array([1, 1, 2]))
            dist_sq = ds.distances_sq(z)
            assert attack._block_bounds(ds, z, same, dist_sq, target, 1).tolist() == [first]
            assert attack._block_bounds(ds, z, same, dist_sq, target, 2).tolist() == [2.0]


_ONE_NN_CALLS = {
    "exact": lambda ds, q: exact_1nn(ds, q),
    "exact n_scr=1": lambda ds, q: exact_1nn(ds, q, n_scr=1),
    "exact unsorted": lambda ds, q: exact_1nn(ds, q, sort_candidates=False),
    "exact unscreened": lambda ds, q: exact_1nn(ds, q, SolverConfig(screening_enabled=False)),
    "qp-3": lambda ds, q: qp_top_m(ds, q, 3),
    "exact-linf": lambda ds, q: exact_1nn_lp(ds, q, "linf"),
    "exact-l1 unsorted": lambda ds, q: exact_1nn_lp(ds, q, "l1", sort_candidates=False),
}


class TestBestFirstLoop:
    @pytest.mark.parametrize("norm", ["l2", "linf", "l1"])
    def test_block_bound_is_the_per_target_pair_bound(self, corpus, norm):
        # One block over every target gives, per pair, the pair bound:
        # pair_bound's under l2 and the explicit row's Hölder bound, bit for
        # bit, under linf and l1 (the corpus has no coincident pair).
        # screen_subproblem's threshold sits exactly at the squared column max.
        dual_ord = {"linf": 1, "l1": np.inf}.get(norm)
        for ds, q, _ in corpus:
            dist_sq = ds.distances_sq(q.z)
            same, targets = ds.split(q.true_label)
            c = pair_bound_block(ds, q.z, same, dist_sq[same], targets, dist_sq[targets], norm)
            assert c.shape == (same.size, targets.size)
            for (s, t), bound in np.ndenumerate(c):
                i, j = same[s], targets[t]
                if norm == "l2":
                    assert bound == pytest.approx(pair_bound(ds, q.z, i, j), rel=1e-12, abs=0.0)
                else:
                    neg_b = -0.5 * (dist_sq[i] - dist_sq[j])
                    dual = np.linalg.norm(ds.points[j] - ds.points[i], ord=dual_ord)
                    assert bound == max(neg_b, 0.0) / dual
            if norm != "l2":
                continue
            scr = same[np.argsort(dist_sq[same], kind="stable")[:attack.DEFAULT_N_SCR]]
            c = pair_bound_block(ds, q.z, scr, dist_sq[scr], targets, dist_sq[targets])
            bounds = attack._block_bounds(ds, q.z, same, dist_sq, targets, attack.DEFAULT_N_SCR)
            np.testing.assert_array_equal(bounds, c.max(axis=0))
            for j, bound in zip(targets, bounds):
                assert screen_subproblem(ds, q, j, bound * bound) is False
                if bound > 0.0:
                    assert screen_subproblem(ds, q, j, np.nextafter(bound * bound, 0.0)) is True

    @pytest.mark.parametrize("n_scr", [1, 2])
    def test_block_bound_beyond_8192_entries(self, n_scr):
        # At d = 9000 numpy's einsum sums a lone row in another order than a
        # row of a larger block; the squared norms come from Dataset.norms_sq,
        # so every bound stays within rounding of pair_bound's, and each
        # one-target screen sits at its block bound.
        rng = np.random.default_rng(53)
        ds = Dataset(rng.standard_normal((12, 9000)), np.arange(12) % 2 + 1)
        q = Query(rng.standard_normal(9000), 1)
        dist_sq = ds.distances_sq(q.z)
        same, targets = ds.split(1)
        scr = same[np.argsort(dist_sq[same], kind="stable")[:n_scr]]
        bounds = attack._block_bounds(ds, q.z, same, dist_sq, targets, n_scr)
        own = [max(pair_bound(ds, q.z, i, j) for i in scr) for j in targets]
        np.testing.assert_allclose(bounds, own, rtol=1e-12, atol=0.0)
        assert np.count_nonzero(bounds) >= 3
        for j, bound in zip(targets, bounds):
            assert screen_subproblem(ds, q, j, bound * bound, n_scr) is False
            if bound > 0.0:
                assert screen_subproblem(ds, q, j, np.nextafter(bound * bound, 0.0), n_scr)

    @pytest.mark.parametrize("name", _ONE_NN_CALLS)
    def test_every_candidate_is_solved_or_screened(self, corpus, name):
        for ds, q, _ in corpus:
            cert = _ONE_NN_CALLS[name](ds, q)
            if cert.misclassified:
                continue
            candidates = int(np.count_nonzero(ds.labels != q.true_label))
            if name == "qp-3":
                candidates = min(candidates, 3)
            s = cert.stats
            assert s.subproblems_solved + s.subproblems_screened == candidates
            assert s.subproblems_built == s.subproblems_solved

    @pytest.mark.parametrize("name", ["exact", "exact unsorted", "exact-linf"])
    def test_one_target_blocks_give_the_same_certificates(self, corpus, monkeypatch, name):
        call = _ONE_NN_CALLS[name]
        default = [call(ds, q) for ds, q, _ in corpus[:200]]
        monkeypatch.setattr(subproblem, "_BLOCK_ELEMENTS", 1)
        for (ds, q, _), ref in zip(corpus[:200], default):
            cert = call(ds, q)
            assert cert.epsilon == ref.epsilon
            np.testing.assert_array_equal(cert.delta, ref.delta)
            assert (cert.stats.subproblems_built, cert.stats.subproblems_solved) == (
                ref.stats.subproblems_built, ref.stats.subproblems_solved)


def test_cross_class_duplicate_among_screening_rows_prunes_only_by_the_others():
    # Target 3 at x = 3 coincides with same-class point 4.  Target 2 gives the
    # incumbent 1.5, and target 3 is within reach ((3 - 1)/2 = 1).  Its pair
    # with point 4 has bound 0, but its pair with point 1 has bound 2, so
    # the block bound prunes it; without the block bound it is built, and
    # its zero row raises.
    ds = Dataset(np.array([[-2.0], [1.0], [2.0], [3.0], [3.0]]), np.array([1, 1, 2, 2, 1]))
    q = Query(np.array([0.0]), 1)
    dist_sq = ds.distances_sq(q.z)
    same = np.array([0, 1, 4])
    bounds = pair_bound_block(ds, q.z, same, dist_sq[same], np.array([3]), dist_sq[[3]])
    np.testing.assert_array_equal(bounds[:, 0], [0.5, 2.0, 0.0])
    cert = exact_1nn(ds, q)
    assert cert.epsilon == 1.5
    assert (cert.stats.subproblems_solved, cert.stats.subproblems_screened) == (1, 1)
    assert screen_subproblem(ds, q, 3, incumbent_sq=1.5 ** 2) is True
    with pytest.raises(DegeneratePairError, match="points 4 and 3 coincide across classes"):
        exact_1nn(ds, q, SolverConfig(screening_enabled=False))


@pytest.mark.parametrize("n_scr", [0, -1])
@pytest.mark.parametrize("search", [
    lambda ds, q, n_scr: exact_1nn(ds, q, n_scr=n_scr),
    lambda ds, q, n_scr: qp_top_m(ds, q, 2, n_scr=n_scr),
], ids=["exact_1nn", "qp_top_m"])
def test_nonpositive_n_scr_rejected(fix_c, search, n_scr):
    ds, q = fix_c
    with pytest.raises(ValueError, match="n_scr must be >= 1"):
        search(ds, q, n_scr)


class TestQpTopM:
    def test_fix_a_single_candidate(self, fix_a):
        ds, q = fix_a
        cert = qp_top_m(ds, q, 1)
        assert cert.kind is CertificateKind.UPPER_BOUND
        assert cert.epsilon == pytest.approx(1.0, abs=1e-9)

    def test_fix_c_top1(self, fix_c):
        ds, q = fix_c
        assert qp_top_m(ds, q, 1).epsilon == pytest.approx(0.75, abs=1e-9)

    def test_exhaustive_equals_exact(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            ds, q, _ = random_grid_dataset(rng)
            n_other = int(np.count_nonzero(ds.labels != q.true_label))
            assert qp_top_m(ds, q, n_other).epsilon == pytest.approx(
                exact_1nn(ds, q).epsilon, abs=1e-9
            )

    def test_covering_every_target_is_still_an_upper_bound(self, fix_c):
        # The kind names the method: qp-<m> is an upper bound even when m
        # covers every target and its value is the exact one.
        ds, q = fix_c
        n_other = int(np.count_nonzero(ds.labels != q.true_label))
        exact = exact_1nn(ds, q)
        assert exact.kind is CertificateKind.EXACT
        for m in (n_other, n_other + 1):
            cert = qp_top_m(ds, q, m)
            assert cert.kind is CertificateKind.UPPER_BOUND
            assert cert.epsilon == exact.epsilon

    def test_monotone_in_m(self):
        rng = np.random.default_rng(59)
        for _ in range(30):
            ds, q, _ = random_grid_dataset(rng)
            eps = [qp_top_m(ds, q, m).epsilon for m in (1, 2, 4, 8)]
            assert all(a >= b - 1e-9 for a, b in zip(eps, eps[1:]))


class TestQpGreedy:
    def test_fix_c_improves_phase1_to_exact(self, fix_c):
        ds, q = fix_c
        # Oracle value of the phase-1 system (targets q1, q2, nothing excluded).
        delta1, _ = active_set_oracle(build_knn_subproblem(ds, q, [2, 3]))
        assert np.linalg.norm(delta1) == pytest.approx(1.25, abs=1e-9)
        cert = qp_greedy_knn(ds, q, 3)
        assert cert.kind is CertificateKind.UPPER_BOUND
        assert cert.epsilon == pytest.approx(1.0, abs=1e-8)
        exact_star = min_flip_1d(ds, q, 3, hi=4.0)
        assert exact_star == pytest.approx(1.0, abs=1e-6)
        assert cert.epsilon >= exact_star - 1e-6

    def test_k1_reduces_to_top1(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            ds, q, _ = random_grid_dataset(rng)
            assert qp_greedy_knn(ds, q, 1).epsilon == pytest.approx(
                qp_top_m(ds, q, 1).epsilon, abs=1e-8
            )

    def test_phase2_strictly_improves(self):
        # Both targets must beat p1 in phase 1; dropping p1's constraints in
        # phase 2 lets the attack stop at the cheaper p2 bisections.
        ds = Dataset(
            np.array([[-0.5], [-1.0], [2.0], [2.2]]), np.array([1, 1, 2, 2])
        )
        q = Query(np.array([0.0]), 1)
        delta1, _ = active_set_oracle(build_knn_subproblem(ds, q, [2, 3]))
        phase1 = float(np.linalg.norm(delta1))
        assert phase1 == pytest.approx(0.85, abs=1e-9)
        cert = qp_greedy_knn(ds, q, 3)
        assert cert.epsilon == pytest.approx(0.6, abs=1e-8)
        assert cert.epsilon < phase1
        assert cert.epsilon >= min_flip_1d(ds, q, 3, hi=3.0) - 1e-6

    def test_nondecreasing_in_k_on_fix_c_family(self):
        ds = Dataset(
            np.array([[-0.5], [-1.0], [-1.5], [-2.0], [2.0], [3.0], [4.0]]),
            np.array([1, 1, 1, 1, 2, 2, 2]),
        )
        q = Query(np.array([0.0]), 1)
        eps = [qp_greedy_knn(ds, q, k).epsilon for k in (1, 3, 5)]
        assert all(a <= b + 1e-9 for a, b in zip(eps, eps[1:]))

    @pytest.mark.parametrize("points, labels, z, label, s_minus, s_plus, unrefined", [
        # The refinement dropping point 0 was skipped: its solution stopped
        # short of the vertex and did not flip the vote.
        ([[0, 0, 1], [3, 4, -5], [-4, 5, 5], [-5, 1, 0], [-3, 0, 4], [1, -5, 0],
          [-5, -3, 4], [-4, 4, 3], [-5, 4, 2], [5, -2, 3], [-2, -1, 2]],
         [2, 2, 1, 2, 2, 2, 1, 2, 2, 1, 2], [0, 1, 3], 2, [9, 2], [0], 4.8073710410712645),
        # The nearest subset {8, 1} was skipped for the same reason, and a
        # farther subset won.
        ([[3, -1, 1], [3, -1, 5], [-2, 4, 3], [4, 2, 1], [-1, 3, -1], [-1, -5, -4],
          [2, 5, -1], [4, 1, -1], [4, 5, 1], [-1, -3, 0]],
         [3, 1, 2, 2, 2, 2, 2, 2, 1, 3], [1, 5, 1], 2, [8, 1], [3], 4.0087185257573275),
    ], ids=["refinement", "subset"])
    def test_exact_solutions_are_not_skipped(self, points, labels, z, label, s_minus,
                                             s_plus, unrefined):
        ds = Dataset(np.array(points, dtype=np.float64), np.array(labels))
        q = Query(np.array(z, dtype=np.float64), label)
        delta_ref, _ = active_set_oracle(build_knn_subproblem(ds, q, s_minus, s_plus))
        cert = qp_greedy_knn(ds, q, 3)
        assert cert.epsilon == pytest.approx(np.linalg.norm(delta_ref), rel=1e-12)
        assert cert.epsilon < unrefined - 0.5
        assert is_adversarial(ds, q, cert.delta, 3)

    def test_failed_refinement_keeps_the_first_solution(self, monkeypatch):
        # test_phase2_strictly_improves's data, with the refinement solve
        # failing: the first subset's 0.85 is returned, validated as before.
        ds = Dataset(
            np.array([[-0.5], [-1.0], [2.0], [2.2]]), np.array([1, 1, 2, 2])
        )
        q = Query(np.array([0.0]), 1)
        calls = []

        def second_fails(sp, stats):
            calls.append(sp.m)
            if len(calls) == 2:
                raise SolverError("recovered perturbation violates the full constraint set")
            return _solve_candidate(sp, stats)

        monkeypatch.setattr(attack, "_solve_candidate", second_fails)
        cert = qp_greedy_knn(ds, q, 3)
        assert calls == [4, 2]      # the refinement drops point 0's two rows
        assert cert.epsilon == pytest.approx(0.85, abs=1e-9)
        assert (cert.stats.subproblems_built, cert.stats.subproblems_solved) == (2, 1)
        assert is_adversarial(ds, q, cert.delta, 3)

    def test_refinement_skipped_when_it_would_drop_every_same_class_point(self):
        # Both class-1 points carry multipliers and K=5 drops up to two: the
        # refinement would have no row left, and once raised ValueError.
        ds = Dataset(np.array([[1, 0, 2], [-2, -3, 0], [-1, -2, -1], [-2, 0, 0], [1, -3, -2],
                               [-1, 0, 2], [3, -3, -3], [2, -1, 3], [-1, 2, -1], [-3, 3, -2]],
                              dtype=np.float64), np.array([1, 1, 4, 4, 4, 3, 3, 2, 2, 4]))
        q = Query(np.array([0.0, -2.0, 3.0]), 1)
        delta_ref, _ = active_set_oracle(build_knn_subproblem(ds, q, [2, 3, 4]))
        cert = qp_greedy_knn(ds, q, 5)
        assert cert.stats.subproblems_built == 1
        assert cert.epsilon == pytest.approx(np.linalg.norm(delta_ref), rel=1e-12, abs=0.0)
        assert is_adversarial(ds, q, cert.delta, 5)

    def test_upper_bounds_true_minimum_random(self):
        from knnrobust import SolverError

        rng = np.random.default_rng(67)
        checked = 0
        attempts = 0
        while checked < 25 and attempts < 400:
            attempts += 1
            ds, q, ks = random_grid_dataset(rng)
            if 3 not in ks or ds.d != 1:
                continue
            try:
                cert = qp_greedy_knn(ds, q, 3)
            except SolverError:
                # In 1-D every candidate cluster can straddle a same-class
                # point, leaving no feasible subset; that is a reported
                # condition, not a wrong bound.
                continue
            star = min_flip_1d(ds, q, 3, hi=25.0)
            assert cert.epsilon >= star - 1e-6
            checked += 1
        assert checked >= 10


class TestBaselines:
    def test_naive_fix_a(self, fix_a):
        ds, q = fix_a
        cert = naive_attack(ds, q, 1, 1)
        assert cert.kind is CertificateKind.UPPER_BOUND
        assert cert.epsilon == pytest.approx(1.0, abs=1e-7)

    def test_naive_fix_b_shows_suboptimality(self, fix_b):
        ds, q = fix_b
        assert naive_attack(ds, q, 1, 1).epsilon == pytest.approx(1.0, abs=1e-7)
        assert exact_1nn(ds, q).epsilon == pytest.approx(np.sqrt(0.5), abs=1e-8)

    def test_naive_fix_c_k3(self, fix_c):
        ds, q = fix_c
        cert = naive_attack(ds, q, 3, 1)
        assert cert.epsilon >= 1.0 - 1e-9
        assert cert.epsilon == pytest.approx(1.0, abs=1e-7)

    def test_mean_fix_a(self, fix_a):
        ds, q = fix_a
        assert mean_attack(ds, q, 1).epsilon == pytest.approx(1.0, abs=1e-7)

    def test_mean_fix_c(self, fix_c):
        ds, q = fix_c
        assert mean_attack(ds, q, 1).epsilon == pytest.approx(0.75, abs=1e-7)

    def test_mean_fix_b(self, fix_b):
        ds, q = fix_b
        assert mean_attack(ds, q, 1).epsilon == pytest.approx(1.0, abs=1e-7)

    def test_mean_skips_empty_class(self):
        # Class 2 of 3 has no points; the walk goes toward class 3's mean at 4.
        ds = Dataset(np.array([[-1.0], [3.0], [5.0]]), np.array([1, 3, 3]), class_count=3)
        assert mean_attack(ds, Query(np.array([0.0]), 1), 1).epsilon == pytest.approx(1.0, abs=1e-7)

    def test_naive_more_tries_not_worse(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            ds, q, _ = random_grid_dataset(rng)
            a = naive_attack(ds, q, 1, 1).epsilon
            b = naive_attack(ds, q, 1, 10).epsilon
            assert b <= a + 1e-9


def _naive_directions(ds, q, k, tries):
    """Directions of naive-``tries``: toward the nearest other-class points
    (K=1) or the centroids of size-(K+1)/2 same-label clusters around them."""
    dist_sq = np.sum((ds.points - q.z) ** 2, axis=1)
    seeds = [j for j in np.argsort(dist_sq, kind="stable") if ds.labels[j] != q.true_label]
    for j in seeds[:tries]:
        mates = np.flatnonzero(ds.labels == ds.labels[j])
        if mates.size < (k + 1) // 2:
            continue
        gaps = np.sum((ds.points[mates] - ds.points[j]) ** 2, axis=1)
        cluster = mates[np.argsort(gaps, kind="stable")[:(k + 1) // 2]]
        direction = ds.points[cluster].mean(axis=0) - q.z
        if np.any(direction):
            yield direction


def _mean_direction(ds, q):
    """Direction of mean: toward the nearest other-class mean."""
    means = [ds.points[ds.labels == c].mean(axis=0)
             for c in np.unique(ds.labels) if c != q.true_label]
    return min(means, key=lambda m: np.linalg.norm(m - q.z)) - q.z


def test_line_search_matches_reference(corpus):
    # naive and mean must return the first pair crossing on their rays at
    # which knn_predict flips.  The former doubling-and-bisection search
    # returns a t that flips, so it bounds them from above; it is strictly
    # higher where the vote flips and flips back between its probes (one
    # instance: 1.5 against 4.5).
    checked = lower = earlier = 0
    for ds, q, _ in corpus:
        for k in (1, 3):
            if knn_predict(ds, q.z, k, true_label=q.true_label) != q.true_label:
                continue
            for method, directions, t_cap in (
                (lambda: naive_attack(ds, q, k, 1), list(_naive_directions(ds, q, k, 1)), 1.0),
                (lambda: naive_attack(ds, q, k, 3), list(_naive_directions(ds, q, k, 3)), 1.0),
                (lambda: mean_attack(ds, q, k), [_mean_direction(ds, q)], 2.0 ** 20),
            ):
                radii = [float(np.linalg.norm(t * u)) for u in directions
                         if (t := ray_flip_reference(ds, q, k, u, t_cap)) is not None]
                if not radii:
                    with pytest.raises(SolverError):
                        method()
                    continue
                epsilon = method().epsilon
                assert epsilon == pytest.approx(min(radii), rel=1e-9, abs=0.0)
                bisected = [float(np.linalg.norm(t * u)) for u in directions
                            if (t := line_flip_reference(ds, q, k, u, t_cap > 1.0)) is not None]
                if bisected:
                    assert epsilon <= min(bisected) * (1.0 + 1e-12)
                    lower += epsilon < min(bisected)
                    earlier += epsilon < min(bisected) * (1.0 - 1e-8)
                checked += 1
    # Most are lower by the bisection's last bracket, below 1e-9 in t.
    print(f"\nline search: {lower} of {checked} results below the bisection reference, "
          f"{earlier} by more than 1e-8 relative")
    assert checked > 2000


def test_far_flips_validate(corpus):
    # A far other-class point with a same-class point just in front of it:
    # near the flip, t^2*||u||^2 exceeds the K-th distance 1e8- to 1e15-fold, so
    # distances expanded along the ray round past the tie window.  Each
    # flip the line search returns must still validate at the recomputed
    # point, and one exists at the target itself.
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = int(rng.integers(1, 4))
        unit = rng.normal(size=d)
        unit /= np.linalg.norm(unit)
        far = rng.uniform(1e4, 1e7) * unit
        ds = Dataset(np.array([far - rng.uniform(1e-3, 1.0) * unit, far]), [1, 2])
        q = Query(np.zeros(d), 1)
        for cert in (naive_attack(ds, q, 1, 1), mean_attack(ds, q, 1)):
            assert is_adversarial(ds, q, cert.delta, 1)
    # The acceptance corpus scaled by 1e4: no walk may raise CertificationError;
    # a SolverError (no flip found) is allowed.
    for ds, q, _ in corpus[:200]:
        ds, q = Dataset(ds.points * 1e4, ds.labels, ds.class_count), Query(q.z * 1e4, q.true_label)
        for k in (1, 3):
            if knn_predict(ds, q.z, k, true_label=q.true_label) != q.true_label:
                continue
            for method in (lambda: naive_attack(ds, q, k, 3), lambda: mean_attack(ds, q, k)):
                try:
                    method()
                except SolverError:
                    pass


class TestLineSearchWalk:
    """Edge cases of the first-flip walk along z + t*u."""

    @staticmethod
    def _flip(ds, q, k, u, t_cap=2.0 ** 20):
        flip = attack._line_search(ds, q, k, DEFAULT_TIE_RULE, ds.distances_sq(q.z))
        return flip(np.asarray(u, dtype=np.float64), t_cap)

    def test_vote_tie_at_an_event_flips(self):
        # K=3 along +x: at t = 0.75 the point at 2.5 (class 3) replaces the
        # one at -1 (class 1), leaving one vote per class; a tied vote goes
        # to the attacker, so that event is the first flip.
        ds = Dataset(np.array([[-0.5], [-1.0], [1.5], [2.5]]), np.array([1, 1, 2, 3]), 3)
        q = Query(np.array([0.0]), 1)
        assert self._flip(ds, q, 3, [1.0]) == pytest.approx(0.75, rel=1e-12, abs=0.0)
        assert ray_flip_reference(ds, q, 3, np.array([1.0]), 2.0 ** 20) == pytest.approx(0.75)
        # The nearest other-class mean is the class-2 point at 1.5.
        assert mean_attack(ds, q, 3).epsilon == pytest.approx(0.75, rel=1e-12, abs=0.0)

    def test_event_cap_raises(self, monkeypatch):
        # The walk of test_vote_tie_at_an_event_flips needs one event.
        monkeypatch.setattr(attack, "_MAX_EVENTS", 0)
        ds = Dataset(np.array([[-0.5], [-1.0], [1.5], [2.5]]), np.array([1, 1, 2, 3]), 3)
        q = Query(np.array([0.0]), 1)
        with pytest.raises(SolverError, match="^line search: no first flip within 0 events$"):
            mean_attack(ds, q, 3)

    def test_k_equal_to_n_never_flips(self):
        # Every point votes at K = n, so class 1 keeps its majority anywhere.
        ds = Dataset(np.array([[-1.0], [0.5], [1.0], [2.0], [3.0]]), np.array([1, 1, 1, 2, 2]))
        q = Query(np.array([0.0]), 1)
        assert self._flip(ds, q, 5, [1.0]) is None
        with pytest.raises(SolverError):
            mean_attack(ds, q, 5)
        with pytest.raises(SolverError):
            naive_attack(ds, q, 5, 2)

    def test_equal_slopes(self):
        # Along +x the points at (2, -1) and (2, 1) are always equally far
        # (one line) and (2, 3) runs parallel to them.  At t = 2/3 the pair
        # overtakes (-1, 0); the tie rule may then take the class-2 twin,
        # although the class-1 twin comes first by index.
        ds = Dataset(np.array([[-1.0, 0.0], [2.0, -1.0], [2.0, 1.0], [2.0, 3.0]]),
                     np.array([1, 1, 2, 2]))
        q = Query(np.zeros(2), 1)
        u = np.array([1.0, 0.0])
        assert self._flip(ds, q, 1, u) == pytest.approx(2.0 / 3.0, rel=1e-12, abs=0.0)
        assert ray_flip_reference(ds, q, 1, u, 2.0 ** 20) == pytest.approx(2.0 / 3.0, rel=1e-12, abs=0.0)
        # At K=3, (2, 3) never crosses the pair it runs parallel to; it
        # overtakes (-1, 0) at t = 2, which leaves class 1 one vote.
        assert self._flip(ds, q, 3, u) == pytest.approx(2.0, rel=1e-12, abs=0.0)
        assert ray_flip_reference(ds, q, 3, u, 2.0 ** 20) == pytest.approx(2.0, rel=1e-12, abs=0.0)

    def test_first_flip_before_a_flip_back(self):
        # Toward x = 4 the nearest point is 1.2 (class 2) from x = 0.1 to 1.4,
        # then 1.6 (class 1) up to 2.8.  Bisecting from t = 1 (x = 4) lands on
        # the second flip at t = 0.7; the first is at t = 0.025.
        ds = Dataset(np.array([[-1.0], [1.2], [1.6], [4.0]]), np.array([1, 2, 1, 2]))
        q = Query(np.array([0.0]), 1)
        u = np.array([4.0])
        assert self._flip(ds, q, 1, u, 1.0) == pytest.approx(0.025, rel=1e-12, abs=0.0)
        assert ray_flip_reference(ds, q, 1, u, 1.0) == pytest.approx(0.025, rel=1e-12, abs=0.0)
        assert line_flip_reference(ds, q, 1, u) == pytest.approx(0.7, abs=1e-8)


# The first flips and baseline epsilons pinned by the golden walk test, as
# float.hex strings, None (no flip within the cap) or a raised error's type
# name.  Recorded from the walk that kept the K member lines in numpy arrays;
# a walk that reads the same float64 values must reproduce every one.
_GOLDEN_WALKS = Path(__file__).with_name("golden_walks.json")


def _golden_value(t):
    return None if t is None else float(t).hex()


def _golden_epsilon(search):
    try:
        return float(search().epsilon).hex()
    except KnnRobustError as err:
        return type(err).__name__


def _walk_sequence(ds, q, k, directions):
    """Walk ``(u, t_cap)`` pairs through one ``flip`` closure, in order.  The
    first direction is walked again capped at half its flip, which must end in
    None."""
    flip = attack._line_search(ds, q, k, DEFAULT_TIE_RULE, ds.distances_sq(q.z))
    walked = [flip(u, t_cap) for u, t_cap in directions]
    if walked[0] is not None:
        walked.append(flip(directions[0][0], 0.5 * walked[0]))
    return [_golden_value(t) for t in walked]


def _gaussian_walk_set():
    """Two classes of 100 points in d=20, means 2.5 apart, and eight queries."""
    rng = np.random.default_rng(2021)
    labels = np.repeat([1, 2], 100)
    centres = np.zeros((2, 20))
    centres[1, 0] = 2.5
    ds = Dataset(centres[labels - 1] + rng.standard_normal((200, 20)), labels)
    queries = [Query(centres[c - 1] + rng.standard_normal(20), c)
               for c in rng.integers(1, 3, size=8)]
    return ds, queries


def golden_walks(corpus):
    """Every value the golden walk test pins, keyed by instance and K.

    Corpus instances walk at every K they allow: the mean direction with the
    ray-length cap, then the naive-3 directions capped at 1.  They walk again
    scaled by 0.3, where the grid's exact ties become near ties, which only
    the tie windows and the first-index rule decide.  Queries of the
    Gaussian set walk at K = 1, 5 and 9 through one closure: the mean
    direction, the ten naive-10 directions capped at 1, then three random
    directions with the ray-length cap.  Each instance also pins
    ``mean_attack`` and ``naive_attack(tries=10)``.
    """
    cap = attack._RAY_EXTENSION_CAP
    instances = [(f"corpus/{i}", ds, q, ks, 3) for i, (ds, q, ks) in enumerate(corpus)]
    instances += [(f"corpus*0.3/{i}", Dataset(0.3 * ds.points, ds.labels, ds.class_count),
                   Query(0.3 * q.z, q.true_label), ks, 3) for i, (ds, q, ks) in enumerate(corpus)]
    ds, queries = _gaussian_walk_set()
    instances += [(f"gauss/{i}", ds, q, (1, 5, 9), 10) for i, q in enumerate(queries)]
    out = {}
    for name, ds, q, ks, tries in instances:
        for k in ks:
            if knn_predict(ds, q.z, k, true_label=q.true_label) != q.true_label:
                continue
            directions = [(_mean_direction(ds, q), cap)]
            directions += [(u, 1.0) for u in _naive_directions(ds, q, k, tries)]
            if tries == 10:
                rng = np.random.default_rng(k)
                directions += [(rng.standard_normal(ds.d), cap) for _ in range(3)]
            out[f"{name}/k{k}"] = {
                "walks": _walk_sequence(ds, q, k, directions),
                "mean": _golden_epsilon(lambda: mean_attack(ds, q, k)),
                "naive10": _golden_epsilon(lambda: naive_attack(ds, q, k, 10)),
            }
    return out


def test_golden_walks(corpus):
    expected = json.loads(_GOLDEN_WALKS.read_text(encoding="utf-8"))
    got = golden_walks(corpus)
    assert sorted(got) == sorted(expected)
    mismatched = [key for key in expected if got[key] != expected[key]]
    assert not mismatched, (f"{len(mismatched)} of {len(expected)} instances differ, first "
                            f"{mismatched[0]}: {got[mismatched[0]]} != {expected[mismatched[0]]}")
    # Among the pinned walks, caps end in None; the recording walk also took
    # 12,443 rises above the top and 257 swaps that other lines tied.
    walks = [t for entry in expected.values() for t in entry["walks"]]
    assert walks.count(None) > 2000 and len(walks) > 7800


class TestIsAdversarial:
    def test_fix_a_at_radius(self, fix_a):
        ds, q = fix_a
        assert is_adversarial(ds, q, np.array([1.0]), 1)

    def test_fix_a_below_radius(self, fix_a):
        ds, q = fix_a
        assert not is_adversarial(ds, q, np.array([0.5]), 1)

    def test_fix_c_k3(self, fix_c):
        ds, q = fix_c
        assert is_adversarial(ds, q, np.array([1.0]), 3)

    def test_every_upper_certificate_validates(self):
        from knnrobust import SolverError

        rng = np.random.default_rng(73)
        for _ in range(25):
            ds, q, ks = random_grid_dataset(rng)
            certs = [exact_1nn(ds, q), qp_top_m(ds, q, 2), naive_attack(ds, q, 1, 2)]
            for maker, k in ((lambda: mean_attack(ds, q, 1), 1),
                             ((lambda: qp_greedy_knn(ds, q, 3)) if 3 in ks else None, 3)):
                if maker is None:
                    continue
                try:
                    certs.append(maker())
                except SolverError:
                    pass  # legitimately reported failure to find a bound
            for cert in certs:
                assert is_adversarial(ds, q, cert.delta, 1 if cert.method != "qp-greedy" else 3)
                assert cert.epsilon == pytest.approx(
                    float(np.linalg.norm(cert.delta)), rel=1e-9
                )


class TestBoundOrdering:
    def test_chain_on_random_instances(self):
        from knnrobust import SolverError

        rng = np.random.default_rng(79)
        for _ in range(60):
            ds, q, _ = random_grid_dataset(rng)
            lower = verify_1nn(ds, q).epsilon_lower
            exact = exact_1nn(ds, q).epsilon
            top10 = qp_top_m(ds, q, 10).epsilon
            top1 = qp_top_m(ds, q, 1).epsilon
            naive = naive_attack(ds, q, 1, 1).epsilon
            tol = 1e-8
            assert lower <= exact + tol
            assert exact <= top10 + tol
            assert top10 <= top1 + tol
            assert top1 <= naive + tol
            try:
                assert exact <= mean_attack(ds, q, 1).epsilon + tol
            except SolverError:
                pass  # the ray toward the nearest mean may never flip

    def test_top1_not_below_mean(self):
        # qp-1 <= mean is not a theorem: the nearest other-class mean lies
        # behind a farther target (x=-4.2) than the nearest one (x=4), so the
        # mean ray flips at 0.6 while qp-1 pays 3.5.  qp-2, which includes
        # the mean's flip target, is back below the mean.
        ds = Dataset(np.array([[3.0], [4.0], [5.0], [-4.2]]), np.array([1, 2, 2, 3]), 3)
        q = Query(np.array([0.0]), 1)
        mean = mean_attack(ds, q, 1)
        assert qp_top_m(ds, q, 1).epsilon == pytest.approx(3.5, abs=1e-9)
        assert qp_top_m(ds, q, 2).epsilon == pytest.approx(0.6, abs=1e-9)
        assert mean.epsilon == pytest.approx(0.6, abs=1e-7)
        assert exact_1nn(ds, q).epsilon == pytest.approx(0.6, abs=1e-9)
        assert mean.delta[0] < 0.0  # the flip lands on x=-4.2, rank 2 from z
        assert qp_top_m(ds, q, 1).epsilon > mean.epsilon


# Every attack, as a function of (ds, q, K); the 1-NN searches run at K=1.
_ATTACKS = {
    "exact": lambda ds, q, k: exact_1nn(ds, q),
    "qp-1": lambda ds, q, k: qp_top_m(ds, q, 1),
    "exact-linf": lambda ds, q, k: exact_1nn_lp(ds, q, "linf"),
    "exact-l1": lambda ds, q, k: exact_1nn_lp(ds, q, "l1"),
    "qp-greedy": lambda ds, q, k: qp_greedy_knn(ds, q, k),
    "naive": lambda ds, q, k: naive_attack(ds, q, k, 2),
    "mean": lambda ds, q, k: mean_attack(ds, q, k),
}


class TestBegin:
    """What every attack does before its search: check K against n, measure
    the query's distances once, and reject distances beyond float64."""

    @pytest.mark.parametrize("name", ["qp-greedy", "naive", "mean"])
    def test_k_above_n_raises(self, fix_c, name):
        ds, q = fix_c
        with pytest.raises(InsufficientPointsError, match="exceeds dataset size"):
            _ATTACKS[name](ds, q, 7)

    @pytest.mark.parametrize("name", sorted(_ATTACKS))
    def test_one_distance_pass_from_the_query(self, fix_c, name, monkeypatch):
        ds, q = fix_c
        from_query = []
        measure = Dataset.distances_sq

        def counted(self, z):
            from_query.append(np.array_equal(z, q.z))
            return measure(self, z)

        monkeypatch.setattr(Dataset, "distances_sq", counted)
        cert = _ATTACKS[name](ds, q, 3)
        assert not cert.misclassified and cert.epsilon > 0.0
        # The other passes validate at z + delta.
        assert sum(from_query) == 1

    @pytest.mark.parametrize("name", sorted(_ATTACKS))
    def test_misclassified_query_gets_the_zero_certificate(self, fix_a, name):
        ds, _ = fix_a
        cert = _ATTACKS[name](ds, Query(np.array([2.9]), 1), 1)
        assert cert.misclassified and cert.kind is CertificateKind.EXACT
        assert cert.epsilon == 0.0
        np.testing.assert_array_equal(cert.delta, [0.0])

    @pytest.mark.parametrize("search, message", [
        (lambda ds, q: qp_top_m(ds, q, 0), "m must be >= 1"),
        (lambda ds, q: naive_attack(ds, q, 1, 0), "tries must be >= 1"),
    ], ids=["qp_top_m", "naive_attack"])
    def test_nonpositive_counts_rejected(self, fix_c, search, message):
        ds, q = fix_c
        with pytest.raises(ValueError, match=message):
            search(ds, q)

    @pytest.mark.parametrize("name", sorted(_ATTACKS) + ["verifier"])
    def test_overflowing_distances_raise(self, name):
        # (1e308)^2 is Inf: the bound would be NaN and the 1-NN
        # perturbation would not flip.
        ds = Dataset(np.array([[0.0, 0.0], [1e308, 1e308]]), np.array([1, 2]))
        q = Query(np.zeros(2), 1)
        search = _ATTACKS.get(name, lambda ds, q, k: verify_knn(ds, q, k))
        with pytest.raises(DataFormatError, match="overflow"):
            search(ds, q, 1)
