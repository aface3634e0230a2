import numpy as np
import pytest

from knnrobust import (
    DEFAULT_TIE_RULE,
    AttackStats,
    CertificateKind,
    Dataset,
    DualSolution,
    Query,
    SolveStatus,
    SolverConfig,
    SolverError,
    Subproblem,
    build_knn_subproblem,
    exact_1nn,
    generate_synthetic,
    is_adversarial,
    knn_predict,
    mean_attack,
    naive_attack,
    qp_greedy_knn,
    qp_top_m,
    screen_subproblem,
    verify_1nn,
)

from knnrobust import attack
from knnrobust.attack import _solve_candidate

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
    assert cert.epsilon == pytest.approx(expected, rel=1e-12)
    assert cert.epsilon == pytest.approx(brute_force_exact_1nn(ds, q), rel=1e-12)


def _two_row_system():
    # Rows x >= 3 and y >= x - 1: the optimum is (3, 2), where both are tight.
    return Subproblem(rows=np.array([[1.0, 0.0], [-1.0, 1.0]]), offsets=np.array([-3.0, 1.0]),
                      target_ids=(2,), excluded_ids=(), query=np.zeros(2),
                      row_source_ids=np.array([0, 1]), row_target_ids=np.array([2, 2]))


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
        _, flip = attack._line_search(ds, q, k, DEFAULT_TIE_RULE)
        return flip(np.asarray(u, dtype=np.float64), t_cap)

    def test_vote_tie_at_an_event_flips(self):
        # K=3 along +x: at t = 0.75 the point at 2.5 (class 3) replaces the
        # one at -1 (class 1), leaving one vote per class; a tied vote goes
        # to the attacker, so that event is the first flip.
        ds = Dataset(np.array([[-0.5], [-1.0], [1.5], [2.5]]), np.array([1, 1, 2, 3]), 3)
        q = Query(np.array([0.0]), 1)
        assert self._flip(ds, q, 3, [1.0]) == pytest.approx(0.75, rel=1e-12)
        assert ray_flip_reference(ds, q, 3, np.array([1.0]), 2.0 ** 20) == pytest.approx(0.75)
        # The nearest other-class mean is the class-2 point at 1.5.
        assert mean_attack(ds, q, 3).epsilon == pytest.approx(0.75, rel=1e-12)

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
        assert self._flip(ds, q, 1, u) == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert ray_flip_reference(ds, q, 1, u, 2.0 ** 20) == pytest.approx(2.0 / 3.0, rel=1e-12)
        # At K=3, (2, 3) never crosses the pair it runs parallel to; it
        # overtakes (-1, 0) at t = 2, which leaves class 1 one vote.
        assert self._flip(ds, q, 3, u) == pytest.approx(2.0, rel=1e-12)
        assert ray_flip_reference(ds, q, 3, u, 2.0 ** 20) == pytest.approx(2.0, rel=1e-12)

    def test_first_flip_before_a_flip_back(self):
        # Toward x = 4 the nearest point is 1.2 (class 2) from x = 0.1 to 1.4,
        # then 1.6 (class 1) up to 2.8.  Bisecting from t = 1 (x = 4) lands on
        # the second flip at t = 0.7; the first is at t = 0.025.
        ds = Dataset(np.array([[-1.0], [1.2], [1.6], [4.0]]), np.array([1, 2, 1, 2]))
        q = Query(np.array([0.0]), 1)
        u = np.array([4.0])
        assert self._flip(ds, q, 1, u, 1.0) == pytest.approx(0.025, rel=1e-12)
        assert ray_flip_reference(ds, q, 1, u, 1.0) == pytest.approx(0.025, rel=1e-12)
        assert line_flip_reference(ds, q, 1, u) == pytest.approx(0.7, abs=1e-8)


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
