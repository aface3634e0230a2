import numpy as np
import pytest

from knnrobust import (
    Dataset,
    DualSolution,
    InfeasibleSubproblemError,
    Query,
    SolveStatus,
    SolverError,
    Subproblem,
    build_1nn_subproblem,
    build_knn_subproblem,
    kkt_check,
    recover_primal,
    solve_dual_gca,
)
from knnrobust.qp_solver import _gram_solve

from helpers import active_set_oracle, random_grid_dataset


def _fix_b_sp(fix_b):
    ds, q = fix_b
    return build_1nn_subproblem(ds, q, 1)


class TestDualActiveSet:
    def test_fix_b_closed_form(self, fix_b):
        sp = _fix_b_sp(fix_b)
        sol = solve_dual_gca(sp)
        assert sol.status is SolveStatus.CONVERGED
        np.testing.assert_allclose(sol.dense(), [0.5], atol=1e-10)
        assert sol.objective == pytest.approx(0.25, abs=1e-10)

    def test_fix_a_closed_form(self, fix_a):
        ds, q = fix_a
        sp = build_1nn_subproblem(ds, q, 1)
        sol = solve_dual_gca(sp)
        np.testing.assert_allclose(sol.dense(), [0.25], atol=1e-10)
        assert sol.objective == pytest.approx(0.5, abs=1e-10)

    def test_all_nonnegative_offsets_converges_immediately(self):
        sp = Subproblem(rows=np.array([[1.0, 0.0], [0.0, 2.0]]), offsets=np.array([0.5, 0.0]))
        sol = solve_dual_gca(sp)
        assert sol.status is SolveStatus.CONVERGED
        assert sol.iterations == 0
        assert sol.objective == 0.0
        assert sol.nnz == 0

    def test_multipliers_strictly_positive(self, fix_c):
        ds, q = fix_c
        for j in (2, 3, 4):
            sol = solve_dual_gca(build_1nn_subproblem(ds, q, j))
            assert np.all(sol.values > 0)

    def test_infeasible_system_reported_as_status(self):
        # 1-D: require being closer to -1 and to +1 than to 0; impossible.
        # The first row joins, the second lies in its span and no active
        # multiplier limits the move, so the dual is unbounded.
        sp = Subproblem(rows=np.array([[-2.0], [2.0]]), offsets=np.array([-0.5, -0.5]))
        sol = solve_dual_gca(sp)
        assert sol.status is SolveStatus.INFEASIBLE
        assert sol.iterations == 1

    def test_full_active_set_spans_the_space(self):
        # d ill-conditioned rows (singular values 1 .. 1e-6) all active at
        # x0, plus their negated mean, violated there: infeasible.  With d
        # rows active, rounding leaves a_p a tiny distance from their span;
        # the solver must still treat it as lying in the span.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            d = 6
            U, _ = np.linalg.qr(rng.normal(size=(d, d)))
            V, _ = np.linalg.qr(rng.normal(size=(d, d)))
            N = U @ np.diag(np.logspace(0, -6, d)) @ V.T
            x0 = N.T @ rng.uniform(0.5, 1.5, size=d)
            a = -N.mean(axis=0)
            sp = Subproblem(rows=np.vstack([N, a]), offsets=np.append(-N @ x0, -a @ x0 - 1.0))
            assert solve_dual_gca(sp).status is SolveStatus.INFEASIBLE

    def test_knn_systems_match_oracle_including_infeasible(self):
        # Two-target systems with some same-class rows dropped: infeasible
        # ones (both targets nearer than a point between them) must be
        # reported as such, and the rest must reach the oracle's vertex.
        rng = np.random.default_rng(31)
        infeasible = feasible = 0
        for _ in range(150):
            ds, q, _ = random_grid_dataset(rng, max_n=10, max_d=3)
            others = np.flatnonzero(ds.labels != q.true_label)
            mates = np.flatnonzero(ds.labels == ds.labels[others[0]])
            if mates.size < 2:
                continue
            same = np.flatnonzero(ds.labels == q.true_label)
            sp = build_knn_subproblem(ds, q, mates[:2], same[:same.size // 2])
            if sp.m > 16:
                continue
            sol = solve_dual_gca(sp)
            try:
                delta_ref, _ = active_set_oracle(sp)
            except InfeasibleSubproblemError:
                assert sol.status is SolveStatus.INFEASIBLE
                infeasible += 1
                continue
            assert sol.status is SolveStatus.CONVERGED
            assert np.linalg.norm(recover_primal(sp, sol)) == pytest.approx(
                np.linalg.norm(delta_ref), rel=1e-9, abs=1e-12
            )
            feasible += 1
        assert infeasible >= 5 and feasible >= 50


# Integer-grid K-NN systems: (points, labels, query, query label, targets,
# excluded same-class points).  The rows and offsets are exact in float64.
_GOLDEN_SYSTEMS = {
    # 3 targets in d=4, m=18: 12 steps, 4 of them drops.
    "knn_with_drops": (
        [[-2, 1, 0, 1], [-4, 5, 5, -4], [5, -5, 1, 4], [5, 0, 2, -5], [-2, 4, 5, -2],
         [-5, 2, 4, -2], [1, 2, 1, -5], [-4, -3, -3, 3], [-1, 4, 1, -4], [-3, 0, 3, -3]],
        [3, 2, 3, 3, 1, 2, 2, 3, 3, 3], [0, 2, 4, 3], 3, [1, 5, 6], []),
    # m=27, d=4: 16 steps; 4 of them start from d active rows (t_full = inf).
    "full_active_set": (
        [[5, -5, -3, -4], [-4, 1, 5, 2], [1, -1, -4, -4], [-3, -4, -1, -4], [4, 1, -1, 4],
         [5, -1, 4, 0], [4, 5, 1, -5], [3, -5, 3, -2], [0, -2, 5, 4], [5, 0, -5, -4],
         [-3, -3, 5, -3], [0, -2, 2, 2], [1, -3, 5, 3]],
        [2, 1, 1, 1, 1, 1, 2, 1, 1, 1, 2, 2, 1], [1, 2, 4, 5], 1, [0, 6, 10], []),
    # m=24, d=4: infeasible after 14 steps, 5 of them drops.
    "infeasible": (
        [[-3, 2, 2, 1], [2, -3, 4, -3], [4, -4, 1, -3], [4, 3, 0, -5], [-3, -2, 1, 2],
         [-5, 2, 1, 0], [4, 1, -1, 4], [0, -4, -4, 1], [3, 0, -1, -2], [3, -1, 5, -1],
         [-3, 5, -1, 1], [4, 3, -5, 1], [-5, 3, 4, 0], [2, 0, -4, 4]],
        [1, 2, 1, 2, 2, 2, 1, 2, 2, 3, 2, 1, 3, 2], [-2, 0, -5, 1], 2, [0, 2, 6], []),
    # A K=5 system (3 targets, 2 same-class points excluded): 3 rows end
    # active and one final multiplier is not positive, so it is dropped.
    "degenerate_k5": (
        [[-1, -1, -1, 5], [5, -5, 5, -1], [0, 5, -3, -4], [-4, 5, -4, 3], [-3, -2, 4, -1],
         [-5, 5, -4, 4], [-2, -5, -4, 1], [2, 4, -1, -1], [-2, 0, 3, -4]],
        [1, 3, 3, 3, 2, 1, 1, 1, 3], [-3, 3, 1, 0], 3, [0, 5, 6], [1, 2]),
    # m=3 < d=4, with 2 drops.
    "fewer_rows_than_d": (
        [[2, 0, -4, 4], [-3, 4, 3, 1], [-4, 1, 0, -1], [-5, 1, -2, -2]],
        [1, 1, 1, 2], [0, 2, 1, 4], 1, [3], []),
}

# Every DualSolution field (indices, values and objective as float.hex,
# iterations, status, size), recorded from the list-based solver that the
# preallocated buffers replaced.
_GOLDEN_SOLUTIONS = {
    "knn_with_drops": (
        [8, 11, 16, 17],
        ["0x1.a000000000012p+0", "0x1.02aaaaaaaaab1p+3", "0x1.740000000000bp+3",
         "0x1.7555555555562p+1"],
        "0x1.e600000000000p+4", 12, SolveStatus.CONVERGED, 18),
    "full_active_set": (
        [1, 2, 5, 23],
        ["0x1.790dc4bee8105p+2", "0x1.97594ff600904p+2", "0x1.ac0d8811c136bp+1",
         "0x1.a77a6896d43dbp+3"],
        "0x1.9c34d3efb5e0dp+7", 16, SolveStatus.CONVERGED, 27),
    "infeasible": (
        [0, 10, 13, 15],
        ["0x1.677f000058d46p+16", "0x1.9c53000065e20p+15", "0x1.5006800053079p+16",
         "0x1.3de000004e8b8p+11"],
        "0x1.c5881ffffff59p+18", 14, SolveStatus.INFEASIBLE, 24),
    "degenerate_k5": (
        [2, 4], ["0x1.9c28f5c28f5c3p+1", "0x1.70a3d70a3d70bp-2"],
        "0x1.975c28f5c28f5p+3", 5, SolveStatus.CONVERGED, 6),
    "fewer_rows_than_d": (
        [2], ["0x1.2aaaaaaaaaaabp+1"], "0x1.0555555555556p+4", 5, SolveStatus.CONVERGED, 3),
    "nonnegative_offsets": ([], [], "-0x0.0p+0", 0, SolveStatus.CONVERGED, 2),
}


def _golden_subproblem(name):
    if name == "nonnegative_offsets":
        return Subproblem(rows=np.array([[1.0, 0.0], [0.0, 2.0]]), offsets=np.array([0.5, 0.0]))
    points, labels, z, label, targets, excluded = _GOLDEN_SYSTEMS[name]
    ds = Dataset(np.array(points, dtype=np.float64), np.array(labels), max(labels))
    return build_knn_subproblem(ds, Query(np.array(z, dtype=np.float64), label), targets,
                                excluded)


class TestGoldenSolutions:
    @pytest.mark.parametrize("name", _GOLDEN_SOLUTIONS)
    def test_every_field_bit_for_bit(self, name):
        sol = solve_dual_gca(_golden_subproblem(name))
        indices, values, objective, iterations, status, size = _GOLDEN_SOLUTIONS[name]
        assert sol.indices.tolist() == indices
        assert [float(v).hex() for v in sol.values] == values
        assert float(sol.objective).hex() == objective
        assert (sol.iterations, sol.status, sol.size) == (iterations, status, size)


class TestGramSolve:
    def test_same_bits_as_numpy_solve(self):
        rng = np.random.default_rng(3)
        for q in (1, 2, 7, 20):
            N, rhs = rng.standard_normal((q, 20)), rng.standard_normal(q)
            assert _gram_solve(N, rhs).tobytes() == np.linalg.solve(N @ N.T, rhs).tobytes()

    def test_singular_gram_raises_solver_error(self):
        N = np.array([[1.0, 2.0], [1.0, 2.0]])
        with pytest.raises(SolverError, match="singular active set"):
            _gram_solve(N, np.ones(2))


class TestRecoverPrimal:
    def test_fix_b(self, fix_b):
        sp = _fix_b_sp(fix_b)
        sol = solve_dual_gca(sp)
        delta = recover_primal(sp, sol)
        np.testing.assert_allclose(delta, [0.5, -0.5], atol=1e-9)
        assert np.linalg.norm(delta) == pytest.approx(np.sqrt(0.5), abs=1e-9)

    def test_fix_a(self, fix_a):
        ds, q = fix_a
        sp = build_1nn_subproblem(ds, q, 1)
        delta = recover_primal(sp, solve_dual_gca(sp))
        np.testing.assert_allclose(delta, [1.0], atol=1e-9)

    def test_zero_multipliers_give_zero(self, fix_b):
        sp = _fix_b_sp(fix_b)
        sol = solve_dual_gca(sp)
        empty = type(sol)(indices=np.array([], dtype=np.int64), values=np.array([]),
                          objective=0.0, iterations=0, status=SolveStatus.CONVERGED,
                          size=sp.m)
        np.testing.assert_array_equal(recover_primal(sp, empty), [0.0, 0.0])


class TestKktCheck:
    def test_converged_solution_passes(self, fix_b):
        sp = _fix_b_sp(fix_b)
        sol = solve_dual_gca(sp)
        report = kkt_check(sp, sol, 1e-8)
        assert report.passed
        assert report.primal_violation <= 1e-8
        assert report.complementary_slackness <= 1e-8
        assert abs(report.duality_gap) <= 1e-8

    def test_zero_multiplier_fails_on_fix_b(self, fix_b):
        sp = _fix_b_sp(fix_b)
        sol = solve_dual_gca(sp)
        zero = type(sol)(indices=np.array([], dtype=np.int64), values=np.array([]),
                         objective=0.0, iterations=0, status=SolveStatus.CONVERGED,
                         size=sp.m)
        report = kkt_check(sp, zero, 1e-6)
        assert not report.passed
        assert report.primal_violation == pytest.approx(1.0)

    def test_zero_multiplier_fails_on_scaled_fix_b(self, fix_b):
        # Every residual here is about 1e-12, so an absolute tolerance would
        # pass delta = 0.
        ds, q = fix_b
        s = 1e-6
        sp = build_1nn_subproblem(Dataset(ds.points * s, ds.labels), Query(q.z * s, 1), 1)
        zero = DualSolution(indices=np.array([], dtype=np.int64), values=np.array([]),
                            objective=0.0, iterations=0, status=SolveStatus.CONVERGED,
                            size=sp.m)
        assert not kkt_check(sp, zero, 1e-6).passed
        sol = solve_dual_gca(sp)
        np.testing.assert_allclose(sol.dense(), [0.5], rtol=1e-12)
        assert kkt_check(sp, sol, 1e-8).passed

    def test_trivial_problem_passes_with_zero_gap(self):
        sp = Subproblem(rows=np.array([[1.0]]), offsets=np.array([2.0]))
        sol = solve_dual_gca(sp)
        report = kkt_check(sp, sol, 1e-6)
        assert report.passed and report.duality_gap == 0.0


class TestActiveSetOracle:
    def test_fix_a(self, fix_a):
        ds, q = fix_a
        sp = build_1nn_subproblem(ds, q, 1)
        delta, sol = active_set_oracle(sp)
        np.testing.assert_allclose(delta, [1.0], atol=1e-12)
        assert sol.objective == pytest.approx(0.5, abs=1e-12)

    def test_fix_b(self, fix_b):
        sp = _fix_b_sp(fix_b)
        delta, _ = active_set_oracle(sp)
        np.testing.assert_allclose(delta, [0.5, -0.5], atol=1e-12)

    def test_all_nonnegative_offsets(self):
        sp = Subproblem(rows=np.array([[1.0, 0.0]]), offsets=np.array([3.0]))
        delta, sol = active_set_oracle(sp)
        np.testing.assert_array_equal(delta, [0.0, 0.0])
        assert sol.objective == 0.0

    def test_size_guard(self):
        rng = np.random.default_rng(0)
        sp = Subproblem(rows=rng.normal(size=(20, 2)), offsets=rng.normal(size=20))
        with pytest.raises(ValueError, match="guard"):
            active_set_oracle(sp)

    def test_gca_agrees_with_oracle_and_weak_duality(self):
        rng = np.random.default_rng(29)
        for _ in range(80):
            ds, q, _ = random_grid_dataset(rng, max_n=10, max_d=3)
            for j in np.flatnonzero(ds.labels != q.true_label):
                sp = build_1nn_subproblem(ds, q, int(j))
                delta_ref, _ = active_set_oracle(sp)
                sol = solve_dual_gca(sp)
                assert sol.status is SolveStatus.CONVERGED
                # Weak duality against the exact primal optimum.
                assert sol.objective <= 0.5 * float(delta_ref @ delta_ref) + 1e-9
                delta = recover_primal(sp, sol)
                assert np.linalg.norm(delta) == pytest.approx(
                    np.linalg.norm(delta_ref), abs=1e-7
                )
                # Strong duality at convergence.
                gap = 0.5 * float(delta @ delta) - sol.objective
                assert abs(gap) <= 1e-6 * max(1.0, abs(sol.objective))
