from fractions import Fraction

import numpy as np
import pytest

from knnrobust import lp
from knnrobust import (
    CertificateKind,
    Dataset,
    Query,
    SolverError,
    Subproblem,
    build_1nn_subproblem,
    build_l1_lp,
    build_linf_lp,
    exact_1nn,
    exact_1nn_lp,
    solve_lp,
)

from helpers import (
    homogenized_epsilon,
    homogenized_lp,
    lp_rational_optimum,
    lp_vertex_minimum,
    min_norm_lp,
    random_grid_dataset,
)

BUILDERS = (("linf", build_linf_lp, np.inf), ("l1", build_l1_lp, 1))


def _sp(fix):
    ds, q = fix
    return build_1nn_subproblem(ds, q, 1)


def _subproblem(rows, offsets):
    return Subproblem(rows, offsets)


class TestBuilders:
    # fix_b's one row is a = (1, -1), b = -1; fix_a's is a = 4, b = -4.
    def test_linf_shape_fix_b(self, fix_b):
        # Columns lambda, p_1, p_2, n_1, n_2; rows A'^T lambda - p + n = 0,
        # then -b' . lambda = 1.  a_1 >= 0 starts on p_1, a_2 < 0 on n_2.
        lp = build_linf_lp(_sp(fix_b))
        np.testing.assert_array_equal(lp.matrix, [[1.0, -1.0, 0.0, 1.0, 0.0],
                                                  [-1.0, 0.0, -1.0, 0.0, 1.0],
                                                  [1.0, 0.0, 0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(lp.rhs, [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(lp.cost, [0.0, 1.0, 1.0, 1.0, 1.0])
        np.testing.assert_array_equal(lp.basis, [1, 4, 0])
        np.testing.assert_array_equal(lp.unit_rows, [-1, 0, 1, 0, 1])
        assert lp.scale == 1.0

    def test_linf_fix_a_constraint(self, fix_a):
        # a = 4, b = -4 divided by 4.
        lp = build_linf_lp(_sp(fix_a))
        np.testing.assert_array_equal(lp.matrix, [[1.0, -1.0, 1.0], [1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(lp.basis, [1, 0])
        assert lp.scale == 1.0

    def test_l1_two_d_split(self, fix_b):
        # Columns lambda, v, then one slack per row of +-(A'^T lambda)_k - v <= 0;
        # v starts in the row of the largest |a_k|, the first one, with a_1 > 0.
        lp = build_l1_lp(_sp(fix_b))
        np.testing.assert_array_equal(lp.matrix, [[1.0, -1.0, 1.0, 0.0, 0.0, 0.0],
                                                  [-1.0, -1.0, 0.0, 1.0, 0.0, 0.0],
                                                  [-1.0, -1.0, 0.0, 0.0, 1.0, 0.0],
                                                  [1.0, -1.0, 0.0, 0.0, 0.0, 1.0],
                                                  [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(lp.rhs, [0.0, 0.0, 0.0, 0.0, 1.0])
        np.testing.assert_array_equal(lp.cost, [0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(lp.basis, [1, 3, 4, 5, 0])
        np.testing.assert_array_equal(lp.unit_rows, [-1, -1, 0, 1, 2, 3])

    def test_power_of_two_scaling(self):
        # Row 0 is divided by 4 and row 1 by 1/2, giving b' = (-2.5, 1.5);
        # the offsets are then divided by 2^floor(log2 2.5) = 2.  Only row 0
        # has b < 0; its largest |a'_k| is a'_2 = -1.5, so v starts in the
        # row of -(A'^T lambda)_2.
        sp = _subproblem([[3.0, -6.0], [0.5, 0.25]], [-10.0, 0.75])
        lp = build_l1_lp(sp)
        np.testing.assert_array_equal(lp.matrix, [[0.75, 1.0, -1.0, 1.0, 0.0, 0.0, 0.0],
                                                  [-1.5, 0.5, -1.0, 0.0, 1.0, 0.0, 0.0],
                                                  [-0.75, -1.0, -1.0, 0.0, 0.0, 1.0, 0.0],
                                                  [1.5, -0.5, -1.0, 0.0, 0.0, 0.0, 1.0],
                                                  [1.25, -0.75, 0.0, 0.0, 0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(lp.basis, [3, 4, 5, 2, 0])
        assert lp.scale == 2.0
        # Data scaled by s scales a by s and b by s^2: the same program, scale times s.
        for s in (2.0 ** -30, 2.0 ** 30):
            for build in (build_l1_lp, build_linf_lp):
                scaled = build(_subproblem(sp.rows * s, sp.offsets * s * s))
                np.testing.assert_array_equal(scaled.matrix, build(sp).matrix)
                np.testing.assert_array_equal(scaled.basis, build(sp).basis)
                assert scaled.scale == build(sp).scale * s

    @pytest.mark.parametrize("norm, build, dual_ord", [("linf", build_linf_lp, 1),
                                                       ("l1", build_l1_lp, np.inf)])
    def test_start_is_the_best_single_row_bound(self, norm, build, dual_ord):
        # The start basis is feasible and its value is the largest Hölder
        # bound max(-b, 0)/||a||_* over the rows; every feasible dual point
        # bounds epsilon from below, so the optimum is never below it.
        rng = np.random.default_rng(149)
        raised_above = 0
        for _ in range(200):
            d, m = int(rng.integers(1, 9)), int(rng.integers(1, 12))
            offsets = rng.standard_normal(m)
            offsets[rng.integers(m)] = -abs(offsets[0]) - 0.125
            sp = _subproblem(rng.standard_normal((m, d)), offsets)
            program = build(sp)
            start = np.linalg.solve(program.matrix[:, program.basis], program.rhs)
            assert np.all(start >= 0.0)
            value = program.scale / (program.cost[program.basis] @ start)
            bound = np.max(np.maximum(-sp.offsets, 0.0)
                           / np.linalg.norm(sp.rows, ord=dual_ord, axis=1))
            assert value == pytest.approx(bound, rel=1e-14, abs=0.0)
            try:
                _, eps, pivots = solve_lp(program)
            except SolverError:
                continue
            assert eps >= bound * (1.0 - 1e-14)
            raised_above += eps > bound * (1.0 + 1e-12)
            if pivots == 0:
                assert eps == pytest.approx(bound, rel=1e-14, abs=0.0)
        assert raised_above > 20


class TestSolveLp:
    def test_linf_fix_b(self, fix_b):
        # fix_b with the mirror point (1, -1) in the query's class: rows
        # (1, -1) and (1, 1), both b = -1.  Each row alone bounds the max norm
        # by 1/2, the start's value; together they force delta_1 >= 1.
        ds, q = fix_b
        mirrored = Dataset(np.vstack([ds.points, [1.0, -1.0]]), np.append(ds.labels, 1))
        delta, eps, pivots = solve_lp(build_linf_lp(build_1nn_subproblem(mirrored, q, 1)))
        assert eps == pytest.approx(1.0, rel=1e-15, abs=0.0)
        np.testing.assert_allclose(delta, [1.0, 0.0], rtol=0.0, atol=1e-15)
        assert pivots > 0

    def test_linf_fix_a(self, fix_a):
        _, eps, _ = solve_lp(build_linf_lp(_sp(fix_a)))
        assert eps == pytest.approx(1.0, abs=1e-9)

    def test_l1_fix_a(self, fix_a):
        _, eps, _ = solve_lp(build_l1_lp(_sp(fix_a)))
        assert eps == pytest.approx(1.0, abs=1e-9)

    def test_infeasible_detected(self):
        # delta >= 2 and delta <= -1: the dual's optimum is 0.
        sp = _subproblem([[1.0], [-1.0]], [-2.0, -1.0])
        for _, build, _ in BUILDERS:
            with pytest.raises(SolverError):
                solve_lp(build(sp))

    def test_unbounded_detected(self):
        # b >= 0: delta = 0 meets every row, and the dual has no feasible point.
        sp = _subproblem([[1.0, 2.0]], [0.0])
        for _, build, _ in BUILDERS:
            with pytest.raises(SolverError):
                solve_lp(build(sp))

    def test_column_without_pivot_row_raises(self):
        # A hand-made program: minimize -x1 subject to x0 - x1 = 1, from the
        # basis {x0}.  x1 prices in, but its column has no positive entry,
        # so the program is unbounded below.  A dual-norm program cannot be
        # (its cost is a norm); only rounding could bring solve_lp here.
        program = lp.DualLp(matrix=np.array([[1.0, -1.0]]), rhs=np.array([1.0]),
                            cost=np.array([0.0, -1.0]), basis=np.array([0]),
                            unit_rows=np.array([0, 0]), scale=1.0, norm="linf")
        tableau = np.array([[1.0, -1.0, 1.0], [0.0, -1.0, 0.0]])
        assert lp._bland_leaving(tableau, program.basis, 1) is None
        with pytest.raises(SolverError, match="a column of negative reduced cost has no pivot row"):
            solve_lp(program)

    def test_pivot_cap(self, fix_b, monkeypatch):
        # test_linf_fix_b's program needs at least one pivot.
        monkeypatch.setattr(lp, "_MAX_PIVOTS", 0)
        ds, q = fix_b
        mirrored = Dataset(np.vstack([ds.points, [1.0, -1.0]]), np.append(ds.labels, 1))
        with pytest.raises(SolverError, match="^no optimum after 0 pivots$"):
            solve_lp(build_linf_lp(build_1nn_subproblem(mirrored, q, 1)))

    def test_agrees_with_vertex_enumeration(self):
        # Random integer subproblems with some b_i < 0, against the vertices
        # of the plain min-norm LP; those with no feasible delta must raise.
        rng = np.random.default_rng(107)
        infeasible = 0
        for _ in range(400):
            d, m = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            rows = rng.integers(-3, 4, size=(m, d)).astype(float)
            rows[~rows.any(axis=1), 0] = 1.0       # Subproblem rejects a zero row
            offsets = rng.integers(-4, 5, size=m).astype(float)
            offsets[rng.integers(m)] = -float(rng.integers(1, 5))
            sp = _subproblem(rows, offsets)
            for norm, build, order in BUILDERS:
                reference = lp_vertex_minimum(min_norm_lp(sp, norm))
                if reference is None:
                    infeasible += 1
                    with pytest.raises(SolverError):
                        solve_lp(build(sp))
                    continue
                delta, eps, _ = solve_lp(build(sp))
                assert eps == pytest.approx(reference, rel=1e-12, abs=0.0)
                assert np.linalg.norm(delta, ord=order) == pytest.approx(eps, rel=1e-12, abs=0.0)
                assert np.min(sp.residual(delta)) >= -1e-12 * sp.offset_scale
        assert 0 < infeasible < 400          # of 800 solves

    def test_agrees_with_rational_simplex(self):
        # Float-valued subproblems against an exact Fraction simplex of the
        # primal homogenized program: the final-basis solve leaves only its
        # own rounding.  Draws with no feasible delta must raise.
        rng = np.random.default_rng(139)
        solved = 0
        worst = 0.0
        for _ in range(64):
            d, m = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            offsets = rng.standard_normal(m)
            offsets[rng.integers(m)] = -abs(offsets[0]) - 0.125
            sp = _subproblem(rng.standard_normal((m, d)), offsets)
            for norm, build, _ in BUILDERS:
                exact = lp_rational_optimum(homogenized_lp(sp, norm))
                if exact is None:
                    with pytest.raises(SolverError):
                        solve_lp(build(sp))
                    continue
                _, eps, _ = solve_lp(build(sp))
                worst = max(worst, abs(Fraction(eps) / exact - 1))
                solved += 1
        print(f"worst relative difference from the rational optimum: {float(worst):.2e}")
        assert worst <= 1e-14
        assert solved > 64                   # of 128 solves

    def test_gaussian_set_agrees_with_homogenized_reference(self):
        # Two classes of 200 Gaussian points in d = 20: each target's
        # subproblem has 200 rows, against the float simplex of the primal
        # homogenized program.
        rng = np.random.default_rng(151)
        ds = Dataset(np.vstack([rng.standard_normal((200, 20)),
                                rng.standard_normal((200, 20)) + 0.5]),
                     np.repeat([1, 2], 200))
        q = Query(rng.standard_normal(20), 1)
        dist_sq = ds.distances_sq(q.z)
        targets = np.flatnonzero(ds.labels == 2)
        for j in targets[np.argsort(dist_sq[targets])[:3]]:
            sp = build_1nn_subproblem(ds, q, int(j))
            assert sp.m == 200
            for norm, build, order in BUILDERS:
                delta, eps, _ = solve_lp(build(sp))
                reference = homogenized_epsilon(homogenized_lp(sp, norm))
                assert eps == pytest.approx(reference, rel=1e-12, abs=0.0)
                assert np.linalg.norm(delta, ord=order) == pytest.approx(eps, rel=1e-12, abs=0.0)
                assert np.min(sp.residual(delta)) >= -1e-12 * sp.offset_scale

    def test_bland_fallback_after_degenerate_run(self, monkeypatch):
        # The start row gives five of the seven coordinates a zero p or n,
        # so pivots on their rows are degenerate; this max-norm program makes
        # 11 of them in a row.  Pricing is Dantzig's until 10 such pivots,
        # then Bland's.
        sp = _subproblem([[-2.0, -3.0, 2.0, -3.0, 0.0, 0.0, -2.0],
                          [0.0, 3.0, -1.0, 0.0, -3.0, -2.0, -3.0],
                          [-1.0, 1.0, 0.0, 0.0, -2.0, 0.0, 0.0],
                          [0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 0.0],
                          [3.0, 1.0, 0.0, 2.0, 2.0, -2.0, 0.0],
                          [0.0, 0.0, -2.0, 1.0, 0.0, 1.0, 0.0],
                          [0.0, 0.0, 1.0, 1.0, 0.0, 2.0, 1.0],
                          [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
                          [0.0, 2.0, -2.0, 1.0, -2.0, 3.0, 0.0]],
                         [-1.0, -4.0, -4.0, 1.0, -4.0, -1.0, -3.0, -2.0, 2.0])
        leaving = lp._bland_leaving
        run = [0]
        priced_by_bland = []

        def checked(tableau, basis, col):
            costs = tableau[-1, :-1]
            if run[0] >= lp._DEGENERATE_RUN:
                assert col == np.flatnonzero(costs < -lp._PIVOT_EPS)[0]
                priced_by_bland.append(col)
            else:
                assert costs[col] == costs.min()
            row = leaving(tableau, basis, col)
            run[0] = run[0] + 1 if tableau[row, -1] <= lp._PIVOT_EPS else 0
            return row

        monkeypatch.setattr(lp, "_bland_leaving", checked)
        delta, eps, _ = solve_lp(build_linf_lp(sp))
        assert priced_by_bland
        assert lp_rational_optimum(homogenized_lp(sp, "linf")) == Fraction(181, 28)
        assert eps == pytest.approx(181 / 28, rel=1e-14, abs=0.0)
        assert np.max(np.abs(delta)) == pytest.approx(eps, rel=1e-14, abs=0.0)
        assert np.min(sp.residual(delta)) >= -1e-12 * sp.offset_scale


class TestExact1nnLp:
    def test_fix_a_linf(self, fix_a):
        ds, q = fix_a
        assert exact_1nn_lp(ds, q, "linf").epsilon == pytest.approx(1.0, abs=1e-9)

    def test_fix_b_linf(self, fix_b):
        ds, q = fix_b
        cert = exact_1nn_lp(ds, q, "linf")
        assert cert.epsilon == pytest.approx(0.5, abs=1e-9)
        assert cert.epsilon == pytest.approx(
            float(np.max(np.abs(cert.delta))), rel=1e-9
        )
        # One target, so the certificate counts that one LP's pivots.
        assert cert.stats.solver_iterations == solve_lp(build_linf_lp(_sp(fix_b)))[2]

    def test_fix_b_l1(self, fix_b):
        ds, q = fix_b
        cert = exact_1nn_lp(ds, q, "l1")
        assert cert.epsilon == pytest.approx(1.0, abs=1e-9)
        assert cert.stats.solver_iterations == solve_lp(build_l1_lp(_sp(fix_b)))[2]

    @pytest.mark.parametrize("norm", ["linf", "l1"])
    @pytest.mark.parametrize("sort_candidates", [True, False])
    def test_certificate_is_exact(self, fix_c, norm, sort_candidates):
        ds, q = fix_c
        cert = exact_1nn_lp(ds, q, norm, sort_candidates=sort_candidates)
        assert cert.kind is CertificateKind.EXACT and not cert.misclassified

    def test_bad_norm_rejected(self, fix_a):
        ds, q = fix_a
        with pytest.raises(ValueError):
            exact_1nn_lp(ds, q, "l7")

    def test_norm_ordering(self):
        # Larger norms admit smaller minimum radii: linf <= l2 <= l1.
        rng = np.random.default_rng(109)
        for _ in range(40):
            ds, q, _ = random_grid_dataset(rng)
            linf = exact_1nn_lp(ds, q, "linf").epsilon
            l2 = exact_1nn(ds, q).epsilon
            l1 = exact_1nn_lp(ds, q, "l1").epsilon
            assert linf <= l2 + 1e-8
            assert l2 <= l1 + 1e-8

    def test_matches_vertex_oracle(self):
        # Each epsilon is the smallest per-target LP optimum, here found by
        # vertex enumeration of the plain min-norm LP instead of the simplex.
        rng = np.random.default_rng(127)
        for _ in range(40):
            ds, q, _ = random_grid_dataset(rng, max_d=3)
            targets = np.flatnonzero(ds.labels != q.true_label)
            for norm in ("linf", "l1"):
                reference = min(lp_vertex_minimum(min_norm_lp(build_1nn_subproblem(ds, q, int(j)),
                                                              norm))
                                for j in targets)
                assert exact_1nn_lp(ds, q, norm).epsilon == pytest.approx(reference, abs=1e-9)

    def test_lp_calls_go_through_module_names(self, monkeypatch):
        # Tracing rebinds lp.solve_lp, lp.build_linf_lp and lp.build_l1_lp,
        # so every LP of the pipeline must be made and solved through them.
        calls = {}

        def counting(name):
            original = getattr(lp, name)

            def wrapper(*args):
                calls[name] = calls.get(name, 0) + 1
                return original(*args)
            return wrapper

        for name in ("solve_lp", "build_linf_lp", "build_l1_lp"):
            monkeypatch.setattr(lp, name, counting(name))
        rng = np.random.default_rng(131)
        solved = {"linf": 0, "l1": 0}
        for _ in range(20):
            ds, q, _ = random_grid_dataset(rng)
            for norm in solved:
                solved[norm] += exact_1nn_lp(ds, q, norm).stats.subproblems_solved
        assert solved["linf"] > 0 and solved["l1"] > 0
        assert calls == {"build_linf_lp": solved["linf"], "build_l1_lp": solved["l1"],
                         "solve_lp": solved["linf"] + solved["l1"]}

    @pytest.mark.parametrize("norm", ["linf", "l1"])
    def test_lp_failure_names_its_target(self, fix_c, monkeypatch, norm):
        def fail(program):
            raise SolverError("no optimum after 50000 pivots")

        monkeypatch.setattr(lp, "solve_lp", fail)
        ds, q = fix_c
        with pytest.raises(SolverError, match=f"^exact-{norm}: LP for target 2: no optimum"):
            exact_1nn_lp(ds, q, norm)

    def test_one_dimension_collapses(self):
        rng = np.random.default_rng(113)
        for _ in range(20):
            ds, q, _ = random_grid_dataset(rng, max_d=1)
            linf = exact_1nn_lp(ds, q, "linf").epsilon
            l2 = exact_1nn(ds, q).epsilon
            l1 = exact_1nn_lp(ds, q, "l1").epsilon
            assert linf == pytest.approx(l2, abs=1e-8)
            assert l1 == pytest.approx(l2, abs=1e-8)
