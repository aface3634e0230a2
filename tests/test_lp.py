from fractions import Fraction

import numpy as np
import pytest

from knnrobust import lp
from knnrobust import (
    SolverError,
    Subproblem,
    build_1nn_subproblem,
    build_l1_lp,
    build_linf_lp,
    exact_1nn,
    exact_1nn_lp,
    solve_lp,
)

from helpers import lp_rational_optimum, lp_vertex_minimum, min_norm_lp, random_grid_dataset

BUILDERS = (("linf", build_linf_lp, np.inf), ("l1", build_l1_lp, 1))


def _sp(fix):
    ds, q = fix
    return build_1nn_subproblem(ds, q, 1)


def _subproblem(rows, offsets):
    return Subproblem(rows, offsets)


class TestBuilders:
    # fix_b's one row is a = (1, -1), b = -1; fix_a's is a = 4, b = -4.
    def test_linf_shape_fix_b(self, fix_b):
        lp = build_linf_lp(_sp(fix_b))
        np.testing.assert_array_equal(lp.matrix, [[-1.0, 1.0, 1.0, -1.0, 1.0],
                                                  [1.0, 0.0, 1.0, 0.0, 0.0],
                                                  [0.0, 1.0, 0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(lp.rhs, [0.0, 1.0, 1.0])
        assert lp.scale == 1.0

    def test_linf_fix_a_constraint(self, fix_a):
        lp = build_linf_lp(_sp(fix_a))
        np.testing.assert_array_equal(lp.matrix, [[-1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
        assert lp.scale == 1.0

    def test_l1_two_d_split(self, fix_b):
        lp = build_l1_lp(_sp(fix_b))
        np.testing.assert_array_equal(lp.matrix, [[-1.0, 1.0, 1.0, -1.0, 1.0],
                                                  [1.0, 1.0, 1.0, 1.0, 0.0]])
        np.testing.assert_array_equal(lp.rhs, [0.0, 1.0])

    def test_power_of_two_scaling(self):
        # Row 0 is divided by 4 and row 1 by 1/2, giving b' = (-2.5, 1.5);
        # mu's column is then divided by 2^floor(log2 2.5) = 2.
        sp = _subproblem([[3.0, -6.0], [0.5, 0.25]], [-10.0, 0.75])
        lp = build_l1_lp(sp)
        np.testing.assert_array_equal(lp.matrix, [[-0.75, 1.5, 0.75, -1.5, 1.25],
                                                  [-1.0, -0.5, 1.0, 0.5, -0.75],
                                                  [1.0, 1.0, 1.0, 1.0, 0.0]])
        assert lp.scale == 2.0
        # Data scaled by s scales a by s and b by s^2: the same program, scale times s.
        for s in (2.0 ** -30, 2.0 ** 30):
            scaled = build_l1_lp(_subproblem(sp.rows * s, sp.offsets * s * s))
            np.testing.assert_array_equal(scaled.matrix, lp.matrix)
            assert scaled.scale == lp.scale * s


class TestSolveLp:
    def test_linf_fix_b(self, fix_b):
        delta, eps, pivots = solve_lp(build_linf_lp(_sp(fix_b)))
        assert eps == pytest.approx(0.5, abs=1e-9)
        assert delta[0] - delta[1] >= 1.0 - 1e-9
        assert np.max(np.abs(delta)) == pytest.approx(0.5, abs=1e-9)
        assert pivots > 0

    def test_linf_fix_a(self, fix_a):
        _, eps, _ = solve_lp(build_linf_lp(_sp(fix_a)))
        assert eps == pytest.approx(1.0, abs=1e-9)

    def test_l1_fix_a(self, fix_a):
        _, eps, _ = solve_lp(build_l1_lp(_sp(fix_a)))
        assert eps == pytest.approx(1.0, abs=1e-9)

    def test_infeasible_detected(self):
        # delta >= 2 and delta <= -1: mu's optimum is 0.
        sp = _subproblem([[1.0], [-1.0]], [-2.0, -1.0])
        for _, build, _ in BUILDERS:
            with pytest.raises(SolverError):
                solve_lp(build(sp))

    def test_unbounded_detected(self):
        # b >= 0: delta = 0 meets every row, so mu grows without bound.
        sp = _subproblem([[1.0, 2.0]], [0.0])
        for _, build, _ in BUILDERS:
            with pytest.raises(SolverError):
                solve_lp(build(sp))

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
        # same program: the final-basis solve leaves only its own rounding.
        rng = np.random.default_rng(139)
        solved = 0
        for _ in range(64):
            d, m = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            offsets = rng.standard_normal(m)
            offsets[rng.integers(m)] = -abs(offsets[0]) - 0.125
            sp = _subproblem(rng.standard_normal((m, d)), offsets)
            for _, build, _ in BUILDERS:
                program = build(sp)
                exact = lp_rational_optimum(program)
                if exact is None:
                    with pytest.raises(SolverError):
                        solve_lp(program)
                    continue
                _, eps, _ = solve_lp(program)
                assert eps == pytest.approx(float(exact), rel=1e-14, abs=0.0)
                solved += 1
        assert solved > 64                   # of 128 solves

    def test_bland_fallback_after_degenerate_run(self, monkeypatch):
        # Every constraint row starts with right-hand side 0, so pivots on them
        # are degenerate; this max-norm program makes 12 of them in a row.
        # Pricing is Dantzig's until 10 such pivots, then Bland's.
        sp = _subproblem([[3.0, 0.0, 2.0], [-3.0, 0.0, -1.0], [-2.0, -1.0, 2.0],
                          [2.0, -2.0, 3.0], [0.0, -2.0, -1.0], [3.0, 0.0, -2.0]],
                         [-1.0, 2.0, -1.0, -2.0, -3.0, -4.0])
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
        program = build_linf_lp(sp)
        delta, eps, _ = solve_lp(program)
        assert priced_by_bland
        assert lp_rational_optimum(program) == Fraction(37, 9)
        assert eps == pytest.approx(37 / 9, rel=1e-14, abs=0.0)
        assert eps == pytest.approx(lp_vertex_minimum(min_norm_lp(sp, "linf")), rel=1e-12, abs=0.0)
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

    def test_one_dimension_collapses(self):
        rng = np.random.default_rng(113)
        for _ in range(20):
            ds, q, _ = random_grid_dataset(rng, max_d=1)
            linf = exact_1nn_lp(ds, q, "linf").epsilon
            l2 = exact_1nn(ds, q).epsilon
            l1 = exact_1nn_lp(ds, q, "l1").epsilon
            assert linf == pytest.approx(l2, abs=1e-8)
            assert l1 == pytest.approx(l2, abs=1e-8)
