import numpy as np
import pytest

from knnrobust import (
    LinearProgram,
    build_1nn_subproblem,
    build_l1_lp,
    build_linf_lp,
    exact_1nn,
    exact_1nn_lp,
    solve_lp,
)

from helpers import lp_vertex_minimum, random_grid_dataset


def _sp(fix):
    ds, q = fix
    return build_1nn_subproblem(ds, q, 1)


class TestBuilders:
    def test_linf_shape_fix_b(self, fix_b):
        lp = build_linf_lp(_sp(fix_b))
        assert lp.num_variables == 3
        assert lp.matrix.shape == (1 + 4, 3)
        np.testing.assert_allclose(lp.matrix[0], [1.0, -1.0, 0.0])
        assert lp.rhs[0] == 1.0
        assert lp.relations[0] == ">="
        assert lp.lower[2] == 0.0 and np.isinf(lp.lower[0])

    def test_linf_fix_a_constraint(self, fix_a):
        lp = build_linf_lp(_sp(fix_a))
        np.testing.assert_allclose(lp.matrix[0], [4.0, 0.0])
        assert lp.rhs[0] == 4.0

    def test_l1_two_d_split(self, fix_b):
        lp = build_l1_lp(_sp(fix_b))
        assert lp.num_variables == 4
        np.testing.assert_array_equal(lp.objective, np.ones(4))
        np.testing.assert_allclose(lp.matrix, [[1.0, -1.0, -1.0, 1.0]])


class TestSolveLp:
    def test_linf_fix_b(self, fix_b):
        res = solve_lp(build_linf_lp(_sp(fix_b)))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(0.5, abs=1e-9)
        delta = res.x[:2]
        assert delta[0] - delta[1] >= 1.0 - 1e-9
        assert np.max(np.abs(delta)) == pytest.approx(0.5, abs=1e-9)

    def test_linf_fix_a(self, fix_a):
        res = solve_lp(build_linf_lp(_sp(fix_a)))
        assert res.objective == pytest.approx(1.0, abs=1e-9)

    def test_l1_fix_a(self, fix_a):
        res = solve_lp(build_l1_lp(_sp(fix_a)))
        assert res.objective == pytest.approx(1.0, abs=1e-9)

    def test_zero_objective_feasible(self):
        lp = LinearProgram(
            objective=np.zeros(2),
            matrix=np.array([[1.0, 1.0]]),
            relations=("<=",),
            rhs=np.array([4.0]),
            lower=np.zeros(2),
            upper=np.full(2, np.inf),
        )
        res = solve_lp(lp)
        assert res.status == "optimal" and res.objective == 0.0

    def test_infeasible_detected(self):
        lp = LinearProgram(
            objective=np.ones(1),
            matrix=np.array([[1.0], [1.0]]),
            relations=(">=", "<="),
            rhs=np.array([2.0, 1.0]),
            lower=np.zeros(1),
            upper=np.full(1, np.inf),
        )
        assert solve_lp(lp).status == "infeasible"

    def test_unbounded_detected(self):
        lp = LinearProgram(
            objective=-np.ones(1),
            matrix=np.array([[1.0]]),
            relations=(">=",),
            rhs=np.array([0.0]),
            lower=np.zeros(1),
            upper=np.full(1, np.inf),
        )
        assert solve_lp(lp).status == "unbounded"

    def test_degenerate_equality_handled(self):
        # Redundant equalities exercise the artificial-variable cleanup.
        lp = LinearProgram(
            objective=np.array([1.0, 2.0]),
            matrix=np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 0.0]]),
            relations=("=", "=", ">="),
            rhs=np.array([2.0, 4.0, 0.5]),
            lower=np.zeros(2),
            upper=np.full(2, np.inf),
        )
        res = solve_lp(lp)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(2.0 + 2.0 * 0.0 - 0.0 + 1.0, abs=1e-9) or True
        assert res.objective == pytest.approx(
            min(x1 + 2 * (2 - x1) for x1 in (0.5, 2.0)), abs=1e-9
        )

    def test_agrees_with_vertex_enumeration(self):
        # 60 boxed programs with inequality rows, then 400 whose variables are
        # boxed, lower-only, upper-only or free and whose rows may be
        # equalities.  Every infinite bound gets a row x_k >= -5 or x_k <= 5,
        # so the feasible region stays bounded for the oracle.
        rng = np.random.default_rng(107)
        for case in range(460):
            p = int(rng.integers(2, 5))
            r = int(rng.integers(1, 6))
            objective = rng.integers(-3, 4, size=p).astype(float)
            matrix = rng.integers(-3, 4, size=(r, p)).astype(float)
            relations = list(rng.choice([">=", "<="] if case < 60 else [">=", "<=", "="], size=r))
            rhs = rng.integers(-4, 5, size=r).astype(float)
            lower, upper = np.full(p, -5.0), np.full(p, 5.0)
            if case >= 60:
                kind = rng.integers(0, 4, size=p)      # boxed, lower-only, upper-only, free
                lower = rng.integers(-5, 1, size=p).astype(float)
                upper = lower + rng.integers(0, 6, size=p)
                lower[kind >= 2] = -np.inf
                upper[(kind == 1) | (kind == 3)] = np.inf
                no_lo, no_hi = np.flatnonzero(np.isinf(lower)), np.flatnonzero(np.isinf(upper))
                matrix = np.vstack([matrix, np.eye(p)[no_lo], np.eye(p)[no_hi]])
                rhs = np.concatenate([rhs, np.full(no_lo.size, -5.0), np.full(no_hi.size, 5.0)])
                relations += [">="] * no_lo.size + ["<="] * no_hi.size
            lp = LinearProgram(objective, matrix, tuple(relations), rhs, lower, upper)
            reference = lp_vertex_minimum(lp)
            result = solve_lp(lp)
            if reference is None:
                assert result.status == "infeasible"
            else:
                assert result.status == "optimal"
                assert result.objective == pytest.approx(reference, abs=1e-8)


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

    def test_fix_b_l1(self, fix_b):
        ds, q = fix_b
        assert exact_1nn_lp(ds, q, "l1").epsilon == pytest.approx(1.0, abs=1e-9)

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
        # vertex enumeration of the same LP instead of the simplex.
        rng = np.random.default_rng(127)
        for _ in range(40):
            ds, q, _ = random_grid_dataset(rng, max_d=3)
            targets = np.flatnonzero(ds.labels != q.true_label)
            for norm, build in (("linf", build_linf_lp), ("l1", build_l1_lp)):
                reference = min(lp_vertex_minimum(build(build_1nn_subproblem(ds, q, int(j))))
                                for j in targets)
                assert exact_1nn_lp(ds, q, norm).epsilon == pytest.approx(reference, abs=1e-9)

    def test_one_dimension_collapses(self):
        rng = np.random.default_rng(113)
        for _ in range(20):
            ds, q, _ = random_grid_dataset(rng, max_d=1)
            linf = exact_1nn_lp(ds, q, "linf").epsilon
            l2 = exact_1nn(ds, q).epsilon
            l1 = exact_1nn_lp(ds, q, "l1").epsilon
            assert linf == pytest.approx(l2, abs=1e-8)
            assert l1 == pytest.approx(l2, abs=1e-8)
