"""Greedy coordinate ascent for the dual QP, plus an exact reference oracle.

The dual of each perturbation subproblem is

    max_{lambda >= 0}  D(lambda) = -1/2 lambda^T A A^T lambda - lambda^T b

with the primal recovered through ``delta = A^T lambda``.  The solver keeps
the gradient ``g = -A A^T lambda - b`` up to date with rank-1 updates and at
each step moves the coordinate with the largest projected gradient.  ``A A^T``
is never materialized; every product goes through ``A``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InfeasibleSubproblemError, SolverError
from .subproblem import Subproblem

# Full gradient recomputation period; bounds drift from the rank-1 updates.
_REFRESH_INTERVAL = 1000


class SolveStatus(Enum):
    CONVERGED = "converged"
    ITERATION_CAP = "iteration_cap"
    OBJECTIVE_CAP = "objective_cap"


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the greedy coordinate ascent solver.

    ``tolerance`` bounds the sup-norm of the projected gradient at exit,
    ``max_iterations=None`` means 100 * m, and ``objective_cap`` aborts a
    solve once the dual objective exceeds the cap (used to cut off
    infeasible or hopeless subproblems, whose dual grows without bound).
    """

    tolerance: float = 1e-8
    max_iterations: int | None = None
    screening_enabled: bool = True
    objective_cap: float | None = None

    def __post_init__(self) -> None:
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class DualSolution:
    """Sparse nonnegative multiplier vector with solve diagnostics."""

    indices: np.ndarray     # rows with lambda > 0
    values: np.ndarray      # the corresponding multipliers
    objective: float
    iterations: int
    status: SolveStatus
    size: int               # m of the subproblem this was solved on

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def dense(self) -> np.ndarray:
        lam = np.zeros(self.size)
        lam[self.indices] = self.values
        return lam


def _sparse_solution(lam: np.ndarray, sp: Subproblem, iterations: int,
                     status: SolveStatus) -> DualSolution:
    idx = np.flatnonzero(lam > 0.0)
    vals = lam[idx].copy()
    delta = sp.rows[idx].T @ vals if idx.size else np.zeros(sp.d)
    objective = -0.5 * float(delta @ delta) - float(vals @ sp.offsets[idx])
    return DualSolution(
        indices=idx, values=vals, objective=objective,
        iterations=iterations, status=status, size=sp.m,
    )


def solve_dual_gca(sp: Subproblem, cfg: SolverConfig = SolverConfig()) -> DualSolution:
    """Maximize the dual by greedy coordinate ascent starting from zero.

    Each accepted step is an exact coordinate maximization, so the dual
    objective never decreases.  Convergence is declared when the projected
    gradient ``max(lambda + g, 0) - lambda`` has sup-norm at most
    ``cfg.tolerance``; hitting the iteration cap is reported through the
    status, not as an error.
    """
    A = sp.rows
    b = sp.offsets
    norms_sq = sp.row_norms_sq
    m = sp.m
    # 100*m is generous at scale but starves small ill-conditioned systems
    # (two nearly parallel rows converge linearly with a slow rate), so the
    # automatic cap never goes below a fixed floor.
    cap = cfg.max_iterations if cfg.max_iterations is not None else max(100 * m, 50_000)

    lam = np.zeros(m)
    g = -b.copy()
    objective = 0.0
    status = SolveStatus.ITERATION_CAP
    iterations = 0

    for it in range(1, cap + 1):
        pg = np.maximum(lam + g, 0.0) - lam
        viol = np.abs(pg)
        i = int(np.argmax(viol))
        if viol[i] <= cfg.tolerance:
            status = SolveStatus.CONVERGED
            iterations = it - 1
            break
        iterations = it
        new_val = max(lam[i] + g[i] / norms_sq[i], 0.0)
        step = new_val - lam[i]
        # Exact objective change for a single-coordinate move.
        objective += step * g[i] - 0.5 * step * step * norms_sq[i]
        g -= (A @ A[i]) * step
        lam[i] = new_val
        if it % _REFRESH_INTERVAL == 0:
            g = -(A @ (A.T @ lam)) - b
            objective = _exact_objective(sp, lam)
            if not np.isfinite(objective) or not np.all(np.isfinite(g)):
                raise SolverError("non-finite arithmetic in coordinate ascent")
        if cfg.objective_cap is not None and objective > cfg.objective_cap:
            status = SolveStatus.OBJECTIVE_CAP
            break
    else:
        pg = np.maximum(lam + g, 0.0) - lam
        if np.max(np.abs(pg)) <= cfg.tolerance:
            status = SolveStatus.CONVERGED

    if not np.all(np.isfinite(lam)):
        raise SolverError("non-finite multipliers in coordinate ascent")
    return _sparse_solution(lam, sp, iterations, status)


def _exact_objective(sp: Subproblem, lam: np.ndarray) -> float:
    delta = sp.rows.T @ lam
    return -0.5 * float(delta @ delta) - float(lam @ sp.offsets)


def recover_primal(sp: Subproblem, sol: DualSolution) -> np.ndarray:
    """Map a dual solution back to the perturbation: delta = A^T lambda."""
    if sol.indices.size == 0:
        return np.zeros(sp.d)
    return sp.rows[sol.indices].T @ sol.values


def screen_variables(sp: Subproblem, delta_norm_bound: float) -> np.ndarray:
    """Rows whose multiplier is provably zero at every dual optimum.

    Requires ``delta_norm_bound >= ||delta*||``; then any row with
    ``-b_i + ||a_i|| * bound < 0`` has a strictly negative dual gradient at
    the optimum and can be deleted without changing it.
    """
    if delta_norm_bound < 0:
        raise ValueError("delta_norm_bound must be nonnegative")
    lhs = -sp.offsets + np.sqrt(sp.row_norms_sq) * delta_norm_bound
    return np.flatnonzero(lhs < 0.0)


@dataclass(frozen=True)
class KktReport:
    """Residuals of the optimality system for a recovered primal/dual pair."""

    primal_violation: float        # max(0, -min_i (A delta + b)_i)
    complementary_slackness: float  # max_i |lambda_i (A delta + b)_i|
    duality_gap: float             # 1/2 delta^T delta - D(lambda)
    passed: bool


def kkt_check(sp: Subproblem, sol: DualSolution, tol: float) -> KktReport:
    """Verify feasibility, complementary slackness and the duality gap.

    Stationarity holds by construction (delta is defined as A^T lambda).
    The pass flag scales the feasibility tests by ``1 + ||b||_inf`` and the
    gap by ``max(1, |D|)`` so one tolerance works across problem scales.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    delta = recover_primal(sp, sol)
    residual = sp.residual(delta)
    primal_violation = max(0.0, -float(residual.min()))
    if sol.indices.size:
        comp_slack = float(np.max(np.abs(sol.values * residual[sol.indices])))
    else:
        comp_slack = 0.0
    gap = 0.5 * float(delta @ delta) - sol.objective
    scale = sp.offset_scale
    passed = (
        primal_violation <= tol * scale
        and comp_slack <= tol * scale
        and abs(gap) <= tol * max(1.0, abs(sol.objective))
    )
    return KktReport(primal_violation, comp_slack, gap, passed)


def active_set_oracle(
    sp: Subproblem, max_rows: int = 16, max_dim: int = 6
) -> tuple[np.ndarray, DualSolution]:
    """Exact reference solver by enumerating candidate active sets.

    For every subset S of constraint rows with |S| <= min(m, d), solve the
    equality-constrained minimum-norm problem by dense linear algebra, keep
    the candidates whose induced multipliers are nonnegative and whose delta
    satisfies all constraints, and return the best KKT point found.  Meant
    for tests: cost grows combinatorially, hence the size guards.
    """
    m, d = sp.m, sp.d
    if m > max_rows or d > max_dim:
        raise ValueError(f"oracle guard exceeded: m={m} (max {max_rows}), d={d} (max {max_dim})")
    A = sp.rows
    b = sp.offsets
    feas_tol = 1e-9 * sp.offset_scale

    best = None  # (objective, delta, lam_dense)
    for size in range(0, min(m, d) + 1):
        for subset in itertools.combinations(range(m), size):
            S = list(subset)
            if size == 0:
                delta = np.zeros(d)
                lam_S = np.zeros(0)
            else:
                gram = A[S] @ A[S].T
                try:
                    lam_S = np.linalg.solve(gram, -b[S])
                except np.linalg.LinAlgError:
                    lam_S, *_ = np.linalg.lstsq(gram, -b[S], rcond=None)
                delta = A[S].T @ lam_S
                if np.max(np.abs(A[S] @ delta + b[S])) > feas_tol:
                    continue  # rows dependent and inconsistent for this subset
                if np.any(lam_S < -1e-9):
                    continue
            if size and np.min(A @ delta + b) < -feas_tol:
                continue
            if size == 0 and np.min(b) < -feas_tol:
                continue
            obj = 0.5 * float(delta @ delta)
            if best is None or obj < best[0] - 1e-15:
                lam_dense = np.zeros(m)
                if size:
                    lam_dense[S] = np.maximum(lam_S, 0.0)
                best = (obj, delta, lam_dense)
    if best is None:
        raise InfeasibleSubproblemError("no KKT point found; constraint set is likely empty")
    _, delta, lam_dense = best
    idx = np.flatnonzero(lam_dense > 0.0)
    vals = lam_dense[idx]
    sol = DualSolution(
        indices=idx, values=vals, objective=_exact_objective(sp, lam_dense),
        iterations=0, status=SolveStatus.CONVERGED, size=m,
    )
    return delta, sol
