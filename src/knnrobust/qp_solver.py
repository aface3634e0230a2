"""Dual active-set solver for the perturbation QPs.

Each subproblem is ``min 1/2 ||delta||^2  s.t.  A delta + b >= 0`` with dual

    max_{lambda >= 0}  D(lambda) = -1/2 lambda^T A A^T lambda - lambda^T b

and the primal recovered through ``delta = A^T lambda``.  The solver is the
dual method of Goldfarb and Idnani (Math. Programming 27, 1983) for the
identity Hessian: starting from ``delta = 0`` it adds the most violated row
and drops an active row whose multiplier would turn negative, so every step
keeps the multipliers dual feasible and ends on the exact optimal vertex.
Only the Gram matrix of the active rows (at most d of them) is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import SolverError
from .subproblem import Subproblem

# Add and drop steps allowed per solve; the method terminates in finitely
# many, so reaching this means rounding made it cycle.
_MAX_STEPS = 100_000
# A joining row whose squared distance from the span of the active rows is
# below this fraction of its squared norm counts as lying in that span.
_DEPENDENT_ROW = 1e-20
# A solve ends once every residual is at least -_EXIT_TOL * offset_scale.
_EXIT_TOL = 1e-10


class SolveStatus(Enum):
    CONVERGED = "converged"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class SolverConfig:
    """Pipeline settings around the dual active-set solver.

    ``screening_enabled`` turns on the 1-NN pipelines' pair prunes: the
    ``n_scr`` quick test and the post-build row test, which drop a target
    whose single-row bound already exceeds the incumbent.  The sorted stop
    does not depend on it, and qp-greedy ignores it.  The solver itself has
    no setting: its exit tolerance is relative to each subproblem's
    ``offset_scale``.
    """

    screening_enabled: bool = True


@dataclass(frozen=True)
class DualSolution:
    """Sparse nonnegative multiplier vector with solve diagnostics."""

    indices: np.ndarray     # rows with lambda > 0
    values: np.ndarray      # the corresponding multipliers
    objective: float
    iterations: int         # add and drop steps
    status: SolveStatus
    size: int               # m of the subproblem this was solved on

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def dense(self) -> np.ndarray:
        lam = np.zeros(self.size)
        lam[self.indices] = self.values
        return lam


def _gram_solve(N: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``N N^T x = rhs`` for the active rows N."""
    try:
        return np.linalg.solve(N @ N.T, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError("singular active set in the dual active-set solver") from exc


def solve_dual_gca(sp: Subproblem) -> DualSolution:
    """Solve the QP by the dual active-set method, starting from zero.

    While some row has residual below ``-_EXIT_TOL * sp.offset_scale``, the
    most violated row p joins: the primal moves along the part of ``a_p``
    orthogonal to the active rows, and when an active multiplier reaches
    zero first, that row is dropped and the move continues.  The exit bound
    has no unit, so scaling the data by s scales the solution by s.  If ``a_p`` lies in the span of the
    active rows and no active multiplier limits the move, the dual is
    unbounded and the status is ``INFEASIBLE``.  The multipliers are finally
    recomputed from the equality system of the active rows, which makes the
    returned vertex exact up to rounding.
    """
    A = sp.rows
    b = sp.offsets
    exit_residual = -_EXIT_TOL * sp.offset_scale
    delta = np.zeros(sp.d)
    active: list[int] = []
    u = np.zeros(0)          # multipliers of the active rows
    steps = 0
    status = SolveStatus.CONVERGED
    while status is SolveStatus.CONVERGED:
        s = A @ delta + b
        s[active] = np.inf
        p = int(np.argmin(s))
        if s[p] >= exit_residual:
            break
        u_p = 0.0
        while True:
            if steps == _MAX_STEPS:
                raise SolverError(f"dual active-set solver did not finish within {steps} steps")
            if active:
                N = A[active]
                r = _gram_solve(N, N @ A[p])  # multiplier change per unit step
                z = A[p] - N.T @ r            # primal direction
            else:
                r, z = u, A[p]
            zz = float(z @ z)
            blocking = np.flatnonzero(r > 0.0)
            ratios = u[blocking] / r[blocking]
            # d independent active rows span the space, whatever rounding left in z.
            if len(active) == sp.d or zz <= _DEPENDENT_ROW * sp.row_norms_sq[p]:
                if not blocking.size:
                    status = SolveStatus.INFEASIBLE
                    break
                t_full = np.inf
            else:
                t_full = -float(A[p] @ delta + b[p]) / zz
            steps += 1
            k = int(np.argmin(ratios)) if blocking.size else -1
            t = t_full if k < 0 or t_full <= ratios[k] else float(ratios[k])
            delta += t * z
            if not np.all(np.isfinite(delta)):
                raise SolverError("non-finite step in the dual active-set solver")
            u = np.maximum(u - t * r, 0.0)
            u_p += t
            if t == t_full:
                active.append(p)
                u = np.append(u, u_p)
                break
            drop = int(blocking[k])
            del active[drop]
            u = np.delete(u, drop)

    lam = np.zeros(sp.m)
    if active:
        lam[active] = _gram_solve(A[active], -b[active])
    if not np.all(np.isfinite(lam)):
        raise SolverError("non-finite multipliers in the dual active-set solver")
    idx = np.flatnonzero(lam > 0.0)
    vals = lam[idx]
    delta = A[idx].T @ vals
    return DualSolution(
        indices=idx, values=vals,
        objective=-0.5 * float(delta @ delta) - float(vals @ b[idx]),
        iterations=steps, status=status, size=sp.m,
    )


def recover_primal(sp: Subproblem, sol: DualSolution) -> np.ndarray:
    """Map a dual solution back to the perturbation: delta = A^T lambda."""
    if sol.indices.size == 0:
        return np.zeros(sp.d)
    return sp.rows[sol.indices].T @ sol.values


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
    The pass flag scales the feasibility tests by ``offset_scale`` and the
    gap by ``|D|``, with no absolute floor, so one unitless ``tol`` works at
    every data scale.
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
        and abs(gap) <= tol * abs(sol.objective)
    )
    return KktReport(primal_violation, comp_slack, gap, passed)
