"""Dual active-set solver for the perturbation QPs.

Each subproblem is ``min 1/2 ||delta||^2  s.t.  A delta + b >= 0`` with dual

    max_{lambda >= 0}  D(lambda) = -1/2 lambda^T A A^T lambda - lambda^T b

and the primal recovered through ``delta = A^T lambda``.  The solver is the
dual method of Goldfarb and Idnani (Math. Programming 27, 1983) for the
identity Hessian: starting from ``delta = 0`` it adds the most violated row
and drops an active row whose multiplier would turn negative, so every step
keeps the multipliers dual feasible and ends on the exact optimal vertex.
Only the Gram matrix of the active rows (at most d of them) is ever formed.

The active set lives in buffers allocated once per solve: the active rows,
their row ids and their multipliers, in join order.  A join writes the next
slot and a drop shifts the tail down one slot, so the order is kept and no
step gathers rows or resizes an array.  The final multipliers are solved
from the active rows in that join order and only then ordered by row id;
solving them in row-id order would change their last bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.linalg import _umath_linalg

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

    ``screening_enabled`` makes the ``n_scr``-row block bound, not the reach,
    each 1-NN target's floor (``attack._one_nn``); qp-greedy ignores it.  The
    solver itself has no setting: its exit tolerance is relative to each
    subproblem's ``offset_scale``.
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


def _singular(err: str, flag: int) -> None:
    raise SolverError("singular active set in the dual active-set solver")


def _gram_solve(N: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``N N^T x = rhs`` for the active rows N.

    This is ``np.linalg.solve`` for one float64 right-hand side without its
    argument checks: the same LAPACK solve under the same error state, so
    the same bits, and an exactly singular Gram matrix raises.  The checks
    cost more than the solve of a system this small.
    """
    gram = N @ N.T
    with np.errstate(call=_singular, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        return _umath_linalg.solve1(gram, rhs, signature="dd->d")


def solve_dual_gca(sp: Subproblem) -> DualSolution:
    """Solve the QP by the dual active-set method, starting from zero.

    While some row has residual below ``-_EXIT_TOL * sp.offset_scale``, the
    most violated row p joins: the primal moves along the part of ``a_p``
    orthogonal to the active rows, and when an active multiplier reaches
    zero first, that row is dropped and the move continues.  The exit bound
    has no unit, so scaling the data by s scales the solution by s.  If ``a_p`` lies in the span of the
    active rows and no active multiplier limits the move, the dual is
    unbounded and the status is ``INFEASIBLE``.

    The active rows, their row ids and their multipliers live in buffers
    preallocated for at most ``min(m, d)`` rows, in join order: a join
    writes the next slot and a drop shifts the tail down one slot.  The
    multipliers are finally recomputed from the equality system of the
    active rows, solved in join order, which makes the returned vertex
    exact up to rounding; only then are they ordered by row id.
    """
    A = sp.rows
    b = sp.offsets
    exit_residual = -_EXIT_TOL * sp.offset_scale
    delta = np.zeros(sp.d)
    size = min(sp.m, sp.d)
    rows = np.empty((size, sp.d))    # active rows, in join order
    ids = np.empty(size, dtype=np.intp)
    u = np.empty(size)               # multipliers of the active rows
    q = 0                            # number of active rows
    s = np.empty(sp.m)               # residual A delta + b
    steps = 0
    status = SolveStatus.CONVERGED
    while status is SolveStatus.CONVERGED:
        np.matmul(A, delta, out=s)
        s += b
        s[ids[:q]] = np.inf
        p = int(s.argmin())
        if s[p] >= exit_residual:
            break
        a_p = A[p]
        u_p = 0.0
        while True:
            if steps == _MAX_STEPS:
                raise SolverError(f"dual active-set solver did not finish within {steps} steps")
            uq = u[:q]
            if q:
                N = rows[:q]
                r = _gram_solve(N, N @ a_p)  # multiplier change per unit step
                z = a_p - N.T @ r            # primal direction
            else:
                r, z = uq, a_p
            zz = float(z @ z)
            blocking = r > 0.0
            # d independent active rows span the space, whatever rounding left in z.
            if q == sp.d or zz <= _DEPENDENT_ROW * np.einsum("i,i->", a_p, a_p):
                if not blocking.any():
                    status = SolveStatus.INFEASIBLE
                    break
                t_full = np.inf
            else:
                t_full = -float(a_p @ delta + b[p]) / zz
            steps += 1
            k, t = -1, t_full
            if q:                            # active multipliers may block the step
                ratios = np.divide(uq, r, out=np.full(q, np.inf), where=blocking)
                k = int(ratios.argmin())
                if not t_full <= ratios[k]:
                    t = float(ratios[k])
            delta += t * z
            if not np.isfinite(delta).all():
                raise SolverError("non-finite step in the dual active-set solver")
            if q:
                uq -= t * r
                np.maximum(uq, 0.0, out=uq)
            u_p += t
            if t == t_full:
                rows[q], ids[q], u[q] = a_p, p, u_p
                q += 1
                break
            rows[k:q - 1], ids[k:q - 1], u[k:q - 1] = rows[k + 1:q], ids[k + 1:q], u[k + 1:q]
            q -= 1

    lam = _gram_solve(rows[:q], -b[ids[:q]]) if q else u[:0]
    if not np.all(np.isfinite(lam)):
        raise SolverError("non-finite multipliers in the dual active-set solver")
    order = np.argsort(ids[:q])
    idx, lam = ids[order], lam[order]
    keep = lam > 0.0
    idx, vals = idx[keep], lam[keep]
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
