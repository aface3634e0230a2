"""Minimum-perturbation computation under the max and sum norms.

For one target, the least perturbation is ``min ||delta|| s.t. A delta + b >= 0``
under the max or the sum norm, a linear program.  It is solved in the
homogenized form of Charnes and Cooper (Naval Res. Logist. Q. 9, 1962): with
``w = p - n`` and ``y = (p, n, mu) >= 0``, maximize ``mu`` subject to
``-A w - mu b <= 0`` and the norm rows, ``p_k + n_k <= 1`` for every k under
the max norm or ``sum(p + n) <= 1`` under the sum norm.  The optimum is
``mu = 1/epsilon`` at ``w = delta/epsilon``.  Every right-hand side is 0 or 1,
so the slack basis is feasible at the origin and a single simplex phase
with Bland's rule solves it.  Each constraint row and then ``mu``'s column
are divided by powers of two, so the simplex sees the same numbers at every
power-of-two data scale and its one tolerance is relative.  Problem sizes
are at most m + d rows by O(m + d) columns, so no sparse machinery is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attack import DEFAULT_N_SCR, CertificateKind, PerturbationCertificate, _one_nn
# knn_predict and build_1nn_subproblem are not called here, but they stay
# bound in lp: the benchmark's tracer rebinds lp.<name>.
from .data import DEFAULT_TIE_RULE, Dataset, Query, TieRule, knn_predict  # noqa: F401
from .errors import SolverError
from .qp_solver import SolverConfig
from .subproblem import Subproblem, build_1nn_subproblem  # noqa: F401

_PIVOT_EPS = 1e-10
# Bland's rule cannot cycle, so this only stops a run that rounding has stalled.
_MAX_PIVOTS = 50_000


@dataclass(frozen=True)
class HomogenizedLp:
    """maximize mu' over y = (p, n, mu') >= 0 subject to matrix @ y <= rhs.

    The first rows are the scaled constraints, with right-hand side 0; the
    rest are the norm rows, with right-hand side 1.  ``mu'`` is ``mu`` times
    ``scale``, so the perturbation is ``(p - n) * scale / mu'`` and its norm
    is at most ``scale / mu'``.
    """

    matrix: np.ndarray      # (m + norm rows, 2d + 1)
    rhs: np.ndarray         # (m + norm rows,)
    scale: float            # 2^c, the divisor of mu's column


def _homogenized(sp: Subproblem, norm_rows: np.ndarray) -> HomogenizedLp:
    """Row i divided by 2^floor(log2 max|a_i|), then mu's column by
    2^c = 2^floor(log2 max|b'|); dividing by a power of two is exact."""
    _, row_exp = np.frexp(np.max(np.abs(sp.rows), axis=1))
    rows = np.ldexp(sp.rows, 1 - row_exp[:, None])
    offsets = np.ldexp(sp.offsets, 1 - row_exp)
    c = int(np.frexp(np.max(np.abs(offsets)))[1]) - 1
    mu_column = -np.ldexp(offsets, -c)
    matrix = np.vstack([np.hstack([-rows, rows, mu_column[:, None]]), norm_rows])
    rhs = np.concatenate([np.zeros(sp.m), np.ones(norm_rows.shape[0])])
    return HomogenizedLp(matrix, rhs, float(np.ldexp(1.0, c)))


def build_linf_lp(sp: Subproblem) -> HomogenizedLp:
    """The homogenized max-norm program: one row p_k + n_k <= 1 per coordinate."""
    eye = np.eye(sp.d)
    return _homogenized(sp, np.hstack([eye, eye, np.zeros((sp.d, 1))]))


def build_l1_lp(sp: Subproblem) -> HomogenizedLp:
    """The homogenized sum-norm program: the one row sum(p + n) <= 1."""
    return _homogenized(sp, np.append(np.ones(2 * sp.d), 0.0)[None, :])


def _bland_leaving(tableau: np.ndarray, basis: np.ndarray, col: int) -> int | None:
    """Minimum-ratio row; ratios within ``_PIVOT_EPS`` of it tie, and the
    smallest basic index among them wins."""
    rows = np.flatnonzero(tableau[:-1, col] > _PIVOT_EPS)
    if not rows.size:
        return None
    ratios = tableau[rows, -1] / tableau[rows, col]
    ties = rows[ratios - ratios.min() <= _PIVOT_EPS]
    return int(ties[np.argmin(basis[ties])])


def solve_lp(lp: HomogenizedLp) -> tuple[np.ndarray, float, int]:
    """Dense simplex from the slack basis with Bland's rule.

    Returns the perturbation delta, the optimum epsilon = scale / mu' (the
    norm that delta attains up to rounding) and the number of pivots.
    Raises ``SolverError`` when mu' is unbounded (no row has b < 0, so
    delta = 0 already meets every row), when its optimum is 0 (no delta
    meets the rows), or when ``_MAX_PIVOTS`` pivots do not reach the optimum.
    """
    r, cols = lp.matrix.shape
    # Columns: p, n, mu', then one slack per row; the last row holds the
    # reduced costs of minimizing -mu'.
    tableau = np.zeros((r + 1, cols + r + 1))
    tableau[:-1, :cols] = lp.matrix
    tableau[:-1, cols:-1] = np.eye(r)
    tableau[:-1, -1] = lp.rhs
    tableau[-1, cols - 1] = -1.0
    basis = np.arange(cols, cols + r)
    pivots = 0
    while True:
        entering = np.flatnonzero(tableau[-1, :-1] < -_PIVOT_EPS)
        if not entering.size:
            break
        if pivots == _MAX_PIVOTS:
            raise SolverError(f"no optimum after {_MAX_PIVOTS} pivots")
        col = int(entering[0])
        row = _bland_leaving(tableau, basis, col)
        if row is None:
            raise SolverError("mu is unbounded: delta = 0 meets every row")
        tableau[row] /= tableau[row, col]
        factors = tableau[:, col].copy()
        factors[row] = 0.0
        tableau -= np.outer(factors, tableau[row])
        basis[row] = col
        pivots += 1
    y = np.zeros(cols + r)
    y[basis] = tableau[:-1, -1]
    mu = y[cols - 1]
    if not mu > 0.0:
        raise SolverError("the optimum of mu is 0: no perturbation meets the rows")
    d = (cols - 1) // 2
    epsilon = lp.scale / mu
    return (y[:d] - y[d:2 * d]) * epsilon, epsilon, pivots


def exact_1nn_lp(ds: Dataset, q: Query, norm: str = "linf", *,
                 cfg: SolverConfig = SolverConfig(), n_scr: int = DEFAULT_N_SCR,
                 sort_candidates: bool = True,
                 tie: TieRule = DEFAULT_TIE_RULE) -> PerturbationCertificate:
    """Exact minimum perturbation of 1-NN under the max or sum norm.

    The candidate loop of ``exact_1nn`` with one LP per target.  Its pair
    prunes carry over through Hölder's inequality: a row forces
    ``||delta|| >= max(-b, 0)/||a||_*`` in the dual norm (the sum norm under
    the max norm, the max norm under the sum norm).  The sorted stop is the
    l2 one, divided by sqrt(d) under the max norm.  ``cfg.screening_enabled``
    turns the pair prunes on and off.
    """
    if norm not in ("linf", "l1"):
        raise ValueError(f"norm must be 'linf' or 'l1', got {norm!r}")
    method = f"exact-{norm}"

    def solve(sp: Subproblem, stats) -> np.ndarray:
        program = build_linf_lp(sp) if norm == "linf" else build_l1_lp(sp)
        try:
            solved = solve_lp(program)
        except SolverError as err:
            raise SolverError(f"{method}: LP for target {sp.target_ids[0]}: {err}") from err
        stats.subproblems_solved += 1
        stats.solver_iterations += solved[2]
        return solved[0]

    return _one_nn(ds, q, method, CertificateKind.EXACT, norm, solve, cfg, n_scr,
                   sort_candidates, None, tie)
