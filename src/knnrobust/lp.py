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

import time
from dataclasses import dataclass

import numpy as np

from .attack import CertificateKind, PerturbationCertificate, _begin, _validated
# knn_predict is not called here, but it stays bound as lp.knn_predict:
# the benchmark's tracer rebinds that name.
from .data import DEFAULT_TIE_RULE, Dataset, Query, TieRule, knn_predict  # noqa: F401
from .errors import SolverError
from .subproblem import Subproblem, build_1nn_subproblem

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
                 tie: TieRule = DEFAULT_TIE_RULE) -> PerturbationCertificate:
    """Exact minimum perturbation of 1-NN under the max or sum norm.

    Same outer loop as the quadratic pipeline, with one LP per candidate
    target.  The quadratic screening rules would transfer through Hölder's
    inequality (a row forces ``||delta|| >= max(-b, 0)/||a||_*`` in the dual
    norm) but are not applied yet, so only the sorted-candidate early stop
    is kept, made conservative by the norm equivalence factor sqrt(d) in the
    max-norm case.
    """
    if norm not in ("linf", "l1"):
        raise ValueError(f"norm must be 'linf' or 'l1', got {norm!r}")
    method = f"exact-{norm}"
    stats, start, zero = _begin(ds, q, 1, tie, method)
    if zero is not None:
        return zero

    dist_sq = ds.distances_sq(q.z)
    same = ds.class_indices(q.true_label)
    others = np.flatnonzero(ds.labels != q.true_label)
    others = others[np.argsort(dist_sq[others], kind="stable")]
    d1 = float(np.sqrt(np.min(dist_sq[same])))
    shrink = 2.0 * np.sqrt(ds.d) if norm == "linf" else 2.0

    best_eps = np.inf
    best_delta = None
    for pos, j in enumerate(others):
        dj = float(np.sqrt(dist_sq[j]))
        if np.isfinite(best_eps) and (dj - d1) / shrink > best_eps:
            stats.subproblems_screened += len(others) - pos
            break
        sp = build_1nn_subproblem(ds, q, int(j), dist_sq=dist_sq)
        stats.subproblems_built += 1
        lp = build_linf_lp(sp) if norm == "linf" else build_l1_lp(sp)
        try:
            delta, eps, pivots = solve_lp(lp)
        except SolverError as err:
            raise SolverError(f"{method}: LP for target {j}: {err}") from err
        stats.subproblems_solved += 1
        stats.solver_iterations += pivots
        if eps < best_eps:
            best_eps, best_delta = eps, delta
    if best_delta is None:
        raise SolverError(f"{method}: no candidate produced a perturbation")
    stats.wall_time = time.perf_counter() - start
    return _validated(ds, q, best_delta, CertificateKind.EXACT, method, stats, 1, tie,
                      norm_ord=np.inf if norm == "linf" else 1)
