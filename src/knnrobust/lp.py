"""Minimum-perturbation computation under the max and sum norms.

For one target, the least perturbation is ``min ||delta|| s.t. A delta + b >= 0``
under the max or the sum norm, a linear program.  It is solved as its dual
(Dantzig, Linear Programming and Extensions, 1963, ch. 6): minimize
``||A^T lambda||_*`` subject to ``-b . lambda = 1`` and ``lambda >= 0``, where
``||.||_*`` is the dual norm (the sum norm under the max norm, the max norm
under the sum norm).  Its optimum s is ``1/epsilon``, and every feasible
lambda bounds epsilon from below.  The dual norm is written as an LP: under
the max norm with ``p, n >= 0``, the d rows ``A^T lambda - p + n = 0`` and
the cost ``sum(p + n)``; under the sum norm with v, the 2d rows
``+-(A^T lambda)_k <= v`` and the cost v.  The tableau therefore has d + 1 or
2d + 1 rows whatever the number m of constraint rows.

The start basis puts all weight on the single row with the largest Hölder
bound ``max(-b, 0)/||a||_*`` (the pair bound of
``subproblem.pair_bound_block``), with one p or n column or slack per
coordinate, so it is feasible and its value is that bound.  Pricing follows Dantzig's rule (the most negative
reduced cost) and turns to Bland's rule during long runs of degenerate
pivots, where Dantzig's rule could cycle.  At the optimum the final basis is
solved once against the original rows for the simplex multipliers, which
are the perturbation up to the factor epsilon, so the returned values carry
the rounding of one solve, not of every pivot; a basic p, n or slack column
fixes its row's multiplier exactly, and only the rest form a system to
solve.  Each constraint row and then
the offsets are divided by powers of two, so the simplex sees the same
numbers at every power-of-two data scale and its one tolerance is relative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attack import DEFAULT_N_SCR, PerturbationCertificate, _one_nn
# knn_predict and build_1nn_subproblem are not called here, but they stay
# bound in lp: the benchmark's tracer rebinds lp.<name>.
from .data import Dataset, Query, knn_predict  # noqa: F401
from .errors import SolverError
from .qp_solver import SolverConfig
from .subproblem import Subproblem, build_1nn_subproblem  # noqa: F401

_PIVOT_EPS = 1e-10
# Pricing turns from Dantzig's rule to Bland's after this many degenerate
# pivots in a row, and back at the first pivot that is not degenerate.
_DEGENERATE_RUN = 10
# Each run of Dantzig pivots ends on a pivot that lowers the cost, or hands
# over to Bland's rule, which cannot cycle; so this only stops a run that
# rounding has stalled.
_MAX_PIVOTS = 50_000


@dataclass(frozen=True)
class DualLp:
    """minimize cost @ x over x >= 0 subject to matrix @ x = rhs.

    The first m columns are lambda, one per scaled constraint row; the last
    row is ``-beta' . lambda = 1`` and the others write the dual norm (see
    the module docstring).  ``beta'`` is b' divided by ``scale``, so the
    optimum s gives ``epsilon = scale / s``.  ``basis`` is a feasible start
    basis, listed by row: a column with one nonzero entry (``unit_rows``
    names its row) is listed at that row.
    """

    matrix: np.ndarray      # (d + 1, m + 2d) under linf, (2d + 1, m + 2d + 1) under l1
    rhs: np.ndarray         # (rows,): 0, then 1 in the last row
    cost: np.ndarray        # (columns,)
    basis: np.ndarray       # (rows,) column indices
    # Per column, the row of its one nonzero entry, +-1 (p, n and slack
    # columns), or -1 where it has more (lambda's and v).
    unit_rows: np.ndarray
    scale: float            # 2^c, the divisor of the offsets
    norm: str               # "linf" or "l1"


def _scaled(sp: Subproblem) -> tuple[np.ndarray, np.ndarray, float]:
    """Row i divided by 2^floor(log2 max|a_i|), then every offset by
    2^c = 2^floor(log2 max|b'|); dividing by a power of two is exact."""
    shift = 1 - np.frexp(np.abs(sp.rows).max(axis=1))[1]
    rows = np.ldexp(sp.rows, shift[:, None])
    offsets = np.ldexp(sp.offsets, shift)
    c = int(np.frexp(np.abs(offsets).max())[1]) - 1
    return rows, np.ldexp(offsets, -c), float(np.ldexp(1.0, c))


def _start_row(beta: np.ndarray, dual_norms: np.ndarray) -> int:
    """The row with the largest Hölder bound ``max(-beta, 0)/||a||_*``."""
    bounds = np.maximum(-beta, 0.0) / dual_norms
    i = int(bounds.argmax())
    if not bounds[i] > 0.0:
        raise SolverError("no row has b < 0: delta = 0 meets every row")
    return i


def _rhs(r: int) -> np.ndarray:
    rhs = np.zeros(r)
    rhs[-1] = 1.0
    return rhs


def build_linf_lp(sp: Subproblem) -> DualLp:
    """The max-norm dual: minimize sum(p + n) subject to
    ``A'^T lambda - p + n = 0`` and ``-beta' . lambda = 1``.

    From the start row i, coordinate k is held by p_k where ``a'_ik >= 0``
    and by n_k otherwise."""
    rows, beta, scale = _scaled(sp)
    m, d = sp.m, sp.d
    eye = np.eye(d)
    matrix = np.zeros((d + 1, m + 2 * d))
    matrix[:d, :m] = rows.T
    matrix[:d, m:m + d] = -eye
    matrix[:d, m + d:] = eye
    matrix[d, :m] = -beta
    i = _start_row(beta, np.abs(rows).sum(axis=1))
    basis = np.arange(m, m + d + 1)
    basis[:d] += d * (rows[i] < 0.0)
    basis[d] = i
    cost = np.ones(m + 2 * d)
    cost[:m] = 0.0
    unit_rows = np.full(m + 2 * d, -1)
    unit_rows[m:] = np.tile(np.arange(d), 2)
    return DualLp(matrix, _rhs(d + 1), cost, basis, unit_rows, scale, "linf")


def build_l1_lp(sp: Subproblem) -> DualLp:
    """The sum-norm dual: minimize v subject to ``(A'^T lambda)_k - v + s_k = 0``,
    ``-(A'^T lambda)_k - v + s_{d+k} = 0`` and ``-beta' . lambda = 1``.

    From the start row i, v is held by the row of its largest ``|a'_ik|``
    (with the sign of ``a'_ik``) and every other row by its slack."""
    rows, beta, scale = _scaled(sp)
    m, d = sp.m, sp.d
    matrix = np.zeros((2 * d + 1, m + 1 + 2 * d))
    matrix[:d, :m] = rows.T
    matrix[d:2 * d, :m] = -rows.T
    matrix[:2 * d, m] = -1.0
    matrix[:2 * d, m + 1:] = np.eye(2 * d)
    matrix[2 * d, :m] = -beta
    i = _start_row(beta, np.abs(rows).max(axis=1))
    k = int(np.abs(rows[i]).argmax())
    basis = np.arange(m + 1, m + 2 * d + 2)
    basis[2 * d] = i
    basis[k if rows[i, k] > 0.0 else d + k] = m
    cost = np.zeros(m + 1 + 2 * d)
    cost[m] = 1.0
    unit_rows = np.full(m + 1 + 2 * d, -1)
    unit_rows[m + 1:] = np.arange(2 * d)
    return DualLp(matrix, _rhs(2 * d + 1), cost, basis, unit_rows, scale, "l1")


def _bland_leaving(tableau: np.ndarray, basis: np.ndarray, col: int) -> int | None:
    """Minimum-ratio row; ratios within ``_PIVOT_EPS`` of it tie, and the
    smallest basic index among them wins."""
    column = tableau[:-1, col]
    rows = (column > _PIVOT_EPS).nonzero()[0]
    if not rows.size:
        return None
    ratios = tableau[rows, -1] / column[rows]
    ties = rows[ratios - ratios.min() <= _PIVOT_EPS]
    return int(ties[basis[ties].argmin()])


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    pivot_row = tableau[row] / tableau[row, col]
    tableau -= tableau[:, col, None] * pivot_row
    tableau[row] = pivot_row


def _multipliers(lp: DualLp, basis: np.ndarray) -> np.ndarray:
    """y with ``y @ matrix[:, basis] = cost[basis]``.

    A basic column with one nonzero entry, +-1, fixes the multiplier of that
    entry's row exactly; the other basic columns (lambda's, and v) leave a
    smaller system for the other multipliers."""
    rows = lp.unit_rows[basis]
    single = rows >= 0
    fixed, fixing = rows[single], basis[single]
    y = np.zeros(lp.matrix.shape[0])
    y[fixed] = lp.cost[fixing] / lp.matrix[fixed, fixing]
    free = np.ones(y.size, dtype=bool)
    free[fixed] = False
    others = basis[~single]
    rest = lp.matrix[:, others]
    y[free] = np.linalg.solve(rest[free].T, lp.cost[others] - y @ rest)
    return y


def solve_lp(lp: DualLp) -> tuple[np.ndarray, float, int]:
    """Dense simplex from the program's start basis.

    The start basis enters the tableau without pricing: a column of it with
    one nonzero entry needs only its row multiplied by that entry, +-1, and
    each other one (lambda's, and v's under the sum norm) is pivoted in.
    The entering column then has the most negative reduced cost (Dantzig's
    rule).  After ``_DEGENERATE_RUN`` degenerate pivots in a row (the pivot
    row's right-hand side is within ``_PIVOT_EPS`` of 0) it is the first
    column with a negative reduced cost (Bland's rule), until a pivot is not
    degenerate.  The leaving row is always Bland's.  At the optimum the
    final basis is solved once for the simplex multipliers y, so that
    ``s = y[-1]``, ``epsilon = scale / s`` and delta is ``-y * epsilon``
    over the coordinate rows under the max norm, ``(y_- - y_+) * epsilon``
    over the two halves of them under the sum norm.

    Returns delta, epsilon (the norm that delta attains up to rounding) and
    the number of priced pivots.  Raises ``SolverError`` when the optimum is
    0 (no delta meets the rows; decided on the tableau's value, relative to
    the start's, before the final solve), when a column of negative reduced
    cost has no pivot row (only rounding can do that: the cost is a norm),
    or when ``_MAX_PIVOTS`` pivots do not reach the optimum.
    """
    r, cols = lp.matrix.shape
    # The last row holds the reduced costs and minus the value.
    tableau = np.zeros((r + 1, cols + 1))
    tableau[:-1, :-1] = lp.matrix
    tableau[:-1, -1] = lp.rhs
    basis = lp.basis.copy()
    single = lp.unit_rows[basis] >= 0
    tableau[:-1] *= np.where(single, lp.matrix[np.arange(r), basis], 1.0)[:, None]
    for row in (~single).nonzero()[0]:
        _pivot(tableau[:-1], row, basis[row])
    tableau[-1, :-1] = lp.cost
    tableau[-1] -= lp.cost[basis] @ tableau[:-1]
    start_value = -tableau[-1, -1]
    pivots = degenerate = 0
    costs = tableau[-1, :-1]
    while True:
        col = int(costs.argmin())
        if costs[col] >= -_PIVOT_EPS:
            break
        if pivots == _MAX_PIVOTS:
            raise SolverError(f"no optimum after {_MAX_PIVOTS} pivots")
        if degenerate >= _DEGENERATE_RUN:
            col = int((costs < -_PIVOT_EPS).argmax())
        row = _bland_leaving(tableau, basis, col)
        if row is None:
            raise SolverError("a column of negative reduced cost has no pivot row")
        degenerate = degenerate + 1 if tableau[row, -1] <= _PIVOT_EPS else 0
        _pivot(tableau, row, col)
        basis[row] = col
        pivots += 1
    if not -tableau[-1, -1] > _PIVOT_EPS * start_value:
        raise SolverError("the optimum is 0: no perturbation meets the rows")
    # The tableau carries the rounding of every pivot; one solve of the final
    # basis against the original rows starts afresh from the exact data.
    y = _multipliers(lp, basis)
    epsilon = lp.scale / y[-1]
    if lp.norm == "linf":
        return -y[:-1] * epsilon, epsilon, pivots
    d = (r - 1) // 2
    return (y[d:-1] - y[:d]) * epsilon, epsilon, pivots


def exact_1nn_lp(ds: Dataset, q: Query, norm: str = "linf", *,
                 cfg: SolverConfig = SolverConfig(), n_scr: int = DEFAULT_N_SCR,
                 sort_candidates: bool = True, tie=None) -> PerturbationCertificate:
    """Exact minimum perturbation of 1-NN under the max or sum norm.

    The candidate loop of ``exact_1nn`` with one LP per target.  Its pair
    bounds carry over through Hölder's inequality: a row forces
    ``||delta|| >= max(-b, 0)/||a||_*`` in the dual norm (the sum norm under
    the max norm, the max norm under the sum norm), so the targets are
    ordered and pruned by their ``n_scr``-row block bounds in that norm, or
    by their reach without ``cfg.screening_enabled`` (``attack._one_nn``).
    ``tie`` is ignored; it stays for callers that pass it.
    """
    if norm not in ("linf", "l1"):
        raise ValueError(f"norm must be 'linf' or 'l1', got {norm!r}")
    method = f"exact-{norm}"

    def solve(sp: Subproblem, stats) -> tuple[np.ndarray, float, int]:
        try:
            solved = solve_lp(build_linf_lp(sp) if norm == "linf" else build_l1_lp(sp))
        except SolverError as err:
            raise SolverError(f"{method}: LP for target {int(sp.targets[0])}: {err}") from err
        stats.subproblems_solved += 1
        stats.solver_iterations += solved[2]
        return solved

    return _one_nn(ds, q, method, norm, solve, cfg, n_scr, sort_candidates, None)
