"""Minimum-perturbation computation under the max and sum norms.

Each per-target constraint system turns into a small linear program:
minimize the box radius v with ``-v <= delta_i <= v`` for the max norm, or
split ``delta = pos - neg`` and minimize ``sum(pos + neg)`` for the sum
norm.  The solver is a dense two-phase simplex with Bland's anti-cycling
rule; problem sizes here are m rows by O(d) columns, so no sparse machinery
is needed.
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
_TOL = 1e-9                 # phase-1 infeasibility and artificial-row tolerance
# Pivot cap per phase: max(_CAP_FLOOR, _CAP_PER_LINE * (rows + columns)).
_CAP_FLOOR = 2000
_CAP_PER_LINE = 200

GEQ = ">="
LEQ = "<="
EQ = "="
_SLACK_SIGN = {LEQ: 1.0, GEQ: -1.0, EQ: 0.0}


@dataclass(frozen=True)
class LinearProgram:
    """min objective . x subject to rows and per-variable bounds."""

    objective: np.ndarray          # (p,)
    matrix: np.ndarray             # (r, p)
    relations: tuple[str, ...]     # one of >=, <=, = per row
    rhs: np.ndarray                # (r,)
    lower: np.ndarray              # (p,), -inf allowed
    upper: np.ndarray              # (p,), +inf allowed

    def __post_init__(self) -> None:
        for name in ("objective", "rhs", "lower", "upper"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64).ravel())
        object.__setattr__(self, "matrix", np.atleast_2d(np.asarray(self.matrix, dtype=np.float64)))
        p = self.objective.size
        if self.matrix.shape != (self.rhs.size, p) or self.lower.size != p or self.upper.size != p:
            raise ValueError("inconsistent LP dimensions")
        if len(self.relations) != self.rhs.size:
            raise ValueError("one relation per constraint row required")
        if not all(rel in (GEQ, LEQ, EQ) for rel in self.relations):
            raise ValueError(f"bad relation in {self.relations}")
        if not all(np.all(np.isfinite(a)) for a in (self.objective, self.matrix, self.rhs)):
            raise ValueError("LP coefficients must be finite")
        object.__setattr__(self, "relations", tuple(self.relations))

    @property
    def num_variables(self) -> int:
        return self.objective.size


@dataclass(frozen=True)
class LpResult:
    status: str                    # optimal / infeasible / unbounded / iteration_cap
    x: np.ndarray | None
    objective: float | None


def build_linf_lp(sp: Subproblem) -> LinearProgram:
    """Variables (delta_1..delta_d, v); minimize v with |delta_i| <= v."""
    d = sp.d
    matrix = np.zeros((sp.m + 2 * d, d + 1))
    rhs = np.zeros(sp.m + 2 * d)
    matrix[: sp.m, :d] = sp.rows
    rhs[: sp.m] = -sp.offsets
    # Two box rows per coordinate: delta_i - v <= 0, then delta_i + v >= 0.
    matrix[sp.m::2, :d] = np.eye(d)
    matrix[sp.m::2, d] = -1.0
    matrix[sp.m + 1::2, :d] = np.eye(d)
    matrix[sp.m + 1::2, d] = 1.0
    objective = np.zeros(d + 1)
    objective[d] = 1.0
    lower = np.full(d + 1, -np.inf)
    lower[d] = 0.0
    return LinearProgram(objective, matrix, (GEQ,) * sp.m + (LEQ, GEQ) * d, rhs,
                         lower, np.full(d + 1, np.inf))


def build_l1_lp(sp: Subproblem) -> LinearProgram:
    """Split variables (pos, neg) >= 0 with delta = pos - neg; minimize the sum."""
    d = sp.d
    return LinearProgram(np.ones(2 * d), np.hstack([sp.rows, -sp.rows]), (GEQ,) * sp.m,
                         -sp.offsets, np.zeros(2 * d), np.full(2 * d, np.inf))


def _bland_leaving(tableau: np.ndarray, basis: np.ndarray, col: int) -> int | None:
    """Minimum-ratio row; ratios within ``_PIVOT_EPS`` of it tie, and the
    smallest basic index among them wins."""
    rows = np.flatnonzero(tableau[:-1, col] > _PIVOT_EPS)
    if not rows.size:
        return None
    ratios = tableau[rows, -1] / tableau[rows, col]
    ties = rows[ratios - ratios.min() <= _PIVOT_EPS]
    return int(ties[np.argmin(basis[ties])])


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    basis[row] = col


def _run_simplex(tableau: np.ndarray, basis: np.ndarray, cap: int) -> str:
    """Bland's rule: the first column with a negative reduced cost enters."""
    for _ in range(cap + 1):
        entering = np.flatnonzero(tableau[-1, :-1] < -_PIVOT_EPS)
        if not entering.size:
            return "optimal"
        row = _bland_leaving(tableau, basis, int(entering[0]))
        if row is None:
            return "unbounded"
        _pivot(tableau, basis, row, int(entering[0]))
    return "iteration_cap"


def _subtract_rows(first: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``first - rows[0] - rows[1] - ...``, one subtraction at a time in row order."""
    return np.subtract.reduce(np.vstack([first, rows]), axis=0)


def solve_lp(lp: LinearProgram) -> LpResult:
    """Two-phase dense simplex with Bland's rule.

    Returns an optimal basic feasible solution, or a distinct status for
    infeasible and unbounded programs.  Hitting the iteration cap reports
    the current (feasible) point when one exists.
    """
    # Standard form x = offsets + T @ y with y >= 0, in variable order: a
    # finite lower bound shifts its variable, a lone upper bound flips it, and
    # a free variable splits into two adjacent columns.  Every column of T
    # holds a single +-1, so ``@ T`` only copies or negates entries.
    has_lo, has_hi = np.isfinite(lp.lower), np.isfinite(lp.upper)
    free = ~has_lo & ~has_hi
    width = 1 + free
    first = np.cumsum(width) - width
    T = np.zeros((lp.num_variables, int(width.sum())))
    T[np.arange(lp.num_variables), first] = np.where(has_hi & ~has_lo, -1.0, 1.0)
    T[free, first[free] + 1] = -1.0
    offsets = np.where(has_lo, lp.lower, np.where(has_hi, lp.upper, 0.0))
    boxed = has_lo & has_hi
    ncols = T.shape[1]

    # Rows: the constraints, then y_k <= upper - lower for each boxed
    # variable, each negated where its right-hand side is negative.  A row's
    # slack sign is +1 for <=, -1 for >= and 0 for =.
    rows = np.vstack([lp.matrix @ T, T[boxed]])
    rhs = np.concatenate([lp.rhs - lp.matrix @ offsets, lp.upper[boxed] - lp.lower[boxed]])
    slack_sign = np.array([_SLACK_SIGN[rel] for rel in lp.relations] + [1.0] * int(boxed.sum()))
    flip = np.where(rhs < 0, -1.0, 1.0)
    rows *= flip[:, None]
    rhs *= flip
    slack_sign *= flip

    # Columns: the variables, a slack per inequality row, then an artificial
    # per >= or = row.  The start basis is the slack of each <= row and the
    # artificial of every other row.
    r = rhs.size
    slack_rows, art_rows = np.flatnonzero(slack_sign), np.flatnonzero(slack_sign <= 0)
    art_start = ncols + slack_rows.size
    tableau = np.vstack([
        np.hstack([rows, np.diag(slack_sign)[:, slack_rows], np.eye(r)[:, art_rows], rhs[:, None]]),
        np.zeros((1, art_start + art_rows.size + 1)),
    ])
    basis = np.empty(r, dtype=np.intp)
    basis[slack_rows] = np.arange(ncols, art_start)
    basis[art_rows] = art_start + np.arange(art_rows.size)
    cap = max(_CAP_FLOOR, _CAP_PER_LINE * (r + tableau.shape[1] - 1))

    # Phase 1: drive the artificial variables to zero.
    if art_rows.size:
        tableau[-1, art_start:-1] = 1.0
        tableau[-1] = _subtract_rows(tableau[-1], tableau[art_rows])
        if _run_simplex(tableau, basis, cap) == "iteration_cap":
            return LpResult("iteration_cap", None, None)
        if tableau[-1, -1] < -_TOL * max(1.0, float(np.max(np.abs(rhs)))):
            return LpResult("infeasible", None, None)
        # Pivot basic artificials out, then delete the artificial columns
        # and the rows left redundant.
        keep = np.ones(r + 1, dtype=bool)
        for i in np.flatnonzero(basis >= art_start):
            if abs(tableau[i, -1]) > _TOL:
                return LpResult("infeasible", None, None)
            nonzero = np.flatnonzero(np.abs(tableau[i, :art_start]) > _PIVOT_EPS)
            if nonzero.size:
                _pivot(tableau, basis, i, int(nonzero[0]))
            else:
                keep[i] = False
        tableau = np.delete(tableau[keep], np.s_[art_start:-1], axis=1)
        basis = basis[keep[:-1]]

    # Phase 2 with the real objective.
    cost = np.zeros(tableau.shape[1])
    cost[:ncols] = lp.objective @ T
    tableau[-1] = _subtract_rows(cost, cost[basis, None] * tableau[:-1])
    status = _run_simplex(tableau, basis, cap)
    if status == "unbounded":
        return LpResult("unbounded", None, None)
    y = np.zeros(tableau.shape[1] - 1)
    y[basis] = tableau[:-1, -1]
    x = offsets + T @ y[:ncols]
    return LpResult(status, x, float(lp.objective @ x))


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
        result = solve_lp(lp)
        stats.subproblems_solved += 1
        if result.status != "optimal":
            raise SolverError(f"{method}: LP for target {j} returned {result.status}")
        if result.objective < best_eps:
            best_eps = result.objective
            if norm == "linf":
                best_delta = result.x[: ds.d]
            else:
                best_delta = result.x[: ds.d] - result.x[ds.d:]
    if best_delta is None:
        raise SolverError(f"{method}: no candidate produced a perturbation")
    stats.wall_time = time.perf_counter() - start
    return _validated(ds, q, best_delta, CertificateKind.EXACT, method, stats, 1, tie,
                      norm_ord=np.inf if norm == "linf" else 1)
