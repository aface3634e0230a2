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

from .attack import AttackStats, CertificateKind, PerturbationCertificate, _validated, _zero_certificate
from .data import DEFAULT_TIE_RULE, Dataset, Query, TieRule, knn_predict
from .errors import SolverError
from .subproblem import Subproblem, build_1nn_subproblem

_PIVOT_EPS = 1e-10

GEQ = ">="
LEQ = "<="
EQ = "="


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
        obj = np.asarray(self.objective, dtype=np.float64).ravel()
        mat = np.atleast_2d(np.asarray(self.matrix, dtype=np.float64))
        rhs = np.asarray(self.rhs, dtype=np.float64).ravel()
        lower = np.asarray(self.lower, dtype=np.float64).ravel()
        upper = np.asarray(self.upper, dtype=np.float64).ravel()
        p = obj.size
        if mat.shape != (rhs.size, p) or lower.size != p or upper.size != p:
            raise ValueError("inconsistent LP dimensions")
        if len(self.relations) != rhs.size:
            raise ValueError("one relation per constraint row required")
        if not all(rel in (GEQ, LEQ, EQ) for rel in self.relations):
            raise ValueError(f"bad relation in {self.relations}")
        for arr in (obj, mat, rhs):
            if not np.all(np.isfinite(arr)):
                raise ValueError("LP coefficients must be finite")
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "relations", tuple(self.relations))
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

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
    relations = []
    rhs = np.zeros(sp.m + 2 * d)
    matrix[: sp.m, :d] = sp.rows
    rhs[: sp.m] = -sp.offsets
    relations.extend([GEQ] * sp.m)
    for i in range(d):
        matrix[sp.m + 2 * i, i] = 1.0
        matrix[sp.m + 2 * i, d] = -1.0
        relations.append(LEQ)                      # delta_i - v <= 0
        matrix[sp.m + 2 * i + 1, i] = 1.0
        matrix[sp.m + 2 * i + 1, d] = 1.0
        relations.append(GEQ)                      # delta_i + v >= 0
    objective = np.zeros(d + 1)
    objective[d] = 1.0
    lower = np.full(d + 1, -np.inf)
    lower[d] = 0.0
    return LinearProgram(objective, matrix, tuple(relations), rhs,
                         lower, np.full(d + 1, np.inf))


def build_l1_lp(sp: Subproblem) -> LinearProgram:
    """Split variables (pos, neg) >= 0 with delta = pos - neg; minimize the sum."""
    d = sp.d
    matrix = np.hstack([sp.rows, -sp.rows])
    return LinearProgram(
        objective=np.ones(2 * d),
        matrix=matrix,
        relations=(GEQ,) * sp.m,
        rhs=-sp.offsets,
        lower=np.zeros(2 * d),
        upper=np.full(2 * d, np.inf),
    )


def _bland_entering(cost_row: np.ndarray) -> int | None:
    neg = np.flatnonzero(cost_row < -_PIVOT_EPS)
    return int(neg[0]) if neg.size else None


def _bland_leaving(tableau: np.ndarray, basis: list[int], col: int) -> int | None:
    column = tableau[:-1, col]
    rhs = tableau[:-1, -1]
    best_row = None
    best_ratio = None
    for row in np.flatnonzero(column > _PIVOT_EPS):
        ratio = rhs[row] / column[row]
        if (
            best_ratio is None
            or ratio < best_ratio - _PIVOT_EPS
            or (abs(ratio - best_ratio) <= _PIVOT_EPS and basis[row] < basis[best_row])
        ):
            best_ratio = ratio
            best_row = int(row)
    return best_row


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and abs(tableau[r, col]) > 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _run_simplex(tableau: np.ndarray, basis: list[int], cap: int) -> str:
    iterations = 0
    while True:
        col = _bland_entering(tableau[-1, :-1])
        if col is None:
            return "optimal"
        row = _bland_leaving(tableau, basis, col)
        if row is None:
            return "unbounded"
        _pivot(tableau, basis, row, col)
        iterations += 1
        if iterations > cap:
            return "iteration_cap"


def solve_lp(lp: LinearProgram, tol: float = 1e-9,
             max_iterations: int | None = None) -> LpResult:
    """Two-phase dense simplex with Bland's rule.

    Returns an optimal basic feasible solution, or a distinct status for
    infeasible and unbounded programs.  Hitting the iteration cap reports
    the current (feasible) point when one exists.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    p = lp.num_variables

    # Shift/flip/split variables so every simplex variable is >= 0.
    # columns[k] lists (column, sign); offsets[k] is the constant part.
    columns: list[list[tuple[int, float]]] = []
    offsets = np.zeros(p)
    extra_rows = []
    ncols = 0
    for k in range(p):
        lo, hi = lp.lower[k], lp.upper[k]
        if np.isfinite(lo):
            columns.append([(ncols, 1.0)])
            offsets[k] = lo
            if np.isfinite(hi):
                bound_row = np.zeros(p)
                bound_row[k] = 1.0
                extra_rows.append((bound_row, LEQ, hi))
            ncols += 1
        elif np.isfinite(hi):
            columns.append([(ncols, -1.0)])
            offsets[k] = hi
            ncols += 1
        else:
            columns.append([(ncols, 1.0), (ncols + 1, -1.0)])
            ncols += 2

    rows = [(lp.matrix[r], lp.relations[r], lp.rhs[r]) for r in range(len(lp.relations))]
    rows.extend(extra_rows)

    def to_std(coeffs: np.ndarray) -> tuple[np.ndarray, float]:
        out = np.zeros(ncols)
        shift = float(coeffs @ offsets)
        for k in range(p):
            for col, sign in columns[k]:
                out[col] += sign * coeffs[k]
        return out, shift

    std_rows = []
    std_rhs = []
    std_rels = []
    for coeffs, rel, rhs in rows:
        row, shift = to_std(np.asarray(coeffs, dtype=np.float64))
        b = float(rhs) - shift
        if b < 0:
            row = -row
            b = -b
            rel = {GEQ: LEQ, LEQ: GEQ, EQ: EQ}[rel]
        std_rows.append(row)
        std_rhs.append(b)
        std_rels.append(rel)

    r = len(std_rows)
    n_slack = sum(1 for rel in std_rels if rel != EQ)
    n_art = sum(1 for rel in std_rels if rel != LEQ)
    total = ncols + n_slack + n_art
    tableau = np.zeros((r + 1, total + 1))
    basis: list[int] = []
    slack_at = ncols
    art_at = ncols + n_slack
    art_cols = []
    for i in range(r):
        tableau[i, :ncols] = std_rows[i]
        tableau[i, -1] = std_rhs[i]
        if std_rels[i] == LEQ:
            tableau[i, slack_at] = 1.0
            basis.append(slack_at)
            slack_at += 1
        elif std_rels[i] == GEQ:
            tableau[i, slack_at] = -1.0
            slack_at += 1
            tableau[i, art_at] = 1.0
            basis.append(art_at)
            art_cols.append(art_at)
            art_at += 1
        else:
            tableau[i, art_at] = 1.0
            basis.append(art_at)
            art_cols.append(art_at)
            art_at += 1

    cap = max_iterations if max_iterations is not None else max(2000, 200 * (r + total))

    # Phase 1: drive the artificial variables to zero.
    if art_cols:
        tableau[-1, art_cols] = 1.0
        for i, bv in enumerate(basis):
            if bv in art_cols:
                tableau[-1] -= tableau[i]
        status = _run_simplex(tableau, basis, cap)
        if status == "iteration_cap":
            return LpResult("iteration_cap", None, None)
        if tableau[-1, -1] < -tol * max(1.0, float(np.max(np.abs(std_rhs))) if std_rhs else 1.0):
            return LpResult("infeasible", None, None)
        # Pivot basic artificials out; drop rows that are redundant.
        keep = np.ones(r, dtype=bool)
        for i in range(r):
            if basis[i] in art_cols and abs(tableau[i, -1]) <= tol:
                pivot_col = None
                for jcol in range(ncols + n_slack):
                    if abs(tableau[i, jcol]) > _PIVOT_EPS:
                        pivot_col = jcol
                        break
                if pivot_col is None:
                    keep[i] = False
                else:
                    _pivot(tableau, basis, i, pivot_col)
            elif basis[i] in art_cols:
                return LpResult("infeasible", None, None)
        if not np.all(keep):
            tableau = np.vstack([tableau[:-1][keep], tableau[-1]])
            basis = [bv for i, bv in enumerate(basis) if keep[i]]
            r = len(basis)
        tableau[:, art_cols] = 0.0

    # Phase 2 with the real objective.
    std_cost, cost_shift = to_std(lp.objective)
    tableau[-1, :] = 0.0
    tableau[-1, :ncols] = std_cost
    for i, bv in enumerate(basis):
        coeff = tableau[-1, bv]
        if abs(coeff) > 0.0:
            tableau[-1] -= coeff * tableau[i]
    status = _run_simplex(tableau, basis, cap)

    std_x = np.zeros(total)
    for i, bv in enumerate(basis):
        std_x[bv] = tableau[i, -1]
    x = offsets.copy()
    for k in range(p):
        for col, sign in columns[k]:
            x[k] += sign * std_x[col]
    objective = float(lp.objective @ x)
    if status == "unbounded":
        return LpResult("unbounded", None, None)
    if status == "iteration_cap":
        return LpResult("iteration_cap", x, objective)
    return LpResult("optimal", x, objective)


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
    stats = AttackStats()
    start = time.perf_counter()
    method = f"exact-{norm}"
    if knn_predict(ds, q.z, 1, tie, true_label=q.true_label) != q.true_label:
        stats.wall_time = time.perf_counter() - start
        return _zero_certificate(ds, method, stats)

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
        sp = build_1nn_subproblem(ds, q, int(j))
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
