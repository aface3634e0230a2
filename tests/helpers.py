"""Independent brute-force oracles used to freeze expected values.

Nothing here shares code paths with the solvers under test: the exact 1-NN
reference goes through active-set enumeration per target, the 1-D reference
scans perturbation magnitudes densely, the K-NN verifier reference measures
distances to bisecting hyperplanes and sorts, the vote reference sorts and
counts, the line-search references recompute every distance at each probe
or pair crossing, and the LP references enumerate the vertices of the plain
min-norm LP, or run a simplex on its primal homogenized form, not on the dual
program that ``solve_lp`` runs: in exact rational arithmetic, or in floats
for programs too large for that.
"""

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from knnrobust import (
    Dataset,
    DualSolution,
    InfeasibleSubproblemError,
    Query,
    SolveStatus,
    Subproblem,
    build_1nn_subproblem,
    knn_predict,
)
from knnrobust.data import _TIE_REL_TOL

GRID = np.arange(-5, 6)
# The acceptance corpus: CORPUS_SIZE random_grid_dataset draws from this seed.
CORPUS_SEED = 20240501
CORPUS_SIZE = 500


def random_grid_dataset(rng, max_n=12, max_d=3, classes=(2, 3)):
    """Small dataset with distinct integer-grid points and a good query.

    Points are sampled without replacement from the [-5, 5]^d lattice, so no
    two points (in particular none across classes) coincide.  The returned
    query is an integer grid point correctly classified at K=1 and, when the
    class sizes allow it, at K=3 and K=5 as well.
    """
    while True:
        d = int(rng.integers(1, max_d + 1))
        cells = GRID.size ** d
        n = int(rng.integers(4, min(max_n, cells - 1) + 1))
        class_count = int(rng.choice(classes))
        flat = rng.choice(cells, size=n + 1, replace=False)
        coords = np.stack(np.unravel_index(flat, (GRID.size,) * d), axis=1)
        points = GRID[coords].astype(np.float64)
        labels = rng.integers(1, class_count + 1, size=n)
        if np.unique(labels).size < 2:
            continue
        ds = Dataset(points[:n], labels, class_count)
        z = points[n]
        ks = [1]
        for k in (3, 5):
            order = (k + 1) // 2
            counts = [np.count_nonzero(labels == c) for c in range(1, class_count + 1)]
            if k <= n and min(counts) >= order and (n - max(counts)) >= order:
                ks.append(k)
        true = knn_predict(ds, z, 1)
        ok = all(knn_predict(ds, z, k, true_label=true) == true for k in ks)
        if not ok:
            continue
        return ds, Query(z, true), ks


def active_set_oracle(
    sp: Subproblem, max_rows: int = 16, max_dim: int = 6
) -> tuple[np.ndarray, DualSolution]:
    """Exact reference solver by enumerating candidate active sets.

    For every subset S of constraint rows with |S| <= min(m, d), solve the
    equality-constrained minimum-norm problem by dense linear algebra, keep
    the candidates whose induced multipliers are nonnegative and whose delta
    satisfies all constraints, and return the best KKT point found.  Cost
    grows combinatorially, hence the size guards.
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
    primal = A.T @ lam_dense
    sol = DualSolution(
        indices=idx, values=vals,
        objective=-0.5 * float(primal @ primal) - float(lam_dense @ b),
        iterations=0, status=SolveStatus.CONVERGED, size=m,
    )
    return delta, sol


def knn_predict_reference(ds: Dataset, z: np.ndarray, k: int,
                          true_label: int | None = None) -> int:
    """K-NN vote under the attacker-favorable tie rule, by sorting and counting.

    Points within the tie window of the K-th squared distance are tied.
    Without ``true_label`` the tied points fill the free slots in (distance,
    index) order and a vote tie goes to the smallest label.  With it, the
    tied points are assigned so that the prediction leaves ``true_label``
    whenever some assignment does, preferring the label with most votes and
    then the smallest one.
    """
    dist_sq = ds.distances_sq(z)
    order = np.argsort(dist_sq, kind="stable")
    kth = dist_sq[order[k - 1]]
    window = _TIE_REL_TOL * kth
    strict = order[dist_sq[order] < kth - window]
    tied = order[np.abs(dist_sq[order] - kth) <= window]
    slots = k - strict.size

    fixed = Counter(int(ds.labels[i]) for i in strict)
    avail = Counter(int(ds.labels[i]) for i in tied)

    if true_label is None:
        for i in tied[:slots]:
            fixed[int(ds.labels[i])] += 1
        best = max(fixed.values())
        return min(label for label, c in fixed.items() if c == best)

    other_avail = sum(c for label, c in avail.items() if label != true_label)
    true_votes = fixed.get(true_label, 0) + max(0, slots - other_avail)
    best_label = None
    best_votes = -1
    for label in sorted(set(fixed) | set(avail)):
        if label == true_label:
            continue
        votes = fixed.get(label, 0) + min(avail.get(label, 0), slots)
        if votes >= true_votes and votes > best_votes:
            best_label, best_votes = label, votes
    return best_label if best_label is not None else true_label


def line_flip_reference(ds: Dataset, q: Query, k: int, direction: np.ndarray,
                        extend: bool = False) -> float | None:
    """The baselines' former line search along z + t*direction, probing with ``knn_predict``.

    Each probe recomputes every distance at the probed point.  The search
    starts at t = 1; with ``extend`` it doubles t up to 2**20 until the
    prediction flips.  It then bisects the last bracket to 1e-9 and returns
    its upper end, or None when no probed t flips.  The returned t flips, so
    the first flip on the ray is never later: this is an upper bound on
    ``ray_flip_reference``, which can be far below it when the vote flips
    and flips back between probes.
    """
    def flips(t):
        return knn_predict(ds, q.z + t * direction, k, true_label=q.true_label) != q.true_label

    hi = 1.0
    while not flips(hi):
        if not extend or 2.0 * hi > 2.0 ** 20:
            return None
        hi *= 2.0
    lo = 0.0 if hi == 1.0 else hi / 2.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if flips(mid):
            hi = mid
        else:
            lo = mid
    return hi


def ray_flip_reference(ds: Dataset, q: Query, k: int, direction: np.ndarray,
                       t_cap: float) -> float | None:
    """First t in (0, t_cap] at which ``knn_predict`` flips along z + t*direction, or None.

    The ray analogue of ``min_flip_1d``: along the ray the K-NN ranking only
    changes where two points are equally far, and with the attacker-favorable
    tie rule a flip that happens at all happens exactly there.  Every pair's
    crossing time is taken in difference form,
    ``(x_i - x_j).((z - x_i) + (z - x_j)) / (2u.(x_j - x_i))``, and the
    crossings are checked in ascending order at the recomputed point.
    """
    z, u = q.z, np.asarray(direction, dtype=np.float64)
    times = set()
    for i, j in itertools.combinations(range(ds.n), 2):
        gap = ds.points[i] - ds.points[j]
        rate = -2.0 * float(u @ gap)
        if rate != 0.0:
            t = float(gap @ ((z - ds.points[i]) + (z - ds.points[j]))) / rate
            if 0.0 < t <= t_cap:
                times.add(t)
    for t in sorted(times):
        if knn_predict(ds, z + t * u, k, true_label=q.true_label) != q.true_label:
            return t
    return None


def brute_force_exact_1nn(ds: Dataset, q: Query) -> float:
    """Minimum over targets of the active-set reference optimum."""
    best = np.inf
    for j in np.flatnonzero(ds.labels != q.true_label):
        sp = build_1nn_subproblem(ds, q, int(j))
        delta, _ = active_set_oracle(sp)
        best = min(best, float(np.linalg.norm(delta)))
    return best


def knn_pair_bound_reference(ds: Dataset, q: Query, inner: int, outer: int) -> float:
    """Order-statistic pair bound B(inner, outer), computed from scratch.

    The pair bound of a same-class point i and an other-class point j is the
    distance from z to their bisecting hyperplane, zero when z is already on
    the side of j: ``max(0, (x_i - x_j).(z - (x_i + x_j)/2)) / ||x_i - x_j||``.
    B(inner, outer) is the ``outer``-th smallest, over j, of the
    ``inner``-th largest pair bound over i.  The verifier's K-NN bound is
    B(r, r) with r = (K+1)/2.  Raising ``inner`` can only lower B (each
    target gets cheaper) and raising ``outer`` can only raise it (more
    targets are needed).
    """
    xs = ds.points[ds.labels == q.true_label]
    xo = ds.points[ds.labels != q.true_label]
    diff = xs[:, None, :] - xo[None, :, :]
    mid = 0.5 * (xs[:, None, :] + xo[None, :, :])
    signed = np.einsum("ijd,ijd->ij", diff, q.z[None, None, :] - mid)
    bounds = np.maximum(signed, 0.0) / np.linalg.norm(diff, axis=2)
    per_target = -np.sort(-bounds, axis=0)[inner - 1]
    return float(np.sort(per_target)[outer - 1])


def knn_pair_bound_exact_sq(ds: Dataset, q: Query, inner: int, outer: int) -> Fraction:
    """The square of B(inner, outer) of ``knn_pair_bound_reference``, in exact arithmetic.

    Every coordinate is taken as the rational number its float stores, so
    no cancellation occurs: a pair's squared bound is
    ``max(0, n)^2 / (4 ||x_i - x_j||^2)`` with
    ``n = (x_i - x_j).((z - x_i) + (z - x_j))``, and squares order the
    nonnegative bounds as the bounds themselves.
    """
    exact = [[Fraction(float(v)) for v in row] for row in ds.points]
    z = [Fraction(float(v)) for v in q.z]
    same = [i for i in range(ds.n) if ds.labels[i] == q.true_label]
    per_target = []
    for j in (j for j in range(ds.n) if ds.labels[j] != q.true_label):
        squares = []
        for i in same:
            gap = [a - b for a, b in zip(exact[i], exact[j])]
            numer = sum(g * ((c - a) + (c - b)) for g, c, a, b in zip(gap, z, exact[i], exact[j]))
            norm_sq = sum(g * g for g in gap)
            squares.append(numer * numer / (4 * norm_sq) if numer > 0 else Fraction(0))
        per_target.append(sorted(squares, reverse=True)[inner - 1])
    return sorted(per_target)[outer - 1]


def min_flip_1d(ds: Dataset, q: Query, k: int, hi: float) -> float:
    """Exact smallest flipping magnitude in 1-D by breakpoint enumeration.

    Along a line the K-NN ranking only changes at pair midpoints, and with
    the attacker-favorable tie rule a flip that happens at all happens
    exactly at such a midpoint.  Checking every midpoint (both directions)
    is therefore an exact, solver-independent reference.
    """
    assert ds.d == 1
    xs = ds.points[:, 0]
    z = float(q.z[0])
    mids = {(a + b) / 2.0 for i, a in enumerate(xs) for b in xs[i + 1:]}
    best = np.inf
    for mid in mids:
        t = abs(mid - z)
        if 0 < t <= hi and t < best:
            if knn_predict(ds, np.array([mid]), k, true_label=q.true_label) != q.true_label:
                best = t
    return best


def no_flip_below_1d(ds: Dataset, q: Query, k: int, radius: float, step: float = 1e-4) -> bool:
    """True iff no perturbation magnitude below ``radius`` flips the prediction.

    Dense grid sweep, vectorized with a plain majority count; the rare grid
    point that fails the quick count (e.g. a distance tie hit exactly) is
    re-checked with the exact tie-aware prediction.
    """
    assert ds.d == 1
    ts = np.arange(step, radius, step)
    if ts.size == 0:
        return True
    z_batch = np.concatenate([q.z[0] + ts, q.z[0] - ts])[:, None]
    dist_sq = (z_batch - ds.points[:, 0][None, :]) ** 2
    nearest = np.argpartition(dist_sq, k - 1, axis=1)[:, :k]
    votes = (ds.labels[nearest] == q.true_label).sum(axis=1)
    for row in np.flatnonzero(votes < (k + 1) // 2):
        if knn_predict(ds, z_batch[row], k, true_label=q.true_label) != q.true_label:
            return False
    return True


def preserved_fraction(ds: Dataset, true_label: int, z_batch: np.ndarray, k: int) -> float:
    """Fraction of perturbed queries still predicted as ``true_label``.

    Simple vote counting without tie handling; callers use random radii
    where exact ties have probability zero.
    """
    diff = z_batch[:, None, :] - ds.points[None, :, :]
    dist_sq = np.einsum("qnd,qnd->qn", diff, diff)
    nearest = np.argpartition(dist_sq, k - 1, axis=1)[:, :k]
    votes = (ds.labels[nearest] == true_label).sum(axis=1)
    return float(np.mean(votes >= (k + 1) // 2))


@dataclass(frozen=True)
class MinNormLp:
    """min objective . x subject to ``matrix @ x (relation) rhs`` and lower <= x <= upper."""

    objective: np.ndarray
    matrix: np.ndarray
    relations: tuple[str, ...]     # >= or <= per row
    rhs: np.ndarray
    lower: np.ndarray              # -inf allowed
    upper: np.ndarray              # +inf allowed


def min_norm_lp(sp: Subproblem, norm: str) -> MinNormLp:
    """``min ||delta|| s.t. A delta + b >= 0`` as a plain LP, without homogenization.

    Max norm: variables (delta_1..delta_d, v), minimize v with
    ``-v <= delta_i <= v``.  Sum norm: split variables (pos, neg) >= 0 with
    delta = pos - neg, minimize ``sum(pos + neg)``.
    """
    d = sp.d
    if norm == "l1":
        return MinNormLp(np.ones(2 * d), np.hstack([sp.rows, -sp.rows]), (">=",) * sp.m,
                         -sp.offsets, np.zeros(2 * d), np.full(2 * d, np.inf))
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
    return MinNormLp(objective, matrix, (">=",) * sp.m + ("<=", ">=") * d, rhs,
                     lower, np.full(d + 1, np.inf))


def lp_vertex_minimum(lp: MinNormLp) -> float | None:
    """Brute-force LP optimum by enumerating basic feasible points.

    Valid when the feasible region contains no line and the objective is
    bounded below on it: a minimum then sits at a vertex.  Both forms of
    ``min_norm_lp`` qualify (``v >= |delta_i|`` for the max norm,
    ``pos, neg >= 0`` for the sum norm).  Returns None when no vertex is
    feasible.
    """
    p = lp.objective.size
    planes = [(np.asarray(row), float(rhs)) for row, rhs in zip(lp.matrix, lp.rhs)]
    for kvar in range(p):
        for bound in (lp.lower[kvar], lp.upper[kvar]):
            if np.isfinite(bound):
                e = np.zeros(p)
                e[kvar] = 1.0
                planes.append((e, float(bound)))

    def feasible(x):
        for row, rel, rhs in zip(lp.matrix, lp.relations, lp.rhs):
            v = float(row @ x)
            if rel == ">=" and v < rhs - 1e-9:
                return False
            if rel == "<=" and v > rhs + 1e-9:
                return False
        return bool(np.all(x >= lp.lower - 1e-9) and np.all(x <= lp.upper + 1e-9))

    best = None
    for combo in itertools.combinations(range(len(planes)), p):
        a = np.stack([planes[i][0] for i in combo])
        b = np.array([planes[i][1] for i in combo])
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if feasible(x):
            val = float(lp.objective @ x)
            if best is None or val < best:
                best = val
    return best


@dataclass(frozen=True)
class HomogenizedLp:
    """maximize mu' over y = (p, n, mu') >= 0 subject to matrix @ y <= rhs.

    The Charnes-Cooper form of ``min ||delta|| s.t. A delta + b >= 0``
    (Naval Res. Logist. Q. 9, 1962), with ``w = p - n``: the first rows are
    ``-A' w - mu' b'' <= 0`` for the scaled rows, the rest the norm rows
    (``p_k + n_k <= 1`` per coordinate under the max norm, ``sum(p + n) <= 1``
    under the sum norm).  ``mu'`` is ``mu`` times ``scale``, so the
    perturbation is ``(p - n) * scale / mu'`` and its norm ``scale / mu'``.
    """

    matrix: np.ndarray      # (m + norm rows, 2d + 1)
    rhs: np.ndarray         # 0 for the constraint rows, 1 for the norm rows
    scale: float            # 2^c, the divisor of mu's column


def homogenized_lp(sp: Subproblem, norm: str) -> HomogenizedLp:
    """Row i divided by 2^floor(log2 max|a_i|), then mu's column by
    2^c = 2^floor(log2 max|b'|), as ``solve_lp``'s programs are scaled."""
    d = sp.d
    if norm == "linf":
        norm_rows = np.hstack([np.eye(d), np.eye(d), np.zeros((d, 1))])
    else:
        norm_rows = np.append(np.ones(2 * d), 0.0)[None, :]
    _, row_exp = np.frexp(np.max(np.abs(sp.rows), axis=1))
    rows = np.ldexp(sp.rows, 1 - row_exp[:, None])
    offsets = np.ldexp(sp.offsets, 1 - row_exp)
    c = int(np.frexp(np.max(np.abs(offsets)))[1]) - 1
    mu_column = -np.ldexp(offsets, -c)
    matrix = np.vstack([np.hstack([-rows, rows, mu_column[:, None]]), norm_rows])
    rhs = np.concatenate([np.zeros(sp.m), np.ones(norm_rows.shape[0])])
    return HomogenizedLp(matrix, rhs, float(np.ldexp(1.0, c)))


def homogenized_epsilon(program: HomogenizedLp) -> float:
    """Optimum epsilon = scale / mu' of a ``HomogenizedLp`` in floats.

    A single-phase simplex from the slack basis, with the most negative
    reduced cost entering and the lowest basic index among the minimum
    ratios leaving; the final basis is then solved once against the original
    rows.  For feasible, bounded programs that do not cycle, such as those
    of Gaussian data.
    """
    r, cols = program.matrix.shape
    tableau = np.zeros((r + 1, cols + r + 1))
    tableau[:-1, :cols] = program.matrix
    tableau[:-1, cols:-1] = np.eye(r)
    tableau[:-1, -1] = program.rhs
    tableau[-1, cols - 1] = -1.0            # minimize -mu'
    basis = np.arange(cols, cols + r)
    while tableau[-1, :-1].min() < -1e-10:
        col = int(np.argmin(tableau[-1, :-1]))
        rows = np.flatnonzero(tableau[:-1, col] > 1e-10)
        ratios = tableau[rows, -1] / tableau[rows, col]
        ties = rows[ratios - ratios.min() <= 1e-10]
        row = int(ties[np.argmin(basis[ties])])
        tableau[row] /= tableau[row, col]
        factors = tableau[:, col].copy()
        factors[row] = 0.0
        tableau -= np.outer(factors, tableau[row])
        basis[row] = col
    y = np.zeros(cols + r)
    y[basis] = np.linalg.solve(np.hstack([program.matrix, np.eye(r)])[:, basis], program.rhs)
    return program.scale / y[cols - 1]


def lp_rational_optimum(program) -> Fraction | None:
    """Exact optimum epsilon = scale / mu' of a ``HomogenizedLp``.

    A single-phase simplex from the slack basis in ``Fraction`` arithmetic,
    which holds every float entry exactly, with Bland's rule for both the
    entering column and the leaving row, so it cannot cycle.  Returns 0 when
    mu' is unbounded (delta = 0 meets every row) and None when its optimum
    is 0 (no perturbation meets the rows).
    """
    r, cols = program.matrix.shape
    tableau = [[Fraction(float(v)) for v in row]
               for row in np.hstack([program.matrix, np.eye(r), program.rhs[:, None]])]
    costs = [Fraction(0)] * (cols + r + 1)
    costs[cols - 1] = Fraction(-1)         # minimize -mu'
    basis = list(range(cols, cols + r))
    while True:
        col = next((k for k in range(cols + r) if costs[k] < 0), None)
        if col is None:
            break
        candidates = [i for i in range(r) if tableau[i][col] > 0]
        if not candidates:
            return Fraction(0)
        row = min(candidates, key=lambda i: (tableau[i][-1] / tableau[i][col], basis[i]))
        pivot = tableau[row][col]
        tableau[row] = [v / pivot for v in tableau[row]]
        for other in tableau[:row] + tableau[row + 1:] + [costs]:
            factor = other[col]
            if factor:
                other[:] = [v - factor * p for v, p in zip(other, tableau[row])]
        basis[row] = col
    mu = next((tableau[i][-1] for i in range(r) if basis[i] == cols - 1), Fraction(0))
    return Fraction(float(program.scale)) / mu if mu else None
