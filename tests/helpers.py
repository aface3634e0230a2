"""Independent brute-force oracles used to freeze expected values.

Nothing here shares code paths with the solvers under test: the exact 1-NN
reference goes through active-set enumeration per target, the 1-D reference
scans perturbation magnitudes densely, the K-NN verifier reference measures
distances to bisecting hyperplanes and sorts, the vote reference sorts and
counts, the line-search reference recomputes every distance at each probe,
and the LP reference enumerates vertices.
"""

import itertools
from collections import Counter

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
    """The baselines' line search along z + t*direction, probing with ``knn_predict``.

    Each probe recomputes every distance at the probed point.  The search
    starts at t = 1; with ``extend`` it doubles t up to 2**20 until the
    prediction flips.  It then bisects the last bracket to 1e-9 and returns
    its upper end, or None when no probed t flips.
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


def lp_vertex_minimum(lp) -> float | None:
    """Brute-force LP optimum by enumerating basic feasible points.

    Valid when the feasible region contains no line and the objective is
    bounded below on it: a minimum then sits at a vertex.  A bounded region
    qualifies, and so do the regions of both LP builders (``v >= |delta_i|``
    for the max norm, ``pos, neg >= 0`` for the sum norm).  Returns None when
    no vertex is feasible.
    """
    p = lp.num_variables
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
            if rel == "=" and abs(v - rhs) > 1e-9:
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
