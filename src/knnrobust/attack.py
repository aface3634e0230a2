"""Upper-bound pipelines: exact 1-NN minimum perturbation and attacks.

The exact pipeline sorts the candidate targets by distance, discards most of
them with cheap dual bounds before ever building their constraint systems,
and solves the survivors to their exact optimal vertex with the dual
active-set solver.  The greedy K-NN attack and the line-search baselines
reuse the same certificate type; every certificate carrying a perturbation
is validated against the classifier before being returned.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .data import DEFAULT_TIE_RULE, Dataset, Query, TieRule, knn_predict
from .errors import CertificationError, InfeasibleSubproblemError, SolverError
from .qp_solver import DualSolution, SolveStatus, SolverConfig, recover_primal, solve_dual_gca
from .subproblem import Subproblem, build_1nn_subproblem, build_knn_subproblem

DEFAULT_N_SCR = 8
_SUBSET_BUDGET = 50
_RAY_EXTENSION_CAP = 2.0 ** 20
# Backstop on the line search's events; it ends after at most (K + 1) times
# the number of line pairs in exact arithmetic.
_MAX_EVENTS = 100_000
# Relative window within which other lines count as tying a crossing.
_EVENT_TIE_TOL = 1e-9


class CertificateKind(Enum):
    EXACT = "exact"
    UPPER_BOUND = "upper_bound"
    LOWER_BOUND = "lower_bound"


@dataclass
class AttackStats:
    subproblems_built: int = 0
    subproblems_solved: int = 0
    subproblems_screened: int = 0
    solver_iterations: int = 0
    wall_time: float = 0.0


@dataclass(frozen=True)
class PerturbationCertificate:
    """A perturbation and/or bound value with provenance.

    For ``EXACT`` and ``UPPER_BOUND`` kinds the perturbation is present,
    its norm equals ``epsilon``, and (inflated by the tie rule) it flips
    the prediction.
    """

    delta: np.ndarray | None
    epsilon: float
    kind: CertificateKind
    method: str
    stats: AttackStats = field(default_factory=AttackStats)
    misclassified: bool = False


def is_adversarial(ds: Dataset, q: Query, delta: np.ndarray, k: int,
                   tie: TieRule = DEFAULT_TIE_RULE) -> bool:
    """True iff the perturbation changes the prediction.

    Checks the slightly inflated point (robust when the solution stops a
    hair short of a bisection) and the exact point (the attacker-favorable
    tie rule makes a perturbation of exactly the minimum radius flip; at
    degenerate optima with a tight bisection the query already clears,
    inflating can cross back, so the exact point must count too).
    """
    delta = np.asarray(delta, dtype=np.float64)
    inflated = q.z + (1.0 + tie.inflation) * delta
    if knn_predict(ds, inflated, k, tie, true_label=q.true_label) != q.true_label:
        return True
    return knn_predict(ds, q.z + delta, k, tie, true_label=q.true_label) != q.true_label


def _begin(ds: Dataset, q: Query, k: int, tie: TieRule, method: str
           ) -> tuple[AttackStats, float, PerturbationCertificate | None]:
    """Fresh stats, the start time, and the zero certificate if the query is misclassified."""
    stats = AttackStats()
    start = time.perf_counter()
    if knn_predict(ds, q.z, k, tie, true_label=q.true_label) == q.true_label:
        return stats, start, None
    stats.wall_time = time.perf_counter() - start
    return stats, start, PerturbationCertificate(
        delta=np.zeros(ds.d), epsilon=0.0, kind=CertificateKind.EXACT,
        method=method, stats=stats, misclassified=True,
    )


def _validated(ds: Dataset, q: Query, delta: np.ndarray, kind: CertificateKind,
               method: str, stats: AttackStats, k: int, tie: TieRule,
               norm_ord: float = 2) -> PerturbationCertificate:
    if not is_adversarial(ds, q, delta, k, tie):
        raise CertificationError(
            f"{method}: produced perturbation does not flip the {k}-NN prediction"
        )
    return _certificate(delta, kind, method, stats, norm_ord)


def _certificate(delta: np.ndarray, kind: CertificateKind, method: str,
                 stats: AttackStats, norm_ord: float = 2) -> PerturbationCertificate:
    """A certificate for a perturbation that ``is_adversarial`` has accepted."""
    return PerturbationCertificate(
        delta=delta, epsilon=float(np.linalg.norm(delta, ord=norm_ord)), kind=kind,
        method=method, stats=stats,
    )


def _pair_prune(neg_b: np.ndarray, norms_sq: np.ndarray, incumbent_sq: float) -> bool:
    """True iff one constraint row alone certifies a radius beyond the incumbent.

    Row ``a.delta + b >= 0`` forces ``||delta|| >= max(-b, 0)/||a||_*`` in
    any norm, with ``||.||_*`` its dual norm (Hölder's inequality; the dual
    of l2 is l2, of the max norm the sum norm and of the sum norm the max
    norm).  ``norms_sq`` holds the squared dual norms of the rows, and the
    comparison is made in squared form.  A zero row is a degenerate pair
    that proves nothing; the builder raises on it.
    """
    if norms_sq.min() == 0.0:
        return False
    return bool(np.any(incumbent_sq < np.square(np.maximum(neg_b, 0.0)) / norms_sq))


def _dual_norms_sq(a: np.ndarray, norm: str) -> np.ndarray:
    """Squared dual norms of the rows of ``a``, for ``_pair_prune`` under ``norm``."""
    if norm == "l2":
        return np.einsum("ij,ij->i", a, a)
    return np.square(np.linalg.norm(a, ord={"linf": 1, "l1": np.inf}[norm], axis=1))


def _check_n_scr(n_scr: int) -> None:
    if n_scr < 1:
        raise ValueError("n_scr must be >= 1")


def screen_subproblem(ds: Dataset, q: Query, j: int, incumbent_sq: float,
                      n_scr: int = DEFAULT_N_SCR) -> bool:
    """Cheap test discarding target j without building its full subproblem.

    Evaluates the single-coordinate dual value for the ``n_scr`` same-class
    points nearest the query; if any of them already certifies a radius
    beyond the incumbent attack, the subproblem cannot improve it.
    """
    _check_n_scr(n_scr)
    dist_sq = ds.distances_sq(q.z)
    same = ds.class_indices(q.true_label)
    nearest = same[np.argsort(dist_sq[same], kind="stable")[:n_scr]]
    a = ds.points[j] - ds.points[nearest]
    return _pair_prune(0.5 * (dist_sq[j] - dist_sq[nearest]),
                       np.einsum("ij,ij->i", a, a), incumbent_sq)


def _solve_candidate(sp: Subproblem, stats: AttackStats) -> tuple[np.ndarray, DualSolution]:
    """Solve, recover and feasibility-check one subproblem.

    Counts the solve and its steps.  Raises ``InfeasibleSubproblemError``
    when the constraint set is empty, and ``SolverError`` when the recovered
    perturbation violates a row.
    """
    sol = solve_dual_gca(sp)
    stats.subproblems_solved += 1
    stats.solver_iterations += sol.iterations
    if sol.status is SolveStatus.INFEASIBLE:
        raise InfeasibleSubproblemError("the subproblem's constraint set is empty")
    delta = recover_primal(sp, sol)
    if float(np.min(sp.residual(delta))) < -1e-6 * sp.offset_scale:
        raise SolverError("recovered perturbation violates the full constraint set")
    return delta, sol


def _solve_delta(sp: Subproblem, stats: AttackStats) -> np.ndarray:
    """``_one_nn``'s l2 solve: the least perturbation of ``sp``."""
    return _solve_candidate(sp, stats)[0]


def _one_nn(ds: Dataset, q: Query, method: str, kind: CertificateKind, norm: str,
            solve, cfg: SolverConfig, n_scr: int, sort_candidates: bool,
            candidate_limit: int | None, tie: TieRule) -> PerturbationCertificate:
    """The 1-NN candidate loop behind ``exact_1nn``, ``qp_top_m`` and ``exact_1nn_lp``.

    Targets are the other-class points, nearest first when ``sort_candidates``,
    cut to ``candidate_limit``.  ``solve(sp, stats)`` counts its solves and
    returns target ``sp``'s least perturbation.  The loop keeps the
    perturbation of least ``norm`` and validates the winner.  Once it has an
    incumbent, it skips targets too far out to win (the rest of the list when
    sorted), and when ``cfg.screening_enabled`` ``_pair_prune`` in the dual
    norm drops a target on its ``n_scr`` nearest same-class rows before the
    build, then on all its rows.
    """
    _check_n_scr(n_scr)
    stats, start, zero = _begin(ds, q, 1, tie, method)
    if zero is not None:
        return zero
    dist_sq = ds.distances_sq(q.z)
    same = ds.class_indices(q.true_label)
    others = np.flatnonzero(ds.labels != q.true_label)
    if sort_candidates:
        others = others[np.argsort(dist_sq[others], kind="stable")]
    if candidate_limit is not None:
        others = others[:candidate_limit]

    norm_ord = {"l2": 2, "linf": np.inf, "l1": 1}[norm]
    d1 = float(np.sqrt(np.min(dist_sq[same])))
    shrink = 2.0 * np.sqrt(ds.d) if norm == "linf" else 2.0
    scr_ids = same[np.argsort(dist_sq[same], kind="stable")[:n_scr]]
    x_scr = ds.points[scr_ids]
    dz2_scr = dist_sq[scr_ids]

    eps_best = np.inf
    delta_best: np.ndarray | None = None
    for pos, j in enumerate(others):
        dj = float(np.sqrt(dist_sq[j]))
        # No target farther out can certify below (dj - d1)/2 in l2 or l1, or
        # that over sqrt(d) in the max norm (||.||_1 >= ||.||_2 >= sqrt(d) ||.||_inf),
        # so once the incumbent beats that, sorted iteration can stop altogether.
        if np.isfinite(eps_best) and (dj - d1) / shrink > eps_best:
            if sort_candidates:
                stats.subproblems_screened += len(others) - pos
                break
            stats.subproblems_screened += 1
            continue
        screening = cfg.screening_enabled and np.isfinite(eps_best)
        if screening and _pair_prune(0.5 * (dist_sq[j] - dz2_scr),
                                     _dual_norms_sq(ds.points[j] - x_scr, norm),
                                     eps_best * eps_best):
            stats.subproblems_screened += 1
            continue
        sp = build_1nn_subproblem(ds, q, int(j), dist_sq=dist_sq)
        stats.subproblems_built += 1
        # The same test over every row.
        norms_sq = sp.row_norms_sq if norm == "l2" else _dual_norms_sq(sp.rows, norm)
        if screening and _pair_prune(-sp.offsets, norms_sq, eps_best * eps_best):
            stats.subproblems_screened += 1
            continue
        delta = solve(sp, stats)
        eps_j = float(np.linalg.norm(delta, ord=norm_ord))
        if eps_j < eps_best:
            eps_best, delta_best = eps_j, delta
    if delta_best is None:
        raise SolverError(f"{method}: no candidate subproblem produced a perturbation")
    stats.wall_time = time.perf_counter() - start
    return _validated(ds, q, delta_best, kind, method, stats, 1, tie, norm_ord)


def exact_1nn(ds: Dataset, q: Query, cfg: SolverConfig = SolverConfig(), *,
              n_scr: int = DEFAULT_N_SCR, sort_candidates: bool = True,
              tie: TieRule = DEFAULT_TIE_RULE) -> PerturbationCertificate:
    """Exact minimum adversarial perturbation of the 1-NN classifier.

    Sorts candidate targets by distance, screens those whose cheap dual
    bound already exceeds the incumbent, solves the survivors, and stops as
    soon as the remaining sorted candidates provably cannot win.  Queries the
    model already misclassifies get a zero certificate immediately.
    """
    return _one_nn(ds, q, "exact-1nn", CertificateKind.EXACT, "l2", _solve_delta, cfg,
                   n_scr, sort_candidates, None, tie)


def qp_top_m(ds: Dataset, q: Query, m: int, cfg: SolverConfig = SolverConfig(), *,
             n_scr: int = DEFAULT_N_SCR, tie: TieRule = DEFAULT_TIE_RULE) -> PerturbationCertificate:
    """Upper bound from solving only the m nearest target subproblems."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _one_nn(ds, q, f"qp-{m}", CertificateKind.UPPER_BOUND, "l2", _solve_delta,
                   cfg, n_scr, True, m, tie)


def _subset_candidates(sorted_ids: np.ndarray, dists: np.ndarray, size: int):
    """Yield index subsets in roughly ascending order of summed distance.

    Starts from the ``size`` nearest points and expands by single swaps,
    driven by a heap on the distance sum.
    """
    if sorted_ids.size < size:
        return
    first = tuple(range(size))
    heap = [(float(dists[list(first)].sum()), first)]
    seen = {first}
    while heap:
        total, positions = heapq.heappop(heap)
        yield sorted_ids[list(positions)]
        taken = set(positions)
        for slot in range(size):
            nxt = positions[slot] + 1
            while nxt in taken:
                nxt += 1
            if nxt >= sorted_ids.size:
                continue
            child = tuple(sorted(positions[:slot] + (nxt,) + positions[slot + 1:]))
            if child not in seen:
                seen.add(child)
                heapq.heappush(heap, (float(dists[list(child)].sum()), child))


def qp_greedy_knn(ds: Dataset, q: Query, k: int, cfg: SolverConfig = SolverConfig(), *,
                  tie: TieRule = DEFAULT_TIE_RULE,
                  subset_budget: int = _SUBSET_BUDGET) -> PerturbationCertificate:
    """Greedy K-NN attack: force a same-label target cluster nearest.

    Enumerates size-ceil((K+1)/2) same-label target subsets in ascending
    order of summed distance to the query.  The first subset whose QP is
    feasible, whose optimum lies within twice the farthest point's distance
    (plus one) and whose solution actually flips the prediction wins; a second
    solve then drops the constraints of up to floor((K-1)/2) same-class
    points that carried nonzero multipliers, keeping the improvement when it
    still validates.  ``cfg`` has no effect: every subset QP is solved whole,
    and the parameter stays for callers that pass it by position.
    """
    if k % 2 == 0:
        raise ValueError(f"K must be odd, got {k}")
    stats, start, zero = _begin(ds, q, k, tie, "qp-greedy")
    if zero is not None:
        return zero

    k_minus = (k + 1) // 2
    k_plus = (k - 1) // 2
    dist_sq = ds.distances_sq(q.z)
    # A useful attack never needs to travel further than twice the farthest point.
    cap_norm = 2.0 * float(np.sqrt(dist_sq.max())) + 1.0

    def heap_entry(sub, gen):
        # Tie-break equal distance sums by member indices so that K=1
        # enumerates targets exactly like the top-m pipeline does.
        return (float(np.sqrt(dist_sq[sub]).sum()), tuple(int(i) for i in sub), sub, gen)

    heap = []
    for label in range(1, ds.class_count + 1):
        if label == q.true_label:
            continue
        ids = ds.class_indices(label)
        if ids.size < k_minus:
            continue
        ids = ids[np.argsort(dist_sq[ids], kind="stable")]
        gen = _subset_candidates(ids, np.sqrt(dist_sq[ids]), k_minus)
        sub = next(gen, None)
        if sub is not None:
            heapq.heappush(heap, heap_entry(sub, gen))

    tried = 0
    while heap and tried < subset_budget:
        _, _, s_minus, gen = heapq.heappop(heap)
        nxt = next(gen, None)
        if nxt is not None:
            heapq.heappush(heap, heap_entry(nxt, gen))
        tried += 1

        sp = build_knn_subproblem(ds, q, s_minus, dist_sq=dist_sq)
        stats.subproblems_built += 1
        try:
            delta, sol = _solve_candidate(sp, stats)
        except SolverError:
            continue  # empty constraint set, or a numerical failure
        eps = float(np.linalg.norm(delta))
        if eps > cap_norm or not is_adversarial(ds, q, delta, k, tie):
            continue

        if k_plus > 0 and sol.indices.size:
            mass = {}
            for row, lam in zip(sol.indices, sol.values):
                i = int(sp.row_source_ids[row])
                mass[i] = mass.get(i, 0.0) + float(lam)
            s_plus = sorted(mass, key=lambda i: -mass[i])[:k_plus]
            if s_plus:
                sp2 = build_knn_subproblem(ds, q, s_minus, s_plus, dist_sq=dist_sq)
                stats.subproblems_built += 1
                try:
                    delta2, _ = _solve_candidate(sp2, stats)
                except SolverError:
                    delta2 = None
                if (
                    delta2 is not None
                    and float(np.linalg.norm(delta2)) < eps
                    and is_adversarial(ds, q, delta2, k, tie)
                ):
                    delta = delta2
        stats.wall_time = time.perf_counter() - start
        # The subset loop has accepted delta with is_adversarial, the test of _validated.
        return _certificate(delta, CertificateKind.UPPER_BOUND, "qp-greedy", stats)
    raise SolverError(
        f"qp-greedy: no feasible target subset among {tried} candidates (budget {subset_budget})"
    )


def _line_search(ds: Dataset, q: Query, k: int, tie: TieRule):
    """Squared distances from ``q.z`` and the baselines' ``flip(u, t_cap)``.

    ``flip`` returns the first t in (0, t_cap] at which the vote flips along
    z + t*u, or None.  There every squared distance is
    ``d_i^2 + t*s_i + t^2*||u||^2`` with ``s_i = 2u.(z - x_i)``; the t^2 term
    is common to all points, so the K nearest change only where two lines
    ``d_i^2 + t*s_i`` cross, and the walk steps from crossing to crossing.
    It keeps the K-nearest set and its top line (the largest value, ties to
    the larger slope).  The next event is the earlier of an outside line
    crossing below the top, which swaps the two, and a member line rising
    above it, which makes that line the top.  Lines cross once at most and a
    swap needs the incoming slope below the outgoing one, so the walk ends.

    Crossing times are compared in this ray form, O(n) per event.  The
    chosen swap's time is recomputed from the two points in difference form,
    ``(x_h - x_o).((z - x_h) + (z - x_o)) / (2u.(x_o - x_h))``, because the
    ray form cancels when t*||u|| dwarfs the distances involved.  After a
    swap whose label counts flip the vote (a tied vote goes to the attacker),
    or where other lines tie the pair's crossing so that the tie rule may
    choose another set, t is returned if ``is_adversarial`` holds at t*u;
    otherwise the walk goes on.
    """
    diff = q.z - ds.points
    dist_sq = np.einsum("ij,ij->i", diff, diff)
    n = ds.n
    labels = ds.labels.tolist()
    true = q.true_label
    rivals = [c for c in range(ds.class_count + 1) if c != true]

    def flip(u: np.ndarray, t_cap: float) -> float | None:
        slope, uu = 2.0 * (diff @ u), float(u @ u)
        members = np.argpartition(dist_sq, k - 1)[:k]
        outside = np.ones(n, dtype=bool)
        outside[members] = False
        counts = np.bincount(ds.labels[members], minlength=ds.class_count + 1).tolist()
        a_in, s_in = dist_sq[members], slope[members]
        top = int(np.argmax(a_in))
        t = 0.0
        for _ in range(_MAX_EVENTS):
            h = int(members[top])
            a_h, s_h = a_in[top], s_in[top]
            rate = s_h - slope
            times = np.divide(dist_sq - a_h, rate, out=np.full(n, np.inf),
                              where=(rate > 0.0) & outside)
            o = int(np.argmin(times))
            t_out = times[o]
            if k > 1:
                rate = s_in - s_h
                rise = np.divide(a_h - a_in, rate, out=np.full(k, np.inf), where=rate > 0.0)
                r = int(np.argmin(rise))
                if rise[r] <= t_out and rise[r] < np.inf:
                    top, t = r, max(t, float(rise[r]))
                    continue
            if t_out == np.inf:
                return None
            gap = ds.points[h] - ds.points[o]
            rate_exact = -2.0 * float(u @ gap)
            if rate_exact > 0.0:
                t = max(t, float(gap @ (diff[h] + diff[o])) / rate_exact)
            else:
                t = max(t, float(t_out))
            if t > t_cap:
                return None
            # Other lines at the pair's crossing: a second outside line, or a
            # member level with the top there.
            level = a_in + t * s_in
            window = _EVENT_TIE_TOL * (abs(a_h) + t * abs(s_h) + t * t * uu)
            tied = (np.count_nonzero(times <= t_out * (1.0 + _EVENT_TIE_TOL)) > 1
                    or np.count_nonzero(level >= level[top] - window) > 1)
            members[top], a_in[top], s_in[top] = o, dist_sq[o], slope[o]
            outside[h], outside[o] = True, False
            counts[labels[h]] -= 1
            counts[labels[o]] += 1
            own = counts[true] if 0 <= true < len(counts) else 0
            flips = max(counts[c] for c in rivals) >= own
            if (flips or tied) and t > 0.0 and is_adversarial(ds, q, t * u, k, tie):
                return t
        raise SolverError(f"line search: no first flip within {_MAX_EVENTS} events")

    return dist_sq, flip


def naive_attack(ds: Dataset, q: Query, k: int, tries: int = 1, *,
                 tie: TieRule = DEFAULT_TIE_RULE) -> PerturbationCertificate:
    """Line-search baseline: walk straight toward nearby other-class targets.

    For K=1 the targets are the ``tries`` nearest other-class instances; for
    K>1 each target is the centroid of a size-(K+1)/2 same-label cluster
    grown around such an instance.  Each direction gets the first flip on
    the segment to its target, found exactly by ``_line_search``; a direction
    is searched only up to the best radius found so far.
    """
    if tries < 1:
        raise ValueError("tries must be >= 1")
    if k % 2 == 0:
        raise ValueError(f"K must be odd, got {k}")
    stats, start, zero = _begin(ds, q, k, tie, f"naive-{tries}")
    if zero is not None:
        return zero

    dist_sq, flip = _line_search(ds, q, k, tie)
    others = np.flatnonzero(ds.labels != q.true_label)
    others = others[np.argsort(dist_sq[others], kind="stable")]
    k_minus = (k + 1) // 2

    best_delta = None
    best_eps = np.inf
    for seed in others[:tries]:
        if k == 1:
            target = ds.points[seed]
        else:
            mates = ds.class_indices(int(ds.labels[seed]))
            if mates.size < k_minus:
                continue
            spread = ds.points[mates] - ds.points[seed]
            gaps = np.einsum("ij,ij->i", spread, spread)
            cluster = mates[np.argsort(gaps, kind="stable")[:k_minus]]
            target = ds.points[cluster].mean(axis=0)
        direction = target - q.z
        if not np.any(direction):
            continue
        length = float(np.linalg.norm(direction))
        t_star = flip(direction, min(1.0, best_eps / length))
        if t_star is None:
            continue
        eps = t_star * length
        if eps < best_eps:
            best_eps = eps
            best_delta = t_star * direction
    if best_delta is None:
        raise SolverError(f"naive-{tries}: no tested direction flips the {k}-NN prediction")
    stats.wall_time = time.perf_counter() - start
    # flip has accepted best_delta with is_adversarial, the test of _validated.
    return _certificate(best_delta, CertificateKind.UPPER_BOUND, f"naive-{tries}", stats)


def mean_attack(ds: Dataset, q: Query, k: int = 1, *,
                tie: TieRule = DEFAULT_TIE_RULE) -> PerturbationCertificate:
    """Baseline walking toward the nearest other-class mean.

    The ray through the mean, extended beyond it up to 2**20 times its
    length, is walked by ``_line_search`` to its first flip; gives the
    loosest but cheapest upper bound.  Its flip may land on a farther
    target than the nearest other-class point, so it bounds ``exact_1nn``
    but is not ordered against ``qp_top_m``.
    """
    if k % 2 == 0:
        raise ValueError(f"K must be odd, got {k}")
    stats, start, zero = _begin(ds, q, k, tie, "mean")
    if zero is not None:
        return zero

    means = [m for c, m in ds.means_by_label.items() if c != q.true_label]
    gaps = [float(np.linalg.norm(m - q.z)) for m in means]
    direction = means[int(np.argmin(gaps))] - q.z
    if not np.any(direction):
        raise SolverError("mean: query coincides with the target class mean")
    _, flip = _line_search(ds, q, k, tie)
    t_star = flip(direction, _RAY_EXTENSION_CAP)
    if t_star is None:
        raise SolverError("mean: no flip within the ray-length cap")
    stats.wall_time = time.perf_counter() - start
    # flip has accepted t_star * direction with is_adversarial, the test of _validated.
    return _certificate(t_star * direction, CertificateKind.UPPER_BOUND, "mean", stats)
