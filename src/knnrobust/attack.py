"""Upper-bound pipelines: exact 1-NN minimum perturbation and attacks.

The exact pipeline solves the nearest target first, then visits the targets
within its reach best first, in ascending ``n_scr``-row pair bound, up to the
first bound beyond the incumbent (``_one_nn``).  Each visited target is built
and solved to its exact optimal vertex with the dual active-set solver.  The
greedy K-NN attack and the line-search baselines reuse the same certificate
type; every certificate carrying a perturbation is validated against the
classifier before being returned.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .data import (_TIE_INFLATION, Dataset, Query, check_k, finite_distances_sq, knn_predict,
                   knn_vote, stable_order)
from .errors import CertificationError, InfeasibleSubproblemError, SolverError
from .qp_solver import DualSolution, SolveStatus, SolverConfig, recover_primal, solve_dual_gca
from .subproblem import (Subproblem, build_1nn_subproblem, build_knn_subproblem,
                         pair_bound_block)

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
    its norm equals ``epsilon``, and it flips the prediction at z + delta or
    at the inflated point of ``is_adversarial``.
    """

    delta: np.ndarray | None
    epsilon: float
    kind: CertificateKind
    method: str
    stats: AttackStats = field(default_factory=AttackStats)
    misclassified: bool = False


def is_adversarial(ds: Dataset, q: Query, delta: np.ndarray, k: int) -> bool:
    """True iff the perturbation changes the prediction.

    Checks the point inflated by the relative factor ``data._TIE_INFLATION``
    (robust when the solution stops a hair short of a bisection) and the
    exact point.  The vote sends ties to the attacker, matching the
    constraints' non-strict inequalities, so a perturbation of exactly the
    minimum radius flips; at degenerate optima with a tight bisection the
    query already clears, inflating can cross back, so the exact point must
    count too.
    """
    delta = np.asarray(delta, dtype=np.float64)
    inflated = q.z + (1.0 + _TIE_INFLATION) * delta
    if knn_predict(ds, inflated, k, true_label=q.true_label) != q.true_label:
        return True
    return knn_predict(ds, q.z + delta, k, true_label=q.true_label) != q.true_label


def _begin(ds: Dataset, q: Query, k: int, method: str
           ) -> tuple[AttackStats, float, np.ndarray, PerturbationCertificate | None]:
    """Fresh stats, the start time, the squared distances from ``q.z``, and
    the zero certificate if the query is misclassified.

    This is each attack's one distance pass: the vote is ``knn_vote`` on it,
    and the caller reuses it.  Raises ``ValueError`` unless K is an odd
    integer >= 1, ``InsufficientPointsError`` when K > n and
    ``DataFormatError`` when a squared distance overflows.
    """
    stats = AttackStats()
    start = time.perf_counter()
    check_k(ds, k)
    dist_sq = finite_distances_sq(ds, q.z)
    if knn_vote(ds, dist_sq, k, q.true_label) == q.true_label:
        return stats, start, dist_sq, None
    zero = _certificate(np.zeros(ds.d), CertificateKind.EXACT, method, stats, start)
    return stats, start, dist_sq, replace(zero, misclassified=True)


def _certificate(delta: np.ndarray, kind: CertificateKind, method: str, stats: AttackStats,
                 start: float, norm_ord: float = 2) -> PerturbationCertificate:
    """Every pipeline's exit, for a ``delta`` that ``is_adversarial`` has accepted
    or a misclassified query's zero; ``stats.wall_time`` runs from ``start``,
    taken before ``_begin``'s distance pass."""
    stats.wall_time = time.perf_counter() - start
    return PerturbationCertificate(
        delta=delta, epsilon=float(np.linalg.norm(delta, ord=norm_ord)), kind=kind,
        method=method, stats=stats,
    )


def _check_n_scr(n_scr: int) -> None:
    if n_scr < 1:
        raise ValueError("n_scr must be >= 1")


def _block_bounds(ds: Dataset, z: np.ndarray, same: np.ndarray, dist_sq: np.ndarray,
                  targets: np.ndarray, n_scr: int, norm: str = "l2") -> np.ndarray:
    """Per target, its largest pair bound in ``norm`` (``pair_bound_block``) over
    the ``n_scr`` points of ``same`` nearest ``z``, ties by index.  ``dist_sq``
    holds the squared distances from ``z`` to every point."""
    scr = same[stable_order(dist_sq[same])[:n_scr]]
    return pair_bound_block(ds, z, scr, dist_sq[scr], targets, dist_sq[targets],
                            norm).max(axis=0)


def screen_subproblem(ds: Dataset, q: Query, j: int, incumbent_sq: float,
                      n_scr: int = DEFAULT_N_SCR) -> bool:
    """Cheap test discarding target j without building its full subproblem.

    True iff the single-coordinate dual value of one of the ``n_scr``
    same-class points nearest the query already certifies a radius beyond
    the incumbent attack (``incumbent_sq`` is its square), so that target j's
    subproblem cannot improve it.  It is ``_block_bounds`` for the one target
    j, squared.  Raises ``ValueError`` when target j has the query's own label,
    ``DataFormatError`` when a squared distance from the query overflows.
    """
    _check_n_scr(n_scr)
    if int(ds.labels[j]) == q.true_label:
        raise ValueError(f"target {j} has the query's own label {q.true_label}")
    bound = _block_bounds(ds, q.z, ds.class_indices(q.true_label), finite_distances_sq(ds, q.z),
                          np.array([j]), n_scr)[0]
    return bool(incumbent_sq < bound * bound)


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


def _one_nn(ds: Dataset, q: Query, method: str, norm: str, solve, cfg: SolverConfig,
            n_scr: int, sort_candidates: bool,
            candidate_limit: int | None) -> PerturbationCertificate:
    """The 1-NN candidate loop behind ``exact_1nn``, ``qp_top_m`` and ``exact_1nn_lp``.

    Targets are the other-class points, nearest first when ``sort_candidates``
    (else in index order), cut to ``candidate_limit``.  ``solve(sp, stats)``
    counts its solves and returns a tuple whose first item is target ``sp``'s
    least perturbation.  The loop keeps the perturbation of least ``norm`` and
    validates the winner.  The certificate is ``EXACT``, or ``UPPER_BOUND``
    under a ``candidate_limit``, whether or not the limit drops a target.

    The first target is solved unscreened.  The reach window keeps the later
    targets j whose reach (d_j - d_1)/2 is at most its epsilon, d_1 being the
    nearest same-class distance; under the max norm the reach is over
    sqrt(d), as ||.||_2 <= sqrt(d) ||.||_inf.  Each has one floor: its block
    bound ``_block_bounds`` in ``norm`` when ``cfg.screening_enabled``, else
    its reach.  The bound is never below the reach: its rows include the
    nearest same-class point x_1, whose l2 bound (d_j^2 - d_1^2)/(2||x_j - x_1||)
    is at least (d_j - d_1)/2 as ||x_j - x_1|| <= d_j + d_1, and the dual norms'
    ||.||_1 <= sqrt(d) ||.||_2 and ||.||_inf <= ||.||_2 carry it over.  A
    target is built and solved iff its floor is at most the incumbent then.
    Sorted, the window goes in ascending floor (the bounds stably sorted, the
    reach in distance order) and the first floor beyond the incumbent ends
    the loop.  Every candidate not built counts as screened.
    """
    _check_n_scr(n_scr)
    stats, start, dist_sq, zero = _begin(ds, q, 1, method)
    if zero is not None:
        return zero
    same, others = ds.split(q.true_label)
    if sort_candidates:
        others = others[stable_order(dist_sq[others])]
    others = others[:candidate_limit]
    norm_ord = {"l2": 2, "linf": np.inf, "l1": 1}[norm]
    eps_best = np.inf
    delta_best: np.ndarray | None = None

    def visit(j) -> None:
        nonlocal eps_best, delta_best
        sp = build_1nn_subproblem(ds, q, int(j), dist_sq=dist_sq)
        stats.subproblems_built += 1
        delta = solve(sp, stats)[0]
        eps_j = float(np.linalg.norm(delta, ord=norm_ord))
        if eps_j < eps_best:
            eps_best, delta_best = eps_j, delta

    visit(others[0])
    rest = others[1:]
    d1 = float(np.sqrt(np.min(dist_sq[same])))
    shrink = 2.0 * np.sqrt(ds.d) if norm == "linf" else 2.0
    floors = (np.sqrt(dist_sq[rest]) - d1) / shrink
    inside = floors <= eps_best
    window, floors = rest[inside], floors[inside]
    if cfg.screening_enabled and window.size:
        floors = _block_bounds(ds, q.z, same, dist_sq, window, n_scr, norm)
        if sort_candidates:
            order = stable_order(floors)
            window, floors = window[order], floors[order]
    for j, floor in zip(window, floors):
        if floor <= eps_best:
            visit(j)
        elif sort_candidates:
            break
    stats.subproblems_screened = others.size - stats.subproblems_built
    if delta_best is None:
        raise SolverError(f"{method}: no candidate subproblem produced a perturbation")
    if not is_adversarial(ds, q, delta_best, 1):
        raise CertificationError(
            f"{method}: produced perturbation does not flip the 1-NN prediction")
    kind = CertificateKind.EXACT if candidate_limit is None else CertificateKind.UPPER_BOUND
    return _certificate(delta_best, kind, method, stats, start, norm_ord)


def exact_1nn(ds: Dataset, q: Query, cfg: SolverConfig = SolverConfig(), *,
              n_scr: int = DEFAULT_N_SCR, sort_candidates: bool = True,
              tie=None) -> PerturbationCertificate:
    """Exact minimum adversarial perturbation of the 1-NN classifier.

    Solves the nearest target, then visits the targets within its reach best
    first, in ascending ``n_scr``-row pair bound, and stops at the first bound
    beyond the incumbent: no target left can win.  Without ``sort_candidates``
    the targets are visited in index order and each one that cannot win is
    skipped.  Queries the model already misclassifies get a zero certificate
    immediately.  ``tie`` is ignored; it stays for callers that pass it.
    """
    return _one_nn(ds, q, "exact-1nn", "l2", _solve_candidate, cfg, n_scr, sort_candidates, None)


def qp_top_m(ds: Dataset, q: Query, m: int, cfg: SolverConfig = SolverConfig(), *,
             n_scr: int = DEFAULT_N_SCR, tie=None) -> PerturbationCertificate:
    """Upper bound from solving only the m nearest target subproblems; ``tie`` is ignored."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _one_nn(ds, q, f"qp-{m}", "l2", _solve_candidate, cfg, n_scr, True, m)


def _subset_candidates(ids: np.ndarray, dist_sq: np.ndarray, size: int):
    """Yield ``(distance sum, member-id tuple, members)`` for the size-``size``
    subsets of one label's points ``ids``, in ascending distance sum.

    Sorts the points by distance, starts from the ``size`` nearest and
    expands by single swaps, driven by a heap on the distance sum.  Merged
    across labels, equal sums tie-break by member ids, so that K=1
    enumerates targets exactly like the top-m pipeline does.
    """
    if ids.size < size:
        return
    ids = ids[stable_order(dist_sq[ids])]
    dists = np.sqrt(dist_sq[ids])
    first = tuple(range(size))
    heap = [(float(dists[list(first)].sum()), first)]
    seen = {first}
    while heap:
        total, positions = heapq.heappop(heap)
        members = ids[list(positions)]
        yield total, tuple(int(i) for i in members), members
        taken = set(positions)
        for slot in range(size):
            nxt = positions[slot] + 1
            while nxt in taken:
                nxt += 1
            if nxt >= ids.size:
                continue
            child = tuple(sorted(positions[:slot] + (nxt,) + positions[slot + 1:]))
            if child not in seen:
                seen.add(child)
                heapq.heappush(heap, (float(dists[list(child)].sum()), child))


def qp_greedy_knn(ds: Dataset, q: Query, k: int, cfg: SolverConfig = SolverConfig(), *,
                  tie=None) -> PerturbationCertificate:
    """Greedy K-NN attack: force a same-label target cluster nearest.

    Enumerates size-ceil((K+1)/2) same-label target subsets in ascending
    order of summed distance to the query, the first ``_SUBSET_BUDGET`` of
    them.  The first subset whose QP is feasible, whose optimum lies within
    twice the farthest point's distance (plus one) and whose solution
    actually flips the prediction wins; a second solve then drops the
    constraints of up to floor((K-1)/2) same-class points that carried
    nonzero multipliers, keeping the improvement when it still validates.
    That refinement is the first subproblem without the dropped points'
    rows (``Subproblem.without_sources``), so no row is built twice.
    ``cfg`` and ``tie`` have no effect: every subset QP is solved whole, and
    the parameters stay for callers that pass them.
    """
    stats, start, dist_sq, zero = _begin(ds, q, k, "qp-greedy")
    if zero is not None:
        return zero

    k_minus = (k + 1) // 2
    k_plus = (k - 1) // 2
    # A useful attack never needs to travel further than twice the farthest point.
    cap_norm = 2.0 * float(np.sqrt(dist_sq.max())) + 1.0

    streams = [_subset_candidates(ds.class_indices(label), dist_sq, k_minus)
               for label in range(1, ds.class_count + 1) if label != q.true_label]
    tried = 0
    subsets = itertools.islice(heapq.merge(*streams), _SUBSET_BUDGET)
    for tried, (_, _, s_minus) in enumerate(subsets, start=1):
        sp = build_knn_subproblem(ds, q, s_minus, dist_sq=dist_sq)
        stats.subproblems_built += 1
        try:
            delta, sol = _solve_candidate(sp, stats)
        except SolverError:
            continue  # empty constraint set, or a numerical failure
        eps = float(np.linalg.norm(delta))
        if eps > cap_norm or not is_adversarial(ds, q, delta, k):
            continue

        if k_plus > 0 and sol.indices.size:
            mass = {}
            for row, lam in zip(sol.indices, sol.values):
                i = int(sp.sources[row % sp.sources.size])
                mass[i] = mass.get(i, 0.0) + float(lam)
            s_plus = sorted(mass, key=lambda i: -mass[i])[:k_plus]
            # Dropping every same-class point would leave no row to refine.
            if len(s_plus) < sp.sources.size:
                sp2 = sp.without_sources(s_plus)
                stats.subproblems_built += 1
                try:
                    delta2, _ = _solve_candidate(sp2, stats)
                except SolverError:
                    delta2 = None
                if (
                    delta2 is not None
                    and float(np.linalg.norm(delta2)) < eps
                    and is_adversarial(ds, q, delta2, k)
                ):
                    delta = delta2
        return _certificate(delta, CertificateKind.UPPER_BOUND, "qp-greedy", stats, start)
    raise SolverError(
        f"qp-greedy: no feasible target subset among {tried} candidates (budget {_SUBSET_BUDGET})"
    )


def _line_search(ds: Dataset, q: Query, k: int, dist_sq: np.ndarray):
    """The baselines' ``flip(u, t_cap)`` from ``q.z``.

    ``dist_sq`` holds the squared distances from ``q.z`` that ``_begin``
    returned; only the differences ``z - x_i`` are computed here.

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

    Only that crossing pass runs in numpy, into one buffer of crossing times
    per direction.  The K member lines are Python floats (intercepts and
    slopes) with their point ids, and the label counts Python ints, so the
    rises, the tie window and the tie count are taken one member at a time.
    A copy of the slopes holds +inf at the members, which keeps them out of
    the pass by its ``rate > 0`` test alone.  The start set, the K nearest
    points at t = 0, and its label counts are found once and copied into
    each ``flip`` call.
    """
    diff = q.z - ds.points
    true = q.true_label
    rivals = [c for c in range(ds.class_count + 1) if c != true]
    start = np.argpartition(dist_sq, k - 1)[:k]
    start_ids, start_levels = start.tolist(), dist_sq[start].tolist()
    start_counts = np.bincount(ds.labels[start], minlength=ds.class_count + 1).tolist()

    def flip(u: np.ndarray, t_cap: float) -> float | None:
        slope, uu = 2.0 * (diff @ u), float(u @ u)
        outer = slope.copy()
        outer[start] = np.inf
        times = np.empty(ds.n)
        ids, levels, slopes = list(start_ids), list(start_levels), slope[start].tolist()
        counts = list(start_counts)
        top = max(range(k), key=levels.__getitem__)
        t = 0.0
        for _ in range(_MAX_EVENTS):
            h, a_h, s_h = ids[top], levels[top], slopes[top]
            rate = s_h - outer
            times.fill(np.inf)
            np.divide(dist_sq - a_h, rate, out=times, where=rate > 0.0)
            o = int(np.argmin(times))
            t_out = float(times[o])
            # The first member line to rise above the top, the first index on a tie.
            r, t_rise = top, np.inf
            for i in range(k):
                climb = slopes[i] - s_h
                if climb > 0.0:
                    rise = (a_h - levels[i]) / climb
                    if rise < t_rise:
                        r, t_rise = i, rise
            if t_rise <= t_out and t_rise < np.inf:
                top, t = r, max(t, t_rise)
                continue
            if t_out == np.inf:
                return None
            gap = ds.points[h] - ds.points[o]
            rate_exact = -2.0 * float(u @ gap)
            if rate_exact > 0.0:
                t = max(t, float(gap @ (diff[h] + diff[o])) / rate_exact)
            else:
                t = max(t, t_out)
            if t > t_cap:
                return None
            # Other lines at the pair's crossing: a second outside line, or a
            # member level with the top there.
            floor = (a_h + t * s_h) - _EVENT_TIE_TOL * (abs(a_h) + t * abs(s_h) + t * t * uu)
            tied = (np.count_nonzero(times <= t_out * (1.0 + _EVENT_TIE_TOL)) > 1
                    or sum(levels[i] + t * slopes[i] >= floor for i in range(k)) > 1)
            ids[top], levels[top], slopes[top] = o, float(dist_sq[o]), float(slope[o])
            outer[h], outer[o] = slope[h], np.inf
            counts[int(ds.labels[h])] -= 1
            counts[int(ds.labels[o])] += 1
            own = counts[true] if 0 <= true < len(counts) else 0
            flips = max(counts[c] for c in rivals) >= own
            if (flips or tied) and t > 0.0 and is_adversarial(ds, q, t * u, k):
                return t
        raise SolverError(f"line search: no first flip within {_MAX_EVENTS} events")

    return flip


def naive_attack(ds: Dataset, q: Query, k: int, tries: int = 1, *,
                 tie=None) -> PerturbationCertificate:
    """Line-search baseline: walk straight toward nearby other-class targets.

    For K=1 the targets are the ``tries`` nearest other-class instances; for
    K>1 each target is the centroid of a size-(K+1)/2 same-label cluster
    grown around such an instance.  Each direction gets the first flip on
    the segment to its target, found exactly by ``_line_search``; a direction
    is searched only up to the best radius found so far.  ``tie`` is ignored.
    """
    if tries < 1:
        raise ValueError("tries must be >= 1")
    stats, start, dist_sq, zero = _begin(ds, q, k, f"naive-{tries}")
    if zero is not None:
        return zero

    flip = _line_search(ds, q, k, dist_sq)
    others = ds.split(q.true_label)[1]
    others = others[stable_order(dist_sq[others])]
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
            cluster = mates[stable_order(gaps)[:k_minus]]
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
    return _certificate(best_delta, CertificateKind.UPPER_BOUND, f"naive-{tries}", stats, start)


def mean_attack(ds: Dataset, q: Query, k: int = 1, *,
                tie=None) -> PerturbationCertificate:
    """Baseline walking toward the nearest other-class mean.

    The ray through the mean, extended beyond it up to 2**20 times its
    length, is walked by ``_line_search`` to its first flip; gives the
    loosest but cheapest upper bound.  Its flip may land on a farther
    target than the nearest other-class point, so it bounds ``exact_1nn``
    but is not ordered against ``qp_top_m``.  ``tie`` is ignored.
    """
    stats, start, dist_sq, zero = _begin(ds, q, k, "mean")
    if zero is not None:
        return zero

    means = [m for c, m in ds.means_by_label.items() if c != q.true_label]
    gaps = [float(np.linalg.norm(m - q.z)) for m in means]
    direction = means[int(np.argmin(gaps))] - q.z
    if not np.any(direction):
        raise SolverError("mean: query coincides with the target class mean")
    flip = _line_search(ds, q, k, dist_sq)
    t_star = flip(direction, _RAY_EXTENSION_CAP)
    if t_star is None:
        raise SolverError("mean: no flip within the ray-length cap")
    return _certificate(t_star * direction, CertificateKind.UPPER_BOUND, "mean", stats, start)
