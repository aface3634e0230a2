"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-7 are self-contained property checks over a fixed seeded corpus
of 500 small integer-grid datasets.  Criteria 8-11 reproduce published
benchmark numbers and need MNIST / Fashion-MNIST as CSV; point
``KNNROBUST_DATA_DIR`` at a directory containing ``mnist_train.csv``,
``mnist_test.csv``, ``fashion_train.csv`` and ``fashion_test.csv`` (see
``scripts/make_mnist_csv.py``), otherwise they are skipped.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from knnrobust import (
    Dataset,
    Query,
    SolverConfig,
    SolverError,
    build_1nn_subproblem,
    exact_1nn,
    exact_1nn_lp,
    kkt_check,
    knn_predict,
    load_csv,
    mean_attack,
    naive_attack,
    qp_greedy_knn,
    qp_top_m,
    solve_dual_gca,
    verify_1nn,
    verify_knn,
)

from helpers import (
    CORPUS_SEED,
    active_set_oracle,
    knn_pair_bound_reference,
    min_flip_1d,
    no_flip_below_1d,
)

DATA_DIR = os.environ.get("KNNROBUST_DATA_DIR", "")
_needs_data = pytest.mark.skipif(
    not DATA_DIR or not Path(DATA_DIR).is_dir(),
    reason="KNNROBUST_DATA_DIR with MNIST/Fashion-MNIST CSVs not available",
)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>3} {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} {name}: {detail}"


def _oracle_minimum(ds, q):
    best = np.inf
    for j in np.flatnonzero(ds.labels != q.true_label):
        delta, _ = active_set_oracle(build_1nn_subproblem(ds, q, int(j)))
        best = min(best, float(np.linalg.norm(delta)))
    return best


def test_criterion_01_oracle_equivalence(corpus):
    started = time.perf_counter()
    worst = 0.0
    for ds, q, _ in corpus:
        got = exact_1nn(ds, q).epsilon
        want = _oracle_minimum(ds, q)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - started
    _report(1, "oracle equivalence", worst <= 1e-8 and elapsed < 60.0,
            f"max |diff|={worst:.2e}, {elapsed:.1f}s for {len(corpus)} datasets")


def test_criterion_02_duality(corpus):
    solves = passes = 0
    for ds, q, _ in corpus:
        for j in np.flatnonzero(ds.labels != q.true_label):
            sp = build_1nn_subproblem(ds, q, int(j))
            sol = solve_dual_gca(sp)
            if sol.status.value != "converged":
                continue
            solves += 1
            passes += kkt_check(sp, sol, 1e-6).passed
    _report(2, "duality (KKT at 1e-6)", solves > 0 and passes == solves,
            f"{passes}/{solves} converged solves pass")


def test_criterion_03_screening_soundness(corpus):
    on = SolverConfig(screening_enabled=True)
    off = SolverConfig(screening_enabled=False)
    worst = 0.0
    for ds, q, _ in corpus:
        worst = max(worst, abs(exact_1nn(ds, q, on).epsilon - exact_1nn(ds, q, off).epsilon))
        # The LP path's block bound and sorted stop must not change its value either.
        for norm in ("linf", "l1"):
            default = exact_1nn_lp(ds, q, norm).epsilon
            for ablated in (exact_1nn_lp(ds, q, norm, cfg=off),
                            exact_1nn_lp(ds, q, norm, sort_candidates=False),
                            exact_1nn_lp(ds, q, norm, n_scr=1)):
                worst = max(worst, abs(ablated.epsilon - default))
    _report(3, "screening soundness", worst <= 1e-8, f"max on/off diff={worst:.2e}")


# Summed (built, solved, screened, solver add/drop steps) over the corpus.
# Each pruning rule changes these totals when it stops firing, and the
# n_scr-row block bound also sets the order in which targets are visited:
# with n_scr=1 the block bound lets 105 targets more through than n_scr=8,
# and every target let through is built and solved.  Until the post-build
# row test was removed it pruned 101 of those 105, and this entry read
# (693, 592, 1122, 1023); no certificate changed with it.  The l2 entries
# read one build and solve fewer while the block bound compared squared
# bounds in difference form, before it took the verifier's Gram-form kernel.
# On instance 152 target 2's squared bound, exactly 4.5, sat above the
# incumbent's square, one ulp below it; its bound now equals the incumbent
# 3/sqrt(2), so the target is solved, and ties without winning.
PINNED_PRUNING_COUNTS = {
    "exact, n_scr=8, sorted": ((589, 589, 1125, 1012), lambda ds, q: exact_1nn(ds, q)),
    "exact, n_scr=1, sorted": ((694, 694, 1020, 1397), lambda ds, q: exact_1nn(ds, q, n_scr=1)),
    "exact, n_scr=8, unsorted": ((949, 949, 765, 1844),
                                 lambda ds, q: exact_1nn(ds, q, sort_candidates=False)),
    "qp-10": ((589, 589, 1124, 1012), lambda ds, q: qp_top_m(ds, q, 10)),
    # The same loop with one LP per target and pivots as its steps; without
    # the dual-norm pair prunes these were (1010, 1010, 704, 4015) and
    # (995, 995, 719, 3493), with Bland's pricing and no final-basis solve
    # (613, 613, 1101, 2332) and (595, 595, 1119, 1970), and with the primal
    # homogenized program from its slack basis (604, 604, 1110, 2108) and
    # (592, 592, 1122, 1585).  The dual starts at the best single-row bound,
    # so most LPs need no pivot.  Epsilons move by an ulp between forms; on
    # instances 249, 299, 356 and 489 under linf and 299 and 356 under l1 a
    # later target's pair bound equals the exact incumbent, which the
    # homogenized form returned one ulp low, so the tied target was pruned
    # there and is built and solved here.
    "exact-linf": ((608, 608, 1106, 114), lambda ds, q: exact_1nn_lp(ds, q, "linf")),
    "exact-l1": ((594, 594, 1120, 116), lambda ds, q: exact_1nn_lp(ds, q, "l1")),
}


@pytest.mark.parametrize("name", PINNED_PRUNING_COUNTS)
def test_pruning_counts_pinned(corpus, name):
    expected, method = PINNED_PRUNING_COUNTS[name]
    totals = np.zeros(4, dtype=np.int64)
    for ds, q, _ in corpus:
        s = method(ds, q).stats
        totals += (s.subproblems_built, s.subproblems_solved, s.subproblems_screened,
                   s.solver_iterations)
    assert tuple(int(v) for v in totals) == expected


def test_criterion_04a_bound_ordering(corpus):
    tol = 1e-8
    violations = []
    for idx, (ds, q, _) in enumerate(corpus):
        lower = verify_1nn(ds, q).epsilon_lower
        exact = exact_1nn(ds, q).epsilon
        top10 = qp_top_m(ds, q, 10).epsilon
        top1 = qp_top_m(ds, q, 1).epsilon
        naive = naive_attack(ds, q, 1, 1).epsilon
        chain = [("verify<=exact", lower, exact), ("exact<=qp10", exact, top10),
                 ("qp10<=qp1", top10, top1), ("qp1<=naive", top1, naive)]
        try:
            chain.append(("exact<=mean", exact, mean_attack(ds, q, 1).epsilon))
        except SolverError:
            pass  # mean ray found no flip; no bound to order against
        for name, lo, hi in chain:
            if lo > hi + tol:
                violations.append((idx, name, lo, hi))
    _report("4a", "bound ordering chain", not violations,
            f"{len(violations)} violations" + (f", first={violations[0]}" if violations else ""))


def _close(a, b, rel=1e-9):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def test_criterion_04b_verifier_monotone_in_k(corpus):
    # The bound eps(K) = B(r, r), r = (K+1)/2, is not monotone in K (see the
    # README and test_verify.py::test_bound_not_monotone_in_k): raising K
    # lowers the per-target statistic but raises the number of targets
    # needed.  What holds per instance is that ordering split into its two
    # parts, against a reference sharing no code with the verifier: for
    # K < K', B(r', r) <= min(eps(K), eps(K')) <= max(eps(K), eps(K')) <= B(r, r').
    worst = 0.0
    mismatches = lower_violations = upper_violations = 0
    increases = comparisons = 0
    for ds, q, ks in corpus:
        values = {}
        for k in (1, 3, 5):
            if k not in ks:
                continue
            r = (k + 1) // 2
            got = verify_knn(ds, q, k).epsilon_lower
            want = knn_pair_bound_reference(ds, q, r, r)
            worst = max(worst, abs(got - want))
            mismatches += int(not _close(got, want))
            values[k] = got
        ordered = sorted(values)
        for k, k2 in zip(ordered, ordered[1:]):
            r, r2 = (k + 1) // 2, (k2 + 1) // 2
            lo, hi = sorted((values[k], values[k2]))
            below = knn_pair_bound_reference(ds, q, r2, r)
            above = knn_pair_bound_reference(ds, q, r, r2)
            lower_violations += int(below > lo and not _close(below, lo))
            upper_violations += int(hi > above and not _close(hi, above))
            comparisons += 1
            increases += int(values[k2] > values[k] + 1e-12)
    ok = comparisons > 0 and mismatches == lower_violations == upper_violations == 0
    _report("4b", "verifier K-sweep bracketed by order statistics", ok,
            f"reference mismatches={mismatches} (max |diff|={worst:.1e}), "
            f"B(r',r)>min violations={lower_violations}, max>B(r,r') violations={upper_violations} "
            f"over {comparisons} adjacent-K pairs; {increases}/{comparisons} increase "
            f"(not monotone: README, test_bound_not_monotone_in_k)")


def test_criterion_04c_top1_below_mean(corpus):
    # qp-1 <= mean is not a theorem: the mean direction may flip onto a
    # farther target than the nearest one qp-1 solves.  What holds: the mean
    # perturbation is feasible for the QP of j*, the other-class point
    # nearest to z + delta_mean, so qp-m* <= mean where m* is the rank of j*
    # in the pipeline's stable distance order (m* = 1 gives qp-1 <= mean).
    violations = []
    ranks = {}
    top1_above = 0
    for idx, (ds, q, _) in enumerate(corpus):
        try:
            mean = mean_attack(ds, q, 1)
        except SolverError:
            continue  # mean ray found no flip; no bound to order against
        dist_sq = ds.distances_sq(q.z)
        others = np.flatnonzero(ds.labels != q.true_label)
        others = others[np.argsort(dist_sq[others], kind="stable")]
        moved = q.z + mean.delta
        gaps = np.einsum("jd,jd->j", ds.points[others] - moved, ds.points[others] - moved)
        m_star = int(np.flatnonzero(gaps == gaps.min())[0]) + 1
        ranks[m_star] = ranks.get(m_star, 0) + 1
        bound = mean.epsilon * (1.0 + 1e-8) + 1e-8
        top = qp_top_m(ds, q, m_star).epsilon
        if top > bound:
            violations.append((idx, m_star, top, mean.epsilon))
        top1_above += int(qp_top_m(ds, q, 1).epsilon > mean.epsilon + 1e-8)
    flips = sum(ranks.values())
    _report("4c", "qp-m* below mean attack, m* = rank of its flip target", not violations,
            f"{len(violations)}/{flips} violate" + (f", first={violations[0]}" if violations else "")
            + f"; ranks m*={dict(sorted(ranks.items()))}: {ranks.get(1, 0)} at rank 1, "
            f"{flips - ranks.get(1, 0)} on a farther target; "
            f"{top1_above}/{len(corpus)} instances have qp-1 > mean")


def test_criterion_05_verifier_soundness(corpus):
    rng = np.random.default_rng(CORPUS_SEED + 1)
    sampled_flips = 0
    dense_failures = 0
    for ds, q, ks in corpus:
        for k in (1, 3):
            if k not in ks:
                continue
            bound = verify_knn(ds, q, k).epsilon_lower
            if bound <= 0.0:
                continue
            direction = rng.normal(size=(1000, ds.d))
            direction /= np.linalg.norm(direction, axis=1, keepdims=True)
            z_batch = q.z + 0.999 * bound * direction
            diff = z_batch[:, None, :] - ds.points[None, :, :]
            dist_sq = np.einsum("qnd,qnd->qn", diff, diff)
            nearest = np.argpartition(dist_sq, k - 1, axis=1)[:, :k]
            votes = (ds.labels[nearest] == q.true_label).sum(axis=1)
            for row in np.flatnonzero(votes < (k + 1) // 2):
                if knn_predict(ds, z_batch[row], k, true_label=q.true_label) != q.true_label:
                    sampled_flips += 1
            if ds.d == 1 and not no_flip_below_1d(ds, q, k, 0.999 * bound):
                dense_failures += 1
    _report(5, "verifier soundness", sampled_flips == 0 and dense_failures == 0,
            f"sampled flips={sampled_flips}, dense 1-D failures={dense_failures}")


def test_criterion_06_fixtures(fix_a, fix_b, fix_c):
    ds_a, q_a = fix_a
    ds_b, q_b = fix_b
    ds_c, q_c = fix_c
    checks = {
        "fixA exact=1": abs(exact_1nn(ds_a, q_a).epsilon - 1.0) <= 1e-6,
        "fixB exact=sqrt(.5)": abs(exact_1nn(ds_b, q_b).epsilon - 0.7071067811865476) <= 1e-6,
        "fixB naive-1=1": abs(naive_attack(ds_b, q_b, 1, 1).epsilon - 1.0) <= 1e-6,
        "fixC verifier(3)=1": abs(verify_knn(ds_c, q_c, 3).epsilon_lower - 1.0) <= 1e-6,
        "fixC exact(3)=1": abs(min_flip_1d(ds_c, q_c, 3, hi=4.0) - 1.0) <= 1e-6,
        "fixB linf=.5": abs(exact_1nn_lp(ds_b, q_b, "linf").epsilon - 0.5) <= 1e-6,
        "fixB l1=1": abs(exact_1nn_lp(ds_b, q_b, "l1").epsilon - 1.0) <= 1e-6,
    }
    bad = [name for name, ok in checks.items() if not ok]
    _report(6, "canonical fixtures", not bad, "all 7 values" if not bad else f"failed: {bad}")


def test_criterion_07_reduction_identities(corpus):
    worst_verify = 0.0
    greedy_below = 0
    equality_failures = 0
    for ds, q, _ in corpus:
        a = verify_knn(ds, q, 1).epsilon_lower
        b = verify_1nn(ds, q).epsilon_lower
        worst_verify = max(worst_verify, abs(a - b))
        exact = exact_1nn(ds, q).epsilon
        greedy = qp_greedy_knn(ds, q, 1).epsilon
        if greedy < exact - 1e-8:
            greedy_below += 1
        # When the nearest target already attains the global minimum, the
        # K=1 greedy attack must match it exactly.
        dist = np.linalg.norm(ds.points - q.z, axis=1)
        others = np.flatnonzero(ds.labels != q.true_label)
        nearest_j = int(others[np.argmin(dist[others])])
        delta, _ = active_set_oracle(build_1nn_subproblem(ds, q, nearest_j))
        if abs(float(np.linalg.norm(delta)) - exact) <= 1e-10:
            if abs(greedy - exact) > 1e-8:
                equality_failures += 1
    ok = worst_verify == 0.0 and greedy_below == 0 and equality_failures == 0
    _report(7, "reduction identities", ok,
            f"max verify diff={worst_verify:.1e}, greedy<exact count={greedy_below}, "
            f"equality failures={equality_failures}")


# --- Published-benchmark reproduction (needs local MNIST / Fashion-MNIST CSVs) ---


def _load_benchmark(train_name, test_name):
    train = load_csv(Path(DATA_DIR) / train_name)
    queries_ds = load_csv(Path(DATA_DIR) / test_name)
    return train, queries_ds


def _sample_correct(ds, queries_ds, k, count, seed):
    rng = np.random.default_rng(seed)
    correct = []
    for i in rng.permutation(queries_ds.n):
        q = Query(queries_ds.points[i], int(queries_ds.labels[i]))
        if knn_predict(ds, q.z, k, true_label=q.true_label) == q.true_label:
            correct.append(q)
            if len(correct) == count:
                break
    return correct


@_needs_data
def test_criterion_08_mnist_1nn():
    ds, queries_ds = _load_benchmark("mnist_train.csv", "mnist_test.csv")
    queries = _sample_correct(ds, queries_ds, 1, 100, seed=0)
    started = time.perf_counter()
    exact = [exact_1nn(ds, q).epsilon for q in queries]
    exact_runtime = time.perf_counter() - started
    verifier = [verify_1nn(ds, q).epsilon_lower for q in queries]
    qp1 = [qp_top_m(ds, q, 1).epsilon for q in queries]
    naive1 = [naive_attack(ds, q, 1, 1).epsilon for q in queries]
    mean_eps = [mean_attack(ds, q, 1).epsilon for q in queries]
    values = {
        "exact": (np.mean(exact), 1.491, 0.10),
        "verifier": (np.mean(verifier), 1.370, 0.10),
        "qp-1": (np.mean(qp1), 1.530, 0.10),
        "naive-1": (np.mean(naive1), 1.851, 0.15),
        "mean": (np.mean(mean_eps), 4.561, 0.40),
    }
    bad = [f"{k}={got:.3f} (want {want}±{tol})"
           for k, (got, want, tol) in values.items() if abs(got - want) > tol]
    ok = not bad and exact_runtime <= 10 * 177.507
    _report(8, "MNIST 1-NN table", ok,
            f"exact runtime {exact_runtime:.0f}s; " + ("; ".join(bad) if bad else "all rows in range"))


@_needs_data
def test_criterion_09_fashion_mnist_1nn():
    ds, queries_ds = _load_benchmark("fashion_train.csv", "fashion_test.csv")
    queries = _sample_correct(ds, queries_ds, 1, 100, seed=0)
    exact = float(np.mean([exact_1nn(ds, q).epsilon for q in queries]))
    verifier = float(np.mean([verify_1nn(ds, q).epsilon_lower for q in queries]))
    ok = abs(exact - 1.128) <= 0.10 and abs(verifier - 1.073) <= 0.10
    _report(9, "Fashion-MNIST 1-NN", ok, f"exact={exact:.3f}, verifier={verifier:.3f}")


def _binary_mnist():
    full = load_csv(Path(DATA_DIR) / "mnist_train.csv")
    test = load_csv(Path(DATA_DIR) / "mnist_test.csv")
    # digits 8 and 0 (stored as labels 9 and 1) relabeled to 1 and 2
    def restrict(ds):
        keep = (ds.labels == 9) | (ds.labels == 1)
        labels = np.where(ds.labels[keep] == 9, 1, 2)
        return Dataset(ds.points[keep], labels, 2)
    return restrict(full), restrict(test)


@_needs_data
def test_criterion_10_binary_mnist_k_sweep():
    ds, test = _binary_mnist()
    verifier_rows = {}
    greedy_rows = {}
    paper_verifier = {1: 2.268, 3: 2.230, 5: 2.201, 7: 2.193, 9: 2.183}
    paper_greedy = {1: 2.494, 3: 3.089, 5: 3.417, 7: 3.636, 9: 3.786}
    for k in (1, 3, 5, 7, 9):
        queries = _sample_correct(ds, test, k, 100, seed=0)
        verifier_rows[k] = float(np.mean([verify_knn(ds, q, k).epsilon_lower for q in queries]))
        greedy_rows[k] = float(np.mean([qp_greedy_knn(ds, q, k).epsilon for q in queries]))
    v = [verifier_rows[k] for k in (1, 3, 5, 7, 9)]
    g = [greedy_rows[k] for k in (1, 3, 5, 7, 9)]
    ok = (
        all(abs(verifier_rows[k] - paper_verifier[k]) <= 0.15 for k in paper_verifier)
        and all(a > b for a, b in zip(v, v[1:]))
        and all(abs(greedy_rows[k] - paper_greedy[k]) <= 0.5 for k in paper_greedy)
        and all(a <= b for a, b in zip(g, g[1:]))
    )
    _report(10, "Binary-MNIST K sweep", ok, f"verifier={v}, qp-greedy={g}")


@_needs_data
def test_criterion_11_screening_efficiency():
    ds, queries_ds = _load_benchmark("mnist_train.csv", "mnist_test.csv")
    queries = _sample_correct(ds, queries_ds, 1, 100, seed=0)
    sorted_solved = [exact_1nn(ds, q, n_scr=8, sort_candidates=True).stats.subproblems_solved
                     for q in queries]
    unsorted_solved = [exact_1nn(ds, q, n_scr=8, sort_candidates=False).stats.subproblems_solved
                       for q in queries]
    mean_sorted = float(np.mean(sorted_solved))
    mean_unsorted = float(np.mean(unsorted_solved))
    ok = mean_sorted <= 10.0 and mean_unsorted > mean_sorted
    _report(11, "screening efficiency", ok,
            f"mean solved sorted={mean_sorted:.2f}, unsorted={mean_unsorted:.2f}")
