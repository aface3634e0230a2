"""Independent checks on every certificate the benchmark collects.

Each check returns the names of the certificates it finds at fault, so that a
failure counts against the (method, query, K) that produced it and the run
goes on.  Only orderings that are theorems are checked: lower <= exact <=
every upper bound, qp-10 <= qp-1 <= naive-1, and the norm sandwich between
the l2, linf and l1 minima.
"""

from __future__ import annotations

import math

import numpy as np

# Relative tolerance of the command line's own ordering check.
ORDER_TOL = 1e-7
# A returned perturbation must flip the plain vote at z + (1 + FLIP_RHO) delta,
# or flip the vote at z + delta when distances within TIE_RTOL (relative) of
# the K-th one count as tied and ties go against the true label.  Inflating
# alone is not enough: a K-NN optimum can be held by a row whose offset is
# positive, and scaling delta up moves off that row to the wrong side.
FLIP_RHO = 1e-6
TIE_RTOL = 1e-9
# Recomputed perturbation norms must match the reported epsilon this closely.
NORM_RTOL = 1e-9
# Exact and verifier epsilons at the default seed must match the reference.
FINGERPRINT_RTOL = 1e-6


def plain_vote(points: np.ndarray, labels: np.ndarray, x: np.ndarray, k: int) -> int:
    """Majority label among the k nearest points; ties go to the smaller label."""
    diff = points - x
    nearest = np.argsort(np.einsum("ij,ij->i", diff, diff), kind="stable")[:k]
    return int(np.argmax(np.bincount(labels[nearest])))


def flips_with_ties(points: np.ndarray, labels: np.ndarray, x: np.ndarray,
                    k: int, true_label: int) -> bool:
    """K-NN vote at x with ties at the K-th distance resolved against ``true_label``."""
    diff = points - x
    dist = np.einsum("ij,ij->i", diff, diff)
    kth = np.partition(dist, k - 1)[k - 1]
    window = TIE_RTOL * kth
    strict = labels[dist < kth - window]
    tied = labels[np.abs(dist - kth) <= window]
    slots = k - strict.size
    tied_other = np.count_nonzero(tied != true_label)
    true_votes = np.count_nonzero(strict == true_label) + max(0, slots - tied_other)
    for label in np.unique(np.concatenate([strict, tied])):
        if label != true_label:
            votes = np.count_nonzero(strict == label) + min(np.count_nonzero(tied == label), slots)
            if votes >= true_votes:
                return True
    return False


def norm_of(delta: np.ndarray, norm: str) -> float:
    a = np.abs(delta)
    if norm == "linf":
        return float(a.max())
    if norm == "l1":
        return float(a.sum())
    return math.sqrt(float(a @ a))


def certificate_checks(points: np.ndarray, labels: np.ndarray, z: np.ndarray,
                       true_label: int, k: int, norm: str,
                       delta: np.ndarray, epsilon: float) -> list[str]:
    """Names of the per-certificate checks a returned perturbation fails."""
    failed = []
    if abs(norm_of(delta, norm) - epsilon) > NORM_RTOL * (1.0 + abs(epsilon)):
        failed.append("norm")
    if (plain_vote(points, labels, z + (1.0 + FLIP_RHO) * delta, k) == true_label
            and not flips_with_ties(points, labels, z + delta, k, true_label)):
        failed.append("flip")
    return failed


def _above(lo: float, hi: float) -> bool:
    return lo > hi + ORDER_TOL * (1.0 + abs(hi))


def ordering_checks(lower: dict[str, float], exact: dict[str, float],
                    upper: dict[str, float]) -> list[tuple[str, tuple[str, ...]]]:
    """lower <= exact <= every upper bound, all at one (query, K)."""
    failed = []
    for lo_name, lo in lower.items():
        for hi_name, hi in {**exact, **upper}.items():
            if _above(lo, hi):
                failed.append(("lower<=upper", (lo_name, hi_name)))
    for ex_name, ex in exact.items():
        for hi_name, hi in upper.items():
            if _above(ex, hi):
                failed.append(("exact<=upper", (ex_name, hi_name)))
    chain = [name for name in ("qp-10", "qp-1", "naive-1") if name in upper]
    for lo_name, hi_name in zip(chain, chain[1:]):
        if _above(upper[lo_name], upper[hi_name]):
            failed.append(("qp10<=qp1<=naive1", (lo_name, hi_name)))
    return failed


def sandwich_checks(l2: float, linf: float, l1: float, d: int,
                    names=("exact", "exact-linf", "exact-l1")) -> list[tuple[str, tuple[str, ...]]]:
    """Norm equivalence of the minima: linf <= l2 <= l1 <= sqrt(d) l2, l2 <= sqrt(d) linf."""
    n2, ninf, n1 = names
    root = math.sqrt(d)
    pairs = (
        (linf, l2, (ninf, n2)),
        (l2, l1, (n2, n1)),
        (l1, root * l2, (n1, n2)),
        (l2, root * linf, (n2, ninf)),
    )
    return [("norm-sandwich", who) for lo, hi, who in pairs if _above(lo, hi)]


def fingerprint_mismatches(observed: dict[str, float | None],
                           reference: dict[str, float]) -> tuple[int, list[str]]:
    """Compare recorded epsilons; return (entries compared, mismatching keys).

    An observed value of None, a call that raised, mismatches its reference.
    """
    compared, bad = 0, []
    for key, value in observed.items():
        if key not in reference:
            continue
        compared += 1
        ref = reference[key]
        if value is None or abs(value - ref) > FINGERPRINT_RTOL * max(abs(ref), 1e-12):
            bad.append(key)
    return compared, bad
