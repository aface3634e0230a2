"""Certified lower bounds on the minimum adversarial perturbation.

The K-NN bound merges all non-true labels into a single negative class and
works purely with pair bounds (clipped distances to bisection hyperplanes):
for each negative point j take the k-th largest pair bound over the positive
points, then take the k-th smallest of those over j, with k = (K+1)/2.

Most pair bounds never decide that result, and two facts skip them.  A
positive point i with ``d_i >= d_j`` (distances from the query) has pair
bound 0 against j, and by the triangle inequality target j's value is at
least ``max(d_j - d_(k), 0)/2``, with d_(k) the k-th smallest positive
distance.  Targets are walked nearest first and the walk stops once that
floor exceeds the running k-th smallest value, so the cost grows with K only
through how far the walk goes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# knn_predict is not called here, but it stays bound as verify.knn_predict:
# the benchmark's tracer rebinds that name.
from .data import knn_predict  # noqa: F401
from .data import (DEFAULT_TIE_RULE, Dataset, Query, TieRule, check_k, finite_distances_sq,
                   knn_vote, stable_order)
from .errors import DegeneratePairError, InsufficientPointsError

# Targets in the first block of the sorted walk; each later block is twice
# as large as the one before.
_FIRST_BLOCK = 16
# A Gram-product squared distance below this fraction of ||x_i||^2 + ||x_j||^2
# has lost at least four of its digits to cancellation.
_GRAM_REL_TOL = 1e-4


@dataclass(frozen=True)
class VerificationResult:
    """A certified radius with the pair that made it binding.

    ``pair_bounds`` counts the (positive, target) pair bounds evaluated.
    """

    epsilon_lower: float
    binding_pair: tuple[int, int] | None
    k_used: int
    misclassified: bool = False
    pair_bounds: int = 0


def _pair_bound_block(ds: Dataset, z: np.ndarray, rows: np.ndarray, rows_sq: np.ndarray,
                      block: np.ndarray, block_sq: np.ndarray) -> np.ndarray:
    """Pair bounds C[i, j] for same-class rows i against a block of targets j.

    ``rows_sq`` and ``block_sq`` are their squared distances from the query
    ``z``.  The cross-pair squared distances are evaluated through a Gram
    product, which is the only tractable form at scale.  Where that value is
    at most ``_GRAM_REL_TOL`` times ``||x_i||^2 + ||x_j||^2`` (near-duplicate
    points far from the origin), cancellation may have shrunk it and so
    inflated the bound; such pairs are recomputed in difference form,
    ``||x_i - x_j||^2`` over the numerator ``(x_i - x_j).((z - x_i) + (z - x_j))``.
    A pair with ``d_i >= d_j`` has bound 0 whatever its distance, so only
    pairs with ``d_i < d_j`` are evaluated, and a zero distance there raises
    ``DegeneratePairError``.

    The squared norms are read from ``ds.norms_sq``, one einsum over all the
    points, which sums each row as an einsum over these rows alone would,
    except beyond d = 8192 for a block of one row or one target: numpy's
    einsum sums a lone row of that length in another order, so such a bound
    may then differ in its last bit.
    """
    xs = ds.points[rows]
    xb = ds.points[block]
    rows_norm = ds.norms_sq[rows]
    block_norm = ds.norms_sq[block]
    cross = rows_norm[:, None] + block_norm[None, :] - 2.0 * (xs @ xb.T)
    numer = np.maximum(block_sq[None, :] - rows_sq[:, None], 0.0)
    # The block-wide test is cheap and almost always clears every pair; a
    # cleared block has no negative or zero cross distance.
    if cross.min() <= _GRAM_REL_TOL * (rows_norm.max() + block_norm.max()):
        i, j = np.nonzero(cross <= _GRAM_REL_TOL * (rows_norm[:, None] + block_norm[None, :]))
        gap = xs[i] - xb[j]
        cross[i, j] = np.einsum("ij,ij->i", gap, gap)
        numer[i, j] = np.maximum(np.einsum("ij,ij->i", gap, (z - xs[i]) + (z - xb[j])), 0.0)
        zero = cross == 0.0
        bad = zero & (numer > 0.0)
        if np.any(bad):
            i_bad, j_bad = np.argwhere(bad)[0]
            raise DegeneratePairError(
                f"points {int(rows[i_bad])} and {int(block[j_bad])} coincide across classes"
            )
        cross[zero] = 1.0
    return numer / (2.0 * np.sqrt(cross))


def verify_knn(ds: Dataset, q: Query, k: int = 1,
               tie: TieRule = DEFAULT_TIE_RULE) -> VerificationResult:
    """Certified K-NN lower bound via the order-statistic pair-bound formula.

    The bound is not monotone in K: a larger K lowers each target's
    ((K+1)/2)-th largest pair bound but needs (K+1)/2 targets, so it can
    rise (0.75 at K=1 and 1.0 at K=3 on a five-point line).

    Targets are evaluated in blocks in ascending distance, each block only
    against the same-class points strictly nearer than its farthest target
    (all of them when fewer than (K+1)/2 are), and the walk stops at the
    first target whose triangle-inequality floor exceeds the running
    ((K+1)/2)-th smallest value.  The skipped pairs and targets cannot change
    the bound, so it equals the full evaluation up to the rounding of the
    Gram products, whose last bits depend on the block shape.

    A same-class point that coincides with a target gives the row
    ``0.delta + 0 >= 0`` and pair bound 0, which keeps the bound sound; with
    ``d_i = d_j`` that pair is never evaluated.
    """
    check_k(ds, k)
    order = (k + 1) // 2
    dist_sq = finite_distances_sq(ds, q.z)
    # Both classes nearest first, ties by index: the walk and the row cut
    # read prefixes and searchsorted positions of these orders.
    same, others = (ids[stable_order(dist_sq[ids])] for ids in ds.split(q.true_label))
    if same.size < order:
        raise InsufficientPointsError(
            f"need at least {order} points of class {q.true_label}, have {same.size}"
        )
    if others.size < order:
        raise InsufficientPointsError(
            f"need at least {order} other-class points, have {others.size}"
        )
    if knn_vote(ds, dist_sq, k, q.true_label) != q.true_label:
        return VerificationResult(0.0, None, order, misclassified=True)

    same_sq = dist_sq[same]
    others_sq = dist_sq[others]
    d_vals = np.empty(others.size)
    blocks = []     # (first target, rows, pair bounds) of each block
    done = pairs = 0
    size = _FIRST_BLOCK
    end = min(size, others.size)
    while end > done:
        block = others[done:end]
        near = int(np.searchsorted(same_sq, others_sq[end - 1]))
        if near < order:
            near = same.size
        rows = same[:near]
        c = _pair_bound_block(ds, q.z, rows, same_sq[:near], block, others_sq[done:end])
        pairs += c.size
        d_vals[done:end] = np.partition(c, rows.size - order, axis=0)[rows.size - order]
        blocks.append((done, rows, c))
        done = end
        size *= 2
        end = min(done + size, others.size)
        if end > done and done >= order:
            # With r = order, target j's floor max(d_j - d_(r), 0)/2 exceeds
            # the running r-th smallest value iff d_j > d_(r) + 2 * running.
            # Floors never decrease along the walk and the running value never
            # increases, so the first such target ends it.
            running = np.partition(d_vals[:done], order - 1)[order - 1]
            reach = np.sqrt(same_sq[order - 1]) + 2.0 * running
            end = min(end, int(np.searchsorted(others_sq, reach * reach, side="right")))

    j_pos = int(np.argpartition(d_vals[:done], order - 1)[order - 1])
    epsilon = float(d_vals[j_pos])
    # The binding row is the order statistic's position in the binding
    # target's column, the one argpartition along axis 0 would have taken.
    first, rows, c = next(b for b in reversed(blocks) if b[0] <= j_pos)
    column = c[:, j_pos - first]
    i_pos = int(np.argpartition(column, rows.size - order)[rows.size - order])
    binding = (int(rows[i_pos]), int(others[j_pos]))
    return VerificationResult(epsilon, binding, order, pair_bounds=pairs)


def verify_1nn(ds: Dataset, q: Query, tie: TieRule = DEFAULT_TIE_RULE) -> VerificationResult:
    """1-NN lower bound: min over targets of the max pair bound.

    Tight whenever the exact solution has a single active constraint; always
    at most the exact minimum perturbation.
    """
    return verify_knn(ds, q, 1, tie)
