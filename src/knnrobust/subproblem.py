"""Constraint systems for the per-target perturbation QPs.

A subproblem encodes "push the query closer to every target point than to
every retained same-class point" as the linear system ``A delta + b >= 0``.
Row (i, j) has ``a = x_j - x_i`` and ``b = (||z - x_i||^2 - ||z - x_j||^2)/2``;
the squared distances are computed from the differences directly to limit
cancellation error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import Dataset, Query
from .errors import DegeneratePairError

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class Subproblem:
    """One convex QP instance: minimize ||delta||^2/2 s.t. rows.delta + offsets >= 0."""

    rows: np.ndarray            # (m, d) matrix A
    offsets: np.ndarray         # (m,) vector b
    row_source_ids: np.ndarray = field(default_factory=lambda: _EMPTY)  # i per row
    row_target_ids: np.ndarray = field(default_factory=lambda: _EMPTY)  # j per row
    # Squared row norms, computed from the rows unless given.
    row_norms_sq: np.ndarray = field(default=None, repr=False)

    def __post_init__(self) -> None:
        rows = np.ascontiguousarray(np.asarray(self.rows, dtype=np.float64))
        offsets = np.asarray(self.offsets, dtype=np.float64).ravel()
        if rows.ndim != 2 or rows.shape[0] != offsets.shape[0] or rows.shape[0] < 1:
            raise ValueError("rows must be (m, d) with one offset per row, m >= 1")
        norms_sq = self.row_norms_sq
        if norms_sq is None:
            norms_sq = np.einsum("ij,ij->i", rows, rows)
        if np.any(norms_sq == 0.0):
            bad = int(np.flatnonzero(norms_sq == 0.0)[0])
            i = int(self.row_source_ids[bad]) if len(self.row_source_ids) else bad
            j = int(self.row_target_ids[bad]) if len(self.row_target_ids) else -1
            raise DegeneratePairError(
                f"points {i} and {j} coincide across classes (zero constraint row)"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "row_norms_sq", norms_sq)

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    @cached_property
    def offset_scale(self) -> float:
        """``||b||_inf``, the unit of every residual tolerance: like the
        residuals, it scales by s^2 when the data and the query scale by s.
        Computed on first read; a carved system computes its own."""
        return float(np.max(np.abs(self.offsets)))

    def residual(self, delta: np.ndarray) -> np.ndarray:
        """Constraint slack A delta + b (nonnegative iff delta feasible)."""
        return self.rows @ np.asarray(delta, dtype=np.float64) + self.offsets

    def without_sources(self, excluded) -> Subproblem:
        """The rows whose source is not in ``excluded``, in their order.

        On a ``build_knn_subproblem`` system this equals rebuilding it with
        ``excluded`` added, bit for bit, with no row or row norm recomputed.
        """
        keep = np.ones(self.m, dtype=bool)
        for i in excluded:
            keep &= self.row_source_ids != i
        if not keep.any():
            raise ValueError("all same-class points excluded; constraint set is empty")
        # np.compress copies the kept rows about twice as fast as rows[keep].
        return Subproblem(np.compress(keep, self.rows, axis=0), self.offsets[keep],
                          self.row_source_ids[keep], self.row_target_ids[keep],
                          self.row_norms_sq[keep])


def _build(ds: Dataset, z: np.ndarray, source_ids: np.ndarray, target_ids,
           dist_sq: np.ndarray | None) -> Subproblem:
    if dist_sq is None:
        dist_sq = ds.distances_sq(z)
    targets = np.asarray(target_ids, dtype=np.int64)
    rows = ds.points[targets][:, None] - ds.points[source_ids][None]
    offsets = 0.5 * (dist_sq[source_ids][None] - dist_sq[targets][:, None])
    return Subproblem(
        rows=rows.reshape(-1, ds.d),
        offsets=offsets.ravel(),
        row_source_ids=np.tile(source_ids, targets.size),
        row_target_ids=np.repeat(targets, source_ids.size),
    )


def build_1nn_subproblem(ds: Dataset, q: Query, j: int, *,
                         dist_sq: np.ndarray | None = None) -> Subproblem:
    """Constraints forcing z + delta to be (weakly) nearer x_j than every
    point sharing the query's label.  One row per same-class point; rows for
    other classes would be identically zero and are not stored.

    ``dist_sq``, when given, must be ``ds.distances_sq(q.z)``; callers that
    already hold it pass it so that it is not recomputed per target."""
    if int(ds.labels[j]) == q.true_label:
        raise ValueError(f"target {j} has the query's own label {q.true_label}")
    source_ids = ds.class_indices(q.true_label)
    if source_ids.size == 0:
        raise ValueError(f"no points with the query label {q.true_label}")
    return _build(ds, q.z, source_ids, (int(j),), dist_sq)


def build_knn_subproblem(ds: Dataset, q: Query, s_minus, excluded=(), *,
                         dist_sq: np.ndarray | None = None) -> Subproblem:
    """K-NN constraint system: every target in ``s_minus`` must end up nearer
    than every same-class point not listed in ``excluded``.

    ``dist_sq`` is as in ``build_1nn_subproblem``."""
    s_minus = tuple(int(j) for j in s_minus)
    excluded = tuple(int(i) for i in excluded)
    if not s_minus:
        raise ValueError("s_minus must be nonempty")
    target_labels = {int(ds.labels[j]) for j in s_minus}
    if len(target_labels) != 1:
        raise ValueError(f"s_minus mixes labels {sorted(target_labels)}")
    if q.true_label in target_labels:
        raise ValueError("s_minus must not carry the query's own label")
    for i in excluded:
        if int(ds.labels[i]) != q.true_label:
            raise ValueError(f"excluded index {i} is not a same-class point")
    source_ids = ds.class_indices(q.true_label)
    if excluded:
        source_ids = np.setdiff1d(source_ids, excluded)
    if source_ids.size == 0:
        raise ValueError("all same-class points excluded; constraint set is empty")
    return _build(ds, q.z, source_ids, s_minus, dist_sq)


def pair_bound(ds: Dataset, z: np.ndarray, i: int, j: int) -> float:
    """Clipped distance from z to the (x_i, x_j) bisection hyperplane.

    This equals ``max(||z-x_j||^2 - ||z-x_i||^2, 0) / (2 ||x_j - x_i||)`` and
    is the radius certified by the best single-coordinate dual solution of
    the (i, j) constraint row.
    """
    z = np.asarray(z, dtype=np.float64)
    xi, xj = ds.points[i], ds.points[j]
    gap = xj - xi
    denom = float(np.linalg.norm(gap))
    if denom == 0.0:
        raise DegeneratePairError(f"points {i} and {j} coincide")
    di = z - xi
    dj = z - xj
    numer = max(float(dj @ dj) - float(di @ di), 0.0)
    return numer / (2.0 * denom)
