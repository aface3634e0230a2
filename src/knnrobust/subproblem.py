"""Constraint systems for the per-target perturbation QPs.

A subproblem encodes "push the query closer to every target point than to
every retained same-class point" as the linear system ``A delta + b >= 0``.
Row (i, j) has ``a = x_j - x_i`` and ``b = (||z - x_i||^2 - ||z - x_j||^2)/2``;
the squared distances are computed from the differences directly to limit
cancellation error.  The dual value of one row, the pair bound, is
``pair_bound`` for one pair and ``pair_bound_block`` for a block of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import Dataset, Query
from .errors import DataFormatError, DegeneratePairError

_EMPTY = np.empty(0, dtype=np.int64)
# A Gram-product squared distance below this fraction of ||x_i||^2 + ||x_j||^2
# has lost at least four of its digits to cancellation.
_GRAM_REL_TOL = 1e-4
# Elements of one temporary block of pair differences in difference form,
# about 2 MB: at d=784 the 1-NN window can hold thousands of targets.
_BLOCK_ELEMENTS = 2 ** 18
# Every Gram-form term is at most 2 (||x_i||^2 + ||x_j||^2) in size, so
# below this bound on that sum none overflows float64.
_GRAM_MAX = 2.0 ** 1020
# The dual of the max norm is the sum norm, and that of the sum norm the max norm.
_DUAL_ORD = {"linf": 1, "l1": np.inf}


@dataclass(frozen=True)
class Subproblem:
    """One convex QP instance: minimize ||delta||^2/2 s.t. rows.delta + offsets >= 0.

    Row ``t * sources.size + s`` pairs ``targets[t]`` with ``sources[s]``; a
    hand-built system leaves both empty."""

    rows: np.ndarray            # (m, d) matrix A
    offsets: np.ndarray         # (m,) vector b
    sources: np.ndarray = field(default_factory=lambda: _EMPTY)  # same-class ids i
    targets: np.ndarray = field(default_factory=lambda: _EMPTY)  # target ids j

    def __post_init__(self) -> None:
        rows = np.ascontiguousarray(np.asarray(self.rows, dtype=np.float64))
        offsets = np.asarray(self.offsets, dtype=np.float64).ravel()
        if rows.ndim != 2 or rows.shape[0] != offsets.shape[0] or rows.shape[0] < 1:
            raise ValueError("rows must be (m, d) with one offset per row, m >= 1")
        grid = self.sources.size * self.targets.size
        if (self.sources.size or self.targets.size) and rows.shape[0] != grid:
            raise ValueError("the rows must form the targets x sources grid")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "offsets", offsets)

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
        ``excluded`` added, bit for bit, with no row recomputed.
        """
        keep = np.ones(self.sources.size, dtype=bool)
        for i in excluded:
            keep &= self.sources != i
        if not keep.any():
            raise ValueError("all same-class points excluded; constraint set is empty")
        grid = (self.targets.size, self.sources.size)
        # np.compress copies the kept rows about twice as fast as fancy indexing.
        rows = np.compress(keep, self.rows.reshape(*grid, self.d), axis=1).reshape(-1, self.d)
        return Subproblem(rows, self.offsets.reshape(grid)[:, keep], self.sources[keep],
                          self.targets)


def _build(ds: Dataset, z: np.ndarray, sources: np.ndarray, target_ids,
           dist_sq: np.ndarray | None) -> Subproblem:
    if dist_sq is None:
        dist_sq = ds.distances_sq(z)
    targets = np.asarray(target_ids, dtype=np.int64)
    rows = (ds.points[targets][:, None] - ds.points[sources][None]).reshape(-1, ds.d)
    offsets = 0.5 * (dist_sq[sources][None] - dist_sq[targets][:, None])
    # Equal points have bit-equal distances: only a zero offset can sit on a zero row.
    tied = np.flatnonzero(offsets == 0.0)
    zero = tied[~rows[tied].any(axis=1)]
    if zero.size:
        t, s = divmod(int(zero[0]), sources.size)
        raise DegeneratePairError(f"points {sources[s]} and {targets[t]} coincide across classes")
    return Subproblem(rows, offsets.ravel(), sources, targets)


def build_1nn_subproblem(ds: Dataset, q: Query, j: int, *,
                         dist_sq: np.ndarray | None = None) -> Subproblem:
    """Constraints forcing z + delta (weakly) nearer x_j than every point
    sharing the query's label: the K-NN system of the one target j, one row
    per same-class point.  ``dist_sq`` is as in ``build_knn_subproblem``."""
    return build_knn_subproblem(ds, q, (j,), dist_sq=dist_sq)


def build_knn_subproblem(ds: Dataset, q: Query, s_minus, excluded=(), *,
                         dist_sq: np.ndarray | None = None) -> Subproblem:
    """K-NN constraint system: every target in ``s_minus`` must end up nearer
    than every same-class point not listed in ``excluded``.

    ``dist_sq``, when given, must be ``ds.distances_sq(q.z)``; callers that
    already hold it pass it so that it is not recomputed per target set."""
    s_minus = tuple(int(j) for j in s_minus)
    excluded = tuple(int(i) for i in excluded)
    if not s_minus:
        raise ValueError("s_minus must be nonempty")
    target_labels = {int(ds.labels[j]) for j in s_minus}
    if len(target_labels) != 1:
        raise ValueError(f"s_minus mixes labels {sorted(target_labels)}")
    if q.true_label in target_labels:
        raise ValueError(f"target {s_minus[0]} has the query's own label {q.true_label}")
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
    the (i, j) constraint row.  A squared distance from z that overflows
    raises ``DataFormatError``.
    """
    z = np.asarray(z, dtype=np.float64)
    with np.errstate(over="ignore"):
        di, dj = z - ds.points[i], z - ds.points[j]
        denom = float(np.linalg.norm(ds.points[j] - ds.points[i]))
        di_sq, dj_sq = float(di @ di), float(dj @ dj)
    if denom == 0.0:
        raise DegeneratePairError(f"points {i} and {j} coincide")
    if not np.isfinite([di_sq, dj_sq]).all():
        raise DataFormatError("squared distances from the query overflow float64")
    return max(dj_sq - di_sq, 0.0) / (2.0 * denom)


def pair_bound_block(ds: Dataset, z: np.ndarray, sources: np.ndarray, sources_sq: np.ndarray,
                     targets: np.ndarray, targets_sq: np.ndarray, norm: str = "l2") -> np.ndarray:
    """Pair bounds C[s, t] of the sources against the targets, in ``norm``.

    ``sources_sq`` and ``targets_sq`` are their squared distances from the
    query ``z``.  Row (i, j) forces ``||delta|| >= max(d_j^2 - d_i^2, 0) /
    (2 ||x_j - x_i||_*)`` by Hölder's inequality, with ``||.||_*`` the dual
    norm (l2 under l2, the sum norm under the max norm and the max norm
    under the sum norm); under l2 this is ``pair_bound``.  It is the
    verifier's certified bound and, over the ``n_scr`` screening rows, the
    1-NN loop's proof that a target cannot beat the incumbent.

    Under l2 the cross-pair squared distances are evaluated through a Gram
    product, which is the only tractable form at scale.  Where that value is
    at most ``_GRAM_REL_TOL`` times ``||x_i||^2 + ||x_j||^2`` (near-duplicate
    points far from the origin), cancellation may have shrunk it and so
    inflated the bound; such pairs are recomputed in difference form,
    ``||x_i - x_j||^2`` over the numerator ``(x_i - x_j).((z - x_i) + (z - x_j))``.
    The squared norms are read from ``ds.norms_sq``, one einsum over all the
    points, which sums each row as an einsum over these rows alone would,
    except beyond d = 8192 for a block of one source or one target: numpy's
    einsum sums a lone row of that length in another order, so such a bound
    may then differ in its last bit.  Under linf and l1, and under l2 when
    the squared norms reach ``_GRAM_MAX`` (where the Gram form may overflow),
    the dual norms are taken of the differences, formed in blocks of about
    ``_BLOCK_ELEMENTS`` elements, and every entry is that of its own pair
    bit for bit; an l2 norm whose square overflows is taken as
    ``max|gap| * ||gap / max|gap|||``.

    A coincident pair has bound 0, which keeps the bound sound.  A zero
    distance with ``d_i < d_j`` raises ``DegeneratePairError``: the points
    differ, but their squared distance underflows.
    """
    numer = np.maximum(targets_sq[None, :] - sources_sq[:, None], 0.0)
    xs = ds.points[sources]
    xt = ds.points[targets]
    s_norm = ds.norms_sq[sources]
    t_norm = ds.norms_sq[targets]
    scale = float(s_norm.max()) + float(t_norm.max())    # inf on overflow, unwarned
    if norm == "l2" and scale < _GRAM_MAX:
        cross = s_norm[:, None] + t_norm[None, :] - 2.0 * (xs @ xt.T)
        # The block-wide test is cheap and almost always clears every pair; a
        # cleared block has no negative or zero cross distance.
        if not cross.min() <= _GRAM_REL_TOL * scale:
            return numer / (2.0 * np.sqrt(cross))
        i, j = np.nonzero(cross <= _GRAM_REL_TOL * (s_norm[:, None] + t_norm[None, :]))
        gap = xs[i] - xt[j]
        cross[i, j] = np.einsum("ij,ij->i", gap, gap)
        numer[i, j] = np.maximum(np.einsum("ij,ij->i", gap, (z - xs[i]) + (z - xt[j])), 0.0)
        dual = np.sqrt(cross)
    else:
        dual = np.empty(numer.shape)
        step = max(1, _BLOCK_ELEMENTS // xs.size)
        for lo in range(0, targets.size, step):
            gap = xt[None, lo:lo + step] - xs[:, None]
            if norm != "l2":
                dual[:, lo:lo + step] = np.linalg.norm(gap, ord=_DUAL_ORD[norm], axis=2)
                continue
            with np.errstate(over="ignore"):
                dual[:, lo:lo + step] = norms = np.linalg.norm(gap, axis=2)
            s, t = np.nonzero(np.isinf(norms))
            peak = np.abs(gap[s, t]).max(axis=1, keepdims=True)
            dual[s, lo + t] = peak[:, 0] * np.linalg.norm(gap[s, t] / peak, axis=1)
    zero = dual == 0.0
    bad = zero & (numer > 0.0)
    if np.any(bad):
        s, t = np.argwhere(bad)[0]
        raise DegeneratePairError(f"points {int(sources[s])} and {int(targets[t])} differ, "
                                  "but their squared distance underflows to 0")
    dual[zero] = 1.0
    return numer / (2.0 * dual)
