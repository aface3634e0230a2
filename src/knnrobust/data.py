"""Reference database, CSV ingestion and K-NN prediction.

The dataset is an immutable matrix of points with integer class labels in
``{1..C}``.  Every routine in this module is a pure function of its inputs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import DataFormatError, InsufficientPointsError


@dataclass(frozen=True)
class TieRule:
    """Policy for distance ties at the decision boundary.

    Ties are resolved in favour of misclassification, which matches the
    non-strict inequality used by the perturbation constraints: a
    perturbation of exactly the minimum radius already flips the label.
    ``inflation`` is the relative factor by which ``is_adversarial`` pushes
    a perturbation strictly past a bisection; it is a constant, since a large
    one accepts perturbations that do not flip the prediction at z + delta.
    """

    inflation: ClassVar[float] = 1e-9


DEFAULT_TIE_RULE = TieRule()


@dataclass(frozen=True)
class Dataset:
    """n points in d dimensions with class labels in {1..C}."""

    points: np.ndarray
    labels: np.ndarray
    class_count: int = field(default=0)

    def __post_init__(self) -> None:
        points = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        labels = np.asarray(self.labels, dtype=np.int64).ravel()
        if points.ndim != 2:
            raise DataFormatError("points must be a 2-D matrix")
        n, d = points.shape
        if n < 2 or d < 1:
            raise DataFormatError(f"need n >= 2 and d >= 1, got n={n}, d={d}")
        if labels.shape != (n,):
            raise DataFormatError("labels must have one entry per point")
        if not np.all(np.isfinite(points)):
            raise DataFormatError("points contain NaN or Inf entries")
        present = np.unique(labels)
        if present.size < 2:
            raise DataFormatError("need at least two distinct classes")
        c = self.class_count if self.class_count else int(present.max())
        if present[0] < 1 or present[-1] > c:
            raise DataFormatError(f"labels must lie in 1..{c}, got {present.tolist()}")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_count", c)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def class_indices(self, label: int) -> np.ndarray:
        """Indices of the points labelled ``label``, ascending (``split(label)[0]``)."""
        return self.split(label)[0]

    def split(self, label: int) -> tuple[np.ndarray, np.ndarray]:
        """Indices of the points labelled ``label`` and of all other points.

        Both are ascending and read-only, and each label's pair is computed
        on first use and kept.
        """
        sets = self._splits.get(label)
        if sets is None:
            own = self.labels == label
            sets = (_read_only(np.flatnonzero(own)), _read_only(np.flatnonzero(~own)))
            self._splits[label] = sets
        return sets

    @cached_property
    def _splits(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        return {}

    @cached_property
    def norms_sq(self) -> np.ndarray:
        """Squared Euclidean norm of every point, read-only, computed on first use."""
        return _read_only(np.einsum("ij,ij->i", self.points, self.points))

    @cached_property
    def means_by_label(self) -> dict[int, np.ndarray]:
        """The mean of each class's points, keyed by the labels that have points."""
        return {int(c): self.points[self.class_indices(c)].mean(axis=0)
                for c in np.unique(self.labels)}

    def distances_sq(self, z: np.ndarray) -> np.ndarray:
        """Squared Euclidean distances from ``z`` to every point.

        Computed from the differences directly rather than by expanding the
        inner products, which keeps cancellation error small near ties.
        """
        z = np.asarray(z, dtype=np.float64).ravel()
        if z.shape != (self.d,):
            raise ValueError(f"query has dimension {z.size}, dataset has d={self.d}")
        diff = self.points - z
        return np.einsum("ij,ij->i", diff, diff)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Query:
    """A test instance together with the label the model should assign it."""

    z: np.ndarray
    true_label: int

    def __post_init__(self) -> None:
        z = np.ascontiguousarray(np.asarray(self.z, dtype=np.float64)).ravel()
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "true_label", int(self.true_label))


def _read_labeled_rows(path, has_header: bool) -> tuple[list[int], list[list[float]]]:
    rows: list[list[float]] = []
    labels: list[int] = []
    width = None
    try:
        handle = open(path, newline="", encoding="utf-8-sig")  # drops a byte-order mark
    except OSError as exc:
        raise DataFormatError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        if has_header:
            next(reader, None)
        for lineno, record in enumerate(reader, start=1):
            if not record or all(not f.strip() for f in record):
                continue
            if len(record) < 2:
                raise DataFormatError(f"row {lineno}: need a label and at least one feature")
            raw_label = record[0].strip()
            try:
                label = int(raw_label)
            except ValueError:
                raise DataFormatError(f"row {lineno}: label {raw_label!r} is not an integer") from None
            if label < 1:
                raise DataFormatError(f"row {lineno}: label must be a positive integer, got {label}")
            features = []
            for col, fieldval in enumerate(record[1:], start=2):
                try:
                    features.append(float(fieldval))
                except ValueError:
                    raise DataFormatError(
                        f"row {lineno}: field {col} ({fieldval!r}) is not numeric"
                    ) from None
            if width is None:
                width = len(features)
            elif len(features) != width:
                raise DataFormatError(
                    f"row {lineno}: expected {width} features, got {len(features)}"
                )
            labels.append(label)
            rows.append(features)
    return labels, rows


def load_csv(path, has_header: bool = False) -> Dataset:
    """Load a ``label,f1,...,fd`` CSV file into a Dataset.

    Rows are kept in file order.  Errors carry the 1-based row number of the
    offending line (header excluded from the count when present).
    """
    labels, rows = _read_labeled_rows(path, has_header)
    if len(rows) < 2:
        raise DataFormatError(f"{path}: need at least 2 data rows, got {len(rows)}")
    label_arr = np.asarray(labels, dtype=np.int64)
    present = np.unique(label_arr)
    if present.size < 2:
        raise DataFormatError(f"{path}: fewer than 2 classes present")
    if present[0] != 1 or present[-1] != present.size:
        raise DataFormatError(
            f"{path}: labels must form a contiguous range 1..C, got {present.tolist()}"
        )
    try:
        return Dataset(np.asarray(rows, dtype=np.float64), label_arr, int(present.size))
    except DataFormatError as err:     # e.g. a NaN or Inf feature
        raise DataFormatError(f"{path}: {err}") from err


def load_queries(path, has_header: bool = False) -> list[Query]:
    """Load test instances from a CSV in the same format as the database.

    The label column holds the true label of each query.
    """
    labels, rows = _read_labeled_rows(path, has_header)
    if not rows:
        raise DataFormatError(f"{path}: no query rows")
    points = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(points)):
        raise DataFormatError(f"{path}: query features contain NaN or Inf entries")
    return [Query(z, lab) for lab, z in zip(labels, points)]


def generate_synthetic(
    n_per_class: int, d: int, class_count: int, separation: float, seed: int
) -> Dataset:
    """Deterministic Gaussian blobs with class means ``separation`` apart.

    Class means sit on distinct coordinate axes (cycled with an increasing
    radius when C > d) so that means of different classes are separated by
    approximately ``separation``; unit-variance noise is added around each.
    """
    if n_per_class < 1 or d < 1 or class_count < 1:
        raise ValueError("all counts must be >= 1")
    if separation < 0:
        raise ValueError("separation must be >= 0")
    rng = np.random.default_rng(seed)
    scale = separation / np.sqrt(2.0)
    means = np.zeros((class_count, d))
    for c in range(class_count):
        means[c, c % d] = scale * (1 + c // d)
    points = np.vstack(
        [means[c] + rng.standard_normal((n_per_class, d)) for c in range(class_count)]
    )
    labels = np.repeat(np.arange(1, class_count + 1), n_per_class)
    return Dataset(points, labels, class_count)


# Below this many values the stable sort runs directly.  On fresh arrays of
# squared normals the checked sort overtook it between 100 and 200 values; at
# 10 the stable sort took under half the checked one's time, at 1,000 three
# times as long.
_CHECKED_SORT_MIN = 200


def stable_order(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")`` for a 1-D ndarray, bit for bit.

    Numpy's default sort is faster than its stable one on random data, and
    the two orders agree unless equal values meet.  So from
    ``_CHECKED_SORT_MIN`` values on the default order is kept when its sorted
    values strictly increase, and the stable sort runs otherwise (equal
    values, +0.0 against -0.0, infinities or NaN).  Below that size the
    stable sort runs directly.
    """
    if values.size < _CHECKED_SORT_MIN:
        return np.argsort(values, kind="stable")
    order = np.argsort(values)
    ranked = values[order]
    if (ranked[1:] > ranked[:-1]).all():
        return order
    return np.argsort(values, kind="stable")


def check_k(ds: Dataset, k: int) -> None:
    """Raise unless K is an odd integer with 1 <= K <= n.

    An even, non-integer or nonpositive K is a ``ValueError``; K > n is an
    ``InsufficientPointsError``.
    """
    if not isinstance(k, (int, np.integer)) or k < 1 or k % 2 == 0:
        raise ValueError(f"K must be an odd integer >= 1, got {k!r}")
    if k > ds.n:
        raise InsufficientPointsError(f"K={k} exceeds dataset size n={ds.n}")


def k_nearest(ds: Dataset, z: np.ndarray, k: int) -> np.ndarray:
    """Indices of the K nearest points, nearest first.

    Equal distances are broken by ascending index, so the output is fully
    deterministic.
    """
    if k > ds.n:
        raise InsufficientPointsError(f"K={k} exceeds dataset size n={ds.n}")
    if k < 1:
        raise ValueError("K must be >= 1")
    return stable_order(ds.distances_sq(z))[:k]


def finite_distances_sq(ds: Dataset, z: np.ndarray) -> np.ndarray:
    """``ds.distances_sq(z)``, raising ``DataFormatError`` if one overflows.

    Finite features far enough apart square past the float64 range; an Inf
    distance would end as a NaN bound or a perturbation that does not flip.
    """
    dist_sq = ds.distances_sq(z)
    if not np.isfinite(dist_sq).all():
        raise DataFormatError("squared distances from the query overflow float64")
    return dist_sq


# Squared distances within this fraction of the K-th one count as tied, with
# no absolute floor, so the vote is the same at every data scale.  Exact
# equality would be the mathematical definition, but a perturbation landing
# on a bisection hyperplane rarely reproduces the tie bit-for-bit when the
# distances are recomputed, and the tie rule exists for that boundary.
_TIE_REL_TOL = 512 * np.finfo(np.float64).eps


def knn_vote(ds: Dataset, dist_sq: np.ndarray, k: int, true_label: int | None = None) -> int:
    """The vote of ``knn_predict`` on given squared distances to every point.

    Needs ``k <= ds.n``.  ``knn_predict`` and the verifier pass distances
    they already hold.
    """
    kth = np.partition(dist_sq, k - 1)[k - 1]
    window = _TIE_REL_TOL * kth
    strict = dist_sq < kth - window
    tied = np.abs(dist_sq - kth) <= window
    slots = k - int(np.count_nonzero(strict))
    size = ds.class_count + 1
    # Per-label counts are tiny (C + 1 entries), so the rest runs on lists.
    fixed = np.bincount(ds.labels[strict], minlength=size).tolist()

    if true_label is None:
        tied_ids = np.flatnonzero(tied)
        first = tied_ids[np.argsort(dist_sq[tied_ids], kind="stable")[:slots]]
        # argmax takes the smallest label among equal counts.
        return int(np.argmax(np.bincount(ds.labels[first], minlength=size) + fixed))

    avail = np.bincount(ds.labels[tied], minlength=size).tolist()
    votes = [f + min(a, slots) for f, a in zip(fixed, avail)]
    own_fixed = own_avail = 0
    if 0 <= true_label < size:
        own_fixed, own_avail = fixed[true_label], avail[true_label]
        votes[true_label] = -1
    # Filling non-true tied candidates first leaves the true class with the
    # fewest achievable votes; the overflow below is forced either way.
    true_votes = own_fixed + max(0, slots - (sum(avail) - own_avail))
    best = max(votes)
    # index() takes the smallest label among equal counts.
    return votes.index(best) if best >= true_votes else true_label


def knn_predict(
    ds: Dataset,
    z: np.ndarray,
    k: int,
    tie: TieRule = DEFAULT_TIE_RULE,
    true_label: int | None = None,
) -> int:
    """Majority-vote K-NN prediction under the attacker-favorable tie rule.

    When a distance tie straddles the K-th rank, the tied candidates can be
    included or dropped at will; with ``true_label`` given, the choice (and
    any resulting tie in the vote itself) is resolved so that the prediction
    moves away from ``true_label`` whenever some choice achieves that.
    Without a reference label, ties are broken by ascending point index and
    vote ties by the smallest label.
    """
    check_k(ds, k)
    return knn_vote(ds, ds.distances_sq(z), k, true_label)


def class_means(ds: Dataset) -> np.ndarray:
    """Row c-1 is the arithmetic mean of class-c points (``ds.means_by_label``)."""
    labels = range(1, ds.class_count + 1)
    missing = [c for c in labels if c not in ds.means_by_label]
    if missing:
        raise InsufficientPointsError(f"class {missing[0]} has no points")
    return np.array([ds.means_by_label[c] for c in labels])
