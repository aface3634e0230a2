import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnrobust import (
    DataFormatError,
    Dataset,
    InsufficientPointsError,
    Query,
    TieRule,
    class_means,
    exact_1nn,
    generate_synthetic,
    is_adversarial,
    k_nearest,
    knn_predict,
    load_csv,
    load_queries,
    mean_attack,
    naive_attack,
    qp_greedy_knn,
    verify_knn,
)
from knnrobust import data
from knnrobust.data import stable_order

from helpers import knn_predict_reference


class TestDatasetInvariants:
    def test_rejects_single_point(self):
        with pytest.raises(DataFormatError):
            Dataset(np.array([[1.0]]), np.array([1]))

    def test_rejects_single_class(self):
        with pytest.raises(DataFormatError):
            Dataset(np.array([[1.0], [2.0]]), np.array([1, 1]))

    def test_rejects_nonfinite(self):
        with pytest.raises(DataFormatError):
            Dataset(np.array([[1.0], [np.nan]]), np.array([1, 2]))

    def test_rejects_label_out_of_range(self):
        with pytest.raises(DataFormatError):
            Dataset(np.array([[1.0], [2.0]]), np.array([1, 5]), class_count=2)

    def test_rejects_one_dimensional_points(self):
        with pytest.raises(DataFormatError, match="points must be a 2-D matrix"):
            Dataset(np.array([1.0, 2.0]), np.array([1, 2]))

    def test_rejects_a_label_count_unlike_the_point_count(self):
        with pytest.raises(DataFormatError, match="labels must have one entry per point"):
            Dataset(np.array([[1.0], [2.0]]), np.array([1, 2, 1]))

    @pytest.mark.parametrize("labels, shown", [
        ([1.9, 1.2, 2.7, 2.0], "1.9"), ([1.0, 2.0, np.nan, 2.0], "nan"),
        ([1.0, 2.0, 1.0, -np.inf], "-inf"), ([1.0, 2.0, 1.0, 2.0 ** 63], "9.223372036854776e+18"),
        (np.array([1.9, 1.2, 2.7, 2.0], dtype=object), "1.9"),
        ([1, Fraction(3, 2), 2, 2], "Fraction(3, 2)"),
        (np.array([1.0, 2.0, np.nan, 2.0], dtype=np.float16), "nan"),
        (["1", "2", "1", "2"], "'1'"),
    ], ids=["fraction-part", "nan", "inf", "2^63", "object", "Fraction", "float16-nan", "strings"])
    def test_rejects_a_label_that_is_not_an_integer(self, labels, shown):
        # A cast to int64 would store [1, 1, 2, 2] for the first list.
        points = np.arange(4.0)[:, None]
        with pytest.raises(DataFormatError, match=f"^labels: {re.escape(shown)} is not a 64-bit"):
            Dataset(points, labels)

    def test_integral_labels_and_class_count_load(self):
        points = np.arange(4.0)[:, None]
        for labels in ([1.0, 2.0, 1.0, 2.0], np.array([1, 2, 1, 2], dtype=np.int32),
                       np.array([1, 2, 1, 2], dtype=np.float16),
                       np.array([1, 2.0, Fraction(1), np.int8(2)], dtype=object)):
            ds = Dataset(points, labels, 3.0)
            assert ds.labels.tolist() == [1, 2, 1, 2] and ds.labels.dtype == np.int64
            assert ds.class_count == 3 and type(ds.class_count) is int
        with pytest.raises(DataFormatError, match="^class_count: 2.5 is not a 64-bit integer"):
            Dataset(points, [1, 2, 1, 2], 2.5)

    @pytest.mark.parametrize("label", [1.8, np.float64(np.nan), np.inf, Fraction(3, 2),
                                       np.float16(1.5)])
    def test_query_rejects_a_label_that_is_not_an_integer(self, label):
        with pytest.raises(DataFormatError, match="^query label: .* is not a 64-bit integer"):
            Query(np.zeros(1), label)

    @pytest.mark.parametrize("label", [2 ** 70, None, float("nan")], ids=["2^70", "None", "nan"])
    def test_query_rejects_a_label_int_refuses(self, label):
        # Object entries go through int(), which raises rather than casting.
        with pytest.raises(DataFormatError, match="^query label: "):
            Query(np.zeros(1), np.array(label, dtype=object))

    def test_query_takes_an_integral_label(self):
        for label in (2, np.int64(2), 2.0, np.float32(2.0), np.float16(2.0), Fraction(4, 2)):
            q = Query(np.zeros(1), label)
            assert q.true_label == 2 and type(q.true_label) is int

    def test_query_dimension(self, fix_a):
        ds, q = fix_a
        assert q.z.shape == (ds.d,)

    def test_distances_reject_a_query_of_another_dimension(self, fix_a):
        ds, _ = fix_a
        with pytest.raises(ValueError, match="query has dimension 2, dataset has d=1"):
            ds.distances_sq(np.zeros(2))


class TestLoadCsv:
    def test_fix_a(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("1,-1\n2,3\n")
        ds = load_csv(path)
        assert (ds.n, ds.d, ds.class_count) == (2, 1, 2)
        np.testing.assert_array_equal(ds.points, [[-1.0], [3.0]])
        np.testing.assert_array_equal(ds.labels, [1, 2])

    def test_fix_b(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("1,1,1\n2,2,0\n")
        ds = load_csv(path)
        assert (ds.n, ds.d, ds.class_count) == (2, 2, 2)
        np.testing.assert_array_equal(ds.points, [[1.0, 1.0], [2.0, 0.0]])

    def test_bad_field_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,1,x\n2,2,0\n")
        with pytest.raises(DataFormatError, match="row 1.*'x'"):
            load_csv(path)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,1,1\n2,2\n")
        with pytest.raises(DataFormatError, match="row 2"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_csv(tmp_path / "absent.csv")

    def test_single_class_file(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("1,1\n1,2\n")
        with pytest.raises(DataFormatError, match="fewer than 2 classes"):
            load_csv(path)

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("label,f1\n1,-1\n2,3\n")
        ds = load_csv(path, has_header=True)
        assert ds.n == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_feature_rejected(self, tmp_path, value):
        path = tmp_path / "db.csv"
        path.write_text(f"1,0,0\n2,1,{value}\n")
        message = re.escape(f"{path}: points contain NaN or Inf")
        with pytest.raises(DataFormatError, match=message):
            load_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("1,0\n2\n", "row 2: need a label and at least one feature"),
        ("1,0\n2.5,1\n", "row 2: label '2.5' is not an integer"),
        ("1,0\n0,1\n", "row 2: label must be a positive integer, got 0"),
        ("1,0\n-2,1\n", "row 2: label must be a positive integer, got -2"),
        ("1,0\n", "{path}: need at least 2 data rows, got 1"),
        ("1,0\n3,1\n", "{path}: labels must form a contiguous range 1..C, got [1, 3]"),
    ], ids=["no-feature", "non-integer-label", "zero-label", "negative-label", "one-row",
            "labels-1-3"])
    def test_malformed_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "db.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=re.escape(message.format(path=path))):
            load_csv(path)

    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
    def test_query_file_without_rows_rejected(self, tmp_path, text):
        path = tmp_path / "q.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: no query rows")):
            load_queries(path)

    def test_load_queries(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("1,0\n2,5\n")
        queries = load_queries(path)
        assert len(queries) == 2
        assert queries[0].true_label == 1
        np.testing.assert_array_equal(queries[1].z, [5.0])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_query_rejected(self, tmp_path, value):
        path = tmp_path / "q.csv"
        path.write_text(f"1,0,0\n2,1,{value}\n")
        message = re.escape(f"{path}: query features contain NaN or Inf")
        with pytest.raises(DataFormatError, match=message):
            load_queries(path)

    def test_byte_order_mark(self, tmp_path):
        # Spreadsheet exports often start a UTF-8 file with a byte-order mark.
        path = tmp_path / "bom.csv"
        path.write_text("\ufeff1,-1\n2,3\n", encoding="utf-8")
        ds = load_csv(path)
        np.testing.assert_array_equal(ds.labels, [1, 2])
        queries = load_queries(path)
        assert [q.true_label for q in queries] == [1, 2]
        np.testing.assert_array_equal(queries[0].z, [-1.0])


# Tokens that each path may read differently.  The C reader takes only
# plain decimal and nan/inf spellings; float() also takes underscores and
# non-ASCII digits, and neither takes hex, comments or empty fields.
_LABEL_TOKENS = ["1.0", "0", "-1", "a", "+1", "01", " 2 ", "1_0", str(2 ** 53),
                 str(2 ** 53 + 1), str(2 ** 63), ""]
_FEATURE_TOKENS = ["nan", "-inf", "1_0", "0x10", "\u0661", ".5", "5.", " 1", "#1", "-0",
                   "1e-320", "0.1000000000000000055511151231257827", "\xa02", ""]
_LINE_FORMS = ["", "   ", ",,", " , ", '"1","2"', "1", "1,2,3,4,5"]


def _random_csv(rng) -> tuple[str, bool]:
    """A small CSV file's text, mostly valid, with a few of the forms above."""
    d = int(rng.integers(1, 4))
    lines = []
    for _ in range(int(rng.integers(1, 7))):
        fields = [str(int(rng.integers(1, 4)))]
        fields += [repr(float(v)) for v in np.round(rng.standard_normal(d), int(rng.integers(0, 18)))]
        lines.append(fields)
    for _ in range(int(rng.integers(0, 3))):
        row = lines[int(rng.integers(len(lines)))]
        kind = int(rng.integers(4))
        if kind == 0:
            row[0] = str(rng.choice(_LABEL_TOKENS))
        elif kind == 1:
            row[int(rng.integers(1, len(row)))] = str(rng.choice(_FEATURE_TOKENS))
        elif kind == 2:
            row[int(rng.integers(len(row)))] = f'"{row[0]}"'
        else:
            row.append("")                                   # a trailing comma
    text = [",".join(fields) for fields in lines]
    for _ in range(int(rng.integers(0, 3))):
        text.insert(int(rng.integers(len(text) + 1)), str(rng.choice(_LINE_FORMS)))
    has_header = bool(rng.integers(2))
    if has_header and rng.integers(2):
        text.insert(0, rng.choice(["label,f1", '"label', "1,2"]))
    end = str(rng.choice(["\n", "\r\n", "\r"]))
    body = end.join(text) + (end if rng.integers(4) else "")
    return ("\ufeff" if rng.integers(4) == 0 else "") + body, has_header


def _outcome(load, path, has_header):
    """What a loader gives, as bytes, or the type and message of its error."""
    try:
        out = load(path, has_header)
    except Exception as err:                                  # compared, not handled
        return type(err).__name__, str(err)
    if isinstance(out, Dataset):
        return out.points.tobytes(), out.points.shape, out.labels.tobytes(), out.class_count
    return [(q.z.tobytes(), q.true_label) for q in out]


class TestLoaderEquivalence:
    FIXED = [("", False), ("", True), ("label,f1\n", True), ("label,f1\r\n1,2\r\n2,3", True),
             ("\n\n", False), ("1\n2\n", False), ("1,2\n2,3,\n", False)]

    def test_matches_the_row_reader(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(20)
        cases = self.FIXED + [_random_csv(rng) for _ in range(600)]
        fast = []
        outcomes = []
        for i, (text, has_header) in enumerate(cases):
            path = tmp_path / f"{i}.csv"
            path.write_bytes(text.encode("utf-8"))
            fast.append(data._parse_fast(path, has_header) is not None)
            outcomes.append([_outcome(load, path, has_header) for load in (load_csv, load_queries)])
        monkeypatch.setattr(data, "_parse_fast", lambda path, has_header: None)
        for i, (text, has_header) in enumerate(cases):
            reference = [_outcome(load, tmp_path / f"{i}.csv", has_header)
                         for load in (load_csv, load_queries)]
            assert outcomes[i] == reference, (text, has_header)
        # Both paths ran: valid files through numpy, and files that only the
        # row reader loads (quotes, underscores, blank fields) through it.
        loaded = [isinstance(out[1], list) for out in outcomes]
        assert sum(f and ok for f, ok in zip(fast, loaded)) >= 100
        assert sum(not f and ok for f, ok in zip(fast, loaded)) >= 20
        assert sum(not ok for ok in loaded) >= 100


class TestGenerateSynthetic:
    def test_two_point_shape(self):
        ds = generate_synthetic(1, 1, 2, 4.0, seed=0)
        assert (ds.n, ds.d, ds.class_count) == (2, 1, 2)

    def test_deterministic(self):
        a = generate_synthetic(5, 2, 2, 3.0, seed=7)
        b = generate_synthetic(5, 2, 2, 3.0, seed=7)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_all_labels_present(self):
        ds = generate_synthetic(100, 3, 3, 2.0, seed=1)
        assert (ds.n, ds.d, ds.class_count) == (300, 3, 3)
        assert set(np.unique(ds.labels)) == {1, 2, 3}

    def test_rejects_a_zero_count_and_a_negative_separation(self):
        for counts in ((0, 2, 2), (2, 0, 2), (2, 2, 0)):
            with pytest.raises(ValueError, match="all counts must be >= 1"):
                generate_synthetic(*counts, 1.0, seed=0)
        with pytest.raises(ValueError, match="separation must be >= 0"):
            generate_synthetic(2, 2, 2, -1.0, seed=0)


class TestKnnPredict:
    def test_fix_a_nearest(self, fix_a):
        ds, q = fix_a
        assert knn_predict(ds, q.z, 1) == 1

    def test_fix_c_majority(self, fix_c):
        ds, q = fix_c
        assert knn_predict(ds, q.z, 3, true_label=1) == 1

    def test_bisection_tie_goes_to_attacker(self, fix_a):
        ds, _ = fix_a
        assert knn_predict(ds, np.array([1.0]), 1, true_label=1) == 2

    def test_even_k_rejected(self, fix_a):
        ds, q = fix_a
        with pytest.raises(ValueError):
            knn_predict(ds, q.z, 2)

    def test_k_too_large(self, fix_a):
        ds, q = fix_a
        with pytest.raises(InsufficientPointsError):
            knn_predict(ds, q.z, 3)

    def test_training_points_self_classified(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(10, 2))
        labels = rng.integers(1, 3, size=10)
        labels[:2] = [1, 2]
        ds = Dataset(points, labels)
        for i in range(ds.n):
            assert knn_predict(ds, ds.points[i], 1) == ds.labels[i]

    @pytest.mark.parametrize("z", [[np.nan, 0.0], [0.0, np.inf], [-np.inf, 1.0],
                                   [1e308, 1e308]], ids=["nan", "inf", "-inf", "overflow"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_nonfinite_point_rejected(self, z, k):
        # A NaN point once got label 0, which is no class, and an Inf K-th
        # distance made the tie window inf - inf.  Warnings are errors here.
        ds = Dataset(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [0.0, 3.0]]),
                     np.array([1, 2, 2, 1]))
        message = "squared distances from the point are NaN or overflow float64"
        for true_label in (None, 1):
            with pytest.raises(DataFormatError, match=message):
                knn_predict(ds, np.array(z), k, true_label=true_label)
        with pytest.raises(DataFormatError, match=message):
            is_adversarial(ds, Query(np.zeros(2), 1), np.array(z), k)

    def test_tie_rule_has_no_settings(self):
        # The validation inflation is a constant: a large one certified
        # perturbations that do not flip the prediction at z + delta.
        with pytest.raises(TypeError):
            TieRule(inflation=0.5)
        with pytest.raises(TypeError):
            TieRule(mode="nearest")
        assert TieRule().inflation == 1e-9

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 3]))
    @settings(max_examples=40, deadline=None)
    def test_row_permutation_invariance(self, seed, k):
        rng = np.random.default_rng(seed)
        points = rng.integers(-5, 6, size=(8, 2)).astype(float)
        labels = np.array([1, 1, 1, 2, 2, 2, 1, 2])
        ds = Dataset(points, labels)
        z = rng.integers(-5, 6, size=2).astype(float)
        perm = rng.permutation(8)
        ds2 = Dataset(points[perm], labels[perm])
        assert knn_predict(ds, z, k, true_label=1) == knn_predict(ds2, z, k, true_label=1)

    def test_matches_reference_vote_on_ties(self):
        # Coarse integer grids with repeated points, and queries on grid
        # points or on the bisector of two points, put exact distance ties
        # at the K-th rank on most calls; a 0.1 scale turns some of them
        # into near ties inside the tie window.
        rng = np.random.default_rng(2024)
        cases = straddled = 0
        for _ in range(150):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(9, 21))
            class_count = int(rng.integers(2, 5))
            scale = float(rng.choice([1.0, 0.1]))
            points = rng.integers(-2, 3, size=(n, d)) * scale
            labels = rng.integers(1, class_count + 1, size=n)
            labels[:2] = [1, 2]
            ds = Dataset(points, labels, class_count)
            a, b = rng.choice(n, size=2, replace=False)
            for z in (rng.integers(-2, 3, size=d) * scale, 0.5 * (points[a] + points[b])):
                dist_sq = ds.distances_sq(z)
                for k in (1, 3, 5, 7, 9):
                    kth = np.sort(dist_sq)[k - 1]
                    straddled += int(np.count_nonzero(dist_sq <= kth) > k)
                    cases += 1
                    # A query label may lie outside the dataset's classes.
                    for true_label in (None, *range(1, class_count + 2)):
                        got = knn_predict(ds, z, k, true_label=true_label)
                        assert got == knn_predict_reference(ds, z, k, true_label), (
                            points.tolist(), labels.tolist(), z.tolist(), k, true_label)
        # Exact ties straddle the K-th rank in 813 of the 1500 cases.
        assert straddled > cases // 2


class TestKNearest:
    def test_fix_c_order(self, fix_c):
        ds, q = fix_c
        np.testing.assert_array_equal(k_nearest(ds, q.z, 3), [0, 1, 2])

    def test_fix_a(self, fix_a):
        ds, q = fix_a
        np.testing.assert_array_equal(k_nearest(ds, q.z, 2), [0, 1])

    def test_fix_b(self, fix_b):
        ds, q = fix_b
        np.testing.assert_array_equal(k_nearest(ds, q.z, 1), [0])

    def test_k_outside_one_to_n_rejected(self, fix_a):
        ds, q = fix_a
        with pytest.raises(ValueError, match="K must be >= 1"):
            k_nearest(ds, q.z, 0)
        with pytest.raises(InsufficientPointsError, match="K=3 exceeds dataset size n=2"):
            k_nearest(ds, q.z, 3)

    def test_distances_nondecreasing(self):
        rng = np.random.default_rng(11)
        points = rng.normal(size=(20, 3))
        labels = np.array([1, 2] * 10)
        ds = Dataset(points, labels)
        z = rng.normal(size=3)
        idx = k_nearest(ds, z, 20)
        dists = np.linalg.norm(ds.points[idx] - z, axis=1)
        assert np.all(np.diff(dists) >= 0)

    def test_equal_distance_index_tiebreak(self):
        ds = Dataset(np.array([[1.0], [-1.0], [2.0]]), np.array([1, 2, 1]))
        np.testing.assert_array_equal(k_nearest(ds, np.array([0.0]), 2), [0, 1])


def _tied_arrays(rng, size):
    """Arrays of ``size`` values with exact ties, signed zeros, infinities,
    NaN, and near ties of 1 plus or minus a few ulps."""
    ulps = np.nextafter(1.0, 2.0) - 1.0
    pools = [
        rng.integers(0, max(1, size // 3), size).astype(np.float64),
        rng.choice([0.0, -0.0, 1.0, -1.0], size),
        rng.choice([np.inf, -np.inf, 0.5, 2.0], size),
        rng.choice([np.nan, 0.5, 2.0], size),
        1.0 + ulps * rng.integers(-4, 5, size),
        1.0 + ulps * (rng.permutation(size) - size // 2),
        np.where(rng.random(size) < 0.5, rng.standard_normal(size), 1.0),
        rng.standard_normal(size),
    ]
    return pools + [p[::-1].copy() for p in pools]


@pytest.mark.parametrize("size", [0, 1, 2, 3, 199, 200, 201, 2000])
def test_stable_order_matches_stable_argsort(size):
    rng = np.random.default_rng(size)
    for values in _tied_arrays(rng, size):
        np.testing.assert_array_equal(stable_order(values),
                                      np.argsort(values, kind="stable"))


class TestDatasetCaches:
    def test_split_and_norms(self, fix_c):
        ds, _ = fix_c
        same, others = ds.split(1)
        np.testing.assert_array_equal(same, [0, 1])
        np.testing.assert_array_equal(others, [2, 3, 4])
        assert ds.split(1)[0] is same and ds.class_indices(1) is same
        np.testing.assert_array_equal(ds.norms_sq, [0.25, 1.0, 4.0, 9.0, 16.0])
        for a in (same, others, ds.norms_sq):
            with pytest.raises(ValueError):
                a[0] = 7

    def test_filled_on_first_use_only(self):
        ds = Dataset(np.array([[0.0], [1.0], [3.0]]), np.array([1, 2, 2]))
        assert "_splits" not in vars(ds) and "norms_sq" not in vars(ds)
        knn_predict(ds, np.array([0.2]), 1)
        assert "_splits" not in vars(ds) and "norms_sq" not in vars(ds)
        verify_knn(ds, Query(np.array([0.2]), 1), 1)
        assert "_splits" in vars(ds) and "norms_sq" in vars(ds)

    def test_dataset_owns_read_only_copies(self):
        # Editing the caller's arrays after construction must leave the
        # dataset and its caches as built: a stale norm would make the
        # verifier certify against points that are no longer there.
        rng = np.random.default_rng(5)
        for _ in range(20):
            points = rng.standard_normal((12, 2))
            labels = np.repeat([1, 2], 6)
            q = Query(rng.standard_normal(2), 1)
            ds = Dataset(points, labels)
            fresh = Dataset(points.copy(), labels.copy())
            if knn_predict(ds, q.z, 1) != 1:
                continue
            before = verify_knn(ds, q, 1)                  # fills norms_sq and the splits
            moved = int(np.argmin(ds.distances_sq(q.z)[6:])) + 6
            points[moved] = q.z + 0.1 * (points[moved] - q.z)
            labels[0] = 2
            assert verify_knn(ds, q, 1) == verify_knn(fresh, q, 1) == before
            cert, fresh_cert = exact_1nn(ds, q), exact_1nn(fresh, q)
            assert cert.epsilon == fresh_cert.epsilon
            np.testing.assert_array_equal(cert.delta, fresh_cert.delta)
        for a in (ds.points, ds.labels, *ds.means_by_label.values()):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 7


_K_ENTRY_POINTS = {
    "knn_predict": lambda ds, q, k: knn_predict(ds, q.z, k),
    "verify_knn": lambda ds, q, k: verify_knn(ds, q, k),
    "qp_greedy_knn": lambda ds, q, k: qp_greedy_knn(ds, q, k),
    "naive_attack": lambda ds, q, k: naive_attack(ds, q, k),
    "mean_attack": lambda ds, q, k: mean_attack(ds, q, k),
}


@pytest.mark.parametrize("name", sorted(_K_ENTRY_POINTS))
@pytest.mark.parametrize("k", [-3, -1, 0, 2, 1.0])
def test_k_must_be_an_odd_integer_at_least_one(fix_c, name, k):
    ds, q = fix_c
    with pytest.raises(ValueError, match="K must be an odd integer >= 1"):
        _K_ENTRY_POINTS[name](ds, q, k)


class TestClassMeans:
    def test_fix_c(self, fix_c):
        ds, _ = fix_c
        means = class_means(ds)
        np.testing.assert_allclose(means, [[-0.75], [3.0]])

    def test_fix_a(self, fix_a):
        ds, _ = fix_a
        np.testing.assert_allclose(class_means(ds), [[-1.0], [3.0]])

    def test_singleton_class_is_identity(self):
        ds = Dataset(np.array([[1.0, 2.0], [0.0, 0.0], [2.0, 2.0]]), np.array([1, 2, 1]))
        np.testing.assert_allclose(class_means(ds)[1], [0.0, 0.0])

    def test_empty_class(self):
        # Label 2 of 3 has no points: the per-label means skip it, and
        # class_means, which has a row for it, raises.
        ds = Dataset(np.array([[1.0], [3.0], [5.0]]), np.array([1, 1, 3]), class_count=3)
        assert ds.means_by_label.keys() == {1, 3}
        assert ds.means_by_label is ds.means_by_label       # computed once
        np.testing.assert_array_equal(ds.means_by_label[1], [2.0])
        with pytest.raises(InsufficientPointsError):
            class_means(ds)
