import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CSV_ROWS, csv_texts
from ratioscope.data import (
    CONST_FEATURE,
    Dataset,
    apply_standardizer,
    fit_standardizer,
    load_csv,
    pool,
    save_csv,
    with_intercept,
)
from ratioscope.errors import InputError


def make_dataset(features, prefix="s"):
    features = np.asarray(features, dtype=float)
    return Dataset(
        features=features,
        feature_names=tuple(f"f{k}" for k in range(features.shape[0])),
        sample_ids=tuple(f"{prefix}{i}" for i in range(features.shape[1])),
    )


class TestDataset:
    def test_rejects_nan(self):
        with pytest.raises(InputError, match="NaN or infinite"):
            make_dataset([[1.0, np.nan]])

    def test_rejects_bad_name_count(self):
        with pytest.raises(InputError, match="feature names for"):
            Dataset(
                features=np.ones((2, 2)),
                feature_names=("a",),
                sample_ids=("s0", "s1"),
            )

    def test_rejects_duplicate_ids(self):
        with pytest.raises(InputError, match="sample ids must be unique"):
            Dataset(
                features=np.ones((1, 2)),
                feature_names=("a",),
                sample_ids=("s0", "s0"),
            )


    def test_duplicate_id_is_named(self):
        with pytest.raises(InputError, match="'b' appears more than once"):
            Dataset(features=np.ones((1, 4)), feature_names=("f",),
                    sample_ids=("a", "b", "c", "b"))

    def test_columns_in_the_given_order(self):
        data = make_dataset([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        picked = data.columns(np.array([2, 0]))
        assert type(picked) is Dataset
        assert picked.sample_ids == ("s2", "s0") and picked.feature_names == ("f0", "f1")
        assert np.array_equal(picked.features, [[2.0, 0.0], [5.0, 3.0]])


class TestPool:
    def test_pooled_is_a_checked_dataset(self):
        pooled = pool(make_dataset([[1.0, 2.0]], "a"), make_dataset([[3.0]], "b"))
        assert isinstance(pooled, Dataset)
        assert not pooled.features.flags.writeable and not pooled.labels.flags.writeable

    def test_shared_sample_id_rejected(self):
        # explain finds a column by its id: a shared one answered for the test sample
        inliers = make_dataset(np.ones((2, 3)))
        test = make_dataset(np.zeros((2, 2)))
        with pytest.raises(InputError, match="'s0' appears more than once"):
            pool(inliers, test)

    def test_labels_and_ordering(self):
        inliers = make_dataset([[1.0, 2.0]], prefix="a")
        test = make_dataset([[3.0]], prefix="b")
        pooled = pool(inliers, test)
        assert list(pooled.labels) == [1, 1, -1]
        assert pooled.m == 3
        assert pooled.n_inlier == 2 and pooled.n_test == 1

    def test_dimension_mismatch(self):
        inliers = make_dataset(np.ones((3, 2)))
        test = make_dataset(np.ones((4, 2)), prefix="t")
        with pytest.raises(InputError, match="must share dimension"):
            pool(inliers, test)

    def test_default_benchmark_sizes(self):
        inliers = make_dataset(np.random.default_rng(0).normal(size=(5, 200)), "a")
        test = make_dataset(np.random.default_rng(1).normal(size=(5, 110)), "b")
        pooled = pool(inliers, test)
        assert pooled.m == 310
        assert int(np.sum(pooled.labels == 1)) == 200

    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(7)
        inliers = make_dataset(rng.normal(size=(4, 6)), "a")
        test = make_dataset(rng.normal(size=(4, 3)), "b")
        pooled = pool(inliers, test)
        assert np.array_equal(pooled.features[:, :pooled.n_inlier], inliers.features)
        assert np.array_equal(pooled.features[:, pooled.n_inlier:], test.features)


class TestStandardizer:
    def test_two_point(self):
        data = make_dataset([[1.0, 3.0]])
        stats = fit_standardizer(data)
        assert stats.mean[0] == pytest.approx(2.0)
        assert stats.scale[0] == pytest.approx(1.0)  # m denominator

    def test_constant_feature_floor(self):
        data = make_dataset([[5.0, 5.0, 5.0]])
        stats = fit_standardizer(data)
        assert stats.mean[0] == 5.0
        assert stats.scale[0] == 1e-8

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(3, 10))
        stats = fit_standardizer(make_dataset(X))
        for k in range(3):
            mean = sum(X[k]) / 10
            var = sum((v - mean) ** 2 for v in X[k]) / 10
            assert stats.mean[k] == pytest.approx(mean, abs=1e-12)
            assert stats.scale[k] == pytest.approx(var**0.5, abs=1e-12)

    def test_intercept_row_left_all_ones(self):
        data = with_intercept(make_dataset([[1.0, 3.0, 8.0], [2.0, 2.0, 2.0]]))
        assert data.feature_names == ("f0", "f1", CONST_FEATURE)
        np.testing.assert_array_equal(data.features[-1], [1.0, 1.0, 1.0])
        stats = fit_standardizer(data)
        plain = fit_standardizer(make_dataset(data.features[:2]))
        np.testing.assert_array_equal(stats.mean, [*plain.mean, 0.0])
        np.testing.assert_array_equal(stats.scale, [*plain.scale, 1.0])
        np.testing.assert_array_equal(apply_standardizer(data, stats).features[-1], 1.0)

    def test_too_few_samples(self):
        with pytest.raises(InputError, match="at least 2 inlier samples"):
            fit_standardizer(make_dataset([[1.0]]))

    def test_apply_zeroes_the_mean(self):
        rng = np.random.default_rng(4)
        data = make_dataset(rng.normal(size=(2, 5)))
        stats = fit_standardizer(data)
        out = apply_standardizer(
            make_dataset(np.tile(stats.mean[:, None], (1, 5))), stats
        )
        assert np.allclose(out.features, 0.0)

    def test_identity_stats(self):
        data = make_dataset([[1.0, -2.0], [0.5, 4.0]])
        from ratioscope.data import StandardizationStats

        stats = StandardizationStats(mean=np.zeros(2), scale=np.ones(2))
        out = apply_standardizer(data, stats)
        assert np.array_equal(out.features, data.features)

    def test_self_standardization_moments(self):
        rng = np.random.default_rng(5)
        data = make_dataset(rng.normal(size=(4, 50)))
        stats = fit_standardizer(data)
        std = apply_standardizer(data, stats)
        assert np.all(np.abs(std.features.mean(axis=1)) <= 1e-12)
        assert np.allclose(std.features.std(axis=1), 1.0, atol=1e-12)

    def test_dimension_mismatch(self):
        data = make_dataset(np.ones((2, 3)))
        stats = fit_standardizer(make_dataset(np.random.default_rng(0).normal(size=(3, 4))))
        with pytest.raises(InputError, match="features but stats has"):
            apply_standardizer(data, stats)


# a well-formed row for the header f0,f1 or f0,f1,label
FEATURE_ROWS = st.builds("{!r},{!r}{}".format, st.floats(allow_nan=False, allow_infinity=False),
                         st.floats(allow_nan=False, allow_infinity=False),
                         st.sampled_from(["", ",inlier", ",outlier"]))


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "d.csv"


def reference_csv_bytes(data, labels=None):
    """What save_csv wrote through csv.writer, row by row; its output
    must stay byte-identical to this."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(list(data.feature_names) + (["label"] if labels is not None else []))
    for i in range(data.m):
        row = [repr(float(v)) for v in data.features[:, i]]
        if labels is not None:
            row.append(labels[i])
        writer.writerow(row)
    return fh.getvalue().encode("utf-8")


# the edge cases of float repr: signed zero, the smallest subnormal, the
# switches to and from exponent notation, and the largest finite floats
EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e-5, 1e-4, 1.7976931348623157e308,
               -1.7976931348623157e308]
CSV_FLOATS = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
# names that csv.writer has to quote, or that are not ASCII
FEATURE_NAMES = st.text(max_size=6) | st.sampled_from(
    ["a,b", 'q"t', "line\nbreak", "cr\rname", " sp ", "é", "µ,\"", ""])


@st.composite
def csv_datasets(draw):
    d, m = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    features = np.array(draw(st.lists(CSV_FLOATS, min_size=d * m, max_size=d * m))).reshape(d, m)
    names = draw(st.lists(FEATURE_NAMES, min_size=d, max_size=d))
    data = Dataset(features=features, feature_names=names,
                   sample_ids=tuple(f"s{i}" for i in range(m)))
    labels = draw(st.none() | st.lists(st.sampled_from(["inlier", "outlier"]),
                                       min_size=m, max_size=m))
    return data, labels


class TestCsv:
    @settings(max_examples=100, deadline=None)
    @given(csv_texts(["f0,f1", "f0,f1,label"], rows=CSV_ROWS | FEATURE_ROWS | FEATURE_ROWS)
           .map(lambda text: text.encode("utf-8", "surrogatepass")))
    @example(b"f0,label\n1.0,inlier\n2.0,outlier\n")
    # a cell past the csv module's field limit used to end in a _csv.Error traceback
    @example(b"f0\n" + b"1" * 140_000 + b"\n")
    # a byte that is not UTF-8 used to raise an error that did not name the file
    @example(b"f0\n1.0\n\xff\n")
    # a label column alone used to raise an error about a 0 x 1 matrix, naming no file
    @example(b"label\ninlier\n")
    def test_fuzzed_csv_loads_or_names_the_file(self, fuzz_path, raw):
        fuzz_path.write_bytes(raw)
        try:
            data, labels = load_csv(fuzz_path)
        except InputError as exc:
            assert str(fuzz_path) in str(exc), exc
        else:
            assert labels is None or len(labels) == data.m

    @pytest.mark.parametrize("header,row", [("__const__", "1.0"),
                                            ("f0,__const__,label", "2.0,1.0,inlier")])
    def test_reserved_const_column_rejected(self, tmp_path, header, row):
        # such a column used to load as a feature that fit never standardized
        path = tmp_path / "c.csv"
        path.write_text(f"{header}\n{row}\n{row}\n")
        with pytest.raises(InputError, match=f"{path}: column name '__const__' is reserved"):
            load_csv(path)

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        data = make_dataset(rng.normal(size=(3, 4)))
        path = tmp_path / "data.csv"
        save_csv(path, data, labels=["inlier", "inlier", "outlier", "inlier"])
        loaded, labels = load_csv(path)
        assert np.array_equal(loaded.features, data.features)
        assert loaded.feature_names == data.feature_names
        assert labels == ["inlier", "inlier", "outlier", "inlier"]

    @settings(max_examples=100, deadline=None)
    @given(csv_datasets())
    def test_save_csv_bytes_equal_the_csv_writer_reference(self, fuzz_path, case):
        data, labels = case
        save_csv(fuzz_path, data, labels=labels)
        assert fuzz_path.read_bytes() == reference_csv_bytes(data, labels)

    @pytest.mark.parametrize("labels", [["inlier"], ["inlier"] * 3])
    def test_save_csv_label_count_must_match(self, tmp_path, labels):
        # a short list used to raise IndexError, a long one lost its tail
        with pytest.raises(InputError, match=f"{len(labels)} labels for 2 samples"):
            save_csv(tmp_path / "d.csv", make_dataset([[1.0, 2.0]]), labels=labels)

    @pytest.mark.parametrize("label", ["Outlier", "in,lier", 1])
    def test_save_csv_unknown_label(self, tmp_path, label):
        # used to write a file that load_csv rejects
        with pytest.raises(InputError, match=f"label {label!r}, expected 'inlier' or 'outlier'"):
            save_csv(tmp_path / "d.csv", make_dataset([[1.0, 2.0]]), labels=["inlier", label])

    def test_unknown_label_names_file_row_and_value(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,label\n1.0,inlier\n2.0, outlier \n3.0,Outlier\n")
        with pytest.raises(InputError, match=r"d\.csv: row 4 has label 'Outlier'"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["inf", "-Infinity", "nan", "1e400"])
    def test_nonfinite_value_names_file_line_and_column(self, tmp_path, cell):
        # used to fail as "features contain NaN or infinite entries", naming neither
        path = tmp_path / "d.csv"
        path.write_text(f"f0,f1,label\n1.0,2.0,inlier\n\n3.0,{cell},outlier\n")
        with pytest.raises(InputError, match=rf"d\.csv: line 4, column 'f1': '{cell}' is not a finite"):
            load_csv(path)

    @pytest.mark.parametrize("header, message", [
        ("a,a,label", "feature name 'a' is repeated"),
        ("a, b ,b", "feature name 'b' is repeated"),
        ("a,,b", "feature name '' is empty"),
        (" ,label", "feature name '' is empty"),
    ])
    def test_repeated_or_empty_feature_name(self, tmp_path, header, message):
        # a repeated name used to load, and every explanation named it twice
        path = tmp_path / "d.csv"
        path.write_text(header + "\n" + ",".join(["1.0"] * len(header.split(","))) + "\n")
        with pytest.raises(InputError, match=rf"d\.csv: {message}"):
            load_csv(path)

    def test_error_row_counts_blank_lines(self, tmp_path):
        # rows are numbered as lines of the file, blank lines included
        path = tmp_path / "d.csv"
        path.write_text("f0,label\n\n1.0,inlier\n\n2.0,Outlier\n3.0\n")
        with pytest.raises(InputError, match="row 5 has label"):
            load_csv(path)
        path.write_text("f0,label\n\n1.0,inlier\n\n3.0\n")
        with pytest.raises(InputError, match="row 5 has 1 fields"):
            load_csv(path)

    def test_no_label_column(self, tmp_path):
        data = make_dataset([[1.0, 2.0]])
        path = tmp_path / "d.csv"
        save_csv(path, data)
        loaded, labels = load_csv(path)
        assert labels is None
        assert np.array_equal(loaded.features, data.features)
