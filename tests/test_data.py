import numpy as np
import pytest

from ratioscope.data import (
    Dataset,
    apply_standardizer,
    fit_standardizer,
    load_csv,
    pool,
    save_csv,
)
from ratioscope.errors import DimensionMismatch, InvalidLabel, MalformedCsv, TooFewSamples


def make_dataset(features, prefix="s"):
    features = np.asarray(features, dtype=float)
    return Dataset(
        features=features,
        feature_names=tuple(f"f{k}" for k in range(features.shape[0])),
        sample_ids=tuple(f"{prefix}{i}" for i in range(features.shape[1])),
    )


class TestDataset:
    def test_rejects_nan(self):
        with pytest.raises(DimensionMismatch):
            make_dataset([[1.0, np.nan]])

    def test_rejects_bad_name_count(self):
        with pytest.raises(DimensionMismatch):
            Dataset(
                features=np.ones((2, 2)),
                feature_names=("a",),
                sample_ids=("s0", "s1"),
            )

    def test_rejects_duplicate_ids(self):
        with pytest.raises(DimensionMismatch):
            Dataset(
                features=np.ones((1, 2)),
                feature_names=("a",),
                sample_ids=("s0", "s0"),
            )


class TestPool:
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
        with pytest.raises(DimensionMismatch):
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

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
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
        with pytest.raises(DimensionMismatch):
            apply_standardizer(data, stats)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        data = make_dataset(rng.normal(size=(3, 4)))
        path = tmp_path / "data.csv"
        save_csv(path, data, labels=["inlier", "inlier", "outlier", "inlier"])
        loaded, labels = load_csv(path)
        assert np.array_equal(loaded.features, data.features)
        assert loaded.feature_names == data.feature_names
        assert labels == ["inlier", "inlier", "outlier", "inlier"]

    def test_unknown_label_names_file_row_and_value(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,label\n1.0,inlier\n2.0, outlier \n3.0,Outlier\n")
        with pytest.raises(InvalidLabel, match=r"d\.csv: row 4 has label 'Outlier'"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["inf", "-Infinity", "nan", "1e400"])
    def test_nonfinite_value_names_file_line_and_column(self, tmp_path, cell):
        # used to fail as "features contain NaN or infinite entries", naming neither
        path = tmp_path / "d.csv"
        path.write_text(f"f0,f1,label\n1.0,2.0,inlier\n\n3.0,{cell},outlier\n")
        with pytest.raises(MalformedCsv, match=rf"d\.csv: line 4, column 'f1': '{cell}' is not a finite"):
            load_csv(path)

    def test_error_row_counts_blank_lines(self, tmp_path):
        # rows are numbered as lines of the file, blank lines included
        path = tmp_path / "d.csv"
        path.write_text("f0,label\n\n1.0,inlier\n\n2.0,Outlier\n3.0\n")
        with pytest.raises(InvalidLabel, match="row 5 has label"):
            load_csv(path)
        path.write_text("f0,label\n\n1.0,inlier\n\n3.0\n")
        with pytest.raises(DimensionMismatch, match="row 5 has 1 fields"):
            load_csv(path)

    def test_no_label_column(self, tmp_path):
        data = make_dataset([[1.0, 2.0]])
        path = tmp_path / "d.csv"
        save_csv(path, data)
        loaded, labels = load_csv(path)
        assert labels is None
        assert np.array_equal(loaded.features, data.features)
