import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from ratioscope.data import Dataset, load_csv, pool, save_csv
from ratioscope.errors import InputError
from ratioscope.llr import LlrHyperparams, WeightMatrix, fit_pooled
from ratioscope.scores import (
    CONST_FEATURE,
    Explanation,
    ScoreSet,
    detect,
    explain,
    load_scores_csv,
    ratio_from_logit,
    ratio_score,
    save_explanations_json,
    save_scores_csv,
)
from ratioscope.synth import SynthSpec, generate


def pooled_with(n_inlier, n_test, d=1, fill=1.0):
    inl = make_dataset(np.full((d, n_inlier), fill), "a")
    test = make_dataset(np.full((d, n_test), fill), "b")
    return pool(inl, test)


class TestScoreSet:
    def test_rejects_nonpositive(self):
        with pytest.raises(InputError, match="strictly positive and finite"):
            ScoreSet(("a",), np.array([0.0]))
        with pytest.raises(InputError, match="strictly positive and finite"):
            ScoreSet(("a",), np.array([-1.0]))
        with pytest.raises(InputError, match="strictly positive and finite"):
            ScoreSet(("a",), np.array([np.inf]))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(InputError, match="scores and sample ids differ"):
            ScoreSet(("a", "b"), np.array([1.0]))
        with pytest.raises(InputError, match="labels and sample ids differ"):
            ScoreSet(("a",), np.array([1.0]), labels=("inlier", "outlier"))


class TestRatioScore:
    def test_zero_weights_balanced(self):
        pooled = pooled_with(5, 5)
        W = WeightMatrix(values=np.zeros((1, 10)))
        s = ratio_score(W, pooled)
        assert np.all(s.scores == 1.0)

    def test_prior_arithmetic(self):
        # margin ln 2 with 200 inliers and 110 test samples -> 2 * 110/200
        pooled = pooled_with(200, 110)
        W = WeightMatrix(values=np.full((1, 310), np.log(2.0)))
        s = ratio_score(W, pooled, which="test")
        assert s.scores == pytest.approx(np.full(110, 1.1), rel=1e-12)
        assert len(s.sample_ids) == 110

    def test_monotone_in_margin(self):
        pooled = pooled_with(3, 4)
        values = np.zeros((1, 7))
        values[0, 3:] = [-1.0, 0.0, 1.0, 2.0]
        s = ratio_score(WeightMatrix(values=values), pooled)
        assert np.all(np.diff(s.scores) > 0)

    def test_overflow_clamped(self):
        pooled = pooled_with(2, 2, fill=1e6)
        W = WeightMatrix(values=np.full((1, 4), 1e6))
        s = ratio_score(W, pooled)
        assert np.all(np.isfinite(s.scores))
        assert np.all(s.scores == np.exp(500.0))

    def test_ratio_from_logit_saturates_finite(self):
        r = ratio_from_logit(np.array([-1e4, 0.0, 1e4]), 4, 2)
        assert np.all(np.isfinite(r)) and np.all(r > 0)
        assert r[1] == 0.5
        assert r[0] == 0.5 * np.exp(-500.0) and r[2] == 0.5 * np.exp(500.0)

    def test_selectors(self):
        pooled = pooled_with(3, 2)
        W = WeightMatrix(values=np.zeros((1, 5)))
        assert len(ratio_score(W, pooled, which="inlier").scores) == 3
        assert len(ratio_score(W, pooled, which="test").scores) == 2
        all_ = ratio_score(W, pooled, which="all")
        assert all_.sample_ids == pooled.sample_ids
        with pytest.raises(ValueError):
            ratio_score(W, pooled, which="bogus")

    def test_dimension_guard(self):
        pooled = pooled_with(2, 2)
        with pytest.raises(InputError, match="weights do not align"):
            ratio_score(WeightMatrix(values=np.zeros((1, 3))), pooled)


class TestDetect:
    def make(self, values):
        return ScoreSet(
            tuple(f"s{i}" for i in range(len(values))), np.asarray(values, float)
        )

    def test_tau_zero_all_inliers(self):
        assert detect(self.make([0.5, 2.0]), 0.0) == ("inlier", "inlier")

    def test_split(self):
        assert detect(self.make([0.5, 2.0]), 1.0) == ("outlier", "inlier")

    def test_tau_max_all_outliers(self):
        s = self.make([0.5, 2.0, 1.5])
        assert detect(s, max(s.scores)) == ("outlier",) * 3

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(0)
        s = self.make(rng.random(20) + 0.1)
        prev = set()
        for tau in np.linspace(0.0, 1.2, 13):
            flagged = {
                i for i, d in enumerate(detect(s, tau)) if d == "outlier"
            }
            assert prev <= flagged
            prev = flagged

    def test_negative_tau(self):
        with pytest.raises(InputError, match="tau must be nonnegative"):
            detect(self.make([1.0]), -0.5)

    def test_nan_tau(self):
        # used to flag nothing, since every comparison with NaN is false
        with pytest.raises(InputError, match="tau must be nonnegative, got nan"):
            detect(self.make([1.0]), float("nan"))


class TestExplain:
    def test_ranked_by_magnitude(self):
        pooled = pooled_with(1, 1, d=3)
        values = np.zeros((3, 2))
        values[:, 1] = [0.9, -0.1, 0.0]
        e, = explain(WeightMatrix(values=values), pooled, ["b0"], top_k=2)
        assert e.ranked_features == (("f0", 0.9), ("f1", -0.1))

    def test_zero_column_index_tiebreak(self):
        pooled = pooled_with(1, 1, d=4)
        e, = explain(WeightMatrix(values=np.zeros((4, 2))), pooled, ["a0"], top_k=4)
        assert [n for n, _ in e.ranked_features] == ["f0", "f1", "f2", "f3"]
        assert all(w == 0.0 for _, w in e.ranked_features)

    def test_matches_a_sorted_key_oracle(self):
        # explain used to rank with sorted() and the key (-|w_k|, k),
        # leaving out the intercept; the stable argsort must agree
        rng = np.random.default_rng(3)
        shuffle = np.random.default_rng(4).permutation
        for d in (1, 2, 5, 12):
            # the intercept is the last feature, as `fit --intercept` appends it
            names = tuple(f"f{k}" for k in range(d)) + (CONST_FEATURE,)
            pooled = pool(Dataset(rng.normal(size=(d + 1, 3)), names, ("a0", "a1", "a2")),
                          Dataset(rng.normal(size=(d + 1, 2)), names, ("b0", "b1")))
            for _ in range(20):
                # few distinct magnitudes, both signs and zeros: many ties
                values = rng.integers(-2, 3, size=(d + 1, 5)) * 0.5
                real = [k for k in range(d + 1) if names[k] != CONST_FEATURE]
                for top_k in (1, 3, d + 1):
                    oracle = {}
                    for col, sid in enumerate(pooled.sample_ids):
                        w = values[:, col]
                        order = sorted(real, key=lambda k: (-abs(w[k]), k))[:top_k]
                        oracle[sid] = tuple((names[k], float(w[k])) for k in order)
                        e, = explain(WeightMatrix(values=values), pooled, [sid], top_k)
                        assert e.ranked_features == oracle[sid]
                    # all ids in one call, shuffled: the same rankings in their order
                    ids = [pooled.sample_ids[i] for i in shuffle(pooled.m)]
                    together = explain(WeightMatrix(values=values), pooled, ids, top_k)
                    assert [e.sample_id for e in together] == ids
                    assert [e.ranked_features for e in together] == [oracle[s] for s in ids]

    def test_prefix_l1_bound(self):
        rng = np.random.default_rng(1)
        pooled = pooled_with(2, 3, d=6)
        values = rng.normal(size=(6, 5))
        for k in (1, 3, 6):
            e, = explain(WeightMatrix(values=values), pooled, ["b1"], top_k=k)
            col = values[:, 3]  # b1 is pooled column 3
            assert sum(abs(w) for _, w in e.ranked_features) <= np.sum(np.abs(col)) + 1e-12

    def test_score_equals_ratio_score_bit_for_bit(self):
        # the score used to come from np.dot, which sums in another order
        # than ratio_score's einsum, so it could differ in the last bit
        rng = np.random.default_rng(2)
        shuffle = np.random.default_rng(5).permutation
        for d in (1, 3, 10, 37, 100, 130):
            inl = make_dataset(rng.normal(size=(d, 9)), "a")
            pooled = pool(inl, make_dataset(rng.normal(size=(d, 7)), "b"))
            W = WeightMatrix(values=rng.normal(size=(d, 16)) * 10.0 ** rng.uniform(-2, 2, size=16))
            for which in ("test", "all"):
                scores = ratio_score(W, pooled, which=which)
                for sid, score in zip(scores.sample_ids, scores.scores):
                    assert explain(W, pooled, [sid], top_k=1)[0].score == score
                # all ids in one call, shuffled, against the one-id calls
                ids = [scores.sample_ids[i] for i in shuffle(len(scores.sample_ids))]
                together = explain(W, pooled, ids, top_k=1)
                assert [e.sample_id for e in together] == ids
                assert [e.score for e in together] == [
                    explain(W, pooled, [sid], top_k=1)[0].score for sid in ids
                ]

    def test_readme_flow_explains_the_sample_it_scores(self, tmp_path):
        # two files loaded with the same ids used to pool, and explain of
        # inlier s0 answered with test s0's column
        inliers, test, labels = generate(SynthSpec(d=4, n_inlier=12, n_test_inlier=6,
                                                   n_test_outlier=2))
        save_csv(tmp_path / "inliers.csv", inliers)
        save_csv(tmp_path / "test.csv", test, labels=labels)
        inliers, _ = load_csv(tmp_path / "inliers.csv", id_prefix="in-")
        test, _ = load_csv(tmp_path / "test.csv", id_prefix="te-")
        pooled = pool(inliers, test)
        weights = fit_pooled(pooled, LlrHyperparams()).weights
        scores = ratio_score(weights, pooled, which="inlier")
        why = explain(weights, pooled, scores.sample_ids, top_k=2)
        assert [e.sample_id for e in why] == list(inliers.sample_ids)
        assert [e.score for e in why] == scores.scores.tolist()

    def test_unknown_sample(self):
        pooled = pooled_with(1, 1)
        with pytest.raises(InputError, match="no sample with id"):
            explain(WeightMatrix(values=np.zeros((1, 2))), pooled, ["nope"], top_k=1)
        # among known ids, the error names the unknown one
        with pytest.raises(InputError, match="'nope'"):
            explain(WeightMatrix(values=np.zeros((1, 2))), pooled, ["a0", "nope", "b0"], top_k=1)

    def test_no_ids_no_explanations(self):
        pooled = pooled_with(1, 1)
        assert explain(WeightMatrix(values=np.zeros((1, 2))), pooled, [], top_k=1) == []

    def test_bad_top_k(self):
        pooled = pooled_with(1, 1)
        with pytest.raises(ValueError):
            explain(WeightMatrix(values=np.zeros((1, 2))), pooled, ["a0"], top_k=0)
        with pytest.raises(ValueError):
            explain(WeightMatrix(values=np.zeros((1, 2))), pooled, ["a0", "b0"], top_k=-1)


class TestScoresIo:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        s = ScoreSet(
            ("a", "b", "c"),
            rng.random(3) + 0.1,
            labels=("inlier", "outlier", "inlier"),
        )
        decisions = detect(s, 0.5)
        path = tmp_path / "scores.csv"
        save_scores_csv(path, s, decisions)
        loaded, dec = load_scores_csv(path)
        assert loaded.sample_ids == s.sample_ids
        assert np.array_equal(loaded.scores, s.scores)  # bit-exact via repr
        assert loaded.labels == s.labels
        assert dec == decisions

    def test_roundtrip_without_optionals(self, tmp_path):
        s = ScoreSet(("x", "y"), np.array([1.5, 2.5]))
        path = tmp_path / "scores.csv"
        save_scores_csv(path, s)
        loaded, dec = load_scores_csv(path)
        assert loaded.labels is None and dec is None
        assert np.array_equal(loaded.scores, s.scores)

    def test_explanations_json(self, tmp_path):
        pooled = pooled_with(1, 2, d=2)
        values = np.array([[0.0, 1.0, -2.0], [0.0, 0.5, 0.25]])
        W = WeightMatrix(values=values)
        exps = explain(W, pooled, ["b0", "b1"], top_k=2)
        path = tmp_path / "explanations.json"
        save_explanations_json(path, exps)
        doc = json.loads(path.read_text())
        assert [e["sample_id"] for e in doc] == ["b0", "b1"]
        assert doc[1]["features"][0] == {"name": "f0", "weight": -2.0}
        assert doc[0]["score"] == pytest.approx(exps[0].score)

    # names repeat across explanations, as feature names do, and include
    # quotes, backslashes, control and non-ASCII characters
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.builds(
        Explanation,
        sample_id=st.text(),
        ranked_features=st.lists(
            st.tuples(st.sampled_from(["f1", 'q"\\', "\x00\t\n\x1f\x7f", "é ü", "\u2028🙂"])
                      | st.text(), st.floats()),
            max_size=5,
        ).map(tuple),
        score=st.floats(),
    ), max_size=5))
    @example([])
    @example([Explanation("te-\"é\"\n", (), -0.0)])
    @example([Explanation("a", (("f1", 5e-324), ("f1", -0.0), ("\u00e9", 1.7976931348623157e308)),
                          -1.7976931348623157e308),
              Explanation("b", (("\x01", float("inf")), ("\ud800", float("nan"))), 1e-300)])
    def test_explanations_json_bytes_equal_json_dump(self, tmp_path_factory, explanations):
        # the one-pass writer against json.dump of the same document
        doc = [
            {
                "sample_id": e.sample_id,
                "score": e.score,
                "features": [{"name": n, "weight": w} for n, w in e.ranked_features],
            }
            for e in explanations
        ]
        oracle = io.StringIO()
        json.dump(doc, oracle, indent=2)
        path = tmp_path_factory.getbasetemp() / "explanations_property.json"
        save_explanations_json(path, explanations)
        assert path.read_bytes() == oracle.getvalue().encode("utf-8")
