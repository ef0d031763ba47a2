import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratioscope.errors import InputError
from ratioscope.evaluation import auc, roc_auc, roc_curve, welch_ttest
from ratioscope.scores import ScoreSet


def make_scores(values, labels):
    return ScoreSet(
        sample_ids=tuple(f"s{i}" for i in range(len(values))),
        scores=np.asarray(values, dtype=float),
        labels=tuple(labels),
    )


def brute_force_auc(values, labels):
    """O(n^2) pair counting with half credit for ties."""
    inl = [v for v, l in zip(values, labels) if l == "inlier"]
    out = [v for v, l in zip(values, labels) if l == "outlier"]
    total = 0.0
    for a in inl:
        for b in out:
            if b < a:
                total += 1.0
            elif b == a:
                total += 0.5
    return total / (len(inl) * len(out))


class TestAuc:
    def test_perfect_separation(self):
        s = make_scores([2.0, 3.0, 0.5], ["inlier", "inlier", "outlier"])
        assert auc(s) == 1.0

    def test_pure_ties(self):
        s = make_scores([1.0, 1.0, 1.0], ["inlier", "outlier", "inlier"])
        assert auc(s) == 0.5

    def test_matches_bruteforce_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(4, 30))
            values = rng.choice([0.1, 0.5, 1.0, 2.0, 3.5], size=n)
            labels = rng.choice(["inlier", "outlier"], size=n)
            if len(set(labels)) < 2:
                continue
            s = make_scores(values, labels)
            assert auc(s) == pytest.approx(brute_force_auc(values, labels), abs=1e-12)

    def test_single_class(self):
        with pytest.raises(InputError, match="both inlier and outlier labels"):
            auc(make_scores([1.0, 2.0], ["inlier", "inlier"]))

    def test_complement_identity(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=20) ** 2 + 0.01  # tie-free positive scores
        labels = ["inlier"] * 12 + ["outlier"] * 8
        a = auc(make_scores(values, labels))
        flipped = auc(make_scores(1.0 / values, labels))
        assert a + flipped == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0.01, 100.0), st.sampled_from(["inlier", "outlier"])),
            min_size=2,
            max_size=30,
        )
    )
    # 3 v + 1 used to serve as the transform, and it rounds 0.01 and the
    # next float up to the same score, turning this AUC of 1 into 0.9545
    @example([(1.0, "inlier")] * 10 + [(0.010000000000000002, "inlier"), (0.01, "outlier")])
    def test_invariant_under_monotone_transform(self, pairs):
        # both transforms keep every strict order and every tie in
        # floating point: 4 v is exact in binary, and 3 r + 1 is exact
        # on the dense ranks r of v
        values, labels = (list(col) for col in zip(*pairs))
        if len(set(labels)) < 2:
            return
        values = np.asarray(values)
        ranks = np.unique(values, return_inverse=True)[1]
        base = auc(make_scores(values, labels))
        assert auc(make_scores(4.0 * values, labels)) == pytest.approx(base, abs=1e-12)
        assert auc(make_scores(3.0 * ranks + 1.0, labels)) == pytest.approx(base, abs=1e-12)


class TestRocCurve:
    def test_perfect_passes_through_0_1(self):
        s = make_scores([2.0, 3.0, 0.5], ["inlier", "inlier", "outlier"])
        points = roc_curve(s)
        assert any(np.allclose(p, [0.0, 1.0]) for p in points)
        assert np.allclose(points[0], [0.0, 0.0])
        assert np.allclose(points[-1], [1.0, 1.0])

    def test_reversed_passes_through_1_0(self):
        s = make_scores([0.5, 0.2, 3.0], ["inlier", "inlier", "outlier"])
        points = roc_curve(s)
        assert any(np.allclose(p, [1.0, 0.0]) for p in points)

    def test_monotone_staircase(self):
        rng = np.random.default_rng(2)
        s = make_scores(
            rng.exponential(size=25) + 0.01,
            ["inlier"] * 15 + ["outlier"] * 10,
        )
        points = roc_curve(s)
        assert np.all(np.diff(points[:, 0]) >= 0)
        assert np.all(np.diff(points[:, 1]) >= 0)

    def test_matches_a_threshold_loop_oracle(self):
        # roc_curve used to take one mean pair per threshold; the counts
        # over sorted scores must give the same array, bit for bit
        def oracle(inl, out):
            points = [(0.0, 0.0)]
            for t in np.unique(np.concatenate([inl, out]))[::-1]:
                points.append((float(np.mean(out >= t)), float(np.mean(inl >= t))))
            return np.asarray(points)

        rng = np.random.default_rng(4)
        for case in range(300):
            n_inl, n_out = int(rng.integers(1, 40)), int(rng.integers(1, 15))
            if case % 2:  # ties within and across the classes
                values = rng.integers(1, 6, size=n_inl + n_out).astype(float)
            else:
                values = rng.exponential(size=n_inl + n_out) + 0.01
            s = make_scores(values, ["inlier"] * n_inl + ["outlier"] * n_out)
            points = roc_curve(s)
            expected = oracle(values[:n_inl], values[n_inl:])
            assert points.shape == expected.shape and points.tobytes() == expected.tobytes()

    def test_area_equals_auc(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(5, 40))
            values = rng.choice([0.2, 0.5, 1.0, 2.0], size=n)
            labels = rng.choice(["inlier", "outlier"], size=n)
            if len(set(labels)) < 2:
                continue
            s = make_scores(values, labels)
            assert roc_auc(roc_curve(s)) == pytest.approx(auc(s), abs=1e-12)


class TestWelch:
    def test_identical_samples(self):
        assert welch_ttest([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_gross_separation(self):
        assert welch_ttest([1.0, 2.0, 3.0], [101.0, 102.0, 103.0]) < 1e-6

    def test_matches_quadrature_oracle(self):
        from scipy.integrate import quad
        from scipy.special import gammaln

        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.array([2.0, 3.0, 4.0, 5.0])
        va, vb = a.var(ddof=1), b.var(ddof=1)
        se2 = va / 4 + vb / 4
        t = abs((a.mean() - b.mean()) / np.sqrt(se2))
        df = se2**2 / ((va / 4) ** 2 / 3 + (vb / 4) ** 2 / 3)

        def t_pdf(x):
            return np.exp(
                gammaln((df + 1) / 2)
                - gammaln(df / 2)
                - 0.5 * np.log(df * np.pi)
                - (df + 1) / 2 * np.log1p(x * x / df)
            )

        tail, _ = quad(t_pdf, t, np.inf)
        assert welch_ttest(a, b) == pytest.approx(2 * tail, abs=1e-6)

    def test_too_few(self):
        with pytest.raises(InputError, match="at least 2 values"):
            welch_ttest([1.0], [1.0, 2.0])
