"""Synthetic generator: shapes, determinism, and distributional checks.

The distributional assertions use CLT-derived bounds: for 10^4 i.i.d.
standard normal draws the sample mean is within 4/sqrt(10^4) of 0 except
with probability ~6e-5 per feature, and the sample variance (chi-square
concentration) is within 0.06 of 1 with similar slack.
"""

import math

import numpy as np
import pytest

from ratioscope.data import LABEL_INLIER, LABEL_OUTLIER
from ratioscope import synth
from ratioscope.errors import InputError
from ratioscope.synth import SynthSpec, generate


class TestNdtri:
    # synth's numpy port must give scipy.special.ndtri's bits, or every
    # synthetic data set, and each result built on one, would move
    TINY = 2.0**-53  # synth clips its uniforms to [TINY, 1 - TINY]

    def assert_bit_equal(self, p):
        from scipy.special import ndtri

        p = np.clip(p, self.TINY, 1.0 - self.TINY)
        got, want = synth._ndtri(p).view(np.int64), ndtri(p).view(np.int64)
        assert np.array_equal(got, want), p[got != want][:5]

    def test_branch_edges(self):
        # the central/tail split at exp(-2) and its mirror, the x < 8 split
        # at y = exp(-32), and the clipped ends
        edges = [math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0),
                 1.0 - math.exp(-32.0), self.TINY, 1.0 - self.TINY, 0.5]
        near = []
        for edge in edges:
            lo = hi = edge
            for _ in range(8):
                lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, 1.0)
                near += [lo, hi]
        self.assert_bit_equal(np.array(edges + near))

    def test_seeded_sample(self):
        # 1.2e6 values: uniforms as synth draws them, plus log-uniform tails
        # on both sides, which reach the y < exp(-32) branch
        rng = np.random.default_rng(32)
        tails = np.exp(-rng.random(200_000) * 53.0 * math.log(2.0))
        self.assert_bit_equal(np.concatenate([rng.random(1_000_000), tails, 1.0 - tails[::2]]))


class TestSpecValidation:
    def test_defaults(self):
        spec = SynthSpec(d=10)
        assert spec.n_inlier == 200
        assert spec.n_test_inlier == 100
        assert spec.n_test_outlier == 10
        # the outliers are the role's normals shifted by (3, -2, 0, ..., 0)
        _, test, _ = generate(spec)
        normals = synth._normals((10, 10), spec.seed, synth.ROLE_OUTLIER, 0)
        shift = np.array([3.0, -2.0] + [0.0] * 8)
        np.testing.assert_array_equal(test.features[:, -10:], normals + shift[:, None])

    def test_d_too_small(self):
        with pytest.raises(InputError, match=r"d must be an integer in \[2, inf\), got 1"):
            SynthSpec(d=1)

    def test_zero_counts(self):
        with pytest.raises(InputError, match=r"n_inlier must be an integer in \[1, inf\), got 0"):
            SynthSpec(d=5, n_inlier=0)
        with pytest.raises(InputError, match=r"n_test_outlier must be an integer in \[1, inf\), got 0"):
            SynthSpec(d=5, n_test_outlier=0)

    def test_size_bound(self):
        SynthSpec(d=2, n_inlier=2**30 - 2, n_test_inlier=1, n_test_outlier=1)  # 2**31 values
        with pytest.raises(InputError, match=r"must be a number in \[1, 2147483648\], got 2147483650$"):
            SynthSpec(d=2, n_inlier=2**30 - 1, n_test_inlier=1, n_test_outlier=1)



class TestShapes:
    def test_default_d10_shapes(self):
        inliers, test, labels = generate(SynthSpec(d=10))
        assert inliers.features.shape == (10, 200)
        assert test.features.shape == (10, 110)
        assert labels.count(LABEL_OUTLIER) == 10
        assert labels.count(LABEL_INLIER) == 100
        # outlier columns come last
        assert labels[-10:] == [LABEL_OUTLIER] * 10

    def test_ids_and_names(self):
        inliers, test, _ = generate(SynthSpec(d=3, n_inlier=4, n_test_inlier=2, n_test_outlier=1))
        assert inliers.feature_names == ("f1", "f2", "f3")
        assert inliers.sample_ids == ("inlier0", "inlier1", "inlier2", "inlier3")
        assert test.sample_ids == ("test0", "test1", "test2")


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = generate(SynthSpec(d=7, seed=42), trial=3)
        b = generate(SynthSpec(d=7, seed=42), trial=3)
        np.testing.assert_array_equal(a[0].features, b[0].features)
        np.testing.assert_array_equal(a[1].features, b[1].features)
        assert a[2] == b[2]

    def test_distinct_seeds_differ(self):
        a, _, _ = generate(SynthSpec(d=4, seed=0))
        b, _, _ = generate(SynthSpec(d=4, seed=1))
        assert not np.array_equal(a.features.ravel()[:8], b.features.ravel()[:8])

    def test_distinct_trials_differ(self):
        a, _, _ = generate(SynthSpec(d=4, seed=0), trial=0)
        b, _, _ = generate(SynthSpec(d=4, seed=0), trial=1)
        assert not np.array_equal(a.features.ravel()[:8], b.features.ravel()[:8])

    def test_roles_independent(self):
        # inlier and test-inlier streams must not repeat each other
        inliers, test, _ = generate(SynthSpec(d=4, n_inlier=50, n_test_inlier=50, n_test_outlier=1))
        assert not np.array_equal(inliers.features[:, :50], test.features[:, :50])


class TestDistribution:
    def test_inlier_clt_bounds(self):
        spec = SynthSpec(d=50, n_inlier=10_000)
        inliers, _, _ = generate(spec)
        means = inliers.features.mean(axis=1)
        variances = inliers.features.var(axis=1)
        assert np.all(np.abs(means) <= 4.0 / np.sqrt(10_000))
        assert np.all(np.abs(variances - 1.0) <= 0.06)

    def test_outlier_mean_near_mu(self):
        spec = SynthSpec(d=50, n_test_outlier=10_000)
        _, test, labels = generate(spec)
        out = test.features[:, np.asarray(labels) == LABEL_OUTLIER]
        assert out.shape[1] == 10_000
        means = out.mean(axis=1)
        mu = np.array([3.0, -2.0] + [0.0] * 48)
        assert np.all(np.abs(means - mu) <= 4.0 / np.sqrt(10_000))
