"""ratioscope.libm against the scipy.special functions it stands in for.

fit's sigmoids and synth's logarithms come from libm, so that fits and
synthetic data keep scipy's bits without importing scipy.special.  numpy's
SIMD exp differs from libm's in the last bit on 4.6% of N(0, 1) draws
on an AVX-512 CPU, and a sigmoid built on it on about 2%, so a helper
that took np.exp fails here."""

import math

import numpy as np
import pytest
from scipy.special import expit, log_expit, logsumexp

from ratioscope import libm

EXP_MAX = 709.782712893384  # the largest double with a finite exp


def assert_bit_equal(got, want, x):
    bad = got.view(np.int64) != want.view(np.int64)
    assert not bad.any(), (x[bad][:5], got[bad][:5], want[bad][:5])


def edge_inputs():
    edges = [0.0, -0.0, math.inf, -math.inf, math.nan, EXP_MAX,
             float(np.nextafter(EXP_MAX, math.inf)), 745.0, -745.0, 746.0, -746.0]
    # sigma(x) is subnormal for x below about -708.4, and zero below about -745.1
    subnormal = np.linspace(-745.2, -708.3, 400)
    x = np.concatenate([edges, subnormal])
    return np.concatenate([x, -x])


@pytest.mark.parametrize("scale", [None, 1e-8, 1.0, 30.0, 800.0],
                         ids=["edges", "s=1e-8", "s=1", "s=30", "s=800"])
@pytest.mark.parametrize("ours, theirs", [(libm.expit, expit), (libm.log_expit, log_expit)],
                         ids=["expit", "log_expit"])
def test_matches_scipy_bit_for_bit(ours, theirs, scale):
    if scale is None:
        x = edge_inputs()
    else:
        x = np.random.default_rng(35).normal(0.0, scale, 50_000)
    assert_bit_equal(ours(x), theirs(x), x)


def logsumexp_inputs():
    """Rows that take each of scipy.special.logsumexp's paths: random at
    scales up to 1e300, where exp overflows and the fallback sum is inf,
    all -inf (the fallback's log(0)), a +inf entry, ties at the maximum,
    -0.0 against 0.0, and a single column."""
    rng = np.random.default_rng(38)
    cases = {f"s={scale:g}": rng.normal(0.0, scale, (40, 30))
             for scale in (1e-8, 1.0, 30.0, 800.0, 1e300)}
    mixed = rng.normal(0.0, 3.0, (6, 8))
    mixed[0] = -math.inf
    mixed[1, 3] = -math.inf
    mixed[2, 5] = math.inf
    mixed[3, :4] = mixed[3].max()
    mixed[4] = np.round(mixed[4])
    mixed[5] = [-0.0, 0.0, -0.0, -1.0, -2.0, -0.0, -3.0, -4.0]
    cases["edges"] = mixed
    cases["ties"] = np.round(rng.normal(0.0, 2.0, (40, 30)))
    cases["zeros"] = np.where(rng.random((40, 30)) < 0.5, -0.0, 0.0)
    cases["one column"] = rng.normal(0.0, 10.0, (40, 1))
    cases["Fortran order"] = np.asfortranarray(rng.normal(0.0, 30.0, (40, 30)))
    return cases


@pytest.mark.parametrize("case", sorted(logsumexp_inputs()))
def test_logsumexp_matches_scipy_bit_for_bit(case):
    a = logsumexp_inputs()[case]
    with np.errstate(all="ignore"):
        want = logsumexp(a, axis=1)
    assert_bit_equal(libm.logsumexp(a), want, a)
