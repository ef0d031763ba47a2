"""ratioscope.libm against the scipy.special functions it stands in for.

fit's sigmoids and synth's logarithms come from libm, so that model.json
and the synthetic CSVs keep scipy's bits without importing
scipy.special.  The baselines reach a saved result only through their
AUCs, so they compute with numpy's ufuncs.  numpy's SIMD exp differs
from libm's in the last bit on 4.6% of N(0, 1) draws on an AVX-512 CPU,
and a sigmoid built on it on about 2%, so a helper that took np.exp
fails here."""

import math

import numpy as np
import pytest
from scipy.special import expit, log_expit

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

