"""Element-by-element libm functions on 1-D float64 arrays, for the two
computations whose bits reach a saved result: synth's normal variates
(the CSVs) and the LLR fit's sigmoids (model.json).  Only synth and llr
import it; the baselines compute with numpy's ufuncs.

numpy's own exp and log take SIMD paths that can differ from the C
library in the last bit (np.exp does on 4.6% of N(0, 1) draws on an
AVX-512 CPU), while scipy.special's ufuncs and the Cephes code behind
them call libm.  Python's math module calls libm too, so these helpers
give scipy's bits without importing scipy.special: each maps a math
function over the entries and does the rest in IEEE float64 arithmetic,
as the C code does."""

from __future__ import annotations

import math

import numpy as np

# the largest double whose exp is finite: C's exp returns inf above it,
# where math.exp raises OverflowError
_EXP_MAX = 709.782712893384


def _each(f, a: np.ndarray) -> np.ndarray:
    return np.fromiter(map(f, a.tolist()), float, a.size)


def log(a: np.ndarray) -> np.ndarray:
    """libm's log of every entry of a, all positive."""
    return _each(math.log, a)


def _exp(a: np.ndarray) -> np.ndarray:
    """libm's exp of every entry of a, +inf where it overflows."""
    return np.where(a > _EXP_MAX, np.inf, _each(math.exp, np.minimum(a, _EXP_MAX)))


def expit(x: np.ndarray) -> np.ndarray:
    """The logistic sigmoid 1 / (1 + exp(-x)), as scipy.special.expit."""
    return 1.0 / (1.0 + _exp(-x))


def log_expit(x: np.ndarray) -> np.ndarray:
    """log(expit(x)) by scipy.special.log_expit's two branches:
    x - log1p(exp(x)) for x < 0, else -log1p(exp(-x))."""
    neg = x < 0
    t = _each(math.log1p, _exp(np.where(neg, x, -x)))
    return np.where(neg, x - t, -t)
