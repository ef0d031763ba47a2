"""End-to-end output bytes: synth, fit, score --explain-top, eval and
bench on fixed trials, against the sha256 digests in
fixtures/digests.json (see digests.py).  A change that moves results
regenerates the digests with ``python tests/digests.py write``, so the
move shows up as an edit of that file.

The same bytes are pinned for two fits whose Armijo line search halves
its step, a branch that the pipeline's fits never take.  Their digests
are written in the two tests below, not in fixtures/digests.json, so
``digests.py write`` leaves them alone: a change that moves them on
purpose edits them by hand, with the values that the failing
assertion prints (pytest shows both sides of the ``==``).

The digests hold on the platform they were made on (numpy, scipy and
numpy's BLAS build); elsewhere the comparison is skipped, since BLAS
kernels round differently."""

import hashlib
import json

import numpy as np
import pytest
import scipy.sparse as sp

import digests
from conftest import make_dataset, standardized_pool
from ratioscope import llr
from ratioscope.data import pool
from ratioscope.synth import SynthSpec


@pytest.fixture
def expected():
    """The digest file; a test that takes it is skipped on another platform."""
    doc = json.loads(digests.DIGEST_FILE.read_text(encoding="utf-8"))
    here = digests.platform()
    if here != doc["platform"]:
        pytest.skip(f"digests made on {doc['platform']}, this is {here}")
    return doc


def test_pipeline_outputs_match_the_digests(tmp_path, expected):
    digests.collect(tmp_path)
    got, want = digests.digests(tmp_path), expected["files"]
    moved = [
        digests.first_difference(tmp_path, name, want.get(name))
        for name in sorted(set(got) | set(want)) if got.get(name) != want.get(name)
    ]
    assert not moved, ("output bytes moved:\n" + "\n".join(moved)
                       + "\nif on purpose, run: python tests/digests.py write")


def sha256(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()


@pytest.fixture
def halvings(monkeypatch):
    """A function returning the number of Armijo halvings so far: a call
    of llr._logistic_change with the same sigma(-z) array as the call
    before it tests a halved step of the same Newton direction."""
    sigs = []
    original = llr._logistic_change

    def recording(z, sig, tdz):
        sigs.append(sig)
        return original(z, sig, tdz)

    monkeypatch.setattr(llr, "_logistic_change", recording)
    return lambda: sum(a is b for a, b in zip(sigs, sigs[1:]))


def test_backtracking_solve_keeps_its_bits(expected, halvings):
    # an exact solve from a far start, with no fused term; it halves twice
    rng = np.random.default_rng(0)
    pooled = pool(make_dataset(rng.normal(size=(3, 8)), "a"),
                  make_dataset(rng.normal(size=(3, 4)), "b"))
    W0 = llr.WeightMatrix(values=5.0 * rng.normal(size=(3, 12)))
    W = llr.solve_inner(pooled, sp.csr_matrix((12, 12)), np.ones((3, 12)),
                        llr.LlrHyperparams(lambda1=0.0, lambda2=1e-3), W0)
    assert halvings() >= 1
    assert sha256(W.values) == "cc02f2ded61438ab96e3335c8a521bde6271536602990db7b2062f4d8e42d570"


def test_backtracking_fit_keeps_its_bits(expected, halvings):
    # tests/test_llr.py's fit where the line search met log1p(-1); its
    # inner solves halve 398 times
    pooled = standardized_pool(
        SynthSpec(d=5, n_inlier=30, n_test_inlier=15, n_test_outlier=3, seed=0))
    hp = llr.LlrHyperparams(lambda1=1e6, lambda2=0.0, epsilon=1e-10, k_neighbors=1)
    result = llr.fit_pooled(pooled, hp)
    assert halvings() >= 1
    assert (sha256(result.weights.values), sha256(result.objective_trace)) == (
        "52f061ad9cd76feda7396dc6f4dedbe296aeaf47848a962758e2d98a198c58f3",
        "10ea4a7b100436e14cbd4fb40db00e8c449e155ec3680cc6d2aa4ad2ae8782de",
    )
