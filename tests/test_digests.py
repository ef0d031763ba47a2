"""End-to-end output bytes: synth, fit, score --explain-top, eval and
bench on fixed trials, and two fits whose Armijo line search halves its
step, a branch that the pipeline's fits never take, against the sha256
digests in fixtures/digests.json (see digests.py).  A change that moves
results regenerates the digests with ``python tests/digests.py write``,
so the move shows up as an edit of that file.

The digests hold on the platform they were made on (numpy, scipy and
numpy's BLAS build); elsewhere the comparison is skipped, since BLAS
kernels round differently."""

import json

import pytest

import digests
from ratioscope import llr


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
    got = digests.backtracking_solve()
    assert halvings() >= 1
    assert got == expected["backtracking"]["solve"]


def test_backtracking_fit_keeps_its_bits(expected, halvings):
    got = digests.backtracking_fit()
    assert halvings() >= 1
    assert got == expected["backtracking"]["fit"]
