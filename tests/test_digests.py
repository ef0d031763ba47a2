"""End-to-end output bytes: synth, fit, score --explain-top, eval and
bench on fixed trials, against the sha256 digests in
fixtures/digests.json (see digests.py).  A change that moves results
regenerates the digests with ``python tests/digests.py write``, so the
move shows up as an edit of that file.

The digests hold on the platform they were made on (numpy, scipy and
numpy's BLAS build); elsewhere the comparison is skipped, since BLAS
kernels round differently."""

import json

import pytest

import digests


def test_pipeline_outputs_match_the_digests(tmp_path):
    expected = json.loads(digests.DIGEST_FILE.read_text(encoding="utf-8"))
    here = digests.platform()
    if here != expected["platform"]:
        pytest.skip(f"digests made on {expected['platform']}, this is {here}")
    digests.collect(tmp_path)
    got, want = digests.digests(tmp_path), expected["files"]
    moved = [
        digests.first_difference(tmp_path, name, want.get(name))
        for name in sorted(set(got) | set(want)) if got.get(name) != want.get(name)
    ]
    assert not moved, ("output bytes moved:\n" + "\n".join(moved)
                       + "\nif on purpose, run: python tests/digests.py write")
