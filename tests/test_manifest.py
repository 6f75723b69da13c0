"""Every row of the behaviour manifest (``tests/manifest.py``) holds:
transcripts, outputs, restarts and j-invariants of local runs on four
parameter sets, the verifier's reports on single-digit mutants of each
transcript, key bodies, the probes of ``siot.analysis``, the baseline
OT and the walkthrough demo's stdout."""

import json

import manifest


def test_every_manifest_row_holds():
    recorded = json.loads(manifest.MANIFEST.read_text())
    moved = manifest.moved(recorded, manifest.digests())
    assert not moved, f"manifest rows moved: {', '.join(moved)}"
