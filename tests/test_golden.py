"""Every golden-corpus entry reproduces its recorded exit code, stdout and files byte for byte.

The corpus and its regeneration script are described in tests/golden.py.
"""
from __future__ import annotations

import json

import golden


def test_cli_reproduces_the_golden_corpus(tmp_path):
    manifest = json.loads(golden.MANIFEST.read_text())
    assert len(manifest) >= 12
    results = golden.run_all(manifest, tmp_path)
    mismatches = [line for entry, got in zip(manifest, results) for line in golden.mismatches(entry, got)]
    assert mismatches == []
