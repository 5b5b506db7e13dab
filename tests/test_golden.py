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
    mismatches = []
    for entry, got in zip(manifest, results):
        name = entry["name"]
        if got["exit"] != entry["exit"]:
            mismatches.append(f"{name}: exit {got['exit']} vs {entry['exit']}: {got['stderr'][-300:]!r}")
        if got["stdout"] != (golden.GOLDEN / f"{name}.stdout").read_bytes():
            mismatches.append(f"{name}: stdout differs")
        for key, path in golden.expected_files(name).items():
            want = path.read_bytes() if path.exists() else None
            if got["files"].get(key) != want:
                mismatches.append(f"{name}: {key} file differs")
    assert mismatches == []
