"""Classical ``minfind --center`` writes the same bytes on the sparse path as on the dense tables.

``mobiusq.cli`` runs a classical search at an in-range center, with beta
unset or the one ``choose_beta`` picks, on ``minfind.centered_softmin``,
which loads no numpy; every other search builds the dense tables of ``mobiusq.dense``.
Binding ``cli.centered_softmin`` to a function that returns None sends the
same run to the dense tables, so each case runs the CLI both ways, compares
stdout and ``--out`` bytes, and replays each file with ``--check`` on the
other path.  The one operation the sparse path does not replay is exp; the
first test checks numpy's exp against libm's on the logits it computes.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mobiusq.cli as cli_mod
from mobiusq import minfind
from test_sim import _lower_dispatch_levels

# numpy's exp of the logits of the sparse path, as the dense path calls it: in place, at
# every offset a vector loop can put them, among logits of -800 and below, and in a short
# array; each must be libm's value bit for bit, and those of -800 and below must be 0.0
EXP_PARITY = """
import math
import numpy as np
logits = [0.0, -50.0, -200.0, -450.0]
far = [-800.0, -1250.0, -1800.0, -5e4, -2.0**57]
want = [math.exp(v).hex() for v in logits]
assert [math.exp(v) for v in far] == [0.0] * len(far)
assert [float(v).hex() for v in np.exp(np.array(logits + far))] == want + [0.0.hex()] * len(far)
for offset in range(33):
    weights = np.full(offset + len(logits) + 33, -800.0)
    weights[offset : offset + len(logits)] = logits
    np.exp(weights, out=weights)
    got = [float(v).hex() for v in weights]
    assert got == [0.0.hex()] * offset + want + [0.0.hex()] * 33, (offset, got)
print("ok")
"""


@pytest.mark.parametrize(
    "disabled", ["", *_lower_dispatch_levels()], ids=lambda d: "without-" + d.split()[0] if d else "native"
)
def test_numpy_exp_is_libm_exp_on_the_logits_of_the_sparse_path(disabled):
    """The sparse path's parity with the dense tables rests on this: it calls math.exp where they call np.exp."""
    proc = subprocess.run(
        [sys.executable, "-c", EXP_PARITY],
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr[-2000:]


@contextlib.contextmanager
def _path(name: str):
    """Run cli.main on the named path, "sparse" or "dense", and check that the run took it."""
    centered_softmin, taken = cli_mod.centered_softmin, []

    def recording(n, center, beta):
        run = centered_softmin(n, center, beta) if name == "sparse" else None
        taken.append("sparse" if run else "dense")
        return run

    cli_mod.centered_softmin = recording
    try:
        yield
    finally:
        cli_mod.centered_softmin = centered_softmin
    assert taken == [name], taken


def _run(name: str, argv: list[str]) -> str:
    stdout = io.StringIO()
    with _path(name), contextlib.redirect_stdout(stdout):
        assert cli_mod.main(["minfind", *argv]) == 0
    return stdout.getvalue()


def _both_ways(tmp: Path, argv: list[str]) -> None:
    """Both paths print and write the same bytes, and each confirms and rewrites the other's file."""
    out = {name: tmp / f"{name}.json" for name in ("sparse", "dense")}
    printed = {name: _run(name, argv + ["--out", str(out[name])]) for name in out}
    assert printed["sparse"] == printed["dense"]
    assert out["sparse"].read_bytes() == out["dense"].read_bytes()
    center = argv[: argv.index("--n") + 2]
    for name, other in (("sparse", "dense"), ("dense", "sparse")):
        replay = tmp / f"{name}-replay.json"
        assert "check: PASS" in _run(name, center + ["--check", str(out[other]), "--out", str(replay)])
        assert replay.read_bytes() == out[other].read_bytes()


@pytest.mark.parametrize("n", range(1, 21))
@settings(max_examples=2, deadline=None)
@given(
    where=st.floats(0.0, 1.0, exclude_max=True),
    threshold=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    default_threshold=st.booleans(),
)
def test_both_paths_write_the_same_bytes_and_replay_each_other(tmp_path_factory, n, where, threshold, default_threshold):
    """Centers at both ends, where a probe can see no live entry, and one in between."""
    flags = [] if default_threshold else ["--threshold", repr(threshold)]
    for center in sorted({0, (1 << n) - 1, int(where * (1 << n))}):
        _both_ways(tmp_path_factory.mktemp("runs"), ["--center", str(center), "--n", str(n), *flags])


def test_a_check_file_that_records_beta_as_an_int_replays_the_same_on_both_paths(tmp_path):
    """choose_beta picks 25.0 at n = 1; a file that says 25 takes the sparse path and writes 25."""
    check = tmp_path / "check.json"
    check.write_text(json.dumps({
        "command": "minfind", "n": 1, "beta": 25, "threshold": 0.5, "backend": "classical",
        "probes": [{"x": "0", "value": 1.0, "bit": 0}], "result": "0",
    }))
    out = {}
    for name in ("sparse", "dense"):
        out[name] = tmp_path / f"{name}.json"
        _run(name, ["--center", "0", "--n", "1", "--check", str(check), "--out", str(out[name])])
    assert out["sparse"].read_bytes() == out["dense"].read_bytes()
    assert json.loads(out["sparse"].read_text())["beta"] == 25


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 20),
    live=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(1e-300, 1e3)), max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_run_length_total_is_numpys_sum_of_the_dense_table(n, live, seed):
    """Live entries anywhere, clustered or not, in a run of tiny: the sum is numpy's, bit for bit."""
    size = 1 << n
    rnd = random.Random(seed)
    anchor = rnd.randrange(size)
    entries = {min(size - 1, int(where * size)) if rnd.random() < 0.5 else min(size - 1, anchor + i): value
               for i, (where, value) in enumerate(live)}
    dense = np.full(size, minfind.TINY)
    for x, value in entries.items():
        dense[x] = value
    assert minfind._Runs(size, entries).total().hex() == float(dense.sum()).hex()


def test_tiny_is_the_dense_floor():
    assert minfind.TINY.hex() == float(np.finfo(np.float64).tiny).hex()
