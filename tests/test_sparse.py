"""Classical ``minfind --center`` writes the same bytes on the sparse path as on the dense tables.

``mobiusq.cli`` runs a classical search at an in-range center, with beta
unset or the one ``choose_beta`` picks, on ``minfind.centered_softmin``,
which loads no numpy; every other search builds the dense tables of ``mobiusq.dense``.
Binding ``cli.centered_softmin`` to a function that returns None sends the
same run to the dense tables, so each case runs the CLI both ways, compares
stdout and ``--out`` bytes, and replays each file with ``--check`` on the
other path.  The sparse path computes the dense softmin table and its sums
in closed form: two tests hold the dense table to that form and the
sparse evaluator to the dense one at every point.  Its live weights come
from libm's exp, and the first test checks numpy's exp against libm's on
their logits.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
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
from mobiusq import dense, minfind
from mobiusq.bits import BitString
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


def _centers(n: int, rnd: random.Random) -> list[int]:
    """Every center up to n = 8; above, both ends, their neighbours, and a few between."""
    size = 1 << n
    if n <= 8:
        return list(range(size))
    return sorted({0, 1, 3, size // 2, size - 4, size - 2, size - 1, *(rnd.randrange(size) for _ in range(3))})


def test_the_dense_softmin_table_at_an_in_range_center_is_its_closed_form():
    """Beta * 2**n = 50: exp(-50 d**2) within 3 of the center, tiny elsewhere, and an unnormalised total of 1.0."""
    rnd = random.Random(37)
    for n in range(1, 21):
        size = 1 << n
        for center in range(size) if n <= 12 else _centers(n, rnd):
            objective = dense.quadratic_objective(n, center)
            beta = dense.choose_beta(objective)
            assert beta == 50.0 / size
            weights = np.full(size, minfind.TINY)
            for d in range(4):
                weights[[x for x in (center - d, center + d) if 0 <= x < size]] = math.exp(-50.0 * d * d)
            assert float(weights.sum()) == 1.0, (n, center)
            assert dense.softmin_table(objective, beta).values.tobytes() == weights.tobytes(), (n, center)


def test_the_sparse_evaluator_is_the_dense_one_at_every_point():
    """Every point at every center up to n = 8 and at several up to n = 10; above, random points and
    points above one or both live entries of a distance, where D(x) is k * w with k = 2."""
    rnd = random.Random(38)
    checked = 0
    for n in range(1, 21):
        size = 1 << n
        for center in _centers(n, rnd):
            _, beta, evaluate = minfind.centered_softmin(n, center, None)
            reference = dense.classical_evaluator(dense.softmin_table(dense.quadratic_objective(n, center), beta))
            if n <= 10:
                points = range(size)
            else:
                live = [x for d in range(4) for x in (center - d, center + d) if 0 <= x < size]
                pairs = [(center - d) | (center + d) for d in range(1, 4) if 0 <= center - d and center + d < size]
                masks = [rnd.randrange(size) for _ in range(120)]
                points = {*masks, *(m | y for m in masks[:40] for y in live + pairs), size - 1}
            for x in points:
                point = BitString.from_int(x, n)
                assert evaluate(point).hex() == reference(point).hex(), (n, center, x)
            checked += len(points)
    assert checked > 100_000


def test_tiny_is_the_dense_floor():
    assert minfind.TINY.hex() == float(np.finfo(np.float64).tiny).hex()
