"""The pure-Python kernel writes the numpy kernel's bytes on every real table it runs.

``mobiusq.cli`` runs a real table on ``mobiusq.pure`` while its 2**n
entries times the points of the run stay within ``cli.PURE_MAX_WORK``, and
on numpy otherwise.  Setting the bound to 0 sends the same run to numpy, so
each case runs the CLI both ways and compares every row field by
``float.hex``, and then replays each ``--out`` file with ``--check`` on the
other kernel.  The cases cover every layout with 2**n <= PURE_MAX_WORK, both
modes and every valid n0, over six kinds of table.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mobiusq.cli as cli_mod
from mobiusq import bits, pure
from mobiusq.circuits import _H, prepare
from mobiusq.layout import MAX_QUBITS, RegisterLayout

LAYOUTS = [
    (mode, n, n0)
    for n in range(1, cli_mod.PURE_MAX_WORK.bit_length())
    for mode, n0 in [("mobius", n)] + [("marginal", n0) for n0 in range(1, n)]
    if n + 2 * n0 + 3 <= MAX_QUBITS
]
KINDS = ("uniform", "half-zeros", "one-hot", "decades", "subnormal", "off-by-1e-9")


def _table(kind: str, n: int, rnd: random.Random) -> list[float]:
    """A probability table of one kind; an off-by-1e-9 table sums to 1 only within 1e-9."""
    size = 1 << n
    if kind == "uniform":
        return [1.0 / size] * size
    if kind == "one-hot":
        values = [0.0] * size
        values[rnd.randrange(size)] = 1.0
        return values
    if kind == "half-zeros":
        values = [rnd.random() if rnd.random() < 0.5 else 0.0 for _ in range(size)]
        values[rnd.randrange(size)] = 1.0
    elif kind == "decades":  # magnitudes over thirty decades
        values = [rnd.random() * 10.0 ** -rnd.uniform(0.0, 30.0) for _ in range(size)]
    elif kind == "subnormal":  # about half the entries below 2**-1022
        values = [rnd.random() * (1e-310 if rnd.random() < 0.5 else 1.0) for _ in range(size)]
        values[rnd.randrange(size)] = 1.0
    else:
        values = [rnd.random() for _ in range(size)]
    total = math.fsum(values)
    scale = 1.0 + (rnd.uniform(-9e-10, 9e-10) if kind == "off-by-1e-9" else 0.0)
    return [v / total * scale for v in values]


@contextlib.contextmanager
def _kernel(name: str):
    """Run cli.main on the named kernel, and check that the run took it and the records its stages read."""
    bound, gather, taken, queries = cli_mod.PURE_MAX_WORK, cli_mod.gather, [], []

    def recording(query):
        support = gather(query)
        taken.append(type(support).__module__)
        queries.append(query)
        return support

    cli_mod.gather = recording
    if name == "numpy":
        cli_mod.PURE_MAX_WORK = 0
    try:
        yield
    finally:
        cli_mod.gather, cli_mod.PURE_MAX_WORK = gather, bound
    assert taken == [f"mobiusq.{'pure' if name == 'pure' else 'circuits'}"], taken
    (query,) = queries
    if name == "numpy":  # the layout its constructor built and validated, kept, not rebuilt on each read
        assert vars(query)["layout"] is query.layout == RegisterLayout(query.mode, query.n, query.n0)
    else:  # a plain record: the CLI checked the table and the layout before building it
        assert "__init__" not in vars(type(query))


def _run(kernel: str, argv: list[str]) -> str:
    stdout = io.StringIO()
    with _kernel(kernel), contextlib.redirect_stdout(stdout):
        assert cli_mod.main(argv) == 0
    return stdout.getvalue()


def _hex(value):
    return value.hex() if isinstance(value, float) else value


def _rows(path: Path) -> list[dict]:
    return [{key: _hex(value) for key, value in row.items()} for row in json.loads(path.read_text())["rows"]]


@pytest.mark.parametrize("mode, n, n0", LAYOUTS, ids=[f"{m}-{n}-{n0}" for m, n, n0 in LAYOUTS])
@settings(max_examples=3, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
    sweep=st.booleans(),
    shots=st.one_of(st.none(), st.integers(1, 10**6)),
)
def test_both_kernels_write_the_same_rows_and_replay_each_other(mode, n, n0, kind, seed, sweep, shots):
    rnd = random.Random(seed)
    sweep = sweep and (1 << n0) << n <= cli_mod.PURE_MAX_WORK
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        table = tmp / "table.json"
        table.write_text(json.dumps({"n": n, "values": _table(kind, n, rnd)}))
        argv = [mode, "--input", str(table)] + (["--n0", str(n0)] if mode == "marginal" else [])
        point = ["--sweep"] if sweep else ["--x", format(rnd.randrange(1 << n0), f"0{n0}b")]
        sampled = [] if shots is None else ["--shots", str(shots), "--seed", str(rnd.randrange(1000))]
        out = {kernel: tmp / f"{kernel}.json" for kernel in ("pure", "numpy")}
        printed = {kernel: _run(kernel, argv + point + sampled + ["--out", str(out[kernel])]) for kernel in out}
        assert printed["pure"] == printed["numpy"]
        assert _rows(out["pure"]) == _rows(out["numpy"])
        assert out["pure"].read_bytes() == out["numpy"].read_bytes()
        # each kernel confirms and rewrites the other's file
        for kernel, other in (("pure", "numpy"), ("numpy", "pure")):
            replay = tmp / f"{kernel}-replay.json"
            assert "check: PASS" in _run(kernel, argv + ["--check", str(out[other]), "--out", str(replay)])
            assert replay.read_bytes() == out[other].read_bytes()


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, min_value=-1e290, max_value=1e290), max_size=1100
    )
)
def test_pairwise_sum_is_numpys_sum(values):
    assert bits.pairwise_sum(values).hex() == float(np.array(values, dtype=np.float64).sum()).hex()


@pytest.mark.parametrize("m", range(6))
def test_pairwise_sum_of_each_half_is_the_preps_axis_sum(m):
    """circuits.rotation_tree sums each prefix's halves as weights.reshape(2**m, 2, -1).sum(axis=2)."""
    rng = np.random.default_rng(m)
    for length in (1, 7, 8, 9, 127, 128, 129, 300):
        weights = rng.random((2 << m) * length) * 10.0 ** rng.uniform(-20, 0, (2 << m) * length)
        sums = weights.reshape(1 << m, 2, -1).sum(axis=2).ravel()
        values = weights.tolist()
        assert [bits.pairwise_sum(values, i * length, length) for i in range(2 << m)] == sums.tolist()


def test_the_hadamard_factor_is_the_numpy_kernels():
    assert pure._H.hex() == float(_H[0, 0].real).hex() and _H[0, 0].imag == 0.0


@pytest.mark.parametrize("kind", KINDS)
def test_both_kernels_prepare_the_same_floats(kind):
    """circuits.prepare of a real table: pure.prepare's floats as its real parts, +0.0 as every imaginary part."""
    rnd = random.Random(kind)
    for n in range(1, 14):
        psi = pure.table_amplitudes({"n": n, "values": _table(kind, n, rnd)})
        amps = prepare(psi)
        assert amps.real.tobytes() == np.array(pure.prepare(psi)).tobytes(), n
        assert amps.imag.tobytes() == bytes(8 << n), n
