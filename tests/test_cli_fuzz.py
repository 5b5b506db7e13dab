"""Fuzz ``mobiusq.cli.main`` in-process over mutated small inputs and flags.

Every run must return exit code 0, 1 or 2 with no exception escaping, and a
run that does not succeed must leave no --out or --dump-state file, also
when the --dump-state path cannot be written.  A run that succeeds with
--out must pass its own --check, and that check's --out must equal the
first byte for byte.  Half the runs are drawn well formed (an unedited
document and valid flags), so the readout and the --check round trip run
often; the other half draw each value from the valid and the odd ones
alike.  Sizes stay small: tables have n <= 4, minfind's --n is 1..8 or past
the 26-bit cap (which is refused before any allocation), and the quantum
backend runs only at n <= 4.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from mobiusq.cli import main

DEEP = "<nested 100,000 brackets deep>"  # replaced in the written text
ODD_VALUES = [
    True, 1.0, 2.9, "2", "012", "", [], {}, None, -1, 0, 10**20, 2**63,
    float("nan"), float("inf"), [0.5, 0, 7], DEEP,
]
RAW_TEXTS = ["", "{not json", "[]", "null", "[" * 100_000 + "]" * 100_000]
HUGE_COUNTS = [0, -3, 10**20, 2**63]
UNWRITABLE = "missing_dir/dump.json"  # its directory is never made, so the write fails


def _paths(doc, prefix=()):
    """Every location below the root of a JSON document, as key/index tuples."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _pick(draw, valid: bool, good: list, odd: list):
    """One of good; in a run not held valid, one of good and odd alike."""
    return draw(st.sampled_from(good if valid else good + odd))


@st.composite
def _json_text(draw, doc: dict, valid: bool = False) -> str:
    """doc with up to two values replaced or keys deleted, as text; or a malformed text.

    A valid run gets doc as it is.
    """
    if valid:
        return json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(RAW_TEXTS))
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(0, 2))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        edit = draw(st.sampled_from(ODD_VALUES + ["delete"]))
        if edit == "delete" and isinstance(parent, dict):
            del parent[path[-1]]
        elif edit != "delete":
            parent[path[-1]] = copy.deepcopy(edit)
    return json.dumps(doc).replace(json.dumps(DEEP), "[" * 100_000 + "]" * 100_000)


def _table(n: int, positive: bool = False) -> dict:
    size = 1 << n
    return {"n": n, "values": [(v + 1.0) if positive else 1.0 / size for v in range(size)]}


def _query(mode: str, n: int, n0: int) -> dict:
    size = 1 << n
    return {"mode": mode, "n": n, "n0": n0, "psi_minus": [[size**-0.5, 0.0]] * size, "x": "1" * n0}


def _bits(v: int, width: int) -> str:
    return format(v, f"0{width}b")


def _transform_record(command: str, n: int, n0: int) -> dict:
    rows = [
        {"x": _bits(v, n0), "classical": 0.5, "exact": 0.5, "estimate": 0.5, "halfwidth": 0.1}
        for v in range(1 << n0)
    ]
    return {"command": command, "mode": command, "n": n, "n0": n0, "shots": 100, "seed": 0, "rows": rows}


def _minfind_record(n: int) -> dict:
    probes = [{"x": _bits(0, n), "value": 0.5, "bit": 0} for _ in range(n)]
    return {
        "command": "minfind", "n": n, "beta": 1.0, "threshold": 0.5,
        "backend": "classical", "probes": probes, "result": _bits(0, n),
    }


@st.composite
def _transform_run(draw) -> tuple[list, dict[str, str]]:
    valid = draw(st.booleans())
    command = draw(st.sampled_from(["mobius", "marginal"]))
    n = draw(st.integers(2 if valid and command == "marginal" else 1, 4))
    n0 = n if command == "mobius" else draw(st.integers(1, max(1, n - 1)))
    query = draw(st.booleans())
    doc = _query(command, n, n0) if query else _table(n)
    files = {"input": draw(_json_text(doc, valid))}
    argv = [command, "--input", "input"]
    if command == "marginal" and (valid and not query or draw(st.booleans())):
        argv += ["--n0", str(n0 if valid else draw(st.integers(-1, 5)))]
    if query:  # a query input may be evaluated at its own x
        point = _pick(draw, valid, ["x", "sweep", "neither"], ["both"])
    else:
        point = _pick(draw, valid, ["x", "sweep"], ["both", "neither"])
    if point in ("x", "both"):
        bits = st.integers(0, (1 << n0) - 1).map(lambda v: _bits(v, n0))
        argv += ["--x", draw(bits if valid else st.one_of(st.just("1" * n0), st.text("01a", max_size=5)))]
    if point in ("sweep", "both"):
        argv += ["--sweep"]
    if draw(st.booleans()):
        argv += ["--shots", str(_pick(draw, valid, [1, 7, 100], HUGE_COUNTS))]
    if draw(st.booleans()):
        argv += ["--seed", str(_pick(draw, valid, [0, 5], [-1, 2**64]))]
    if not valid and draw(st.integers(0, 3)) == 0:
        files["check"] = draw(_json_text(_transform_record(command, n, n0)))
        argv += ["--check", "check"]
    if (not valid or point != "sweep") and draw(st.booleans()):
        argv += ["--dump-state", _pick(draw, valid, ["dump.json"], [UNWRITABLE])]
    return argv, files


@st.composite
def _minfind_run(draw) -> tuple[list, dict[str, str]]:
    valid = draw(st.booleans())
    files = {}
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        files["input"] = draw(_json_text(_table(n, positive=True), valid))
        argv = ["minfind", "--input", "input"]
    else:
        n = draw(st.integers(1, 8) if valid else st.one_of(st.integers(1, 8), st.sampled_from([27, 40])))
        argv = ["minfind", "--center", str(_pick(draw, valid, [0, 3, -2], [10**30, 10**400])), "--n", str(n)]
    if draw(st.booleans()):
        argv += ["--beta", _pick(draw, valid, ["0.5"], ["0", "-1", "nan", "inf", "1e300", "1e308"])]
    if draw(st.booleans()):
        argv += ["--threshold", _pick(draw, valid, ["0.5", "0.9"], ["0", "1", "nan"])]
    if n <= 4 and draw(st.booleans()):
        argv += ["--backend", "quantum"]
    if not valid and draw(st.integers(0, 3)) == 0:
        files["check"] = draw(_json_text(_minfind_record(n if n <= 8 else 3)))
        argv += ["--check", "check"]
    return argv, files


# flags a --check run takes from its file, and the ones that write files
_REPLAYED = {"--x", "--sweep", "--shots", "--seed", "--beta", "--threshold", "--backend"}
_VALUED = _REPLAYED - {"--sweep"} | {"--check", "--dump-state", "--out"}


def _check_argv(argv: list, out: Path, again: Path) -> list:
    """argv recomputed from its own --out: the replayed and file-writing flags dropped."""
    kept, skip = [], False
    for arg in argv:
        if skip:
            skip = False
        elif arg in _VALUED:
            skip = True
        elif arg not in _REPLAYED:
            kept.append(arg)
    return kept + ["--check", str(out), "--out", str(again)]


def _main_quietly(argv: list) -> tuple[int, str]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    return code, err.getvalue()


# draws that reach these cases are rare, so each is also run as a fixed example;
# the last two reach the readout and the --check round trip on every run
_POINT_RUN = ["mobius", "--input", "input", "--x", "101", "--dump-state", UNWRITABLE]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(_transform_run(), _minfind_run()), st.booleans())
@example((_POINT_RUN, {"input": json.dumps(_table(3))}), True)
@example((["minfind", "--center", "3", "--n", "4", "--beta", "1e308"], {}), False)
@example((["mobius", "--input", "input", "--sweep", "--shots", "100", "--seed", "2"],
          {"input": json.dumps(_table(3))}), True)
@example((["minfind", "--center", "-2", "--n", "4", "--backend", "quantum"], {}), True)
def test_main_exits_0_1_or_2_and_a_failed_run_writes_nothing(run, with_out):
    argv, files = run
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in files.items():
            (root / name).write_text(text)
        argv = [str(root / a) if a in files or a in ("dump.json", UNWRITABLE) else a for a in argv]
        out = root / "out.json"
        if with_out:
            argv += ["--out", str(out)]
        code, err = _main_quietly(argv)
        event(f"{argv[0]} exit {code}")
        assert code in (0, 1, 2), err
        if code != 0:
            assert not out.exists(), argv
            assert not (root / "dump.json").exists(), argv
        elif with_out:
            again = root / "again.json"
            code, err = _main_quietly(_check_argv(argv, out, again))
            assert code == 0, (argv, err)
            assert again.read_bytes() == out.read_bytes(), argv
