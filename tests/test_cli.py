from __future__ import annotations

import json
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import mobiusq.circuits as circuits_mod
import mobiusq.cli as cli_mod
import mobiusq.layout as layout_mod
from mobiusq.circuits import Support, TransformQuery, estimate_exact, estimate_sampled, gather
from mobiusq.cli import MINFIND_SCHEMA, TRANSFORM_SCHEMA, main
from mobiusq.gates import Circuit, Controlled, Hadamard, PauliX, build_comparator, build_start_state
from mobiusq.layout import Mode
from mobiusq.subset import BitString, SubsetTable, zeta_fast
from mobiusq.verify import run_verify
from oracle import read_out, state_from_json_obj

DATA = Path(__file__).parent / "data"


@pytest.fixture
def uniform3(tmp_path):
    path = tmp_path / "uniform3.json"
    path.write_text(json.dumps({"n": 3, "values": [0.125] * 8}))
    return str(path)


@pytest.fixture
def joint4(tmp_path):
    vals = [v / 136.0 for v in range(1, 17)]
    path = tmp_path / "joint4.json"
    path.write_text(json.dumps({"n": 4, "values": vals}))
    return str(path)


# ---------------------------------------------------------------------------
# transform commands


def test_mobius_single_point(uniform3, capsys):
    assert main(["mobius", "--input", uniform3, "--x", "110"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].split() == ["x", "classical", "exact"]
    assert lines[1].split() == ["110", "0.5000000000", "0.5000000000"]


def test_mobius_sweep_writes_schema_valid_json(uniform3, tmp_path, capsys):
    out_path = tmp_path / "result.json"
    assert main(["mobius", "--input", uniform3, "--sweep", "--out", str(out_path)]) == 0
    obj = json.loads(out_path.read_text())
    jsonschema.validate(obj, TRANSFORM_SCHEMA)
    assert obj["command"] == "mobius"
    assert (obj["n"], obj["n0"]) == (3, 3)
    assert obj["shots"] is None and obj["seed"] is None
    truth = zeta_fast(SubsetTable(3, [0.125] * 8)).values
    assert len(obj["rows"]) == 8
    for row in obj["rows"]:
        xv = BitString.from_str(row["x"]).to_int()
        assert abs(row["exact"] - truth[xv]) <= 1e-9
        assert abs(row["classical"] - truth[xv]) <= 1e-12


def test_mobius_accepts_query_json(tmp_path, capsys):
    rng = np.random.default_rng(50)
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    amps /= np.linalg.norm(amps)
    q = TransformQuery(Mode.MOBIUS, 2, amps, BitString.from_str("11"))
    path = tmp_path / "query.json"
    path.write_text(json.dumps(q.to_json_obj()))
    assert main(["mobius", "--input", str(path), "--x", "01"]) == 0
    row = capsys.readouterr().out.strip().splitlines()[1].split()
    want = float(np.abs(amps[0]) ** 2 + np.abs(amps[1]) ** 2)
    assert row[0] == "01"
    assert abs(float(row[2]) - want) <= 1e-9


def test_usage_and_io_failures(uniform3, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["mobius", "--input", str(bad), "--x", "000"]) == 1
    assert main(["mobius", "--input", str(tmp_path / "missing.json"), "--x", "0"]) == 2
    assert main(["mobius", "--input", uniform3, "--x", "11"]) == 1  # wrong length
    assert main(["mobius", "--input", uniform3, "--x", "110", "--sweep"]) == 1
    assert main(["mobius", "--input", uniform3]) == 1  # neither point nor sweep
    assert main(["mobius", "--input", uniform3, "--x", "1a0"]) == 1
    capsys.readouterr()


def test_mobius_rejects_non_probability_table(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"n": 2, "values": [0.5, 0.6, 0.1, 0.1]}))
    assert main(["mobius", "--input", str(path), "--x", "11"]) == 1
    assert "error" in capsys.readouterr().err
    # an imaginary part is never rounded away, however small
    path.write_text(json.dumps({"n": 1, "values": [[0.5, 5e-9], [0.5, 0.0]]}))
    assert main(["mobius", "--input", str(path), "--x", "1"]) == 1
    assert "must be real" in capsys.readouterr().err


def test_a_slightly_negative_table_entry_fails_as_the_table(tmp_path, capsys):
    """An entry in [-1e-9, 0) has no square root to encode: refuse the table, before any warning."""
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"n": 3, "values": [0.125 + 1e-10, -1e-10] + [0.125] * 6}))
    for argv in (
        ["mobius", "--input", str(path), "--x", "101"],
        ["marginal", "--input", str(path), "--n0", "2", "--x", "01"],
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        assert "negative entry -1e-10 in probability table" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_inputs_fail_fast(tmp_path, capsys, bad):
    table = tmp_path / "table.json"
    table.write_text('{"n": 2, "values": [%s, 0.5, 0.25, 0.25]}' % bad)
    query = tmp_path / "query.json"
    query.write_text(
        '{"mode": "mobius", "n": 1, "n0": 1, "psi_minus": [[%s, 0], [0.6, 0]], "x": "1"}' % bad
    )
    for argv in (
        ["mobius", "--input", str(table), "--x", "11"],
        ["marginal", "--input", str(table), "--n0", "1", "--sweep"],
        ["mobius", "--input", str(query), "--x", "1"],
        ["minfind", "--input", str(table)],
    ):
        assert main(argv) == 1
        assert "non-finite" in capsys.readouterr().err


def test_golden_sampled_sweep_still_checks(capsys):
    """An n=3 sweep with 5000 shots, recorded by an earlier build, re-checks."""
    golden = DATA / "mobius3_sweep_shots5000.json"
    assert all(row["estimate"] is not None for row in json.loads(golden.read_text())["rows"])
    argv = ["mobius", "--input", str(DATA / "mobius3_table.json"), "--check", str(golden)]
    assert main(argv) == 0
    assert "check: PASS (8 rows" in capsys.readouterr().out


def test_golden_marginal_sweep_still_checks(capsys):
    """An n=5, n0=3 sweep with 5000 shots, recorded before the comparator's
    mismatch control became two CNOTs, re-checks."""
    golden = DATA / "marginal5_n0_3_sweep_shots5000.json"
    assert json.loads(golden.read_text())["seed"] == 11
    argv = ["marginal", "--input", str(DATA / "marginal5_table.json"), "--n0", "3"]
    assert main(argv + ["--check", str(golden)]) == 0
    assert "check: PASS (8 rows" in capsys.readouterr().out


def test_marginal_needs_n0_for_table_inputs(joint4, capsys):
    assert main(["marginal", "--input", joint4, "--x", "000"]) == 1
    assert "--n0" in capsys.readouterr().err


def test_marginal_sweep_frozen_values(joint4, tmp_path, capsys):
    out_path = tmp_path / "marg.json"
    rc = main(
        ["marginal", "--input", joint4, "--sweep", "--n0", "3", "--out", str(out_path)]
    )
    assert rc == 0
    obj = json.loads(out_path.read_text())
    jsonschema.validate(obj, TRANSFORM_SCHEMA)
    rows = {r["x"]: r for r in obj["rows"]}
    assert abs(rows["000"]["exact"] - 10.0 / 136.0) <= 1e-9
    assert abs(sum(r["exact"] for r in obj["rows"]) - 1.0) <= 1e-9


def test_rows_whose_classical_and_exact_values_differ_fail_the_self_check(uniform3, tmp_path, monkeypatch, capsys):
    classical = cli_mod.classical_value
    monkeypatch.setattr(cli_mod, "classical_value", lambda query: classical(query) + 1e-6)
    out = tmp_path / "out.json"
    assert main(["mobius", "--input", uniform3, "--sweep", "--out", str(out)]) == 1
    assert "self-check failed: classical and exact values differ by" in capsys.readouterr().err
    assert not out.exists()


def test_a_marginal_sweep_that_does_not_sum_to_one_fails_the_self_check(joint4, tmp_path, monkeypatch, capsys):
    """Every row doubled on both sides: each agrees with itself, the sweep sums to 2."""
    classical, read_out_at = cli_mod.classical_value, cli_mod.read_out_at

    def doubled(support, x):
        readout = read_out_at(support, x)
        p00, p01, p10, p11 = readout.cells
        return layout_mod.Readout(readout.plan, (p00, 2.0 * p01, p10, p11))

    monkeypatch.setattr(cli_mod, "classical_value", lambda query: 2.0 * classical(query))
    monkeypatch.setattr(cli_mod, "read_out_at", doubled)
    out = tmp_path / "out.json"
    assert main(["marginal", "--input", joint4, "--sweep", "--n0", "3", "--out", str(out)]) == 1
    assert "self-check failed: marginal sweep sums to 2.0" in capsys.readouterr().err
    assert not out.exists()


def test_marginal_query_input_conflicting_n0(tmp_path, capsys):
    rng = np.random.default_rng(51)
    amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    amps /= np.linalg.norm(amps)
    q = TransformQuery(Mode.MARGINAL, 3, amps, BitString.from_str("10"), n0=2)
    path = tmp_path / "mq.json"
    path.write_text(json.dumps(q.to_json_obj()))
    assert main(["marginal", "--input", str(path), "--x", "01"]) == 0
    assert main(["marginal", "--input", str(path), "--x", "01", "--n0", "1"]) == 1
    # query mode must match the command
    assert main(["mobius", "--input", str(path), "--x", "01"]) == 1
    capsys.readouterr()


def test_shots_add_columns_and_are_reproducible(uniform3, capsys):
    argv = ["mobius", "--input", uniform3, "--x", "111", "--shots", "4000", "--seed", "5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    header = first.strip().splitlines()[0].split()
    assert header == ["x", "classical", "exact", "estimate", "halfwidth"]
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert main(["mobius", "--input", uniform3, "--x", "111", "--shots", "4000", "--seed", "6"]) == 0
    assert capsys.readouterr().out != first


def test_transform_check_roundtrip(uniform3, tmp_path, capsys):
    out_path = tmp_path / "run.json"
    assert main(["mobius", "--input", uniform3, "--sweep", "--shots", "500", "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert main(["mobius", "--input", uniform3, "--check", str(out_path)]) == 0
    assert "check: PASS" in capsys.readouterr().out

    obj = json.loads(out_path.read_text())
    obj["rows"][3]["exact"] += 1e-3
    out_path.write_text(json.dumps(obj))
    assert main(["mobius", "--input", uniform3, "--check", str(out_path)]) == 1
    assert "check: FAIL" in capsys.readouterr().out


def test_a_check_file_that_repeats_a_point_exits_1_naming_it(tmp_path, capsys):
    """Each row is correct, but the two rows at x=0 would sum the marginal sweep to 0.8: refused before any query."""
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"n": 2, "values": [0.1, 0.2, 0.3, 0.4]}))
    argv, check = ["marginal", "--input", str(table), "--n0", "1"], tmp_path / "m.json"
    assert main([*argv, "--sweep", "--out", str(check)]) == 0
    obj = json.loads(check.read_text())
    obj["rows"] = [obj["rows"][0]] * 2
    check.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main([*argv, "--check", str(check)]) == 1
    assert capsys.readouterr() == ("", f"error: {check}: rows repeat x = 0\n")


def _edited_fixture(tmp_path, name: str, edit) -> str:
    """A copy of tests/data/<name> with edit(obj) applied."""
    obj = json.loads((DATA / name).read_text())
    edit(obj)
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


# (argv, a --check file the run recorded, n0): a real table of 8 entries runs on mobiusq.pure,
# a complex query on the numpy kernel
_WRONG_WIDTH = {
    "pure": (["mobius", "--input", str(DATA / "mobius3_table.json")], DATA / "mobius3_sweep_shots5000.json", 3),
    "numpy": (
        ["marginal", "--input", str(DATA / "golden" / "inputs" / "marginal5-n0-2-complex.json")],
        DATA / "golden" / "marginal5-n0-2-complex.out.json",
        2,
    ),
}


@pytest.mark.parametrize("source", ["--x", "--check"])
@pytest.mark.parametrize("kernel", sorted(_WRONG_WIDTH))
def test_an_x_of_the_wrong_width_is_refused_alike_on_both_kernels(tmp_path, monkeypatch, capsys, kernel, source):
    """pure.Support.keep and the TransformQuery constructor refuse it with one line, before any row prints."""
    argv, check, n0 = _WRONG_WIDTH[kernel]
    wrong = "1" * (n0 + 1)
    if source == "--x":
        argv = [*argv, "--x", wrong]
    else:  # the last row, so the points before it run first
        obj = json.loads(check.read_text())
        obj["rows"][-1]["x"] = wrong
        edited = tmp_path / "check.json"
        edited.write_text(json.dumps(obj))
        argv = [*argv, "--check", str(edited)]
    gathered = _count_gathers(monkeypatch)
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: x has {n0 + 1} bits, expected n0 = {n0}\n")
    assert not out.exists()
    kernels = {type(support).__module__ for support in gathered}
    assert (kernels == {"mobiusq.pure"}) if kernel == "pure" else (kernels <= {"mobiusq.circuits"}), kernels


@pytest.mark.parametrize("kernel", sorted(_WRONG_WIDTH))
def test_a_check_row_of_the_wrong_width_is_refused_before_any_point_is_read_out(tmp_path, monkeypatch, capsys, kernel):
    """The last row is the wrong one, so a width checked row by row would read out every row before it.

    The refusal comes after the run's one gather, which reads no point (a pure run refuses --x
    there too, test_an_x_of_the_wrong_width_is_refused_alike_on_both_kernels), and before any readout.
    """
    argv, check, n0 = _WRONG_WIDTH[kernel]
    obj = json.loads(check.read_text())
    obj["rows"][-1]["x"] = "1" * (n0 + 1)
    edited = tmp_path / "check.json"
    edited.write_text(json.dumps(obj))
    calls = []
    for name in ("gather", "read_out_at"):
        staged = getattr(cli_mod, name)
        monkeypatch.setattr(cli_mod, name, lambda *a, name=name, staged=staged: calls.append(name) or staged(*a))
    out = tmp_path / "out.json"
    assert main([*argv, "--check", str(edited), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: x has {n0 + 1} bits, expected n0 = {n0}\n")
    assert calls == ["gather"] and not out.exists()


@pytest.mark.parametrize("key,value", [("n", 99), ("n0", 2)])
def test_transform_check_confirms_recorded_header(tmp_path, capsys, key, value):
    check = _edited_fixture(tmp_path, "mobius3_sweep_shots5000.json", lambda o: o.update({key: value}))
    argv = ["mobius", "--input", str(DATA / "mobius3_table.json"), "--check", check]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "check: FAIL" in out
    assert f"{key} {value} vs 3" in out


def test_minfind_check_confirms_recorded_n(tmp_path, capsys):
    check = _edited_fixture(tmp_path, "minfind18_classical.json", lambda o: o.update({"n": 17}))
    argv = ["minfind", "--center", str(GOLDEN_MINFIND18_CENTER), "--n", "18", "--check", check]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "check: FAIL" in out
    assert "n 17 vs 18" in out


@pytest.mark.parametrize("key,value", [("shots", 5000.0), ("seed", 3.0), ("n", True)])
def test_check_file_integers_must_be_json_integers(tmp_path, capsys, key, value):
    check = _edited_fixture(tmp_path, "mobius3_sweep_shots5000.json", lambda o: o.update({key: value}))
    argv = ["mobius", "--input", str(DATA / "mobius3_table.json"), "--check", check]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"$.{key}: expected integer" in err


SCHEMA_INVALID_CHECKS = {
    "rows-missing": (
        "mobius3_sweep_shots5000.json",
        lambda o: o.pop("rows"),
        "$: missing required key 'rows'",
    ),
    "x-012": (
        "mobius3_sweep_shots5000.json",
        lambda o: o["rows"][0].update({"x": "012"}),
        "$.rows[0].x: '012' does not match",
    ),
    "bit-2": (
        "minfind18_classical.json",
        lambda o: o["probes"][0].update({"bit": 2}),
        "$.probes[0].bit: 2 is not one of",
    ),
    "other-command": (
        "marginal5_n0_3_sweep_shots5000.json",
        lambda o: None,
        "--check file records a marginal run",
    ),
}


@pytest.mark.parametrize("case", SCHEMA_INVALID_CHECKS.values(), ids=SCHEMA_INVALID_CHECKS.keys())
def test_schema_invalid_check_file_exits_1_naming_the_path(tmp_path, case):
    name, edit, message = case
    check = _edited_fixture(tmp_path, name, edit)
    out = tmp_path / "out.json"
    if name.startswith("minfind"):
        argv = ["minfind", "--center", str(GOLDEN_MINFIND18_CENTER), "--n", "18"]
    else:
        argv = ["mobius", "--input", str(DATA / "mobius3_table.json")]
    proc = subprocess.run(
        [sys.executable, "-m", "mobiusq.cli", *argv, "--check", check, "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error:")
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("mode,n,n0", [(Mode.MOBIUS, 3, None), (Mode.MARGINAL, 4, 2)])
def test_query_input_is_evaluated_at_its_own_x(tmp_path, capsys, mode, n, n0):
    rng = np.random.default_rng(53)
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    amps /= np.linalg.norm(amps)
    own = BitString.from_int(1, n0 or n)
    path = tmp_path / "query.json"
    path.write_text(json.dumps(TransformQuery(mode, n, amps, own, n0).to_json_obj()))
    out = tmp_path / "out.json"

    def rows(*flags):
        assert main([mode.value, "--input", str(path), *flags, "--out", str(out)]) == 0
        return [r["x"] for r in json.loads(out.read_text())["rows"]]

    assert rows() == [str(own)]
    other = BitString.from_int(2, n0 or n)
    assert rows("--x", str(other)) == [str(other)]
    assert len(rows("--sweep")) == 1 << (n0 or n)
    assert main([mode.value, "--input", str(path), "--x", str(other), "--sweep"]) == 1
    capsys.readouterr()


def test_dump_state_writes_loadable_start_state(uniform3, tmp_path, capsys):
    dump = tmp_path / "state.json"
    assert main(["mobius", "--input", uniform3, "--x", "101", "--dump-state", str(dump)]) == 0
    state = state_from_json_obj(json.loads(dump.read_text()))
    assert state.layout.mode is Mode.MOBIUS
    assert (state.layout.n, state.layout.n0) == (3, 3)
    assert abs(state.norm - 1.0) <= 1e-12
    q = TransformQuery(Mode.MOBIUS, 3, np.full(8, 0.125**0.5), BitString.from_str("101"))
    assert np.array_equal(state.amplitudes, build_start_state(q).amplitudes)
    out = tmp_path / "out.json"
    argv = ["mobius", "--input", uniform3, "--sweep", "--dump-state", str(dump), "--out", str(out)]
    assert main(argv) == 1
    assert "--dump-state needs a single --x point" in capsys.readouterr().err
    assert not out.exists()


def _count_gathers(monkeypatch) -> list:
    """Route cli.gather, the one dense build of a transform run, through a recorder; returns the supports."""
    supports = []
    gather = cli_mod.gather

    def recording(query):
        supports.append(gather(query))
        return supports[-1]

    monkeypatch.setattr(cli_mod, "gather", recording)
    return supports


def test_bad_flags_fail_before_any_circuit_work(uniform3, tmp_path, monkeypatch, capsys):
    gathered = _count_gathers(monkeypatch)
    out, dump = tmp_path / "out.json", tmp_path / "state.json"
    golden = str(DATA / "mobius3_sweep_shots5000.json")
    table = str(DATA / "mobius3_table.json")
    for argv, message in (
        (["mobius", "--input", uniform3, "--sweep", "--shots", "0"], "shots must be >= 1"),
        (["mobius", "--input", uniform3, "--x", "101", "--shots", "-3"], "shots must be >= 1"),
        (["mobius", "--input", table, "--check", golden, "--dump-state", str(dump)], "--dump-state"),
    ):
        assert main(argv + ["--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists() and not dump.exists()
    assert gathered == []


def test_negative_sampling_seeds_fail_before_any_circuit_work(uniform3, tmp_path, monkeypatch, capsys):
    """Each point samples with seed + dec(x), which numpy needs to be >= 0."""
    gathered = _count_gathers(monkeypatch)
    out = tmp_path / "out.json"
    check = _edited_fixture(tmp_path, "mobius3_sweep_shots5000.json", lambda o: o.update({"seed": -3}))
    for argv, message in (
        (["mobius", "--input", uniform3, "--sweep", "--shots", "10", "--seed", "-3"], "--seed -3 "),
        (["mobius", "--input", uniform3, "--x", "010", "--shots", "10", "--seed", "-3"], "--seed -3 "),
        (["mobius", "--input", str(DATA / "mobius3_table.json"), "--check", check], f"{check}: seed -3 "),
    ):
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert message in err and "negative at x = " in err
        assert not out.exists()
    assert gathered == []
    # a seed that stays non-negative at every point of the run still works
    assert main(["mobius", "--input", uniform3, "--x", "101", "--shots", "10", "--seed", "-5"]) == 0
    assert main(["mobius", "--input", uniform3, "--sweep", "--seed", "-3"]) == 0  # no sampling
    capsys.readouterr()


@pytest.mark.parametrize("mode,n,n0", [("mobius", 8, None), ("marginal", 9, 8)])
def test_an_over_cap_sweep_fails_before_its_points_are_built(tmp_path, monkeypatch, capsys, mode, n, n0):
    """The qubit cap is checked once the input is parsed, not by the first point's query."""
    def no_points(*args):
        raise AssertionError("a sweep point was built for a layout over the cap")

    monkeypatch.setattr(cli_mod.BitString, "from_int", no_points)
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"n": n, "values": [1.0 / (1 << n)] * (1 << n)}))
    argv = [mode, "--input", str(path), "--sweep"] + (["--n0", str(n0)] if n0 else [])
    assert main(argv) == 1
    total = n + 2 * (n0 or n) + 3
    assert capsys.readouterr().err == f"error: layout needs {total} qubits, cap is 26\n"


def test_verify_refuses_a_negative_seed(capsys):
    assert main(["verify", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"


def test_failed_output_write_leaves_no_output_files(uniform3, tmp_path, capsys):
    """--out and --dump-state are written together: an I/O failure on either leaves neither."""
    out, dump = tmp_path / "out.json", tmp_path / "state.json"
    missing = str(tmp_path / "missing_dir" / "file.json")
    point = ["mobius", "--input", uniform3, "--x", "101"]
    for argv in (
        point + ["--out", str(out), "--dump-state", missing],
        point + ["--out", missing, "--dump-state", str(dump)],
    ):
        assert main(argv) == 2
        assert "No such file or directory" in capsys.readouterr().err
        assert not out.exists() and not dump.exists()
    assert main(point + ["--out", str(out), "--dump-state", str(dump)]) == 0
    assert out.exists() and dump.exists()
    capsys.readouterr()


@pytest.mark.parametrize("failing", ["dump-in-a-missing-dir", "out-in-a-missing-dir", "dump-is-a-directory"])
def test_a_failed_write_keeps_the_files_already_at_the_output_paths(uniform3, tmp_path, capsys, failing):
    """The outputs replace their paths only once every write has succeeded; a run that succeeds replaces both."""
    out, dump, directory = tmp_path / "keep.json", tmp_path / "state.json", tmp_path / "adir"
    out.write_text('{"precious": 1}\n')
    dump.write_text('{"precious": 2}\n')
    directory.mkdir()
    missing = str(tmp_path / "nodir" / "file.json")
    paths = {
        "dump-in-a-missing-dir": (str(out), missing),
        "out-in-a-missing-dir": (missing, str(dump)),
        "dump-is-a-directory": (str(out), str(directory)),
    }[failing]
    point = ["mobius", "--input", uniform3, "--x", "101"]
    assert main(point + ["--out", paths[0], "--dump-state", paths[1]]) == 2
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert out.read_text() == '{"precious": 1}\n' and dump.read_text() == '{"precious": 2}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "keep.json", "state.json", "uniform3.json"]
    assert list(directory.iterdir()) == []
    assert main(point + ["--out", str(out), "--dump-state", str(dump)]) == 0
    assert json.loads(out.read_text())["rows"][0]["x"] == "101" and "amplitudes" in json.loads(dump.read_text())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "keep.json", "state.json", "uniform3.json"]
    capsys.readouterr()


def test_an_output_path_through_a_symlink_writes_the_file_the_link_names(uniform3, tmp_path, capsys):
    link, out = tmp_path / "link.json", tmp_path / "out.json"
    out.write_text("{}\n")
    link.symlink_to(out)
    assert main(["mobius", "--input", uniform3, "--x", "101", "--out", str(link)]) == 0
    assert link.is_symlink() and json.loads(out.read_text())["rows"][0]["x"] == "101"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "out.json", "uniform3.json"]
    capsys.readouterr()


def test_a_file_at_the_temporary_name_is_neither_overwritten_nor_removed(uniform3, tmp_path, capsys):
    out = tmp_path / "keep.json"
    temp = tmp_path / f"keep.json.{os.getpid()}.tmp"
    out.write_text('{"precious": 1}\n')
    temp.write_text('{"precious": 2}\n')
    assert main(["mobius", "--input", uniform3, "--x", "101", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert out.read_text() == '{"precious": 1}\n' and temp.read_text() == '{"precious": 2}\n'


def test_an_output_to_a_device_or_a_pipe_is_written_in_place(uniform3, tmp_path, capsys):
    """Only a regular file is replaced: /dev/null and a named pipe stay what they are."""
    fifo = tmp_path / "out.pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    point = ["mobius", "--input", uniform3, "--x", "101"]
    assert main(point + ["--out", str(fifo), "--dump-state", os.devnull]) == 0
    reader.join(timeout=60)
    assert json.loads(received[0])["rows"][0]["x"] == "101"
    assert stat.S_ISFIFO(os.stat(fifo).st_mode) and stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.pipe", "uniform3.json"]
    capsys.readouterr()


def test_out_dev_stdout_writes_the_file_stdout_is_redirected_to_in_place(uniform3, tmp_path):
    redirected = tmp_path / "stdout.json"
    with redirected.open("w") as stdout:
        inode = os.fstat(stdout.fileno()).st_ino
        argv = ["mobius", "--input", uniform3, "--x", "101", "--out", "/dev/stdout"]
        proc = subprocess.run(
            [sys.executable, "-m", "mobiusq.cli", *argv], stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120
        )
    assert proc.returncode == 0, proc.stderr
    assert os.stat(redirected).st_ino == inode and '"x": "101"' in redirected.read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["stdout.json", "uniform3.json"]


def test_out_and_dump_state_on_one_file_fail_before_any_circuit_work(
    uniform3, tmp_path, monkeypatch, capsys
):
    """The dump would overwrite the result, so the run exits 1 and writes no file."""
    gathered = _count_gathers(monkeypatch)
    monkeypatch.chdir(tmp_path)
    same = tmp_path / "same.json"
    point = ["mobius", "--input", uniform3, "--x", "101"]
    for dump in (str(same), "./same.json"):
        assert main(point + ["--out", str(same), "--dump-state", dump]) == 1
        assert f"--out {same} and --dump-state {dump} are the same file" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["uniform3.json"]
    assert gathered == []


_OVERWRITES = {
    "mobius": ("mobius3_table.json", "mobius3_sweep_shots5000.json", ["--x", "101"]),
    "marginal": ("marginal5_table.json", "marginal5_n0_3_sweep_shots5000.json", ["--n0", "3", "--x", "101"]),
    "minfind": (None, "minfind18_classical.json", ["--center", "200001", "--n", "18"]),
}


@pytest.mark.parametrize("command", sorted(_OVERWRITES))
def test_an_output_naming_an_input_file_fails_before_any_work(command, tmp_path, monkeypatch, capsys):
    """--out or --dump-state resolving to the --input or --check file would overwrite it: exit 1, file kept."""
    monkeypatch.chdir(tmp_path)
    ran = []
    for name in ("gather", "find_min", "centered_softmin"):
        monkeypatch.setattr(cli_mod, name, lambda *args, name=name: ran.append(name))
    table, check, point = _OVERWRITES[command]
    (tmp_path / check).write_bytes((DATA / check).read_bytes())
    if table is None:  # minfind reads an objective table with --input, in place of --center
        table = "objective.json"
        (tmp_path / table).write_text(json.dumps(SubsetTable(3, np.arange(1.0, 9.0)).to_json_obj()))
        cases = [(["--input", table], "--out", f"./{table}", "--input", table)]
    else:
        (tmp_path / table).write_bytes((DATA / table).read_bytes())
        cases = [
            (["--input", table, *point], "--out", table, "--input", table),
            (["--input", table, *point], "--dump-state", f"./{table}", "--input", table),
            (["--input", table, "--check", check], "--dump-state", str(tmp_path / check), "--check", check),
        ]
    cases.append(([*(["--input", table] if command != "minfind" else point), "--check", check],
                  "--out", f"./{check}", "--check", check))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    for flags, out_flag, out, in_flag, source in cases:
        assert main([command, *flags, out_flag, out]) == 1
        assert f"{out_flag} {out} and {in_flag} {source} are the same file" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert ran == []


def _query_input(tmp_path, mode: Mode, n: int, n0: int | None, complex_amps: bool) -> tuple[str, np.ndarray]:
    rng = np.random.default_rng(10 * n + (n0 or 0) + complex_amps)
    if complex_amps:
        amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    else:
        amps = rng.random(1 << n)
    amps /= np.linalg.norm(amps)
    path = tmp_path / "query.json"
    obj = TransformQuery(mode, n, amps, BitString.from_int(0, n0 or n), n0).to_json_obj()
    path.write_text(json.dumps(obj))
    return str(path), TransformQuery.from_json_obj(obj).psi_minus


@pytest.mark.parametrize("complex_amps", [False, True])
@pytest.mark.parametrize(
    "mode,n,n0",
    [(Mode.MOBIUS, n, None) for n in range(1, 5)]
    + [(Mode.MARGINAL, 3, 1), (Mode.MARGINAL, 4, 2), (Mode.MARGINAL, 5, 3)],
)
def test_sweep_rows_equal_per_point_estimators(tmp_path, capsys, mode, n, n0, complex_amps):
    """Rows read off the one shared state equal the per-point estimators exactly."""
    path, amps = _query_input(tmp_path, mode, n, n0, complex_amps)
    out = tmp_path / "out.json"
    argv = [mode.value, "--input", path, "--sweep", "--shots", "400", "--seed", "9", "--out", str(out)]
    assert main(argv) == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 1 << (n0 or n)
    for row in rows:
        x = BitString.from_str(row["x"])
        q = TransformQuery(mode, n, amps, x, n0)
        report = estimate_sampled(q, 400, 9 + x.to_int())
        assert row["exact"] == estimate_exact(q)
        assert (row["estimate"], row["halfwidth"]) == (report.estimate, report.halfwidth)
    capsys.readouterr()


def test_sweep_gathers_one_support_for_every_point(uniform3, monkeypatch, capsys):
    """One gather serves every point, and the readouts leave the support as gathered."""
    gathered = _count_gathers(monkeypatch)
    supports = []
    read_out_at = cli_mod.read_out_at

    def recording(support, x):
        supports.append((support, x))
        return read_out_at(support, x)

    monkeypatch.setattr(cli_mod, "read_out_at", recording)
    assert main(["mobius", "--input", uniform3, "--sweep", "--shots", "100"]) == 0
    capsys.readouterr()
    assert len(gathered) == 1
    assert len(supports) == 8 and all(s is gathered[0] for s, _ in supports)
    amps = np.full(8, 0.125**0.5)
    for xv, (support, x) in enumerate(supports):
        # each point reads the shared support exactly as the dense start state at that point
        assert x.to_int() == xv
        q = TransformQuery(Mode.MOBIUS, 3, amps, x)
        assert read_out_at(support, x) == read_out(build_start_state(q))
    fresh = gather(q)
    # a small real table runs on the pure kernel: its real amplitudes are numpy's, whose imaginary parts are +0.0
    assert np.array(gathered[0].amplitudes, dtype=np.complex128).tobytes() == fresh.amplitudes.tobytes()
    assert list(gathered[0].alpha_minus) == fresh.alpha_minus.tolist()


def test_a_sweep_holds_one_query_at_a_time(tmp_path, capsys):
    """A sweep's peak does not grow with its points: each query, a copy of the table, is built at its row.

    An n=13 real table runs on the numpy kernel at n0=1 (2 points) and n0=5 (32 points).
    """
    values = np.random.default_rng(13).random(1 << 13)
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"n": 13, "values": (values / values.sum()).tolist()}))

    def peak(n0: int) -> int:
        tracemalloc.start()
        try:
            assert main(["marginal", "--input", str(path), "--n0", str(n0), "--sweep"]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    peak(5)  # warm-up: the first run loads the numpy kernel, whose transients are not the sweep's
    assert peak(5) <= 1.1 * peak(1)


# ---------------------------------------------------------------------------
# minfind command


def test_minfind_builtin_objective(capsys):
    assert main(["minfind", "--center", "13", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert "result: 01101 (dec 13)" in out
    assert out.strip().splitlines()[0].split() == ["x", "value", "bit"]


def test_minfind_table_input(tmp_path, capsys):
    rng = np.random.default_rng(52)
    values = list(rng.random(16) + 0.5)
    path = tmp_path / "obj.json"
    path.write_text(json.dumps({"n": 4, "values": values}))
    assert main(["minfind", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    want = int(np.argmin(values))
    assert f"(dec {want})" in out


def test_minfind_quantum_backend_matches_classical(capsys):
    assert main(["minfind", "--center", "5", "--n", "3"]) == 0
    classical = capsys.readouterr().out.strip().splitlines()[-1]
    assert main(["minfind", "--center", "5", "--n", "3", "--backend", "quantum"]) == 0
    quantum = capsys.readouterr().out.strip().splitlines()[-1]
    assert classical == quantum == "result: 101 (dec 5)"


def test_minfind_check_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "trace.json"
    assert main(["minfind", "--center", "9", "--n", "4", "--out", str(out_path)]) == 0
    obj = json.loads(out_path.read_text())
    jsonschema.validate(obj, MINFIND_SCHEMA)
    assert obj["result"] == "1001"
    capsys.readouterr()

    assert main(["minfind", "--center", "9", "--n", "4", "--check", str(out_path)]) == 0
    assert "check: PASS" in capsys.readouterr().out

    obj["probes"][1]["value"] += 0.5
    out_path.write_text(json.dumps(obj))
    assert main(["minfind", "--center", "9", "--n", "4", "--check", str(out_path)]) == 1
    assert "check: FAIL" in capsys.readouterr().out


def test_minfind_usage_errors(tmp_path, capsys):
    obj = tmp_path / "obj.json"
    obj.write_text(json.dumps({"n": 2, "values": [2.0, 1.0, 3.0, 4.0]}))
    assert main(["minfind"]) == 1
    assert main(["minfind", "--input", str(obj), "--center", "1"]) == 1
    assert main(["minfind", "--center", "1"]) == 1  # missing --n
    assert main(["minfind", "--center", "1", "--n", "2", "--shots", "10"]) == 1
    assert main(["minfind", "--center", "1" + "0" * 400, "--n", "2"]) == 1  # no float holds it
    capsys.readouterr()


def test_minfind_input_refuses_n(tmp_path, capsys):
    obj = tmp_path / "obj.json"
    obj.write_text(json.dumps({"n": 2, "values": [2.0, 1.0, 3.0, 4.0]}))
    assert main(["minfind", "--input", str(obj), "--n", "7"]) == 1
    assert capsys.readouterr().err.startswith("error: --n ")


@pytest.mark.parametrize("center", ["1" + "0" * 400, "-1" + "0" * 400, str(10**200), str(2**511 + 1)])
def test_minfind_refuses_a_center_beyond_a_float64_objective(center, capsys):
    assert main(["minfind", "--center", center, "--n", "5"]) == 1
    assert capsys.readouterr().err.startswith("error: --center must be at most 2**511")


@pytest.mark.parametrize("extra", [[], ["--beta", "0.5"]])
def test_minfind_names_center_precision_when_the_objective_rounds_to_ties(extra, capsys):
    # |center| beyond 2**53: dec(x) - center rounds to one float64 for neighbouring x
    assert main(["minfind", "--center", "100000000000000000", "--n", "5", *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --center 100000000000000000 is beyond float64 precision at --n 5")
    assert "tied minima" not in err


def test_minfind_keeps_the_tied_minima_message_for_an_input_table(tmp_path, capsys):
    obj = tmp_path / "obj.json"
    obj.write_text(json.dumps({"n": 2, "values": [1.0, 1.0, 2.0, 3.0]}))
    assert main(["minfind", "--input", str(obj)]) == 1
    assert capsys.readouterr().err == "error: objective has tied minima; search needs a unique argmin\n"


def test_minfind_center_at_two_to_the_forty_still_finds_its_argmin(capsys):
    assert main(["minfind", "--center", "1099511627776", "--n", "5"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "result: 11111 (dec 31)"


def test_minfind_rejects_a_beta_whose_logits_overflow(capsys):
    assert main(["minfind", "--center", "13", "--n", "5", "--beta", "1e308"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: beta 1e+308 is too large") and "non-finite" not in err


@pytest.mark.parametrize("threshold", ["2", "0", "nan", "check"])
def test_minfind_refuses_a_bad_threshold_before_any_table_is_built(tmp_path, monkeypatch, capsys, threshold):
    def no_table(*args):
        raise AssertionError("a table was built for a run its threshold refuses")

    for name in ("quadratic_objective", "softmin_table", "centered_softmin"):
        monkeypatch.setattr(cli_mod, name, no_table)
    argv = ["minfind", "--center", str(GOLDEN_MINFIND18_CENTER), "--n", "18"]
    if threshold == "check":  # the value a --check file replays
        check = _edited_fixture(tmp_path, "minfind18_classical.json", lambda o: o.update({"threshold": 2}))
        argv += ["--check", check]
    else:
        argv += ["--threshold", threshold]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: threshold must lie strictly between 0 and 1\n"


@pytest.mark.parametrize("beta", ["-1", "0", "nan", "inf", "check"])
def test_minfind_refuses_a_bad_beta_before_any_table_is_built(tmp_path, monkeypatch, capsys, beta):
    def no_table(*args):
        raise AssertionError("a table was built for a run its beta refuses")

    for name in ("quadratic_objective", "softmin_table", "centered_softmin"):
        monkeypatch.setattr(cli_mod, name, no_table)
    argv = ["minfind", "--center", str(GOLDEN_MINFIND18_CENTER), "--n", "18"]
    if beta == "check":  # the value a --check file replays
        check = _edited_fixture(tmp_path, "minfind18_classical.json", lambda o: o.update({"beta": -1}))
        argv += ["--check", check]
        shown = "-1"
    else:
        argv += [f"--beta={beta}"]
        shown = str(float(beta))
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: beta must be positive and finite, got {shown}\n"


@pytest.mark.parametrize(
    "source, message",
    [
        ("--n 24 --center 5", "layout needs 75 qubits, cap is 26"),
        ("--input", "layout needs 27 qubits, cap is 26"),
        ("--n 27 --center 5", "objective needs 1 <= n <= 26, got n=27"),
        ("--n 0 --center 5", "objective needs 1 <= n <= 26, got n=0"),
    ],
)
def test_minfind_quantum_refuses_its_layout_before_any_table_is_built(tmp_path, monkeypatch, capsys, source, message):
    """A mobius layout of n bits needs 3n + 3 qubits, over the cap of 26 from n = 8: far inside the objective's cap."""

    def no_table(*args):
        raise AssertionError("a table was built for a run its layout refuses")

    for name in ("quadratic_objective", "softmin_table"):
        monkeypatch.setattr(cli_mod, name, no_table)
    argv = source.split()
    if source == "--input":
        objective = tmp_path / "objective.json"
        objective.write_text(json.dumps({"n": 8, "values": list(range(1, 257))}))
        argv.append(str(objective))
    assert main(["minfind", *argv, "--backend", "quantum"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_minfind_quantum_refuses_an_input_layout_before_the_table_is_read(tmp_path, monkeypatch, capsys):
    """The file's n alone decides the layout, so its table is neither parsed nor checked."""

    class Unread:
        @staticmethod
        def from_json_obj(obj):
            raise AssertionError("the table of a run its layout refuses was read")

    monkeypatch.setattr(cli_mod, "SubsetTable", Unread)
    objective = tmp_path / "objective.json"
    objective.write_text(json.dumps({"n": 8, "values": list(range(1, 257))}))
    assert main(["minfind", "--input", str(objective), "--backend", "quantum"]) == 1
    assert capsys.readouterr() == ("", "error: layout needs 27 qubits, cap is 26\n")


@pytest.mark.parametrize("beta", [10**400, -(10**400)], ids=["huge", "huge-negative"])
def test_minfind_refuses_a_check_beta_beyond_the_float_range_before_any_table_is_built(
    tmp_path, monkeypatch, capsys, beta
):
    """A JSON integer beta that no float holds is refused by name, not by a failed conversion."""

    def no_table(*args):
        raise AssertionError("a table was built for a run its beta refuses")

    for name in ("quadratic_objective", "softmin_table", "centered_softmin"):
        monkeypatch.setattr(cli_mod, name, no_table)
    check = _edited_fixture(tmp_path, "minfind18_classical.json", lambda o: o.update({"beta": beta}))
    argv = ["minfind", "--center", str(GOLDEN_MINFIND18_CENTER), "--n", "18", "--check", check]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: beta must be positive and finite, got an integer too large for a float\n"


def test_minfind_prints_a_huge_integer_check_beta_as_a_float_when_its_logits_overflow(tmp_path, capsys):
    """A JSON integer beta of 301 digits is named as 1e+300, as a float beta is, not digit by digit."""
    check = _edited_fixture(tmp_path, "minfind18_classical.json", lambda o: o.update({"beta": 10**300}))
    argv = ["minfind", "--center", str(GOLDEN_MINFIND18_CENTER), "--n", "18", "--check", check]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: beta 1e+300 is too large: the softmin logits overflow float64\n"


_NO_NUMPY_REFUSALS = [
    # (flags, message): several faults at once show which check comes first
    (["--center", "0", "--n", "0"], "objective needs 1 <= n <= 26, got n=0"),
    (["--center", "0", "--n", "27"], "objective needs 1 <= n <= 26, got n=27"),
    (["--center", "1", "--n", "40"], "objective needs 1 <= n <= 26, got n=40"),
    (["--center", "5", "--n", "5", "--threshold", "0"], "threshold must lie strictly between 0 and 1"),
    (["--center", "5", "--n", "40", "--threshold", "2"], "threshold must lie strictly between 0 and 1"),
    (["--center", "5", "--n", "5", "--beta", "-1"], "beta must be positive and finite, got -1.0"),
    (["--center", "5", "--n", "40", "--beta", "nan"], "beta must be positive and finite, got nan"),
    (["--center", "5", "--n", "40", "--beta", "nan", "--threshold", "2"], "threshold must lie strictly between 0 and 1"),
    (["--center", str(2**511 + 1), "--n", "5"], "--center must be at most 2**511 in magnitude for a float64 objective"),
    (["--center", str(2**512), "--n", "40"], "--center must be at most 2**511 in magnitude for a float64 objective"),
    (["--input", "OBJECTIVE", "--n", "3"], "--n sizes the --center objective; an --input table has its own n"),
    (["--input", "OBJECTIVE", "--n", "3", "--threshold", "1"], "threshold must lie strictly between 0 and 1"),
    (["--input", "OBJECTIVE", "--n", "3", "--beta", "0"], "beta must be positive and finite, got 0.0"),
    (["--center", "5"], "--center needs --n"),
]


def test_minfind_refusals_keep_their_words_and_order_with_numpy_unimportable():
    """Each refusal comes before anything that would load numpy, so a run without numpy prints it."""
    code = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # import numpy now raises ImportError
import mobiusq.cli as cli
got = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        got.append([cli.main(["minfind", *argv]), err.getvalue()])
print(json.dumps(got))
"""
    objective = str(DATA / "golden" / "inputs" / "minfind12-decades.json")
    argvs = [[objective if flag == "OBJECTIVE" else flag for flag in flags] for flags, _ in _NO_NUMPY_REFUSALS]
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[1, f"error: {message}\n"] for _, message in _NO_NUMPY_REFUSALS]


def test_minfind_rejects_oversized_objective(capsys):
    # n = 40 only: a broken guard then fails fast instead of allocating
    assert main(["minfind", "--center", "1", "--n", "40"]) == 1
    assert "n <= 26" in capsys.readouterr().err


def test_minfind_rejects_complex_objective(tmp_path, capsys):
    path = tmp_path / "obj.json"
    path.write_text(json.dumps({"n": 2, "values": [1, [1, 5], 3, 4]}))
    assert main(["minfind", "--input", str(path)]) == 1
    assert "objective values must be real" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_minfind_rejects_non_finite_beta(bad, capsys):
    assert main(["minfind", "--center", "5", "--n", "3", f"--beta={bad}"]) == 1
    err = capsys.readouterr().err
    assert "beta must be positive and finite" in err
    assert "non-finite" not in err


@pytest.mark.parametrize("bad", ["2.9", '"2"', "true"])
def test_transform_inputs_take_only_integer_sizes(tmp_path, capsys, bad):
    table = tmp_path / "table.json"
    table.write_text('{"n": %s, "values": [0.25, 0.25, 0.25, 0.25]}' % bad)
    query = tmp_path / "query.json"
    query.write_text(
        '{"mode": "mobius", "n": 1, "n0": %s, "psi_minus": [[0.8, 0], [0.6, 0]], "x": "1"}' % bad
    )
    assert main(["mobius", "--input", str(table), "--x", "11"]) == 1
    assert "'n' must be an integer" in capsys.readouterr().err
    assert main(["mobius", "--input", str(query), "--x", "1"]) == 1
    assert "'n0' must be an integer" in capsys.readouterr().err


BAD_VALUE_INPUTS = {
    "one-element-pairs": '{"n": 1, "values": [[0.5], [0.5]]}',
    "strings": '{"n": 1, "values": ["0.5", "0.5"]}',
    "bools": '{"n": 1, "values": [true, false]}',
    "triples": '{"n": 1, "values": [[0.5, 0, 7], [0.5, 0]]}',
    "huge-int": '{"n": 1, "values": [1%s, 0]}' % ("0" * 400),
    "not-a-list": '{"n": 1, "values": {"0": 0.5}}',
    "bool-psi-pairs": '{"mode": "mobius", "n": 1, "n0": 1, "x": "1", '
    '"psi_minus": [[true, false], [false, false]]}',
    "neither-key": '{"n": 1}',
}


@pytest.mark.parametrize("command", ["mobius", "minfind"])
@pytest.mark.parametrize("text", BAD_VALUE_INPUTS.values(), ids=BAD_VALUE_INPUTS.keys())
def test_malformed_input_values_exit_1_without_traceback(tmp_path, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    argv = [command, "--input", str(path)] + (["--x", "1"] if command == "mobius" else [])
    proc = subprocess.run(
        [sys.executable, "-m", "mobiusq.cli", *argv], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert "'values'" in proc.stderr or "'psi_minus'" in proc.stderr


# the table refusals above, one input each: small tables, which mobiusq.pure parses when their
# values are plain numbers; a sum of 1.5 is exact in any order, so it reads the same at any size
REFUSED_INPUTS = {
    **BAD_VALUE_INPUTS,
    "negative": '{"n": 3, "values": [0.1250000001, -1e-10, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125]}',
    "sum-1.5": '{"n": 2, "values": [0.5, 0.75, 0.125, 0.125]}',
    "nan": '{"n": 2, "values": [NaN, 0.5, 0.25, 0.25]}',
    "infinity": '{"n": 2, "values": [Infinity, 0.5, 0.25, 0.25]}',
    "minus-infinity": '{"n": 2, "values": [-Infinity, 0.5, 0.25, 0.25]}',
}


def _over_the_threshold(text: str) -> str:
    """The input padded with zero entries to 2 * cli.PURE_MAX_WORK, which numpy parses."""
    obj = json.loads(text)
    size = 2 * cli_mod.PURE_MAX_WORK
    obj["n"] = size.bit_length() - 1
    for key, zero in (("values", 0), ("psi_minus", [0, 0])):
        if isinstance(obj.get(key), list):
            obj[key] += [zero] * (size - len(obj[key]))
    return json.dumps(obj)


@pytest.mark.parametrize("text", REFUSED_INPUTS.values(), ids=REFUSED_INPUTS.keys())
@pytest.mark.parametrize("command", ["mobius", "marginal"])
def test_a_table_is_refused_with_the_same_line_on_both_sides_of_the_threshold(tmp_path, capsys, command, text):
    errors = []
    for name, body in (("small", text), ("over", _over_the_threshold(text))):
        path = tmp_path / f"{name}.json"
        path.write_text(body)
        assert main([command, "--input", str(path), "--x", "1"] + (["--n0", "1"] if command == "marginal" else [])) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith("error: ") and errors[0] == errors[1]


def test_a_table_size_far_beyond_the_cap_is_refused_at_once(tmp_path, capsys):
    """Choosing the kernel reads n before any check of it, so it must not compute 2**n."""
    path = tmp_path / "table.json"
    path.write_text('{"n": 1000000000000000000, "values": [0.5, 0.5]}')
    assert main(["mobius", "--input", str(path), "--x", "1"]) == 1
    assert capsys.readouterr().err == "error: n must be in 1..62, got 1000000000000000000\n"


GOLDEN_MINFIND18_CENTER = 200001  # tests/data/minfind18_classical.json was run with it


def test_minfind_n18_matches_golden_bytes(tmp_path, capsys):
    golden = DATA / "minfind18_classical.json"
    out = tmp_path / "trace.json"
    argv = ["minfind", "--center", str(GOLDEN_MINFIND18_CENTER), "--n", "18"]
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == golden.read_bytes()
    assert main(argv + ["--check", str(golden)]) == 0
    assert "check: PASS (18 rows" in capsys.readouterr().out


def test_minfind_takes_no_seed(capsys):
    # the search is deterministic, so minfind has no --seed to accept
    assert main(["minfind", "--center", "5", "--n", "3", "--seed", "0"]) == 1
    assert "--seed" in capsys.readouterr().err


REPLAYED_FLAGS = {
    "transform": (
        ["mobius", "--input", str(DATA / "mobius3_table.json"), "--check", str(DATA / "mobius3_sweep_shots5000.json")],
        [["--x", "101", "--shots", "7", "--seed", "99"], ["--sweep"], ["--seed", "0"]],
        "--x, --sweep, --shots, --seed",
    ),
    "minfind": (
        ["minfind", "--center", str(GOLDEN_MINFIND18_CENTER), "--n", "18", "--check", str(DATA / "minfind18_classical.json")],
        [["--beta", "1"], ["--threshold", "0.5"], ["--backend", "classical"]],
        "--beta, --threshold, --backend",
    ),
}


@pytest.mark.parametrize("case", REPLAYED_FLAGS.values(), ids=REPLAYED_FLAGS.keys())
def test_check_refuses_the_flags_it_replays(tmp_path, capsys, case):
    """A --check run takes these values from the file, so giving one is an error."""
    argv, extras, named = case
    out = tmp_path / "out.json"
    for extra in extras:
        assert main(argv + extra + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--check takes {named} from the file; drop {', '.join(extra[::2])}" in captured.err
        assert not out.exists()


def test_oversized_shot_counts_exit_1_without_writing(uniform3, tmp_path, capsys):
    """numpy's multinomial takes at most 2**63 - 1 shots, from the flag or a --check file."""
    out = tmp_path / "out.json"
    check = _edited_fixture(tmp_path, "mobius3_sweep_shots5000.json", lambda o: o.update({"shots": 2**63}))
    for argv in (
        ["mobius", "--input", uniform3, "--x", "101", "--shots", str(10**20)],
        ["mobius", "--input", str(DATA / "mobius3_table.json"), "--check", check],
    ):
        assert main(argv + ["--out", str(out)]) == 1
        assert "shots must be >= 1 and < 2**63" in capsys.readouterr().err
        assert not out.exists()


def test_deeply_nested_json_exits_1_without_writing(uniform3, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text('{"n": ' + "[" * 100_000 + "]" * 100_000 + "}")
    out = tmp_path / "out.json"
    for argv in (
        ["mobius", "--input", str(deep), "--x", "101"],
        ["mobius", "--input", uniform3, "--check", str(deep)],
        ["minfind", "--input", str(deep)],
    ):
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {deep}: JSON nested too deeply\n"
        assert not out.exists()


def test_malformed_json_names_its_file_and_exits_1(uniform3, tmp_path, capsys):
    out = tmp_path / "out.json"
    for text, message in (("", "Expecting value: line 1 column 1 (char 0)"), ('{"n": 3,', "Expecting property name")):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        for argv in (
            ["mobius", "--input", str(bad), "--x", "1"],
            ["mobius", "--input", uniform3, "--check", str(bad)],
            ["minfind", "--input", str(bad)],
        ):
            assert main(argv + ["--out", str(out)]) == 1
            assert capsys.readouterr().err.startswith(f"error: {bad}: {message}")
            assert not out.exists()


@pytest.mark.parametrize(
    "data, message",
    [
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff"),  # a UTF-16 byte-order mark
        pytest.param(
            b'{"n": 1' + b"0" * 5000 + b"}",
            "Exceeds the limit (4300 digits) for integer string conversion",
            marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit"),
        ),
    ],
    ids=["not-utf-8", "integer-over-the-digit-limit"],
)
def test_a_file_json_cannot_read_is_named_and_exits_1(uniform3, tmp_path, capsys, data, message):
    """Undecodable text and an integer too long to parse are refused with the path, as malformed JSON is."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    out = tmp_path / "out.json"
    for argv in (
        ["mobius", "--input", str(bad), "--x", "01"],
        ["mobius", "--input", uniform3, "--check", str(bad)],
        ["minfind", "--input", str(bad)],
        ["minfind", "--center", "9", "--n", "4", "--check", str(bad)],
    ):
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: {message}")
        assert not out.exists()


def test_failed_check_writes_no_files(uniform3, tmp_path, capsys):
    """A --check that fails exits 1 before writing --out or --dump-state."""
    out, dump = tmp_path / "out.json", tmp_path / "state.json"
    recorded = tmp_path / "point.json"
    assert main(["mobius", "--input", uniform3, "--x", "101", "--out", str(recorded)]) == 0
    obj = json.loads(recorded.read_text())
    obj["rows"][0]["exact"] += 1e-3
    recorded.write_text(json.dumps(obj))
    argv = ["mobius", "--input", uniform3, "--check", str(recorded)]
    assert main(argv + ["--out", str(out), "--dump-state", str(dump)]) == 1
    assert "check: FAIL" in capsys.readouterr().out
    assert not out.exists() and not dump.exists()

    trace = tmp_path / "trace.json"
    minfind = ["minfind", "--center", "9", "--n", "4"]
    assert main(minfind + ["--out", str(trace)]) == 0
    good = trace.read_text()
    obj = json.loads(good)
    obj["probes"][1]["value"] += 0.5
    trace.write_text(json.dumps(obj))
    assert main(minfind + ["--check", str(trace), "--out", str(out)]) == 1
    assert "check: FAIL" in capsys.readouterr().out
    assert not out.exists()
    truncated = _edited_fixture(tmp_path, "minfind18_classical.json", lambda o: o.update(probes=o["probes"][:2]))
    minfind18 = ["minfind", "--center", str(GOLDEN_MINFIND18_CENTER), "--n", "18"]
    assert main(minfind18 + ["--check", truncated, "--out", str(out)]) == 1
    assert "row count 2 vs 18" in capsys.readouterr().out
    assert not out.exists()

    # a passing check still writes --out
    trace.write_text(good)
    assert main(minfind + ["--check", str(trace), "--out", str(out)]) == 0
    assert out.read_text() == good
    capsys.readouterr()


# ---------------------------------------------------------------------------
# verify command and fault injection


def test_verify_passes_and_prints_one_line_per_check(capsys):
    assert main(["verify", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "verify: PASS"
    checks = lines[:-1]
    assert len(checks) == 6
    assert all(line.startswith("PASS  ") for line in checks)


def test_prep_gate_on_qubit_5_fails_the_state_prep_round_trip(monkeypatch):
    import mobiusq.verify as verify_mod

    compile_prep = verify_mod.compile_state_prep
    monkeypatch.setattr(verify_mod, "compile_state_prep", lambda t: (*compile_prep(t), Hadamard(5)))
    ok, lines = run_verify(seed=0)
    assert not ok
    assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == [
        "FAIL  state-prep-round-trip"
    ]
    assert "qubits [5] outside the low 5" in lines[4]


def test_prep_gates_that_miss_a_level_fail_the_state_prep_round_trip(monkeypatch):
    """circuits.prepare takes no gate, so the check holds it to the gate model's run of the gates, bit for bit."""
    import mobiusq.verify as verify_mod

    compile_prep = verify_mod.compile_state_prep
    monkeypatch.setattr(verify_mod, "compile_state_prep", lambda t: compile_prep(t)[:-1])
    ok, lines = run_verify(seed=0)
    assert not ok
    assert [line for line in lines if line.startswith("FAIL")] == [lines[4]]
    assert lines[4].startswith("FAIL  state-prep-round-trip: the prep differs from the gate model's run of its gates")


def _corrupted_comparator(query: TransformQuery) -> Circuit:
    """Comparator with the mobius violation control inverted."""
    if query.mode is not Mode.MOBIUS:
        return build_comparator(query)
    layout = query.layout
    am, al, be = layout.register("alpha_minus"), layout.register("alpha"), layout.register("beta")
    ops = []
    for j in range(layout.n0):
        ops.append(Hadamard(al[j]))
        controls = {am[j]: 0, al[j]: 1}  # swapped sense
        ops.append(Controlled(controls, (PauliX(be[j]),)))
    return Circuit(layout, tuple(ops))


def test_fault_injection_is_caught_by_the_comparator_check(monkeypatch):
    import mobiusq.verify as verify_mod

    monkeypatch.setattr(verify_mod, "build_comparator", _corrupted_comparator)
    ok, lines = run_verify(seed=0)
    assert not ok
    assert lines[0].startswith("FAIL  comparator-coefficients")
    assert "closed form" in lines[0]


def test_a_corrupted_gather_fails_the_sector_decomposition(monkeypatch):
    """verify reads its start states off circuits.gather, the build the CLI runs."""
    import mobiusq.verify as verify_mod

    gather = circuits_mod.gather
    assert verify_mod.gather is gather

    def corrupted(query):
        support = gather(query)
        amplitudes = support.amplitudes.copy()
        amplitudes[0] *= 1.5
        return Support(support.layout, support.alpha_minus, amplitudes)

    monkeypatch.setattr(verify_mod, "gather", corrupted)
    ok, lines = run_verify(seed=0)
    assert not ok
    assert any(line.startswith("FAIL  sector-decomposition: ") for line in lines)


def test_verify_cli_reports_failure_exit_code(capsys, monkeypatch):
    import mobiusq.cli as cli_mod

    monkeypatch.setattr(
        cli_mod, "run_verify", lambda seed: (False, ["FAIL  comparator-coefficients: boom"])
    )
    assert main(["verify"]) == 1
    assert "verify: FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# installed entry point


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mobiusq.cli", "minfind", "--center", "6", "--n", "3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "result: 110 (dec 6)" in proc.stdout
