from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import mobiusq.cli as cli_mod
import mobiusq.grover as grover_mod
from mobiusq.circuits import (
    TransformQuery,
    build_comparator,
    build_start_state,
    build_unmarked_state,
)
from mobiusq.cli import MINFIND_SCHEMA, TRANSFORM_SCHEMA, main
from mobiusq.grover import estimate_exact, estimate_sampled
from mobiusq.sim import (
    Circuit,
    Controlled,
    Hadamard,
    Mode,
    PauliX,
    state_from_json_obj,
)
from mobiusq.subset import BitString, SubsetTable, zeta_fast
from mobiusq.verify import run_verify

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
    q.save(path)
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


def test_marginal_query_input_conflicting_n0(tmp_path, capsys):
    rng = np.random.default_rng(51)
    amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    amps /= np.linalg.norm(amps)
    q = TransformQuery(Mode.MARGINAL, 3, amps, BitString.from_str("10"), n0=2)
    path = tmp_path / "mq.json"
    q.save(path)
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


def _edited_fixture(tmp_path, name: str, edit) -> str:
    """A copy of tests/data/<name> with edit(obj) applied."""
    obj = json.loads((DATA / name).read_text())
    edit(obj)
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


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
    TransformQuery(mode, n, amps, own, n0).save(path)
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


def _count_unmarked_builds(monkeypatch) -> list:
    """Route cli.build_unmarked_state through a recorder; returns the built states."""
    built = []
    build = cli_mod.build_unmarked_state

    def recording(query):
        built.append(build(query))
        return built[-1]

    monkeypatch.setattr(cli_mod, "build_unmarked_state", recording)
    return built


def test_bad_flags_fail_before_any_circuit_work(uniform3, tmp_path, monkeypatch, capsys):
    built = _count_unmarked_builds(monkeypatch)
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
    assert built == []


def _query_input(tmp_path, mode: Mode, n: int, n0: int | None, complex_amps: bool) -> tuple[str, np.ndarray]:
    rng = np.random.default_rng(10 * n + (n0 or 0) + complex_amps)
    if complex_amps:
        amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    else:
        amps = rng.random(1 << n)
    amps /= np.linalg.norm(amps)
    path = tmp_path / "query.json"
    TransformQuery(mode, n, amps, BitString.from_int(0, n0 or n), n0).save(path)
    return str(path), TransformQuery.load(path).psi_minus


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


def test_sweep_builds_one_unmarked_state_and_restores_it_after_each_point(
    uniform3, monkeypatch, capsys
):
    built = _count_unmarked_builds(monkeypatch)
    starts = []
    read_out = cli_mod.read_out

    def recording(start):
        starts.append((start is built[0], start.amplitudes.tobytes()))
        return read_out(start)

    monkeypatch.setattr(cli_mod, "read_out", recording)
    assert main(["mobius", "--input", uniform3, "--sweep", "--shots", "100"]) == 0
    capsys.readouterr()
    assert len(built) == 1
    amps = np.full(8, 0.125**0.5)
    for xv, (shared, seen) in enumerate(starts):
        # each point's start state is the shared one, marked at that point only
        assert shared
        q = TransformQuery(Mode.MOBIUS, 3, amps, BitString.from_int(xv, 3))
        assert seen == build_start_state(q).amplitudes.tobytes()
    assert len(starts) == 8
    fresh = build_unmarked_state(q)
    assert built[0].amplitudes.tobytes() == fresh.amplitudes.tobytes()


def test_failed_readout_leaves_shared_state_unmarked(uniform3, tmp_path, monkeypatch, capsys):
    built = _count_unmarked_builds(monkeypatch)

    def boom(state):
        raise ValueError("planner failed")

    monkeypatch.setattr(grover_mod, "plan_grover", boom)
    out = tmp_path / "out.json"
    assert main(["mobius", "--input", uniform3, "--sweep", "--out", str(out)]) == 1
    assert "planner failed" in capsys.readouterr().err
    assert not out.exists()
    q = TransformQuery(Mode.MOBIUS, 3, np.full(8, 0.125**0.5), BitString.from_str("000"))
    fresh = build_unmarked_state(q)
    assert built[0].amplitudes.tobytes() == fresh.amplitudes.tobytes()


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


def test_fault_injection_is_caught_by_the_comparator_check():
    ok, lines = run_verify(seed=0, comparator_builder=_corrupted_comparator)
    assert not ok
    assert lines[0].startswith("FAIL  comparator-coefficients")
    assert "closed form" in lines[0]


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
