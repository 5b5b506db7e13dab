"""The benchmark's tracer (perfbench/tracer.py) still runs against the package.

The tracer wraps and calls public names of mobiusq at their import sites
(``cli.estimate_exact``, ``circuits.compile_state_prep``,
``circuits.build_start_circuit``, ``sim.apply_circuit``, ``sim.project``,
...).  Renaming or deleting one of them breaks ``perfbench/run.py --trace 1``
without failing any other test, so each run here must exit 0 and report no
problems.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mobiusq

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
TABLE = ROOT / "tests" / "data" / "mobius3_table.json"


def _env() -> dict[str, str]:
    src = str(Path(mobiusq.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.mark.parametrize(
    "cli_args",
    [
        ["mobius", "--input", str(TABLE), "--x", "101"],
        ["marginal", "--input", str(TABLE), "--n0", "2", "--x", "10"],
        ["minfind", "--center", "13", "--n", "5", "--backend", "quantum"],
    ],
    ids=["mobius-x", "marginal-x", "minfind-quantum"],
)
def test_tracer_runs_the_cli_with_no_problems(tmp_path, cli_args):
    proc = subprocess.run(
        [sys.executable, str(TRACER), "--record", "record.json", "--", *cli_args],
        cwd=tmp_path,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "record.json").read_text())
    assert record["problems"] == []


def test_tracer_replays_the_start_circuit_in_segments(tmp_path):
    """The segmented replay of build_start_circuit equals the one-shot build."""
    script = """
import json
import sys
sys.path.insert(0, sys.argv[1])
import tracer
from mobiusq.circuits import TransformQuery, build_start_circuit
from mobiusq.subset import BitString, SubsetTable

with open(sys.argv[2]) as f:
    table = SubsetTable.from_json_obj(json.load(f))
run = tracer.TracedRun()
for mode, x, n0 in (("mobius", "101", None), ("marginal", "10", 2)):
    q = TransformQuery.from_probability_table(mode, table, BitString.from_str(x), n0)
    stages = [stage for stage, _ in tracer.split_start_circuit(build_start_circuit(q))]
    assert stages == ["prep", "branch", "comparator", "branch", "mark"], stages
    run._replay_start_state(q)
problems, _, _ = run.check_states()
print(len(run.first_states), problems)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script, str(TRACER.parent), str(TABLE)],
        cwd=tmp_path,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "[]"]
