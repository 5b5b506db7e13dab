"""The CLI's answers do not depend on the BLAS thread count, and its pin stays in CLI processes.

Every reduction of the readout is a correctly rounded sum, so --out is byte
for byte the same at any OPENBLAS_NUM_THREADS.  The sizes are chosen so that
a BLAS reduction over the dense state would be threaded: the n=4 sweep runs
on 15 qubits and the n=5 quantum minfind on 18.
"""
from __future__ import annotations

import subprocess
import sys

import pytest

import golden

SWEEP_TABLE = "tests/data/golden/inputs/sweep-41.json"


@pytest.mark.parametrize(
    "argv",
    [
        ["mobius", "--input", SWEEP_TABLE, "--sweep", "--shots", "2000", "--seed", "5"],
        ["minfind", "--center", "21", "--n", "5", "--backend", "quantum"],
    ],
    ids=["mobius-sweep-n4", "minfind-quantum-n5"],
)
def test_out_is_byte_identical_at_one_and_two_blas_threads(tmp_path, argv):
    entry = {"name": "run", "argv": [*argv, "--out", "{out}"]}
    outs = []
    for threads in ("1", "2"):
        result = golden.run(entry, tmp_path, threads)
        assert result["exit"] == 0, result["stderr"]
        outs.append(result["files"]["out"])
    assert outs[0] == outs[1]


def _python(code: str, env: dict[str, str]) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=golden.ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


# runs the CLI module exactly as ``python -m mobiusq.cli verify`` does, then
# reports the variable numpy saw and whether numpy loaded only after the pin
AS_MAIN = """
import contextlib, io, os, runpy, sys
sys.argv = ["mobiusq.cli", "verify", "--seed", "0"]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("{module}", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert exc.code == 0, exc.code
print(os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@pytest.mark.parametrize("module", ["mobiusq.cli", "mobiusq"])
@pytest.mark.parametrize("caller", [None, "3"])
def test_cli_process_defaults_to_one_blas_thread_and_a_caller_value_wins(module, caller):
    env = golden.env()
    env.pop("OPENBLAS_NUM_THREADS")
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = caller
    assert _python(AS_MAIN.format(module=module), env) == (caller or "1")


def test_console_script_entry_defaults_to_one_blas_thread():
    """pyproject's ``mobiusq`` script calls mobiusq.__main__:main, which pins before numpy loads."""
    env = golden.env()
    env.pop("OPENBLAS_NUM_THREADS")
    code = (
        "import contextlib, io, os, sys\n"
        "sys.argv = ['mobiusq', 'verify', '--seed', '0']\n"
        "from mobiusq.__main__ import main\n"
        "assert 'numpy' not in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main() == 0\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    )
    assert _python(code, env) == "1"


def test_importing_the_package_loads_no_numpy_and_sets_no_thread_count():
    env = golden.env()
    env.pop("OPENBLAS_NUM_THREADS")
    code = (
        "import os, sys\n"
        "import mobiusq\n"
        "assert 'numpy' not in sys.modules\n"
        "from mobiusq import read_out_at\n"
        "import mobiusq.cli\n"
        "assert read_out_at.__module__ == 'mobiusq.circuits'\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS', 'unset'))\n"
    )
    assert _python(code, env) == "unset"
