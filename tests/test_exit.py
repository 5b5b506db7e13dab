"""A CLI process freezes its heap once the command returns; a library call of cli.main does not.

Each case runs in a fresh interpreter, whose freeze count starts at 0.
"""
from __future__ import annotations

import subprocess
import sys

import pytest

import golden

ARGV = ["minfind", "--center", "13", "--n", "5"]

# runs one entry quietly, then reports the collector's state
CASE = """
import contextlib, gc, importlib, io, runpy, sys
assert gc.get_freeze_count() == 0
sys.argv = ["mobiusq", *{argv!r}]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = {call}
    except SystemExit as exc:
        code = exc.code
assert code == 0, code
print(gc.isenabled(), gc.get_freeze_count() > 0)
"""

ENTRIES = {
    "python -m mobiusq.cli": 'runpy.run_module("mobiusq.cli", run_name="__main__", alter_sys=True)',
    "python -m mobiusq": 'runpy.run_module("mobiusq", run_name="__main__", alter_sys=True)',
    "console script": 'importlib.import_module("mobiusq.__main__").main()',
    "library call": 'importlib.import_module("mobiusq.cli").main(sys.argv[1:])',
}


def _collector_after(entry: str) -> str:
    code = CASE.format(argv=ARGV, call=ENTRIES[entry])
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=golden.ROOT, env=golden.env(), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("entry", ["python -m mobiusq.cli", "python -m mobiusq", "console script"])
def test_a_program_entry_freezes_the_heap_after_the_command_and_keeps_the_collector(entry):
    assert _collector_after(entry) == "True True"


def test_a_library_call_of_cli_main_freezes_nothing():
    assert _collector_after("library call") == "True False"
