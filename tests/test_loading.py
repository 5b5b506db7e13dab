"""Each CLI command loads only the modules it runs, and every deferred name stays a patch point.

``mobiusq.cli`` and ``mobiusq.minfind`` bind the names of the modules a
command needs on first use (``mobiusq._defer``), so classical ``minfind``
never loads the simulator, and no transform run loads the gate model in
``mobiusq.gates``: only ``verify`` and ``--dump-state`` do.  ``sim``,
``circuits`` and ``grover`` bind the gate model's names the same way, and
only those ``perfbench/tracer.py`` reads through them.  Each
deferred name is nonetheless an attribute of its module from the start: the
tests and ``perfbench/tracer.py`` read and replace them there.  The module
sets are read in fresh processes, since the pytest process has long since
loaded every module.  No command loads ``dataclasses``: the record classes
are plain ``__slots__`` classes (``mobiusq._Record``), so defining them
generates and compiles no code.  A seeded estimate loads the sampler
``mobiusq._pcg64`` and never ``numpy.random``, whose import pulls in
``secrets``, ``hmac`` and OpenSSL; ``verify``, which draws its inputs from
numpy's generator, is the one command that loads it.  A deferred load goes
through the C import path, so ``-X importtime`` logs it like any other.
"""
from __future__ import annotations

import json
import subprocess
import sys

import pytest

import golden
import mobiusq
import mobiusq.circuits as circuits_mod
import mobiusq.cli as cli_mod
import mobiusq.grover as grover_mod
import mobiusq.minfind as minfind_mod
import mobiusq.sim as sim_mod

TABLE = "tests/data/mobius3_table.json"
BASE = {"mobiusq", "mobiusq.cli", "mobiusq.subset"}
SIMULATOR = {"mobiusq.sim", "mobiusq.circuits", "mobiusq.grover"}
GATES = {"mobiusq.gates"}
SAMPLER = {"mobiusq._pcg64"}

# the names perfbench/tracer.py reads off each module, none of them bound by a command it runs first
TRACER_NAMES = {
    "sim": ("Circuit", "new_state", "apply_circuit", "project", "QubitIs", "gate_qubits", "gate_target_qubits"),
    "circuits": ("build_start_circuit", "DecompositionError"),
    "grover": ("plan_grover", "amplify", "build_start_state", "GroverPlan"),
}


def _python(code: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=golden.ROOT,
        env=golden.env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


# runs cli.main on argv[1:] (when given) and prints the mobiusq modules loaded, and
# dataclasses and numpy.random if loaded
MODULES_AFTER = """
import contextlib, io, json, sys
import mobiusq.cli as cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("mobiusq", "dataclasses") or m == "numpy.random")))
"""


@pytest.mark.parametrize(
    "argv, added",
    [
        ([], set()),
        (["minfind", "--center", "13", "--n", "5"], {"mobiusq.minfind"}),
        (["mobius", "--input", TABLE, "--x", "101"], SIMULATOR),
        (["mobius", "--input", TABLE, "--sweep", "--shots", "100"], SIMULATOR | SAMPLER),
        (["marginal", "--input", TABLE, "--n0", "2", "--x", "10"], SIMULATOR),
        (["marginal", "--input", TABLE, "--n0", "2", "--x", "10", "--shots", "100"], SIMULATOR | SAMPLER),
        (["minfind", "--center", "13", "--n", "5", "--backend", "quantum"], SIMULATOR | {"mobiusq.minfind"}),
        (["verify", "--seed", "0"], SIMULATOR | GATES | {"mobiusq.verify", "numpy.random"}),
    ],
    ids=[
        "import-only", "minfind-classical", "mobius", "mobius-sweep-shots", "marginal", "marginal-shots",
        "minfind-quantum", "verify",
    ],
)
def test_each_command_loads_only_the_modules_it_runs(argv, added):
    assert set(json.loads(_python(MODULES_AFTER, *argv))) == BASE | added


@pytest.mark.parametrize(
    "argv, added",
    [
        (["mobius", "--input", TABLE, "--sweep", "--shots", "100"], SIMULATOR | SAMPLER),
        (["minfind", "--center", "13", "--n", "5", "--backend", "quantum"], SIMULATOR | {"mobiusq.minfind"}),
    ],
    ids=["mobius-sweep-shots", "minfind-quantum"],
)
def test_the_import_time_log_lists_every_module_loaded_on_first_use(argv, added):
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", MODULES_AFTER, *argv],
        cwd=golden.ROOT,
        env=golden.env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    logged = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    loaded = set(json.loads(proc.stdout))
    assert loaded == BASE | added
    assert loaded <= logged, loaded - logged


def test_dump_state_loads_the_gate_model(tmp_path):
    for point in (["mobius", "--input", TABLE, "--x", "101"], ["marginal", "--input", TABLE, "--n0", "2", "--x", "10"]):
        argv = [*point, "--dump-state", str(tmp_path / "state.json")]
        assert set(json.loads(_python(MODULES_AFTER, *argv))) == BASE | SIMULATOR | GATES, point[0]


def test_every_name_the_tracer_reads_is_an_attribute_before_any_command_runs():
    code = """
import importlib, json, sys
read = {}
for home, names in json.loads(sys.argv[1]).items():
    module = importlib.import_module("mobiusq." + home)
    read.update({(home, name): getattr(module, name) for name in names})
import mobiusq.gates as gates  # a moved name is the gate model's own object
assert all(getattr(gates, name, got) is got for (_, name), got in read.items())
print("ok")
"""
    assert _python(code, json.dumps(TRACER_NAMES)) == "ok"


@pytest.mark.parametrize("module", [sim_mod, circuits_mod, grover_mod], ids=lambda m: m.__name__)
def test_the_gate_model_names_deferred_are_those_the_tracer_reads(module):
    home = module.__name__.rsplit(".", 1)[1]
    assert set(module._DEFERRED["gates"]) <= set(TRACER_NAMES[home])


def test_every_deferred_name_is_an_attribute_before_any_command_runs():
    code = """
import importlib
import mobiusq.circuits as circuits, mobiusq.cli as cli, mobiusq.grover as grover
import mobiusq.minfind as minfind, mobiusq.sim as sim
for module in (cli, minfind, sim, circuits, grover):
    deferred = {name for names in module._DEFERRED.values() for name in names}
    assert not deferred & set(vars(module)), (module.__name__, deferred & set(vars(module)))
    for home, names in module._DEFERRED.items():
        for name in names:
            got = getattr(module, name)
            assert got is getattr(importlib.import_module("mobiusq." + home), name), (module.__name__, name)
print("ok")
"""
    assert _python(code) == "ok"


@pytest.mark.parametrize("module", [mobiusq, cli_mod, minfind_mod], ids=lambda m: m.__name__)
def test_an_unknown_attribute_raises_attribute_error_naming_the_module(module):
    with pytest.raises(AttributeError, match=rf"module '{module.__name__}' has no attribute 'no_such_name'"):
        module.no_such_name  # noqa: B018


def test_a_replacement_bound_before_a_run_is_the_one_called():
    """The tracer's wrap: read the attribute (which loads its module), then replace it."""
    code = """
import contextlib, io, sys
import mobiusq.cli as cli
calls = []
original = cli.classical_value

def classical_value(query):
    calls.append(str(query.x))
    return original(query)

cli.classical_value = classical_value
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(sys.argv[1:]) == 0
print(calls)
"""
    assert _python(code, "mobius", "--input", TABLE, "--x", "101") == "['101']"


def test_importing_the_package_loads_no_numpy_and_lists_the_same_public_names():
    code = """
import json, sys
import mobiusq
assert "numpy" not in sys.modules
print(json.dumps([name for name in dir(mobiusq) if not name.startswith("_")]))
"""
    assert set(json.loads(_python(code))) == {*mobiusq.__all__, "annotations"}


# python -m mobiusq binds the command's names into mobiusq.cli; python -m
# mobiusq.cli binds them into __main__, a second module object
@pytest.mark.parametrize(
    "argv",
    [
        ["marginal", "--input", "tests/data/golden/inputs/marginal5-n0-2-complex.json", "--sweep",
         "--shots", "2000", "--seed", "5"],
        ["minfind", "--center", "174099", "--n", "18"],
    ],
    ids=["marginal-sweep-shots", "minfind-classical"],
)
def test_both_module_entry_points_print_and_write_the_same_bytes(tmp_path, argv):
    results = []
    for module in ("mobiusq", "mobiusq.cli"):
        out = tmp_path / f"{module}.json"
        proc = subprocess.run(
            [sys.executable, "-m", module, *argv, "--out", str(out)],
            cwd=golden.ROOT,
            env=golden.env(),
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        results.append((proc.stdout, out.read_bytes()))
    assert results[0] == results[1]
