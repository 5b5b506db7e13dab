"""Each CLI command loads only the modules it runs, and every deferred name stays a patch point.

``mobiusq.cli`` and ``mobiusq.minfind`` bind the names of the modules a
command needs on first use (``mobiusq._defer``), so classical ``minfind``
never loads the simulator, and no transform run loads the gate model in
``mobiusq.gates``: only ``verify`` and ``--dump-state`` do.  A small real
table runs on the pure-Python kernel ``mobiusq.pure`` and loads no numpy,
and so does classical ``minfind`` at an in-range center with the default
beta (``minfind.centered_softmin``), which loads only the search and
``mobiusq.bits``: no transform kernel and not even the register layout.  A
complex or larger input, a dump, every other ``minfind`` run and ``verify``
load numpy.
The numpy kernel is one module, ``mobiusq.circuits``.  ``sim`` and
``grover``, the old homes of its prep and readout, hold only the names
perfbench/ reads through them, and no command loads either.  They and
``circuits`` bind the gate model's names the same way, and only those
``perfbench/tracer.py`` reads through them.  Each deferred name is
nonetheless an attribute of its module from the start: the tests and
``perfbench/tracer.py`` read and replace them there.  The module
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

import ast
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import golden
import mobiusq
import mobiusq.circuits as circuits_mod
import mobiusq.cli as cli_mod
import mobiusq.grover as grover_mod
import mobiusq.minfind as minfind_mod
import mobiusq.sim as sim_mod

TABLE = "tests/data/mobius3_table.json"
QUERY = "tests/data/golden/inputs/marginal5-n0-2-complex.json"
BASE = {"mobiusq", "mobiusq.cli", "mobiusq.bits"}
LAYOUT = {"mobiusq.layout"}
PURE = LAYOUT | {"mobiusq.pure"}
SIMULATOR = LAYOUT | {"mobiusq.subset", "mobiusq.circuits", "numpy"}
GATES = {"mobiusq.gates"}
SAMPLER = {"mobiusq._pcg64"}
SEARCH = {"mobiusq.minfind"}
DENSE = LAYOUT | SEARCH | {"mobiusq.dense", "mobiusq.subset", "numpy"}
OBJECTIVE = "tests/data/golden/inputs/minfind12-decades.json"

# the names perfbench/tracer.py reads off each module, none of them bound by a command it runs first
TRACER_NAMES = {
    "sim": ("Circuit", "new_state", "apply_circuit", "project", "QubitIs", "gate_qubits", "gate_target_qubits"),
    "circuits": ("build_start_circuit", "compile_state_prep", "DecompositionError"),
    "grover": ("plan_grover", "amplify", "build_start_state", "GroverPlan"),
}

# the names perfbench/ reads off a module that is not their home, by module read: the home of each
PERFBENCH_ALIASES = {
    "sim": {"Mode": "layout", "RegisterLayout": "layout"},
    "subset": {"BitString": "bits"},
    "circuits": {"DecompositionError": "layout"},
    "grover": {"GroverPlan": "layout"},
    "minfind": {"quadratic_objective": "dense"},
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
# dataclasses, numpy and numpy.random if loaded
MODULES_AFTER = """
import contextlib, io, json, sys
import mobiusq.cli as cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:]) == 0
print(json.dumps(sorted(
    m for m in sys.modules if m.split(".")[0] in ("mobiusq", "dataclasses") or m in ("numpy", "numpy.random")
)))
"""


@pytest.fixture(scope="module")
def over_work(tmp_path_factory) -> str:
    """A real table of 2 * cli.PURE_MAX_WORK entries: one size above what the pure kernel runs."""
    size = 2 * cli_mod.PURE_MAX_WORK
    path = tmp_path_factory.mktemp("tables") / "over.json"
    path.write_text(json.dumps({"n": size.bit_length() - 1, "values": [1.0 / size] * size}))
    return str(path)


@pytest.mark.parametrize(
    "argv, added",
    [
        ([], set()),
        (["minfind", "--center", "13", "--n", "5"], SEARCH),
        (["minfind", "--center", "32", "--n", "5"], SEARCH | DENSE),
        (["minfind", "--center", "-1", "--n", "5"], SEARCH | DENSE),
        (["minfind", "--center", "13", "--n", "5", "--beta", "1"], SEARCH | DENSE),
        (["minfind", "--input", OBJECTIVE], DENSE),
        (["mobius", "--input", TABLE, "--x", "101"], PURE),
        (["mobius", "--input", TABLE, "--sweep", "--shots", "100"], PURE | SAMPLER),
        (["marginal", "--input", TABLE, "--n0", "2", "--x", "10"], PURE),
        (["marginal", "--input", TABLE, "--n0", "2", "--x", "10", "--shots", "100"], PURE | SAMPLER),
        (["marginal", "--input", QUERY, "--sweep"], SIMULATOR),
        (["marginal", "--input", "OVER", "--n0", "1", "--x", "1"], SIMULATOR),
        (["minfind", "--center", "13", "--n", "5", "--backend", "quantum"], SIMULATOR | DENSE),
        (["verify", "--seed", "0"], SIMULATOR | GATES | {"mobiusq.verify", "numpy.random"}),
    ],
    ids=[
        "import-only", "minfind-classical", "minfind-center-above-the-range", "minfind-negative-center",
        "minfind-beta-1", "minfind-input", "mobius", "mobius-sweep-shots", "marginal", "marginal-shots",
        "complex-query", "table-over-the-threshold", "minfind-quantum", "verify",
    ],
)
def test_each_command_loads_only_the_modules_it_runs(argv, added, over_work):
    argv = [over_work if arg == "OVER" else arg for arg in argv]
    assert set(json.loads(_python(MODULES_AFTER, *argv))) == BASE | added


@pytest.mark.parametrize("name", golden.NUMPY_FREE)
def test_each_golden_entry_listed_numpy_free_loads_no_numpy(tmp_path, name):
    """The entries a CI job without numpy installed compares (tests/golden.py --numpy-free)."""
    (entry,) = [e for e in json.loads(golden.MANIFEST.read_text()) if e["name"] == name]
    argv = [str(tmp_path / "out.json") if arg == "{out}" else arg for arg in entry["argv"]]
    assert "numpy" not in json.loads(_python(MODULES_AFTER, *argv))


def test_the_bit_string_module_loads_nothing_else():
    """What classical minfind shares with the transform kernels: no numpy and no other mobiusq submodule."""
    code = """
import json, sys
import mobiusq.bits
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "mobiusq" or m == "numpy")))
"""
    assert json.loads(_python(code)) == ["mobiusq", "mobiusq.bits"]


def test_each_alias_perfbench_reads_is_its_homes_object():
    """perfbench/ reads each alias, and no src module re-exports a name for another reader."""
    perfbench = "".join(path.read_text() for path in sorted((golden.ROOT / "perfbench").glob("*.py")))
    for module, names in PERFBENCH_ALIASES.items():
        for name, home in names.items():
            read = getattr(importlib.import_module(f"mobiusq.{module}"), name)
            assert read is getattr(importlib.import_module(f"mobiusq.{home}"), name), (module, name)
            # as an attribute, in a from-import, or by the tracer's wrap
            reads = (rf"\b{module}\.{name}\b", rf"from mobiusq\.{module} import .*\b{name}\b", rf'wrap\({module}, "{name}"')
            assert any(re.search(pattern, perfbench) for pattern in reads), (module, name)
    marked = [
        (path.name, line)
        for path in sorted((golden.ROOT / "src" / "mobiusq").glob("*.py"))
        for line in path.read_text().splitlines()
        if "(re-exported" in line
    ]
    assert marked and all("perfbench/" in line for _, line in marked), marked


def test_a_small_table_over_the_work_bound_parses_without_numpy_and_runs_on_it(tmp_path):
    """2**n entries times the points of the run decide the kernel: a sweep can take a small table over."""
    n = cli_mod.PURE_MAX_WORK.bit_length() - 1  # 2**n = PURE_MAX_WORK: one point fits, two do not
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"n": n, "values": [1.0 / (1 << n)] * (1 << n)}))
    point = ["marginal", "--input", str(path), "--n0", "1"]
    assert set(json.loads(_python(MODULES_AFTER, *point, "--x", "1"))) == BASE | PURE
    assert set(json.loads(_python(MODULES_AFTER, *point, "--sweep"))) == BASE | PURE | SIMULATOR


@pytest.mark.parametrize(
    "argv, added",
    [
        (["mobius", "--input", TABLE, "--sweep", "--shots", "100"], PURE | SAMPLER),
        (["minfind", "--center", "13", "--n", "5"], SEARCH),
        (["minfind", "--center", "13", "--n", "5", "--backend", "quantum"], SIMULATOR | DENSE),
    ],
    ids=["mobius-sweep-shots", "minfind-classical", "minfind-quantum"],
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
    """A dump runs on the numpy kernel, which the gate model builds on; the table is parsed as any small one."""
    for point in (["mobius", "--input", TABLE, "--x", "101"], ["marginal", "--input", TABLE, "--n0", "2", "--x", "10"]):
        argv = [*point, "--dump-state", str(tmp_path / "state.json")]
        assert set(json.loads(_python(MODULES_AFTER, *argv))) == BASE | PURE | SIMULATOR | GATES, point[0]


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


@pytest.mark.parametrize("module", [sim_mod, grover_mod], ids=lambda m: m.__name__)
def test_the_old_kernel_homes_hold_only_the_names_perfbench_reads(module):
    """sim and grover define no function or class, and no other module of the package imports them."""
    home = module.__name__.rsplit(".", 1)[1]
    bound = {name for name in vars(module) if not name.startswith("_")}
    deferred = {name for names in module._DEFERRED.values() for name in names}
    assert bound | deferred == {*TRACER_NAMES[home], *PERFBENCH_ALIASES[home]}
    tree = ast.parse(Path(module.__file__).read_text())
    defined = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
    assert not [type(node).__name__ for node in ast.walk(tree) if isinstance(node, defined)]
    code = """
import importlib, json, pkgutil, sys
import mobiusq
for info in pkgutil.iter_modules(mobiusq.__path__):
    if info.name != sys.argv[1]:
        importlib.import_module("mobiusq." + info.name)
print(json.dumps(sorted(sys.modules)))
"""
    assert module.__name__ not in json.loads(_python(code, home))


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
