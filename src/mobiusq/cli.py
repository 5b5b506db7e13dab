"""Command line front end.

Commands:
    mobius    subset-sum transform values of an amplitude-encoded table
    marginal  marginal probabilities of a joint probability table
    minfind   bit-fixing binary search for the argmin of an objective
    verify    self-check suite over seeded random inputs

Inputs are JSON: either a query object {"mode", "n", "n0", "psi_minus",
"x"} with amplitudes as [re, im] pairs, or a plain table {"n", "values"}.
A query input is evaluated at its own x unless --x or --sweep is given.
Results print as a table on stdout and, with --out, as schema-validated
JSON; --check recomputes a previous output file and confirms its header
and values.

Exit codes: 0 success, 1 validation failure, 2 I/O error.

Run as a program (``mobiusq``, ``python -m mobiusq`` or ``python -m
mobiusq.cli``), the CLI defaults OPENBLAS_NUM_THREADS to 1 before numpy
loads; a value set by the caller wins.  Once the command returns, it freezes
the heap so that interpreter teardown skips its collector passes (see
:mod:`mobiusq.__main__`).  Importing this module changes no environment
variable, and :func:`main` called as a library freezes nothing.
"""
from __future__ import annotations

if __name__ == "__main__":  # python -m mobiusq.cli: pin before numpy first loads
    from mobiusq.__main__ import default_one_blas_thread, freeze_for_exit

    default_one_blas_thread()

import argparse
import json
import os
import re
import stat
import sys
from pathlib import Path

from . import _defer
from .bits import BitString

# Each command loads only the modules it runs: a small real table runs on the
# pure-Python kernel and loads no numpy, and classical minfind at an in-range
# center (minfind.centered_softmin) loads only the search, not even the
# register layout; other minfind runs build the dense tables of
# mobiusq.dense, classical minfind never loads the numpy kernel, and only
# --dump-state loads the gate model.  The names below are bound on first
# use; each is an attribute of this module from the start, the patch point
# of the tests and of perfbench/tracer.py, and a replacement bound before a
# command runs wins.  estimate_exact and estimate_sampled are not called
# here; perfbench/tracer.py wraps them.
_DEFERRED = {
    "layout": ("Mode", "RegisterLayout"),
    "subset": ("SubsetTable",),
    "gates": ("state_to_json_obj",),
    "circuits": ("TransformQuery", "estimate_exact", "estimate_sampled"),
    "pure": ("Query", "table_amplitudes"),
    "minfind": (
        "MAX_OBJECTIVE_BITS", "centered_softmin", "find_min", "quantum_evaluator", "require_beta", "require_bits",
        "require_threshold",
    ),
    "dense": (
        "ObjectiveTable", "choose_beta", "classical_evaluator", "min_gap", "quadratic_objective", "softmin_table",
    ),
    "verify": ("run_verify",),
}
_load, __getattr__ = _defer(globals(), _DEFERRED)

# A real table runs on the pure-Python kernel (mobiusq.pure) while its 2**n
# entries times the points of the run stay within PURE_MAX_WORK; above that,
# and for every other input, a run loads numpy and takes the numpy kernel.
# The pure kernel's time grows with that product, numpy's is mostly its
# import.  Fresh-process medians of 5 runs each side (2 vCPUs, AVX-512,
# Python 3.11, numpy 2.4.6, no bytecode cache), pure against numpy:
#   2**n x points  runs (mode:n:n0, point or sweep)                   pure/numpy
#     256-1024     mobius:4 sweep, marginal:8:2 and 10:2 points        0.45-0.49
#       4096       mobius:6 sweep, marginal:12:2 point                 0.57-0.59
#       8192       marginal:13:2 point, 11:2 .. 8:5 sweeps             0.64-0.78
#      16384       mobius:7 sweep, marginal:14:2 point, 13:1 .. 8:6    0.78-1.03
#    32768 and up  marginal:14:1, 9:7, 10:6, 11:6, 12:5, 13:5 sweeps   1.22-2.83
PURE_MAX_WORK = 1 << 13

__all__ = ["main"]

_NUM_OR_NULL = {"type": ["number", "null"]}

TRANSFORM_SCHEMA = {
    "type": "object",
    "required": ["command", "mode", "n", "n0", "shots", "seed", "rows"],
    "properties": {
        "command": {"enum": ["mobius", "marginal"]},
        "mode": {"enum": ["mobius", "marginal"]},
        "n": {"type": "integer", "minimum": 1},
        "n0": {"type": "integer", "minimum": 1},
        "shots": {"type": ["integer", "null"]},
        "seed": {"type": ["integer", "null"]},
        "rows": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["x", "classical", "exact"],
                "properties": {
                    "x": {"type": "string", "pattern": "^[01]+$"},
                    "classical": {"type": "number"},
                    "exact": {"type": "number"},
                    "estimate": _NUM_OR_NULL,
                    "halfwidth": _NUM_OR_NULL,
                    "note": {"type": "string"},
                },
            },
        },
    },
}

MINFIND_SCHEMA = {
    "type": "object",
    "required": ["command", "n", "beta", "threshold", "backend", "probes", "result"],
    "properties": {
        "command": {"const": "minfind"},
        "n": {"type": "integer", "minimum": 1},
        "beta": {"type": "number"},
        "threshold": {"type": "number"},
        "backend": {"enum": ["classical", "quantum"]},
        "probes": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["x", "value", "bit"],
                "properties": {
                    "x": {"type": "string", "pattern": "^[01]+$"},
                    "value": {"type": "number"},
                    "bit": {"enum": [0, 1]},
                },
            },
        },
        "result": {"type": "string", "pattern": "^[01]+$"},
    },
}

# The keywords _validate implements; tests/test_schema.py checks that the two
# schemas above use no other.
_SCHEMA_KEYWORDS = frozenset(
    {"type", "required", "properties", "items", "minItems", "enum", "const", "pattern", "minimum"}
)

_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "null": lambda v: v is None,
}


def _json_equal(a, b) -> bool:
    """JSON equality of scalars: true and false are not 1 and 0, but 1.0 is 1."""
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _validate(value, schema: dict, path: str = "$") -> None:
    """Raise ValueError naming the JSON path where value first breaks schema.

    Implements the keywords in _SCHEMA_KEYWORDS with their JSON Schema
    (draft 2020-12) meaning, with one intended difference: "integer" admits
    only JSON integers, by the rule of subset.json_int, so 1.0 and true fail
    where jsonschema accepts 1.0.
    """
    if "type" in schema:
        names = [schema["type"]] if isinstance(schema["type"], str) else schema["type"]
        if not any(_JSON_TYPES[name](value) for name in names):
            raise ValueError(f"{path}: expected {' or '.join(names)}, got {value!r}")
    if "enum" in schema and not any(_json_equal(value, v) for v in schema["enum"]):
        raise ValueError(f"{path}: {value!r} is not one of {schema['enum']}")
    if "const" in schema and not _json_equal(value, schema["const"]):
        raise ValueError(f"{path}: expected {schema['const']!r}, got {value!r}")
    if "pattern" in schema and isinstance(value, str) and not re.search(schema["pattern"], value):
        raise ValueError(f"{path}: {value!r} does not match {schema['pattern']!r}")
    if "minimum" in schema and _JSON_TYPES["number"](value) and value < schema["minimum"]:
        raise ValueError(f"{path}: {value!r} is less than {schema['minimum']}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise ValueError(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                _validate(value[key], sub, f"{path}.{key}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            raise ValueError(f"{path}: expected at least {schema['minItems']} items, got {len(value)}")
        if "items" in schema:
            for i, item in enumerate(value):
                _validate(item, schema["items"], f"{path}[{i}]")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep usage problems on exit code 1
        raise ValueError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="mobiusq",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for mode, help_text in (
        ("mobius", "subset-sum transform values at one point or over a sweep"),
        ("marginal", "marginal probabilities at one point or over a sweep"),
    ):
        p = sub.add_parser(mode, help=help_text)
        p.add_argument("--input", required=True, help="query JSON or table JSON file")
        points = p.add_mutually_exclusive_group()
        points.add_argument("--x", help="evaluation point, most-significant bit first (default: a query input's x)")
        points.add_argument("--sweep", action="store_const", const=True, help="evaluate every point")
        if mode == "marginal":
            p.add_argument("--n0", type=int, help="marginal width (table inputs)")
        p.add_argument("--shots", type=int, help="also sample with this many shots")
        p.add_argument("--seed", type=int, help="sampling seed (default 0); sweeps use seed + dec(x) per point")
        p.add_argument("--out", help="write result JSON here")
        p.add_argument("--check", help="previous --out file to recompute and confirm")
        p.add_argument("--dump-state", help="write the start state for --x here as JSON")
        p.set_defaults(func=_cmd_transform, mode=mode)

    p = sub.add_parser("minfind", help="binary-search the argmin of a positive objective")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="objective table JSON file")
    source.add_argument("--center", type=int, help="builtin objective (dec(x) - center)**2 + 1")
    p.add_argument("--n", type=int, help="bit count for the builtin objective")
    p.add_argument("--beta", type=float, help="softmin sharpness (default: auto)")
    p.add_argument("--threshold", type=float, help="bit decision threshold")
    p.add_argument("--backend", choices=["classical", "quantum"])
    p.add_argument("--out", help="write trace JSON here")
    p.add_argument("--check", help="previous --out file to recompute and confirm")
    p.set_defaults(func=_cmd_minfind)

    p = sub.add_parser("verify", help="run the self-check suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)
    return parser


def _read_json(path: str) -> dict:
    """The JSON object in the file at ``path``; a file that is not one is refused with its path."""
    try:
        obj = json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:  # undecodable text or malformed JSON; an OSError passes as an i/o error
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    return obj


def _refuse_overwrites(args) -> None:
    """Refuse an --out or --dump-state path naming the file of another path flag, which it would overwrite."""
    flags = ("--out", "--dump-state", "--input", "--check")
    named = [(flag, getattr(args, flag[2:].replace("-", "_"), None)) for flag in flags]
    named = [(flag, path) for flag, path in named if path]
    for i, (flag, path) in enumerate(named):
        for other, other_path in named[i + 1 :]:
            if flag in flags[:2] and Path(path).resolve() == Path(other_path).resolve():
                raise ValueError(f"{flag} {path} and {other} {other_path} are the same file")


def _read_check(args, schema: dict, replayed: tuple[str, ...]) -> dict | None:
    """The --check file, schema-validated and recorded by this command; None without --check.

    The run is replayed from the file, so the ``replayed`` flags (None unless given) are refused.
    """
    if not args.check:
        return None
    given = [f"--{name}" for name in replayed if getattr(args, name) is not None]
    if given:
        flags = ", ".join(f"--{name}" for name in replayed)
        raise ValueError(f"--check takes {flags} from the file; drop {', '.join(given)}")
    obj = _read_json(args.check)
    _validate(obj, schema, f"{args.check}: $")
    if obj["command"] != args.command:
        raise ValueError(f"--check file records a {obj['command']} run")
    return obj


def _small_real_table(obj: dict) -> bool:
    """Whether a table input (not a query) holds 2**n <= PURE_MAX_WORK plain JSON numbers.

    mobiusq.pure parses such a table, and no numpy loads unless the run
    then takes the numpy kernel; numpy parses every other input, a
    malformed table included.  Both refuse a table with the same message.
    """
    n, values = obj.get("n"), obj.get("values")
    return (
        type(n) is int
        and 0 < n < PURE_MAX_WORK.bit_length()  # 2**n <= PURE_MAX_WORK, with no shift by a huge n
        and type(values) is list
        and len(values) == 1 << n
        and set(map(type, values)) <= {int, float}
    )


def _parse_transform_input(obj: dict, mode: Mode, n0_flag: int | None):
    """Returns (n, n0, psi_minus, x) from either input flavor; a table has no x.

    psi_minus is a tuple of floats for a table that mobiusq.pure parsed
    (see _small_real_table), and a numpy array otherwise.
    """
    if "psi_minus" in obj:
        _load("circuits")
        query = TransformQuery.from_json_obj(obj)
        if query.mode is not mode:
            raise ValueError(f"input query is {query.mode.value}-mode, command is {mode.value}")
        if n0_flag is not None and n0_flag != query.n0:
            raise ValueError(f"--n0 {n0_flag} conflicts with input n0 {query.n0}")
        return query.n, query.n0, query.psi_minus, query.x
    if "values" not in obj:
        raise ValueError("input JSON needs either 'psi_minus' (query) or 'values' (table)")
    if _small_real_table(obj):
        _load("pure")
        n, psi = obj["n"], table_amplitudes(obj)
    else:
        _load("subset")
        table = SubsetTable.from_json_obj(obj)
        n, psi = table.n, table.amplitudes()
    if mode is Mode.MARGINAL:
        if n0_flag is None:
            raise ValueError("marginal mode with a table input needs --n0")
        return n, n0_flag, psi, None
    return n, n, psi, None


# The three stages of a transform run, and its patch points for the tests and
# perfbench/tracer.py.  Each runs the kernel its argument came from, the module
# that defines its type: mobiusq.pure or mobiusq.circuits.


def _stage(record, name: str):
    return getattr(sys.modules[type(record).__module__], name)


def gather(query):
    """The support of the query's unmarked start state (``circuits.gather``)."""
    return _stage(query, "gather")(query)


def read_out_at(support, x: BitString):
    """The readout of the start state at x (``circuits.read_out_at``)."""
    return _stage(support, "read_out_at")(support, x)


def classical_value(query) -> float:
    """The transform value by direct summation (``circuits.classical_value``)."""
    return _stage(query, "classical_value")(query)


def _transform_row(support, query, shots: int | None, seed: int) -> dict:
    readout = read_out_at(support, query.x)
    row = {
        "x": str(query.x),
        "classical": classical_value(query),
        "exact": readout.exact,
    }
    if shots is not None:
        report = readout.sample(shots, seed + query.x.to_int())
        row["estimate"] = report.estimate
        row["halfwidth"] = report.halfwidth
        if report.message:
            row["note"] = report.message
    return row


def _format_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.10f}"
    return str(value)


def _print_table(rows: list[dict], columns: list[str]) -> None:
    widths = [
        max(len(c), max((len(_format_cell(r.get(c))) for r in rows), default=0))
        for c in columns
    ]
    print("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
    for r in rows:
        print("  ".join(_format_cell(r.get(c)).ljust(w) for c, w in zip(columns, widths)))


def _values_match(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, float) or isinstance(b, float):
        return abs(float(a) - float(b)) <= 1e-9
    return a == b


def _mismatches(old: dict, new: dict, prefix: str = "") -> list[str]:
    """One line per recorded value the recomputation does not confirm."""
    return [
        f"{prefix}{key} {value} vs {new.get(key)}"
        for key, value in old.items()
        if not _values_match(value, new.get(key))
    ]


def _replaceable(path: str) -> bool:
    """Whether an output may replace what its path names: nothing yet, or a regular file not open as stdout or stderr."""
    try:
        named = os.stat(path)
    except OSError:
        return True  # nothing there yet, or an error the temporary's write reports
    streams = []
    for fd in (1, 2):
        try:
            streams.append(os.fstat(fd))
        except OSError:
            pass
    return stat.S_ISREG(named.st_mode) and not any(os.path.samestat(named, s) for s in streams)


def _write_outputs(files: dict) -> None:
    """Write each {path: obj} whose path is set; every write succeeds before the first file is replaced.

    A path naming a regular file, or nothing yet, gets its output in a new
    ``<target>.<pid>.tmp`` beside the file it names (through any symlink),
    created exclusively so no file already there is touched.  A path naming
    anything else (``/dev/null``, a pipe, or the file stdout or stderr
    writes to, as ``/dev/stdout`` does) cannot be replaced and is written in
    place, after the temporaries.  The temporaries then replace their
    targets.  On an I/O error before that, the temporaries are removed,
    every replaceable file stays as it was, and the error is re-raised.
    """
    texts = {path: json.dumps(obj, indent=2) + "\n" for path, obj in files.items() if path}
    in_place = [path for path in texts if not _replaceable(path)]
    temps = {}
    try:
        for path, text in texts.items():
            if path not in in_place:
                target = os.path.realpath(path)
                temp = f"{target}.{os.getpid()}.tmp"
                fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                temps[temp] = target
                with open(fd, "w") as f:
                    f.write(text)
        for path in in_place:
            Path(path).write_text(texts[path])
        for temp, target in temps.items():
            os.replace(temp, target)
    except OSError:
        for temp in temps:
            Path(temp).unlink(missing_ok=True)
        raise


def _finish(args, result: dict, schema: dict, check: dict | None, rows_key: str, dump=None) -> int:
    """Validate the result, confirm every recorded field of --check, then write the outputs.

    --out and the --dump-state ``dump`` are written in one last step, so a
    failed check or a failed write changes neither path.  Returns the exit code.
    """
    _validate(result, schema)
    if check is not None:
        old_rows, new_rows = check[rows_key], result[rows_key]
        problems = _mismatches({k: v for k, v in check.items() if k != rows_key}, result)
        if len(old_rows) != len(new_rows):
            problems.append(f"row count {len(old_rows)} vs {len(new_rows)}")
        else:
            for old, new in zip(old_rows, new_rows):
                problems += _mismatches(old, new, f"x={old.get('x')}: ")
        if problems:
            print("check: FAIL", *problems, sep="\n  ")
            return 1
        print(f"check: PASS ({len(new_rows)} rows confirmed within 1e-9)")
    _write_outputs({args.out: result, getattr(args, "dump_state", None): dump})
    return 0


def _cmd_transform(args) -> int:
    _load("layout")
    _refuse_overwrites(args)
    mode = Mode(args.mode)
    obj = _read_json(args.input)
    n, n0, psi, input_x = _parse_transform_input(obj, mode, getattr(args, "n0", None))
    RegisterLayout(mode, n, n0)  # refuses an over-cap layout before a sweep's points are built

    check = _read_check(args, TRANSFORM_SCHEMA, ("x", "sweep", "shots", "seed"))
    if check is not None:
        shots, seed = check["shots"], check["seed"]
        points = [BitString.from_str(r["x"]) for r in check["rows"]]
        seen = set()
        for x in points:  # each row confirms its own point, and a sweep's sum counts each point once
            if x in seen:
                raise ValueError(f"{args.check}: rows repeat x = {x}")
            seen.add(x)
    else:
        shots, seed = args.shots, args.seed
        if args.sweep:
            points = [BitString.from_int(v, n0) for v in range(1 << n0)]
        elif args.x is not None:
            points = [BitString.from_str(args.x)]
        elif input_x is not None:  # a query input's own point
            points = [input_x]
        else:
            raise ValueError("a table input needs --x or --sweep")
    seed = 0 if seed is None else seed
    if shots is not None:
        if not 1 <= shots < 1 << 63:  # the int64 range the sampling stream is defined on
            raise ValueError(f"shots must be >= 1 and < 2**63, got {shots}")
        low = min(points, key=BitString.to_int)  # each point samples with seed + dec(x) >= 0
        if seed + low.to_int() < 0:
            source = f"{args.check}: seed" if check is not None else "--seed"
            raise ValueError(f"{source} {seed} makes the sampling seed seed + dec(x) negative at x = {low}")
    if args.dump_state and len(points) != 1:
        raise ValueError("--dump-state needs a single --x point")

    if isinstance(psi, tuple) and not args.dump_state and len(points) << n <= PURE_MAX_WORK:
        kind = Query  # bound when the table was parsed
    else:
        _load("circuits")
        kind = TransformQuery
    first = kind(mode, n, psi, points[0], n0)
    support = gather(first)
    for x in points:  # before any point is read out, as a --check row may hold any width
        if len(x) != n0:
            raise ValueError(f"x has {len(x)} bits, expected n0 = {n0}")
    dump = None
    if args.dump_state:
        _load("gates")
        dump = state_to_json_obj(support.start_state(first.x))
    # a numpy query holds a validated copy of the table: a later point's is built where its row is read
    rows = [_transform_row(support, first, shots, seed)]
    rows += (_transform_row(support, kind(mode, n, psi, x, n0), shots, seed) for x in points[1:])

    drift = max(abs(r["classical"] - r["exact"]) for r in rows)
    if drift > 1e-9:
        print(f"self-check failed: classical and exact values differ by {drift}", file=sys.stderr)
        return 1
    if mode is Mode.MARGINAL and len(points) == 1 << n0:
        total = sum(r["exact"] for r in rows)
        if abs(total - 1.0) > 1e-9:
            print(f"self-check failed: marginal sweep sums to {total}", file=sys.stderr)
            return 1

    columns = ["x", "classical", "exact"] + (["estimate", "halfwidth"] if shots else [])
    _print_table(rows, columns)

    result = {
        "command": mode.value,
        "mode": mode.value,
        "n": n,
        "n0": n0,
        "shots": shots,
        "seed": seed if shots is not None else None,
        "rows": rows,
    }
    return _finish(args, result, TRANSFORM_SCHEMA, check, "rows", dump)


def _check_quantum_layout(backend: str, n: int) -> None:
    """Refuse a quantum run's n outside the objective cap, then its layout over the qubit cap, before any table."""
    if backend == "quantum":
        require_bits(n)
        _load("layout")
        RegisterLayout(Mode.MOBIUS, n)


def _cmd_minfind(args) -> int:
    _refuse_overwrites(args)
    _load("minfind")
    check = _read_check(args, MINFIND_SCHEMA, ("beta", "threshold", "backend"))
    if check is not None:
        beta, threshold, backend = check["beta"], check["threshold"], check["backend"]
    else:
        beta = args.beta
        threshold = 0.5 if args.threshold is None else args.threshold
        backend = args.backend or "classical"
    require_threshold(threshold)  # before any table is built
    if beta is not None:
        require_beta(beta)

    centered = None
    if args.input:
        if args.n is not None:
            raise ValueError("--n sizes the --center objective; an --input table has its own n")
        obj = _read_json(args.input)
        n = obj.get("n")
        if type(n) is int and 1 <= n <= MAX_OBJECTIVE_BITS:  # the table refuses any other n, as it is read
            _check_quantum_layout(backend, n)
        _load("dense", "subset")
        table = SubsetTable.from_json_obj(obj)
        objective = ObjectiveTable(table.n, table.values)
    else:
        if args.n is None:
            raise ValueError("--center needs --n")
        if abs(args.center) > 2**511:  # keeps every (dec(x) - center)**2 + 1 a finite float64
            raise ValueError("--center must be at most 2**511 in magnitude for a float64 objective")
        _check_quantum_layout(backend, args.n)
        if backend == "classical":
            centered = centered_softmin(args.n, args.center, beta)
        if centered is None:
            _load("dense")
            objective = quadratic_objective(args.n, args.center)
            if min_gap(objective) == 0.0:  # (dec(x) - center)**2 + 1 has one minimum over the integers
                raise ValueError(
                    f"--center {args.center} is beyond float64 precision at --n {args.n}: "
                    "(dec(x) - center)**2 + 1 rounds to the same value at two points"
                )

    if centered is not None:
        objective, beta, evaluator = centered
    else:
        if beta is None:
            beta = choose_beta(objective)
        d_minus = softmin_table(objective, beta)
        evaluator = (
            classical_evaluator(d_minus) if backend == "classical" else quantum_evaluator(d_minus)
        )
    trace = find_min(objective, beta, evaluator, threshold)

    probe_rows = [
        {"x": str(p.point), "value": p.value, "bit": p.bit} for p in trace.probes
    ]
    _print_table(probe_rows, ["x", "value", "bit"])
    print(f"result: {trace.result} (dec {trace.result.to_int()})")

    result = {
        "command": "minfind",
        "n": objective.n,
        "beta": beta,
        "threshold": threshold,
        "backend": backend,
        "probes": probe_rows,
        "result": str(trace.result),
    }
    return _finish(args, result, MINFIND_SCHEMA, check, "probes")


def _cmd_verify(args) -> int:
    _load("verify")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    ok, lines = run_verify(args.seed)
    for line in lines:
        print(line)
    print("verify: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(freeze_for_exit(main()))
