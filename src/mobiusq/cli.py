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
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from .circuits import TransformQuery, build_unmarked_state, classical_value, marked
# estimate_exact and estimate_sampled are not called here; perfbench/tracer.py
# wraps them as attributes of this module
from .grover import estimate_exact, estimate_sampled, read_out  # noqa: F401
from .minfind import (
    ObjectiveTable,
    choose_beta,
    classical_evaluator,
    find_min,
    quadratic_objective,
    quantum_evaluator,
    softmin_table,
)
from .sim import Mode, StateVector, state_to_json_obj
from .subset import BitString, SubsetTable
from .verify import run_verify

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
        (Mode.MOBIUS, "subset-sum transform values at one point or over a sweep"),
        (Mode.MARGINAL, "marginal probabilities at one point or over a sweep"),
    ):
        p = sub.add_parser(mode.value, help=help_text)
        p.add_argument("--input", required=True, help="query JSON or table JSON file")
        points = p.add_mutually_exclusive_group()
        points.add_argument("--x", help="evaluation point, most-significant bit first (default: a query input's x)")
        points.add_argument("--sweep", action="store_const", const=True, help="evaluate every point")
        if mode is Mode.MARGINAL:
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
    text = Path(path).read_text()
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    return obj


def _write_json(path: str, obj: dict) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


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


def _parse_transform_input(obj: dict, mode: Mode, n0_flag: int | None):
    """Returns (n, n0, psi_minus, x) from either input flavor; a table has no x."""
    if "psi_minus" in obj:
        query = TransformQuery.from_json_obj(obj)
        if query.mode is not mode:
            raise ValueError(f"input query is {query.mode.value}-mode, command is {mode.value}")
        if n0_flag is not None and n0_flag != query.n0:
            raise ValueError(f"--n0 {n0_flag} conflicts with input n0 {query.n0}")
        return query.n, query.n0, query.psi_minus, query.x
    if "values" in obj:
        table = SubsetTable.from_json_obj(obj)
        table.require_probability()
        if mode is Mode.MARGINAL:
            if n0_flag is None:
                raise ValueError("marginal mode with a table input needs --n0")
            n0 = n0_flag
        else:
            n0 = table.n
        return table.n, n0, np.sqrt(table.values), None
    raise ValueError("input JSON needs either 'psi_minus' (query) or 'values' (table)")


def _transform_row(unmarked: StateVector, query: TransformQuery, shots: int | None, seed: int) -> dict:
    with marked(unmarked, query.x) as start:
        readout = read_out(start)
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


def _values_match(a, b, tol: float = 1e-9) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, float) or isinstance(b, float):
        return abs(float(a) - float(b)) <= tol
    return a == b


def _mismatches(old: dict, new: dict, prefix: str = "") -> list[str]:
    """One line per recorded value the recomputation does not confirm."""
    return [
        f"{prefix}{key} {value} vs {new.get(key)}"
        for key, value in old.items()
        if not _values_match(value, new.get(key))
    ]


def _finish(args, result: dict, schema: dict, check: dict | None, rows_key: str) -> int:
    """Validate the result, confirm every recorded field of --check, then write --out.

    Returns the exit code; a failed check writes no file.
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
    if args.out:
        _write_json(args.out, result)
    return 0


def _cmd_transform(args) -> int:
    mode = args.mode
    obj = _read_json(args.input)
    n, n0, psi, input_x = _parse_transform_input(obj, mode, getattr(args, "n0", None))

    check = _read_check(args, TRANSFORM_SCHEMA, ("x", "sweep", "shots", "seed"))
    if check is not None:
        shots, seed = check["shots"], check["seed"]
        points = [BitString.from_str(r["x"]) for r in check["rows"]]
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
    if shots is not None and not 1 <= shots < 1 << 63:  # numpy's multinomial limit
        raise ValueError(f"shots must be >= 1 and < 2**63, got {shots}")
    if args.dump_state and len(points) != 1:
        raise ValueError("--dump-state needs a single --x point")

    queries = [TransformQuery(mode, n, psi, x, n0) for x in points]
    unmarked = build_unmarked_state(queries[0])
    rows = [_transform_row(unmarked, query, shots, seed) for query in queries]

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
    if _finish(args, result, TRANSFORM_SCHEMA, check, "rows"):
        return 1
    if args.dump_state:
        with marked(unmarked, queries[0].x) as start:
            _write_json(args.dump_state, state_to_json_obj(start))
    return 0


def _cmd_minfind(args) -> int:
    if args.input:
        table = SubsetTable.from_json_obj(_read_json(args.input))
        objective = ObjectiveTable(table.n, table.values)
    else:
        if args.n is None:
            raise ValueError("--center needs --n")
        objective = quadratic_objective(args.n, args.center)

    check = _read_check(args, MINFIND_SCHEMA, ("beta", "threshold", "backend"))
    if check is not None:
        beta, threshold, backend = check["beta"], check["threshold"], check["backend"]
    else:
        beta = args.beta
        threshold = 0.5 if args.threshold is None else args.threshold
        backend = args.backend or "classical"

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
    sys.exit(main())
