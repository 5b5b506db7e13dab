"""Command line front end.

Commands:
    mobius    subset-sum transform values of an amplitude-encoded table
    marginal  marginal probabilities of a joint probability table
    minfind   bit-fixing binary search for the argmin of an objective
    verify    self-check suite over seeded random inputs

Inputs are JSON: either a query object {"mode", "n", "n0", "psi_minus",
"x"} with amplitudes as [re, im] pairs, or a plain table {"n", "values"}.
Results print as a table on stdout and, with --out, as schema-validated
JSON; --check recomputes a previous output file and confirms its values.

Exit codes: 0 success, 1 validation failure, 2 I/O error.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import jsonschema
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


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep usage problems on exit code 1
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="mobiusq",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("mobius", "subset-sum transform values at one point or over a sweep"),
        ("marginal", "marginal probabilities at one point or over a sweep"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="query JSON or table JSON file")
        p.add_argument("--x", help="evaluation point, most-significant bit first")
        p.add_argument("--sweep", action="store_true", help="evaluate every point")
        if name == "marginal":
            p.add_argument("--n0", type=int, help="marginal width (table inputs)")
        p.add_argument("--shots", type=int, help="also sample with this many shots")
        p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0); sweeps use seed + dec(x) per point")
        p.add_argument("--out", help="write result JSON here")
        p.add_argument("--check", help="previous --out file to recompute and confirm")
        p.add_argument("--dump-state", help="write the start state for --x here as JSON")
        p.set_defaults(func=_cmd_mobius if name == "mobius" else _cmd_marginal)

    p = sub.add_parser("minfind", help="binary-search the argmin of a positive objective")
    p.add_argument("--input", help="objective table JSON file")
    p.add_argument("--center", type=int, help="builtin objective (dec(x) - center)**2 + 1")
    p.add_argument("--n", type=int, help="bit count for the builtin objective")
    p.add_argument("--beta", type=float, help="softmin sharpness (default: auto)")
    p.add_argument("--threshold", type=float, default=0.5, help="bit decision threshold")
    p.add_argument("--backend", choices=["classical", "quantum"], default="classical")
    p.add_argument("--out", help="write trace JSON here")
    p.add_argument("--check", help="previous --out file to recompute and confirm")
    p.set_defaults(func=_cmd_minfind)

    p = sub.add_parser("verify", help="run the self-check suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)
    return parser


def _read_json(path: str) -> dict:
    text = Path(path).read_text()
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    return obj


def _write_json(path: str, obj: dict) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def _parse_transform_input(obj: dict, mode: Mode, n0_flag: int | None):
    """Returns (n, n0, psi_minus) from either input flavor."""
    if "psi_minus" in obj:
        query = TransformQuery.from_json_obj(obj)
        if query.mode is not mode:
            raise ValueError(f"input query is {query.mode.value}-mode, command is {mode.value}")
        if n0_flag is not None and n0_flag != query.n0:
            raise ValueError(f"--n0 {n0_flag} conflicts with input n0 {query.n0}")
        return query.n, query.n0, query.psi_minus
    if "values" in obj:
        table = SubsetTable.from_json_obj(obj)
        table.require_probability()
        if mode is Mode.MARGINAL:
            if n0_flag is None:
                raise ValueError("marginal mode with a table input needs --n0")
            n0 = n0_flag
        else:
            n0 = table.n
        return table.n, n0, np.sqrt(table.values)
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
        report = readout.sample(query.x, shots, seed + query.x.to_int())
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


def _cmd_transform(args, mode: Mode) -> int:
    obj = _read_json(args.input)
    n, n0, psi = _parse_transform_input(obj, mode, getattr(args, "n0", None))

    check_obj = None
    if args.check:
        check_obj = _read_json(args.check)
        jsonschema.validate(check_obj, TRANSFORM_SCHEMA)
        if check_obj["command"] != mode.value:
            raise ValueError(f"--check file records a {check_obj['command']} run")
        shots = check_obj["shots"]
        seed = check_obj["seed"] if check_obj["seed"] is not None else 0
        points = [BitString.from_str(r["x"]).to_int() for r in check_obj["rows"]]
    else:
        if args.sweep == bool(args.x):
            raise _UsageError("need exactly one of --x or --sweep")
        shots, seed = args.shots, args.seed
        points = list(range(1 << n0)) if args.sweep else [_parse_point(args.x, n0)]
    if shots is not None and shots < 1:
        raise _UsageError(f"shots must be >= 1, got {shots}")
    if args.dump_state and len(points) != 1:
        raise _UsageError("--dump-state needs a single --x point")

    queries = [TransformQuery(mode, n, psi, BitString.from_int(xv, n0), n0) for xv in points]
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
    jsonschema.validate(result, TRANSFORM_SCHEMA)
    if check_obj is not None:
        keys = ["x", "classical", "exact", "estimate", "halfwidth"]
        if _report_check(_compare_rows(check_obj["rows"], rows, keys), len(rows)):
            return 1  # a failed check writes no file
    if args.out:
        _write_json(args.out, result)

    if args.dump_state:
        with marked(unmarked, queries[0].x) as start:
            _write_json(args.dump_state, state_to_json_obj(start))
    return 0


def _parse_point(text: str, n0: int) -> int:
    point = BitString.from_str(text)
    if len(point) != n0:
        raise ValueError(f"--x has {len(point)} bits, expected {n0}")
    return point.to_int()


def _compare_rows(old_rows: list[dict], new_rows: list[dict], keys: list[str]) -> list[str]:
    """One line per recorded value the recomputation does not confirm."""
    if len(old_rows) != len(new_rows):
        return [f"row count {len(old_rows)} vs {len(new_rows)}"]
    return [
        f"x={old.get('x')}: {key} {old.get(key)} vs {new.get(key)}"
        for old, new in zip(old_rows, new_rows)
        for key in keys
        if not _values_match(old.get(key), new.get(key))
    ]


def _report_check(problems: list[str], rows: int) -> int:
    """Print the --check verdict; returns the exit code it implies."""
    if problems:
        print("check: FAIL")
        for line in problems:
            print("  " + line)
        return 1
    print(f"check: PASS ({rows} rows confirmed within 1e-9)")
    return 0


def _cmd_mobius(args) -> int:
    return _cmd_transform(args, Mode.MOBIUS)


def _cmd_marginal(args) -> int:
    return _cmd_transform(args, Mode.MARGINAL)


def _cmd_minfind(args) -> int:
    if bool(args.input) == (args.center is not None):
        raise _UsageError("need exactly one of --input or --center")
    if args.input:
        table = SubsetTable.from_json_obj(_read_json(args.input))
        objective = ObjectiveTable(table.n, table.values)
    else:
        if args.n is None:
            raise _UsageError("--center needs --n")
        objective = quadratic_objective(args.n, args.center)

    check_obj = None
    threshold, backend, beta = args.threshold, args.backend, args.beta
    if args.check:
        check_obj = _read_json(args.check)
        jsonschema.validate(check_obj, MINFIND_SCHEMA)
        threshold = check_obj["threshold"]
        backend = check_obj["backend"]
        beta = check_obj["beta"]

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
    jsonschema.validate(result, MINFIND_SCHEMA)
    if check_obj is not None:
        problems = _compare_rows(check_obj["probes"], probe_rows, ["x", "value", "bit"])
        if check_obj["result"] != result["result"]:
            problems.insert(0, f"result {check_obj['result']} vs {result['result']}")
        if _report_check(problems, len(probe_rows)):
            return 1  # a failed check writes no file
    if args.out:
        _write_json(args.out, result)
    return 0


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
    except (ValueError, TypeError, KeyError, jsonschema.ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
