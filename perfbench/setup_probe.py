"""Fresh-process set-up probe: import mobiusq.cli, then load and validate one input.

Usage: python3 setup_probe.py SRC_DIR <mobiusq CLI arguments>

It does what the CLI does before its first query, through the public API, and
exits.  The benchmark times the whole process, interpreter start included.
Exits 3 when mobiusq is not imported from SRC_DIR.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import mobiusq.cli  # noqa: F401  (the import is what is being timed)
from mobiusq.circuits import TransformQuery
from mobiusq.minfind import quadratic_objective
from mobiusq.sim import Mode, RegisterLayout
from mobiusq.subset import BitString, SubsetTable


def main(argv: list[str]) -> int:
    src = Path(argv[0]).resolve()
    if src not in Path(mobiusq.cli.__file__).resolve().parents:
        print(f"mobiusq imported from {mobiusq.cli.__file__}, not {src}", file=sys.stderr)
        return 3
    parser = argparse.ArgumentParser()
    parser.add_argument("command")
    parser.add_argument("--input")
    parser.add_argument("--x")
    parser.add_argument("--n0", type=int)
    parser.add_argument("--n", type=int)
    parser.add_argument("--center", type=int)
    args, _ = parser.parse_known_args(argv[1:])

    if args.command == "minfind":
        quadratic_objective(args.n, args.center)
        return 0
    mode = Mode(args.command)
    table = SubsetTable.from_json_obj(json.loads(Path(args.input).read_text()))
    table.require_probability()
    n0 = args.n0 if mode is Mode.MARGINAL else table.n
    if args.x is None:
        RegisterLayout(mode, table.n, n0)
    else:
        TransformQuery.from_probability_table(mode, table, BitString.from_str(args.x), n0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
