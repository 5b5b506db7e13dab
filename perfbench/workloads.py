"""Seeded workload inputs for the mobiusq CLI benchmark, and their oracle.

Everything here uses numpy only: the oracle recomputes each answer from the
generated input by direct summation, independently of mobiusq.

Workloads (sizes are chosen so one CLI invocation takes 1-2 s on a 2-core
machine, which gives 14-40 fresh-process samples in a 40 s run):

    sweep              mobius --sweep --shots 20000 over a random n=4 table:
                       15 qubits, 16 points, two start-state builds per point
                       on the CLI's thread pool.  Exercises per-point work
                       that shares an x-independent circuit prefix.
    marginal-point     marginal --n0 2 --x <seeded> over a random n=8 table:
                       15 qubits, one query of 264 gates, 255 of them
                       alpha_minus prep rotations.  The only marginal-mode
                       comparator path; no pool, no shared prefix.
    minfind-classical  minfind --center <seeded> --n 18, classical backend:
                       no circuit runs; the time goes to softmin_table and
                       the pure-Python butterfly over 2**18 entries.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SWEEP_N = 4
SWEEP_SHOTS = 20000
MARGINAL_N = 8
MARGINAL_N0 = 2
MINFIND_N = 18

TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """One generated input: the CLI arguments and the oracle for their output."""

    cli_args: tuple[str, ...]
    check: Callable[[dict], list[str]]
    corrupt: Callable[[dict], dict]


def _probability_table(rng: np.random.Generator, n: int) -> np.ndarray:
    # strictly positive, so every point has target weight and Grover is planned
    values = rng.random(1 << n) + 0.05
    return values / values.sum()


def _write_table(path: Path, values: np.ndarray) -> None:
    n = int(values.size).bit_length() - 1
    path.write_text(json.dumps({"n": n, "values": values.tolist()}))


def subset_sum(p: np.ndarray, x: int) -> float:
    """Sum of p[y] over every y whose bits are a subset of x's."""
    idx = np.arange(p.size)
    return float(p[(idx & x) == idx].sum())


def marginal_sum(p: np.ndarray, n0: int, x: int) -> float:
    """Sum of p[y] over every y whose low n0 bits equal x."""
    idx = np.arange(p.size)
    return float(p[(idx & ((1 << n0) - 1)) == x].sum())


def _check_rows(rows: list[dict], expected: dict[int, float]) -> list[str]:
    problems = []
    seen = [int(r["x"], 2) for r in rows]
    if sorted(seen) != sorted(expected):
        problems.append(f"rows cover points {seen}, expected {sorted(expected)}")
        return problems
    for row in rows:
        want = expected[int(row["x"], 2)]
        for key in ("classical", "exact"):
            if not abs(row[key] - want) <= TOL:
                problems.append(f"x={row['x']}: {key} {row[key]!r} vs direct sum {want!r}")
    return problems


def _bump_first_row(obj: dict) -> dict:
    bad = json.loads(json.dumps(obj))
    bad["rows"][0]["exact"] += 1e-6
    return bad


def _sweep(rng: np.random.Generator, workdir: Path) -> Workload:
    p = _probability_table(rng, SWEEP_N)
    _write_table(workdir / "table.json", p)
    expected = {x: subset_sum(p, x) for x in range(1 << SWEEP_N)}

    def check(obj: dict) -> list[str]:
        if (obj.get("command"), obj.get("shots")) != ("mobius", SWEEP_SHOTS):
            return [f"unexpected header {obj.get('command')!r} shots={obj.get('shots')!r}"]
        return _check_rows(obj["rows"], expected)

    args = ("mobius", "--input", "table.json", "--sweep", "--shots", str(SWEEP_SHOTS))
    return Workload(args, check, _bump_first_row)


def _marginal_point(rng: np.random.Generator, workdir: Path) -> Workload:
    p = _probability_table(rng, MARGINAL_N)
    x = int(rng.integers(0, 1 << MARGINAL_N0))
    _write_table(workdir / "table.json", p)
    expected = {x: marginal_sum(p, MARGINAL_N0, x)}

    def check(obj: dict) -> list[str]:
        if (obj.get("command"), obj.get("n0")) != ("marginal", MARGINAL_N0):
            return [f"unexpected header {obj.get('command')!r} n0={obj.get('n0')!r}"]
        return _check_rows(obj["rows"], expected)

    point = format(x, f"0{MARGINAL_N0}b")
    args = ("marginal", "--input", "table.json", "--n0", str(MARGINAL_N0), "--x", point)
    return Workload(args, check, _bump_first_row)


def _minfind_classical(rng: np.random.Generator, workdir: Path) -> Workload:
    center = int(rng.integers(0, 1 << MINFIND_N))
    objective = (np.arange(1 << MINFIND_N, dtype=np.float64) - center) ** 2 + 1.0
    argmin = int(np.argmin(objective))

    def check(obj: dict) -> list[str]:
        problems = []
        if len(obj.get("probes", ())) != MINFIND_N:
            problems.append(f"{len(obj.get('probes', ()))} probes, expected {MINFIND_N}")
        if int(obj["result"], 2) != argmin:
            problems.append(f"result {obj['result']} is not the argmin {argmin}")
        return problems

    def corrupt(obj: dict) -> dict:
        bad = json.loads(json.dumps(obj))
        bad["result"] = format(argmin ^ 1, f"0{MINFIND_N}b")
        return bad

    args = ("minfind", "--center", str(center), "--n", str(MINFIND_N))
    return Workload(args, check, corrupt)


_GENERATORS = {
    "sweep": _sweep,
    "marginal-point": _marginal_point,
    "minfind-classical": _minfind_classical,
}
NAMES = tuple(_GENERATORS)


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the named workload's input files in workdir from the seed."""
    return _GENERATORS[name](np.random.default_rng(seed), workdir)
