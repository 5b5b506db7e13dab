"""Bit-fixing binary search for the argmin of a positive objective table.

The objective E is turned into a softmin distribution D-(x) peaked at the
argmin; its zeta transform D is then a step-like indicator that a probe
point dominates the peak.  Deciding bits most-significant first, each probe
fixes the decided high bits, sets the current bit to 0 and all lower bits
to 1, so D(probe) is close to 1 exactly when the peak's current bit is 0.
Exactly n probes recover the argmin, with D supplied by any evaluator
backend (classical butterfly table, or the exact quantum estimator).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .circuits import TransformQuery, build_unmarked_state, marked
from .grover import read_out
from .sim import Mode
from .subset import BitString, SubsetTable, zeta_fast

__all__ = [
    "ObjectiveTable",
    "ProbeRecord",
    "SearchTrace",
    "MinSearchError",
    "softmin_table",
    "choose_beta",
    "probe_point",
    "classical_evaluator",
    "quantum_evaluator",
    "find_min",
    "quadratic_objective",
]

# The classical path peaks at about 4.1 float64 tables of 2**n entries
# (tracemalloc, n = 18, 20 and 22): about 2.1 GiB at n = 26, under the
# 2.5 GiB one quantum query peaks at on the 26-qubit statevector cap.
MAX_OBJECTIVE_BITS = 26


def _require_bits(n: int) -> None:
    if not 1 <= n <= MAX_OBJECTIVE_BITS:
        raise ValueError(f"objective needs 1 <= n <= {MAX_OBJECTIVE_BITS}, got n={n}")


@dataclass(eq=False)
class ObjectiveTable:
    """Strictly positive finite objective values over all 2**n points."""

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        _require_bits(self.n)
        arr = np.asarray(self.values)
        if np.iscomplexobj(arr):
            raise ValueError("objective values must be real")
        arr = np.array(arr, dtype=np.float64)
        if arr.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} values, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("objective values must be finite")
        if arr.min() <= 0.0:
            raise ValueError(f"objective values must be positive, min is {arr.min()}")
        self.values = arr


def quadratic_objective(n: int, center: int) -> ObjectiveTable:
    """Builtin objective family E(x) = (dec(x) - center)**2 + 1."""
    _require_bits(n)
    values = np.arange(1 << n, dtype=np.float64)
    values -= center
    np.square(values, out=values)
    values += 1.0
    return ObjectiveTable(n, values)


def softmin_table(objective: ObjectiveTable, beta: float) -> SubsetTable:
    """Softmin distribution exp(beta * sum_y (E(y) - E(x))) normalized over x.

    Equivalent to a softmax over -beta * 2**n * E(x); computed with the
    usual max-shift so any beta is safe in log space (entries far from the
    minimum simply underflow to zero).
    """
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    # one working table, updated in place: the logits, then the softmin weights
    weights = -beta * float(1 << objective.n) * objective.values
    weights -= weights.max()
    np.exp(weights, out=weights)
    # keep entries strictly positive even when exp underflows far from the peak
    np.maximum(weights, np.finfo(np.float64).tiny, out=weights)
    weights /= weights.sum()
    return SubsetTable(objective.n, weights)


def choose_beta(objective: ObjectiveTable) -> float:
    """Beta making the softmin gap at least 50 nats.

    Picks beta = 50 / (2**n * gap) where gap is the spread between
    the two lowest objective values, then caps the largest resulting logit
    magnitude so it stays finite in double precision.
    """
    lowest, second = np.partition(objective.values, 1)[:2]
    gap = float(second - lowest)
    if gap <= 0.0:
        raise ValueError("objective has tied minima; search needs a unique argmin")
    beta = 50.0 / (float(1 << objective.n) * gap)
    spread = float(objective.values.max() - lowest)
    cap = 1e300 / (float(1 << objective.n) * max(spread, 1.0))
    return min(beta, cap)


def probe_point(n: int, decided: Sequence[int], j: int) -> BitString:
    """Probe with the decided high bits, bit j = 0, and all lower bits 1.

    ``decided`` lists bits n-1 down to j+1, most significant first.
    """
    if not 0 <= j < n:
        raise ValueError(f"bit index {j} out of range for n={n}")
    if len(decided) != n - 1 - j:
        raise ValueError(f"need {n - 1 - j} decided bits for j={j}, got {len(decided)}")
    if any(b not in (0, 1) for b in decided):
        raise ValueError("decided bits must be 0 or 1")
    value = (1 << j) - 1  # lower bits all 1
    for offset, b in enumerate(decided):
        value |= b << (n - 1 - offset)
    return BitString.from_int(value, n)


@dataclass(frozen=True)
class ProbeRecord:
    point: BitString
    value: float
    bit: int


@dataclass
class SearchTrace:
    probes: list[ProbeRecord] = field(default_factory=list)
    result: BitString | None = None


class MinSearchError(RuntimeError):
    """Evaluator failure; carries the probes completed so far."""

    def __init__(self, message: str, trace: SearchTrace):
        super().__init__(message)
        self.trace = trace


def classical_evaluator(d_minus: SubsetTable) -> Callable[[BitString], float]:
    """D-query backend from one butterfly pass over the softmin table."""
    table = zeta_fast(d_minus)

    def evaluate(point: BitString) -> float:
        return float(table.values[point.to_int()].real)

    return evaluate


def quantum_evaluator(d_minus: SubsetTable) -> Callable[[BitString], float]:
    """D-query backend reading the exact value off an amplified circuit per probe.

    The x-independent start state is built once, here; each probe marks it
    at the probe point, amplifies and reads the exact value.
    """
    any_point = BitString.from_int(0, d_minus.n)  # the unmarked state does not read x
    query = TransformQuery.from_probability_table(Mode.MOBIUS, d_minus, any_point)
    unmarked = build_unmarked_state(query)

    def evaluate(point: BitString) -> float:
        with marked(unmarked, point) as start:
            return read_out(start).exact

    return evaluate


def find_min(
    objective: ObjectiveTable,
    beta: float,
    evaluator: Callable[[BitString], float] | None = None,
    threshold: float = 0.5,
) -> SearchTrace:
    """Locate the unique argmin of the objective in exactly n probes.

    Bits are decided most-significant first: when D(probe) falls below the
    threshold the peak lies above the probe, so the bit is 1.  ``evaluator``
    defaults to the classical backend over softmin_table(objective, beta).
    Evaluator failures raise MinSearchError carrying the partial trace.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie strictly between 0 and 1")
    if evaluator is None:
        evaluator = classical_evaluator(softmin_table(objective, beta))
    n = objective.n
    trace = SearchTrace()
    decided: list[int] = []
    for j in range(n - 1, -1, -1):
        point = probe_point(n, decided, j)
        try:
            value = float(evaluator(point))
        except Exception as exc:
            raise MinSearchError(f"evaluator failed at probe {point}: {exc}", trace) from exc
        bit = 1 if value < threshold else 0
        trace.probes.append(ProbeRecord(point=point, value=value, bit=bit))
        decided.append(bit)
    trace.result = BitString(tuple(reversed(decided)))
    return trace
