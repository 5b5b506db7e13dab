"""Bit-fixing binary search for the argmin of a positive objective table.

The objective E is turned into a softmin distribution D-(x) peaked at the
argmin; its zeta transform D is then a step-like indicator that a probe
point dominates the peak.  Deciding bits most-significant first, each probe
fixes the decided high bits, sets the current bit to 0 and all lower bits
to 1, so D(probe) is close to 1 exactly when the peak's current bit is 0.
Exactly n probes recover the argmin, with D supplied by any evaluator
backend (classical block sums, or the exact quantum estimator).

This module is the search loop, and loads no numpy.  The classical backend
has two paths to the same bytes: the dense tables of :mod:`mobiusq.dense`,
and :mod:`mobiusq.sparse` for the builtin objective at an in-range center,
which holds no 2**n table.
"""
from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

from . import _Record, _defer
from .bits import BitString

# The names this module takes from others, bound on first use; each is a module
# attribute from the start and a replacement bound before that use wins.  The
# dense tables (mobiusq.dense) load numpy, and only find_min's default evaluator
# reads them here; the quantum backend's names are bound when quantum_evaluator
# first runs, so the classical backend never loads the simulator.  zeta_fast is
# not called here: perfbench/tracer.py wraps minfind.zeta_fast, and ROADMAP
# item 3 drops it when it retargets the tracer.
_DEFERRED = {
    "dense": (
        "ObjectiveTable", "choose_beta", "classical_evaluator", "min_gap", "quadratic_objective", "softmin_table",
    ),
    "subset": ("zeta_fast",),
    "sim": ("Mode",),
    "circuits": ("TransformQuery", "gather"),
    "grover": ("read_out_at",),
}
_load, __getattr__ = _defer(globals(), _DEFERRED)

# The dense classical path peaks at 3.38 float64 tables of 2**n entries at an
# all-ones argmin and 3.13 at centers 0 and 2**n // 3 (tracemalloc, n = 18 and
# 22): about 1.7 GiB at n = 26, a bound of its own, since a quantum query builds
# no dense state (README "Limits").  The sparse path (mobiusq.sparse) holds no
# 2**n table, but keeps the same cap, so both refuse the same inputs.
MAX_OBJECTIVE_BITS = 26


def _require_bits(n: int) -> None:
    if not 1 <= n <= MAX_OBJECTIVE_BITS:
        raise ValueError(f"objective needs 1 <= n <= {MAX_OBJECTIVE_BITS}, got n={n}")


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


class ProbeRecord(_Record):
    """One probe: the point, the D value read there, and the bit it decided."""

    __slots__ = ("point", "value", "bit")


class SearchTrace(_Record):
    """The probes of one search, in order (kept as a tuple), and the argmin they decided."""

    __slots__ = ("probes", "result")

    def __init__(self, probes: Iterable[ProbeRecord], result: BitString) -> None:
        super().__init__(tuple(probes), result)


def quantum_evaluator(d_minus: SubsetTable) -> Callable[[BitString], float]:
    """D-query backend reading the exact value off an amplified circuit per probe.

    The x-independent start state is built and gathered once, here; each
    probe amplifies the support at the probe point and reads the exact value.
    """
    _load("grover", "circuits", "sim")
    any_point = BitString.from_int(0, d_minus.n)  # the unmarked state does not read x
    query = TransformQuery.from_probability_table(Mode.MOBIUS, d_minus, any_point)
    support = gather(query)

    def evaluate(point: BitString) -> float:
        return read_out_at(support, point).exact

    return evaluate


def require_beta(beta: float) -> None:
    """Refuse a softmin sharpness that is not positive and finite, NaN included.

    A --check file may hold beta as a JSON integer, and one beyond the float
    range, which ``math.isfinite`` cannot convert, is refused as well.
    """
    try:
        finite = math.isfinite(beta)
    except OverflowError:
        raise ValueError("beta must be positive and finite, got an integer too large for a float") from None
    if not (finite and beta > 0.0):
        raise ValueError(f"beta must be positive and finite, got {beta}")


def require_threshold(threshold: float) -> None:
    """Refuse a bit decision threshold outside the open interval (0, 1), NaN included."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie strictly between 0 and 1")


def find_min(
    objective: ObjectiveTable,
    beta: float,
    evaluator: Callable[[BitString], float] | None = None,
    threshold: float = 0.5,
) -> SearchTrace:
    """Locate the unique argmin of the objective in exactly n probes.

    Bits are decided most-significant first: when D(probe) falls below the
    threshold the peak lies above the probe, so the bit is 1.  ``evaluator``
    defaults to the classical backend over softmin_table(objective, beta);
    with an evaluator given, the loop reads only ``objective.n``, so a
    ``sparse.CenteredObjective`` runs the same loop.
    """
    require_threshold(threshold)
    if evaluator is None:
        _load("dense")
        evaluator = classical_evaluator(softmin_table(objective, beta))
    n = objective.n
    probes: list[ProbeRecord] = []
    decided: list[int] = []
    for j in range(n - 1, -1, -1):
        point = probe_point(n, decided, j)
        value = float(evaluator(point))
        bit = 1 if value < threshold else 0
        probes.append(ProbeRecord(point=point, value=value, bit=bit))
        decided.append(bit)
    return SearchTrace(probes, BitString(tuple(reversed(decided))))
