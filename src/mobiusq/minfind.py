"""Bit-fixing binary search for the argmin of a positive objective table.

The objective E is turned into a softmin distribution D-(x) peaked at the
argmin; its zeta transform D is then a step-like indicator that a probe
point dominates the peak.  Deciding bits most-significant first, each probe
fixes the decided high bits, sets the current bit to 0 and all lower bits
to 1, so D(probe) is close to 1 exactly when the peak's current bit is 0.
Exactly n probes recover the argmin, with D supplied by any evaluator
backend (classical block sums, or the exact quantum estimator).
"""
from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from . import _Record, _defer
from .subset import BitString, SubsetTable
# unused here: bound only because perfbench/tracer.py wraps minfind.zeta_fast, and
# deleted when ROADMAP item 3 retargets the tracer
from .subset import zeta_fast  # noqa: F401

# The quantum backend's names, bound when quantum_evaluator first runs, so the
# classical backend never loads the simulator; each is a module attribute from
# the start and a replacement bound before that call wins.
_DEFERRED = {
    "sim": ("Mode",),
    "circuits": ("TransformQuery", "gather"),
    "grover": ("read_out_at",),
}
_load, __getattr__ = _defer(globals(), _DEFERRED)

# The classical path peaks at 3.38 float64 tables of 2**n entries at an all-ones
# argmin and 3.13 at centers 0 and 2**n // 3 (tracemalloc, n = 18 and 22): about
# 1.7 GiB at n = 26, a bound of its own, since a quantum query builds no dense
# state (README "Limits").
MAX_OBJECTIVE_BITS = 26


def _require_bits(n: int) -> None:
    if not 1 <= n <= MAX_OBJECTIVE_BITS:
        raise ValueError(f"objective needs 1 <= n <= {MAX_OBJECTIVE_BITS}, got n={n}")


class ObjectiveTable:
    """Strictly positive finite objective values over all 2**n points."""

    def __init__(self, n: int, values: np.ndarray) -> None:
        _require_bits(n)
        arr = np.asarray(values)
        if np.iscomplexobj(arr):
            raise ValueError("objective values must be real")
        arr = np.array(arr, dtype=np.float64)
        if arr.shape != (1 << n,):
            raise ValueError(f"expected {1 << n} values, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("objective values must be finite")
        if arr.min() <= 0.0:
            raise ValueError(f"objective values must be positive, min is {arr.min()}")
        self.n, self.values = n, arr


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
    usual max-shift, so any beta whose logits are finite float64 is safe
    (entries far from the minimum simply underflow to zero).  A larger beta
    raises ValueError before any logit is formed.
    """
    require_beta(beta)
    scale = beta * float(1 << objective.n)
    if not math.isfinite(scale * float(objective.values.max())):
        raise ValueError(f"beta {beta} is too large: the softmin logits overflow float64")
    # one working table, updated in place: the logits, then the softmin weights
    weights = -scale * objective.values
    weights -= weights.max()
    np.exp(weights, out=weights)
    # keep entries strictly positive even when exp underflows far from the peak
    np.maximum(weights, np.finfo(np.float64).tiny, out=weights)
    weights /= weights.sum()
    return SubsetTable(objective.n, weights)


def min_gap(objective: ObjectiveTable) -> float:
    """Spread between the two lowest objective values; 0.0 when the minimum is tied."""
    lowest, second = np.partition(objective.values, 1)[:2]
    return float(second - lowest)


def choose_beta(objective: ObjectiveTable) -> float:
    """Beta making the softmin gap at least 50 nats.

    Picks beta = 50 / (2**n * gap) where gap is the spread between
    the two lowest objective values, then caps the largest resulting logit
    magnitude so it stays finite in double precision.
    """
    gap = min_gap(objective)
    if gap <= 0.0:
        raise ValueError("objective has tied minima; search needs a unique argmin")
    beta = 50.0 / (float(1 << objective.n) * gap)
    spread = float(objective.values.max() - objective.values.min())
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


class ProbeRecord(_Record):
    """One probe: the point, the D value read there, and the bit it decided."""

    __slots__ = ("point", "value", "bit")


class SearchTrace(_Record):
    """The probes of one search, in order (kept as a tuple), and the argmin they decided."""

    __slots__ = ("probes", "result")

    def __init__(self, probes: Iterable[ProbeRecord], result: BitString) -> None:
        super().__init__(tuple(probes), result)


def classical_evaluator(d_minus: SubsetTable) -> Callable[[BitString], float]:
    """D-query backend reading each probe off aligned block sums of the softmin table.

    ``levels[k][i]`` sums the i-th aligned block of 2**k entries, built
    pairwise: ``levels[k + 1] = levels[k][1::2] + levels[k][0::2]``, which is
    2**n - 1 additions in all, where the whole zeta table takes n * 2**(n-1).
    A point x with t trailing one bits views ``levels[t]`` as ``(2,)*m``, one
    axis per bit of x >> t, lowest last, takes index 0 on every axis whose
    bit is clear, and reduces the view by the same step over its last axis,
    ``v[..., 1] + v[..., 0]``, until one value is left.

    Each value is bit-identical to ``zeta_fast(d_minus).values[x]``.  The
    butterfly's value at x is a tree of additions over the set bits of x,
    lowest bit first; a bit clear in x adds nothing on the way to x.  Its
    first t levels, over the trailing ones, sum exactly the aligned 2**t
    blocks that ``levels[t]`` holds, upper half plus lower half as here.  Its
    remaining levels pair the block sums at the subsets of x >> t, lowest
    set bit first, which is the reduction over the view's last axis first.
    So each value is the same IEEE additions on the same operands in the
    same order.
    """
    levels = [d_minus.values]
    while len(levels[-1]) > 1:
        levels.append(levels[-1][1::2] + levels[-1][0::2])

    def evaluate(point: BitString) -> float:
        if len(point) != d_minus.n:
            raise ValueError(f"x has {len(point)} bits, expected n = {d_minus.n}")
        x = point.to_int()
        t = (x ^ (x + 1)).bit_length() - 1  # trailing one bits
        rest, m = x >> t, d_minus.n - t
        sums = levels[t].reshape((2,) * m)  # axis i is bit m - 1 - i of the block index
        sums = sums[tuple(slice(None) if rest >> j & 1 else 0 for j in reversed(range(m)))]
        while sums.ndim:
            sums = sums[..., 1] + sums[..., 0]
        return float(sums.real)

    return evaluate


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
    """Refuse a softmin sharpness that is not positive and finite, NaN included."""
    if not (math.isfinite(beta) and beta > 0.0):
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
    defaults to the classical backend over softmin_table(objective, beta).
    """
    require_threshold(threshold)
    if evaluator is None:
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
