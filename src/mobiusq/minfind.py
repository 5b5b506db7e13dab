"""Bit-fixing binary search for the argmin of a positive objective table.

The objective E is turned into a softmin distribution D-(x) peaked at the
argmin; its zeta transform D is then a step-like indicator that a probe
point dominates the peak.  Deciding bits most-significant first, each probe
fixes the decided high bits, sets the current bit to 0 and all lower bits
to 1, so D(probe) is close to 1 exactly when the peak's current bit is 0.
Exactly n probes recover the argmin, with D supplied by any evaluator
backend (classical block sums, or the exact quantum estimator).

This module holds the search loop and the classical backend for the builtin
objective E(x) = (dec(x) - center)**2 + 1 at an in-range center, and loads
no numpy.  ``mobiusq.cli`` runs a classical ``minfind --center`` on this
sparse path, :func:`centered_softmin`, when 0 <= center < 2**n and beta is
unset or exactly the one ``choose_beta`` picks, 50 / 2**n; every other run
builds the dense tables of :mod:`mobiusq.dense`.  Both write the same
bytes: the sparse path makes every IEEE operation of the dense one on every
value that is not float64 ``tiny``, and gets the rest in closed form,
exactly.

* E(x) is an integer below 2**53 at every x, so ``quadratic_objective``
  holds it exactly: 1.0 at the center, 2.0 next to it, the largest value at
  an end of the range.  Those give ``min_gap``, ``choose_beta`` with its
  cap, the overflow check and the max-shift of ``softmin_table`` without a
  table.
* At the scale beta * 2**n = 50 the logits are 0, -50, -200 and -450 within
  3 of the center and at most -800 beyond, where exp is 0 and the clamp
  makes the weight ``tiny``.  So the weights are a few live entries in a
  run of ``tiny``.
* The total is :func:`mobiusq.bits.pairwise_sum`, numpy's pairwise
  summation, which adds a segment of m ``tiny`` entries as m * tiny: every
  partial sum of multiples of ``tiny`` is exact, in any order.
* An aligned block of 2**k entries with no live one sums to 2**k times its
  entry, tiny / total, by doubling, which is exact; so does a probe's
  subtree with no live block.

So such a run takes O(n**2) operations, where the dense path makes several
passes over 2**n entries.  The one operation not replayed is exp: this path
calls libm's through :func:`math.exp`, the dense one numpy's.  The parity of
the two rests on
``tests/test_sparse.py::test_numpy_exp_is_libm_exp_on_the_logits_of_the_sparse_path``,
which checks that they agree bit for bit on 0, -50, -200, -450 and -800 at
every dispatch level numpy offers on the host.
"""
from __future__ import annotations

import math
import sys
from typing import Callable, Iterable, Sequence

from . import _Record, _defer
from .bits import BitString, pairwise_sum

# The names this module takes from others, bound on first use; each is a module
# attribute from the start and a replacement bound before that use wins.  The
# dense tables (mobiusq.dense) load numpy, and only find_min's default evaluator
# reads them here; perfbench/setup_probe.py reads minfind.quadratic_objective.
# The quantum backend's names are bound when quantum_evaluator first runs, so
# the classical backend never loads the numpy kernel (mobiusq.circuits).
# zeta_fast is not called here: perfbench/tracer.py wraps minfind.zeta_fast,
# and ROADMAP item 3 drops it when it retargets the tracer.
_DEFERRED = {
    "dense": (
        "ObjectiveTable", "choose_beta", "classical_evaluator", "min_gap", "quadratic_objective", "softmin_table",
    ),
    "subset": ("zeta_fast",),
    "layout": ("Mode",),
    "circuits": ("TransformQuery", "gather", "read_out_at"),
}
_load, __getattr__ = _defer(globals(), _DEFERRED)

# The dense classical path peaks at 3.38 float64 tables of 2**n entries at an
# all-ones argmin and 3.13 at centers 0 and 2**n // 3 (tracemalloc, n = 18 and
# 22): about 1.7 GiB at n = 26, a bound of its own, since a quantum query builds
# no dense state (README "Limits").  The sparse path holds no 2**n table, but
# keeps the same cap, so both refuse the same inputs.
MAX_OBJECTIVE_BITS = 26

TINY = sys.float_info.min  # np.finfo(np.float64).tiny: softmin_table's floor under every weight


def require_bits(n: int) -> None:
    """Refuse an objective width outside 1..MAX_OBJECTIVE_BITS."""
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
    _load("circuits", "layout")
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


def softmin_scale(beta: float, n: int, top: float) -> float:
    """The softmin scale beta * 2**n, refused when the largest logit, scale * ``top``, overflows.

    ``softmin_table`` and ``centered_softmin`` both check here.  Beta prints
    as a float: a --check file may hold it as a JSON integer of hundreds of
    digits.
    """
    scale = beta * float(1 << n)
    if not math.isfinite(scale * top):
        raise ValueError(f"beta {float(beta)} is too large: the softmin logits overflow float64")
    return scale


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
    :class:`CenteredObjective` runs the same loop.
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


class CenteredObjective(_Record):
    """The objective (dec(x) - center)**2 + 1 over n bits, by its two parameters; find_min reads n."""

    __slots__ = ("n", "center")


class _Runs:
    """2**n weights: the ``live`` ones by index, ``tiny`` elsewhere; a slice comes out as a list."""

    def __init__(self, size: int, live: dict[int, float]) -> None:
        self.size, self.live = size, live

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, part: slice) -> list[float]:
        return [self.live.get(i, TINY) for i in range(*part.indices(self.size))]

    def uniform(self, lo: int, m: int) -> float | None:
        """m * tiny for a segment with no live entry, else None (``bits._pairwise``)."""
        return None if any(lo <= x < lo + m for x in self.live) else m * TINY

    def total(self) -> float:
        """numpy's sum of the 2**n weights, bit for bit."""
        return pairwise_sum(self, uniform=self.uniform)


def centered_softmin(n: int, center: int, beta: float | None):
    """``(objective, beta, evaluator)`` of a classical run on (dec(x) - center)**2 + 1, or None.

    None sends the run to the dense path: a center outside [0, 2**n), or a
    beta other than the one ``choose_beta`` picks.  An n outside the
    objective cap is refused first, as ``quadratic_objective`` refuses it.
    A given beta is returned as given, so an int stays an int in the output.
    """
    require_bits(n)
    if not 0 <= center < 1 << n:
        return None
    size = float(1 << n)
    top = float(max(center, (1 << n) - 1 - center) ** 2 + 1)  # the largest value, at an end
    # choose_beta: the gap is 2.0 - 1.0; the cap bounds the largest logit by the spread top - 1.0
    chosen = min(50.0 / (size * (2.0 - 1.0)), 1e300 / (size * max(top - 1.0, 1.0)))
    if beta is None:
        beta = chosen
    elif beta != chosen:
        return None
    # softmin_table: the scale, the overflow check, and the logits -scale * E less their max
    scale = softmin_scale(beta, n, top)
    shift = -scale * 1.0  # the largest logit, at the center
    live = {}
    for d in range(1 << n):  # the logit falls as |d| grows: stop at the first weight clamped to tiny
        weight = math.exp(-scale * float(d * d + 1) - shift)
        if weight <= TINY:
            break
        live.update((x, weight) for x in (center - d, center + d) if 0 <= x < 1 << n)
    total = _Runs(1 << n, live).total()
    probs = {x: weight / total for x, weight in live.items()}
    return CenteredObjective(n, center), beta, _evaluator(n, probs, TINY / total)


def _evaluator(n: int, probs: dict[int, float], floor: float) -> Callable[[BitString], float]:
    """``dense.classical_evaluator`` of the softmin table that is ``floor`` outside ``probs``.

    ``block(k, i)`` is its ``levels[k][i]``; a probe reduces the view of
    level t over the set bits of x >> t, lowest first, as there.
    """
    blank = [floor]  # blank[k]: an aligned block of 2**k entries with no live one
    for _ in range(n):
        blank.append(blank[-1] + blank[-1])
    sums: dict[tuple[int, int], float] = {}

    def block(k: int, i: int) -> float:
        if k == 0:
            return probs.get(i, floor)
        if not any(x >> k == i for x in probs):
            return blank[k]
        if (k, i) not in sums:
            sums[k, i] = block(k - 1, 2 * i + 1) + block(k - 1, 2 * i)
        return sums[k, i]

    def evaluate(point: BitString) -> float:
        if len(point) != n:
            raise ValueError(f"x has {len(point)} bits, expected n = {n}")
        x = point.to_int()
        t = (x ^ (x + 1)).bit_length() - 1  # trailing one bits
        rest = x >> t
        bits = [b for b in range(n - t) if rest >> b & 1]
        hit = {p >> t for p in probs}  # the live blocks of level t

        def reduce(i: int, base: int) -> float:
            """The view reduced over bits[:i + 1], at the block index ``base`` of the bits above."""
            if i < 0:
                return block(t, base)
            above = ~((2 << bits[i]) - 1)  # a block of this subtree matches base above bits[i]
            if not any(q & above == base and q & ~rest == 0 for q in hit):
                return math.ldexp(blank[t], i + 1)  # 2**(i + 1) equal leaves, added pairwise
            return reduce(i - 1, base | 1 << bits[i]) + reduce(i - 1, base)

        return reduce(len(bits) - 1, 0)

    return evaluate
