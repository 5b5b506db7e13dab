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
bytes, because there the dense softmin table and every sum of its entries
have a closed form:

* E(x) is an integer below 2**52 at every x: 1.0 at the center and 2.0 next
  to it.  So ``choose_beta`` picks beta * 2**n = 50 exactly, and its cap
  never binds.  The logits less their maximum are -50 * d**2 at distance d
  from the center, whose exp is 1.0, e**-50, e**-200 and e**-450 for
  d = 0..3, and 0.0, clamped to ``tiny``, from d = 4 on.
* Each weight is below 2**-72 of the one before it, and 2**26 * tiny is
  below 2**-996.  A term below half an ulp of a sum vanishes when added to
  it (Higham, SIAM J. Sci. Comput. 14(4), 1993).  So any float sum of table
  entries, in any order, is k * w, with w the largest weight in it and k in
  {1, 2} the times w occurs there (2 * w is exact).  Entries of ``tiny``
  alone, m of them, sum to m * tiny exactly.
* So the total is 1.0, the probabilities are the weights, and D(x), the sum
  over the y below x, is k * w over the live y below x, or
  2**popcount(x) * tiny when there is none.

So a probe takes a few operations, where the dense path makes several
passes over 2**n entries.  The live weights come from libm's exp through
:func:`math.exp`, the dense ones from numpy's.  The parity of the two rests
on
``tests/test_sparse.py::test_numpy_exp_is_libm_exp_on_the_logits_of_the_sparse_path``,
which checks that they agree bit for bit on 0, -50, -200, -450 and -800 at
every dispatch level numpy offers on the host.
"""
from __future__ import annotations

import math
import sys
from typing import Callable, Iterable, Sequence

from . import _Record, _defer
from .bits import BitString

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

    ``softmin_table`` checks here.  Beta prints as a float: a --check file
    may hold it as a JSON integer of hundreds of digits.
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
    chosen = 50.0 / float(1 << n)  # choose_beta: the gap is 2.0 - 1.0, and the cap never binds
    if beta is None:
        beta = chosen
    elif beta != chosen:
        return None
    live = {x: math.exp(-50.0 * d * d) for d in range(4) for x in (center - d, center + d) if 0 <= x < 1 << n}
    return CenteredObjective(n, center), beta, _evaluator(n, live)


def _evaluator(n: int, live: dict[int, float]) -> Callable[[BitString], float]:
    """``dense.classical_evaluator`` of the softmin table that is ``tiny`` outside ``live``.

    D(x) is k * w, w the largest live weight at a y below x and k how many
    such y hold it; with none, 2**popcount(x) entries of ``tiny``.
    """

    def evaluate(point: BitString) -> float:
        if len(point) != n:
            raise ValueError(f"x has {len(point)} bits, expected n = {n}")
        x = point.to_int()
        below = [w for y, w in live.items() if y & ~x == 0]
        if not below:
            return math.ldexp(TINY, bin(x).count("1"))
        top = max(below)
        return below.count(top) * top

    return evaluate
