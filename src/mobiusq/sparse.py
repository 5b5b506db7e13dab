"""The classical search on the builtin objective at an in-range center, without numpy.

``mobiusq.cli`` runs a classical ``minfind --center`` here when
0 <= center < 2**n and beta is unset or exactly the one ``choose_beta``
picks, 50 / 2**n; every other run builds the dense tables of
:mod:`mobiusq.dense`.  Both write the same bytes: this path makes every IEEE
operation of the dense one on every value that is not float64 ``tiny``, and
gets the rest in closed form, exactly.

* E(x) = (dec(x) - center)**2 + 1 is an integer below 2**53 at every x, so
  ``quadratic_objective`` holds it exactly: 1.0 at the center, 2.0 next to
  it, the largest value at an end of the range.  Those give ``min_gap``,
  ``choose_beta`` with its cap, the overflow check and the max-shift of
  ``softmin_table`` without a table.
* At the scale beta * 2**n = 50 the logits are 0, -50, -200 and -450 within
  3 of the center and at most -800 beyond, where exp is 0 and the clamp
  makes the weight ``tiny``.  So the weights are a few live entries in a
  run of ``tiny``.
* The total is ``pairwise.pairwise_sum``, numpy's pairwise summation,
  which adds a segment of m ``tiny`` entries as m * tiny: every partial sum
  of multiples of ``tiny`` is exact, in any order.
* An aligned block of 2**k entries with no live one sums to 2**k times its
  entry, tiny / total, by doubling, which is exact; so does a probe's
  subtree with no live block.

So a run takes O(n**2) operations, where the dense path makes several
passes over 2**n entries.  The one operation not replayed is exp: this path
calls libm's through :func:`math.exp`, the dense one numpy's.  The parity of
the two rests on
``tests/test_sparse.py::test_numpy_exp_is_libm_exp_on_the_logits_of_the_sparse_path``,
which checks that they agree bit for bit on 0, -50, -200, -450 and -800 at
every dispatch level numpy offers on the host.

Besides :mod:`mobiusq.minfind`, this module loads only :mod:`mobiusq.bits`
and :mod:`mobiusq.pairwise`, neither of which loads numpy, the register
layout or the transform kernels; a run here loads nothing else of the
package.
"""
from __future__ import annotations

import math
import sys
from typing import Callable

from . import _Record
from .bits import BitString
from .minfind import _require_bits
from .pairwise import pairwise_sum

TINY = sys.float_info.min  # np.finfo(np.float64).tiny: softmin_table's floor under every weight


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
        """m * tiny for a segment with no live entry, else None (``pairwise._pairwise``)."""
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
    _require_bits(n)
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
    scale = beta * size
    if not math.isfinite(scale * top):
        raise ValueError(f"beta {beta} is too large: the softmin logits overflow float64")
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
