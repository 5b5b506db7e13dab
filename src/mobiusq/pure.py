"""The pure-Python kernel: a small real table, run without numpy.

A transform run on a real probability table whose 2**n entries times the
points of the run stay within ``cli.PURE_MAX_WORK`` runs here; every other
run takes the numpy kernel (``circuits.gather``, ``circuits.read_out_at``,
``circuits.classical_value``).  Both give the same bytes, step by step,
because with a real nonnegative table every imaginary part the numpy kernel
carries is +0.0, so each of its complex products, sums and moduli rounds as
the one real operation done here:

* products, quotients and square roots are single IEEE operations, and the
  prep's atan2, cos and sin are the same libm calls through :mod:`math`;
* each ``ndarray.sum`` of the numpy kernel (the table's total, the prep's
  half sums, the classical value) is :func:`mobiusq.bits.pairwise_sum`,
  numpy's own pairwise summation replayed;
* each readout reduction is one ``math.fsum`` over the same nonzero terms.

A table is checked once, before its first point runs, and a point only for
the width of its x; see :class:`Query`.
"""
from __future__ import annotations

import math

from . import _Record
from .bits import BitString, pairwise_sum
from .layout import DecompositionError, Readout, RegisterLayout, _keep, _plan

# circuits._H[0, 0]: numpy divides the complex 1 by sqrt(2) with Smith's method, which rounds as this does
_H = 1.0 / math.sqrt(2.0)


def _fsum(terms) -> float:
    """``circuits._fsum``: math.fsum of the nonzero terms."""
    return math.fsum(term for term in terms if term)


def table_amplitudes(obj: dict) -> tuple[float, ...]:
    """The amplitudes sqrt(p) of a table input {"n", "values"} whose values are plain JSON numbers.

    The caller has checked n and the number of values; this refuses the rest
    as ``SubsetTable.from_json_obj`` and ``require_probability`` do, in their
    order and with their messages: an int too large for a float, a
    non-finite value, a negative entry, and a sum off 1 by more than 1e-9.
    """
    values = []
    for i, v in enumerate(obj["values"]):
        try:
            values.append(float(v))
        except OverflowError:
            raise ValueError(f"'values'[{i}] is too large for a float") from None
    if not all(map(math.isfinite, values)):
        raise ValueError("table has non-finite values")
    low = min(values)
    if low < 0.0:
        raise ValueError(f"negative entry {low} in probability table")
    total = pairwise_sum(values)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probability table sums to {total}, expected 1")
    return tuple(map(math.sqrt, values))


class Query(_Record):
    """``circuits.TransformQuery`` of a real table, as a plain record: psi_minus is a tuple of 2**n floats.

    Its inputs are checked before it is built, with TransformQuery's messages:
    the table's length by ``cli._small_real_table``, its entries and sum by
    :func:`table_amplitudes` (a sum within 1e-9 of 1 puts the norm within
    about 5e-10 of 1), and the layout by ``cli._cmd_transform``.  An x of the
    wrong width is refused by :meth:`Support.keep`, before any row prints.
    """

    __slots__ = ("mode", "n", "psi_minus", "x", "n0")

    @property
    def layout(self) -> RegisterLayout:
        return RegisterLayout(self.mode, self.n, self.n0)


class Support(_Record):
    """``circuits.Support`` of a real table: g[a] for each a in ``alpha_minus`` where g[a] != 0, as tuples."""

    __slots__ = ("layout", "alpha_minus", "amplitudes")

    def keep(self, x: BitString) -> list[bool]:
        """Flags of the entries whose mu0=1 copy at alpha = x is on target: the rows the value at x sums."""
        if len(x) != self.layout.n0:
            raise ValueError(f"x has {len(x)} bits, expected n0 = {self.layout.n0}")
        return [_keep(self.layout, x, a) for a in self.alpha_minus]


def classical_value(query: Query) -> float:
    """``circuits.classical_value``: the kept rows of |psi_minus|**2, summed as numpy sums them."""
    layout, x = query.layout, query.x
    return pairwise_sum([a * a for i, a in enumerate(query.psi_minus) if _keep(layout, x, i)])


def prepare(psi) -> list[float]:
    """``circuits.prepare(psi)`` of real amplitudes, as floats.

    Level m of the rotation tree takes one angle per prefix p of m bits,
    2 atan2(r1, r0) of the root sums of its two halves; the rules of
    ``circuits.rotation_tree`` follow: angles that all agree within 1e-12 collapse to the first
    one, and one within 1e-12 of 0 is a zero row, which costs no libm call.
    Each prefix's amplitude a becomes cos(theta/2) a and sin(theta/2) a.
    The phase level is the identity: every amplitude is >= 0.
    """
    k = len(psi).bit_length() - 1
    weights = [a * a for a in psi]
    amps = [1.0]
    for m in range(k):
        half = 1 << (k - 1 - m)
        roots = [math.sqrt(pairwise_sum(weights, lo, half)) for lo in range(0, 1 << k, half)]  # each prefix's halves
        angles = [2.0 * math.atan2(r1, r0) for r0, r1 in zip(roots[::2], roots[1::2])]
        if any(abs(t - angles[0]) > 1e-12 for t in angles):
            rows = [0.0 if abs(t) <= 1e-12 else t for t in angles]
        else:
            rows = [angles[0] if abs(angles[0]) > 1e-12 else 0.0]
        turns = [(math.cos(t / 2.0), math.sin(t / 2.0)) if t else (1.0, 0.0) for t in rows]
        amps = [a * share for p, a in enumerate(amps) for share in turns[p % len(turns)]]
    return amps


def gather(query: Query) -> Support:
    """``circuits.gather``: the prep times ``_H`` n0+1 times, checked to norm 1 within 1e-12.

    The check's norm is a math.fsum of squares times sqrt(2**(n0+1)); the
    prep's is 1 to a few ulps, so neither kernel refuses a table here.
    """
    layout = query.layout
    amps = prepare(query.psi_minus)
    for _ in range(layout.n0 + 1):
        amps = [a * _H for a in amps]
    norm = math.sqrt(math.fsum(a * a for a in amps)) * math.sqrt(2 << layout.n0)
    if abs(norm - 1.0) > 1e-12:
        raise DecompositionError(f"start state norm is {norm}")
    alpha_minus = tuple(a for a, g in enumerate(amps) if g)
    return Support(layout, alpha_minus, tuple(amps[a] for a in alpha_minus))


def read_out_at(support: Support, x: BitString) -> Readout:
    """``circuits.read_out_at``: the plan, the steps and the four cells, on real amplitudes.

    With r = (t, -o) and on = 1 + keep copies on target out of 2M, a step
    sets c = 2 <g|r> and t <- (-t) + c g, o <- o + c g; the cells weigh
    t**2 and o**2 by their copies at each (omega, gamma), as there.
    """
    g, alphas, kept = support.amplitudes, 1 << support.layout.n0, support.keep(x)
    on = [2.0 if k else 1.0 for k in kept]
    plan = _plan(_fsum(w * (a * a) for w, a in zip(on, g)))
    t, o = g, g
    for _ in range(plan.iterations):
        c = 2.0 * _fsum(
            term
            for w, a, ti, oi in zip(on, g, t, o)
            for term in (w * (a * ti), -2.0 * alphas * (a * oi), w * (a * oi))
        )
        t = [-ti + c * a for ti, a in zip(t, g)]
        o = [oi + c * a for oi, a in zip(o, g)]
    t2, o2 = [v * v for v in t], [v * v for v in o]
    return Readout(
        plan,
        (
            _fsum(t2),
            _fsum(v for k, v in zip(kept, t2) if k),
            _fsum(term for v in o2 for term in (alphas * v, -v)),
            _fsum(term for k, v in zip(kept, o2) for term in ((alphas * v, -v) if k else (alphas * v,))),
        ),
    )
