"""numpy's pairwise summation, replayed in pure Python.

``float(np.sum(a))`` of a float64 array is not a left-to-right sum: numpy
adds in a fixed tree of blocks.  :func:`pairwise_sum` adds in the same tree,
so it gives numpy's bits.  The pure-Python kernel (:mod:`mobiusq.pure`) and
the sparse minfind path (:mod:`mobiusq.sparse`) both sum with it; this
module loads no numpy and no other module of the package.
"""
from __future__ import annotations

from functools import reduce
from operator import add


def _pairwise(values, lo: int, n: int, uniform=None) -> float:
    """numpy's pairwise_sum of values[lo:lo + n] (numpy/_core/src/umath/loops_utils.h.src).

    Fewer than 8 terms add left to right; up to 128 go to 8 accumulators,
    each left to right, combined as a tree, then the rest; above that each
    half, split at a multiple of 8, is summed alone.  A zero's sign can
    differ from numpy's inside, but only where the sum itself is zero, and
    pairwise_sum's 0.0 + makes that +0.0 either way.  ``uniform(lo, n)``,
    when given, is the sum of a segment of equal entries whose every partial
    sum is exact, so any order gives it, and None for any other segment.
    """
    if uniform is not None and (run := uniform(lo, n)) is not None:
        return run
    if n < 8:
        return reduce(add, values[lo : lo + n], 0.0)
    if n <= 128:
        end = lo + n - n % 8
        r = [reduce(add, values[lo + j : end : 8], 0.0) for j in range(8)]
        tree = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, values[end : lo + n], tree)
    half = n // 2 - n // 2 % 8
    return _pairwise(values, lo, half, uniform) + _pairwise(values, lo + half, n - half, uniform)


def pairwise_sum(values, lo: int = 0, n: int | None = None, uniform=None) -> float:
    """``float(np.sum(values[lo:lo + n]))`` of a float64 array, bit for bit: numpy reduces from 0.0."""
    return 0.0 + _pairwise(values, lo, len(values) - lo if n is None else n, uniform)
