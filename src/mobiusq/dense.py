"""The numpy kernel of the search: dense objective tables, their softmin, and block sums.

``mobiusq.minfind`` binds these names on first use, so a run that never
builds a dense table (``minfind.centered_softmin``) loads no numpy.  Every
table here holds all 2**n points.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .bits import BitString
from .minfind import require_beta, require_bits, softmin_scale
from .subset import SubsetTable


class ObjectiveTable:
    """Strictly positive finite objective values over all 2**n points."""

    def __init__(self, n: int, values: np.ndarray) -> None:
        require_bits(n)
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
    require_bits(n)
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
    scale = softmin_scale(beta, objective.n, float(objective.values.max()))
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
