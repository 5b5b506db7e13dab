"""Points of the boolean lattice as bit strings, and numpy's float64 sum without numpy.

Bit convention used by every module in this package: a length-n bit string
stands for a point of the boolean lattice, bit j occupies the 2**j place of
the table index, so dec(x) = sum_j x_j * 2**j.  Display strings are written
most-significant bit first, e.g. "01111" == 15.

``float(np.sum(a))`` of a float64 array is not a left-to-right sum: numpy
adds in a fixed tree of blocks.  :func:`pairwise_sum` adds in the same tree,
so it gives numpy's bits; the pure-Python kernel (:mod:`mobiusq.pure`) sums
with it.

Every command loads this module, and it loads no numpy and no other module
of the package.
"""
from __future__ import annotations

from functools import reduce
from operator import add

from . import _Record


class BitString(_Record):
    """Ordered bit assignment; ``bits[j]`` is bit j (the 2**j place), stored as a tuple of ints."""

    __slots__ = ("bits",)

    def __init__(self, bits) -> None:
        if len(bits) < 1:
            raise ValueError("BitString needs at least one bit")
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"bits must be 0 or 1, got {bits!r}")
        super().__init__(tuple(int(b) for b in bits))

    @classmethod
    def from_int(cls, value: int, n: int) -> BitString:
        if n < 1:
            raise ValueError("n must be >= 1")
        if not 0 <= value < (1 << n):
            raise ValueError(f"value {value} out of range for {n} bits")
        return cls(tuple((value >> j) & 1 for j in range(n)))

    @classmethod
    def from_str(cls, text: str) -> BitString:
        """Parse a display string, most-significant bit first ("101" == 5)."""
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"not a bit string: {text!r}")
        return cls(tuple(int(c) for c in reversed(text)))

    def to_int(self) -> int:
        return sum(b << j for j, b in enumerate(self.bits))

    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in reversed(self.bits))


def _pairwise(values, lo: int, n: int) -> float:
    """numpy's pairwise_sum of values[lo:lo + n] (numpy/_core/src/umath/loops_utils.h.src).

    Fewer than 8 terms add left to right; up to 128 go to 8 accumulators,
    each left to right, combined as a tree, then the rest; above that each
    half, split at a multiple of 8, is summed alone.  A zero's sign can
    differ from numpy's inside, but only where the sum itself is zero, and
    pairwise_sum's 0.0 + makes that +0.0 either way.
    """
    if n < 8:
        return reduce(add, values[lo : lo + n], 0.0)
    if n <= 128:
        end = lo + n - n % 8
        r = [reduce(add, values[lo + j : end : 8], 0.0) for j in range(8)]
        tree = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, values[end : lo + n], tree)
    half = n // 2 - n // 2 % 8
    return _pairwise(values, lo, half) + _pairwise(values, lo + half, n - half)


def pairwise_sum(values, lo: int = 0, n: int | None = None) -> float:
    """``float(np.sum(values[lo:lo + n]))`` of a float64 array, bit for bit: numpy reduces from 0.0."""
    return 0.0 + _pairwise(values, lo, len(values) - lo if n is None else n)
