"""Points of the boolean lattice, as bit strings.

Bit convention used by every module in this package: a length-n bit string
stands for a point of the boolean lattice, bit j occupies the 2**j place of
the table index, so dec(x) = sum_j x_j * 2**j.  Display strings are written
most-significant bit first, e.g. "01111" == 15.

This module loads no numpy and no other module of the package: the CLI,
the minfind search and both kernels share it, and ``layout`` and ``subset``
re-export :class:`BitString`.
"""
from __future__ import annotations

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
