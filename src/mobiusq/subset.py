"""Set functions on the subset lattice and their zeta / Mobius transforms.

Bit convention used by every module in this package: a length-n bit string
stands for a point of the boolean lattice, bit j occupies the 2**j place of
the table index, so dec(x) = sum_j x_j * 2**j.  Display strings are written
most-significant bit first, e.g. "01111" == 15.

The zeta transform of a table fm is f(x) = sum of fm(y) over all y <= x in
the bitwise partial order; mobius_inverse undoes it.  Real and complex
tables are both supported.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "BitString",
    "SubsetTable",
    "zeta_matrix",
    "zeta_naive",
    "zeta_fast",
    "zeta_fast_inplace",
    "mobius_inverse",
]


@dataclass(frozen=True)
class BitString:
    """Ordered bit assignment; ``bits[j]`` is bit j (the 2**j place)."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) < 1:
            raise ValueError("BitString needs at least one bit")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"bits must be 0 or 1, got {self.bits!r}")

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

    @property
    def n(self) -> int:
        return len(self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, j: int) -> int:
        return self.bits[j]

    def __str__(self) -> str:
        return "".join(str(b) for b in reversed(self.bits))


@dataclass(eq=False)
class SubsetTable:
    """Dense table over all 2**n bit strings, indexed by dec(x).

    Values are float64, or complex128 when any input entry is complex.
    """

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.n <= 62:  # no array holds 2**63 entries; also bounds the shift below
            raise ValueError(f"n must be in 1..62, got {self.n}")
        arr = np.asarray(self.values)
        dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
        arr = np.array(arr, dtype=dtype)
        if arr.shape != (1 << self.n,):
            raise ValueError(
                f"expected {1 << self.n} values for n={self.n}, got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("table has non-finite values")
        self.values = arr

    def require_probability(self) -> None:
        """Raise unless the table is a probability distribution, within 1e-9."""
        if np.iscomplexobj(self.values):
            raise ValueError("probability table must be real")
        if self.values.min() < -1e-9:
            raise ValueError(f"negative entry {self.values.min()} in probability table")
        total = float(self.values.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probability table sums to {total}, expected 1")

    def to_json_obj(self) -> dict:
        if np.iscomplexobj(self.values):
            vals = [[float(v.real), float(v.imag)] for v in self.values]
        else:
            vals = [float(v) for v in self.values]
        return {"n": self.n, "values": vals}

    @classmethod
    def from_json_obj(cls, obj: dict) -> SubsetTable:
        if not isinstance(obj, dict) or "n" not in obj or "values" not in obj:
            raise ValueError("subset table JSON needs 'n' and 'values' keys")
        arr = np.array(json_complex(obj, "values"), dtype=complex)
        if not arr.imag.any():  # only an exactly real table loads as float64
            arr = arr.real
        return cls(json_int(obj, "n"), arr)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_obj()))

    @classmethod
    def load(cls, path: str | Path) -> SubsetTable:
        return cls.from_json_obj(json.loads(Path(path).read_text()))


def json_int(obj: dict, key: str) -> int:
    """obj[key], which must be a JSON integer: no float, string or bool."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"'{key}' must be an integer, got {value!r}")
    return value


def json_complex(obj: dict, key: str) -> list[complex]:
    """obj[key]: a list of JSON numbers or [re, im] number pairs, else ValueError."""
    raw = obj[key]
    if not isinstance(raw, list):
        raise ValueError(f"'{key}' must be a list")
    out = []
    for i, v in enumerate(raw):
        parts = v if isinstance(v, list) and len(v) == 2 else [v]
        if not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in parts):
            raise ValueError(f"'{key}'[{i}] must be a number or an [re, im] pair, got {v!r}")
        try:
            out.append(complex(*parts))
        except OverflowError:
            raise ValueError(f"'{key}'[{i}] is too large for a float") from None
    return out


def zeta_matrix(n: int) -> np.ndarray:
    """Full zeta transform matrix; rows indexed by x, columns by xm.

    Entry (x, xm) is 1 iff x dominates xm bitwise.  The pipeline never builds
    it; it is the dense oracle of test_fast_matches_matrix_for_small_n.
    """
    idx = np.arange(1 << n)
    return ((idx[:, None] & idx[None, :]) == idx[None, :]).astype(np.float64)


def zeta_naive(table: SubsetTable) -> SubsetTable:
    """Reference subset sums by explicit enumeration, O(2**n) per output value.

    The pipeline uses zeta_fast; this is the independent oracle that
    acceptance criterion 1 compares it against.
    """
    size = 1 << table.n
    idx = np.arange(size)
    out = np.empty_like(table.values)
    for x in range(size):
        out[x] = table.values[(idx & x) == idx].sum()
    return SubsetTable(table.n, out)


def _butterfly(values, sign: int) -> None:
    """Signed subset-sum butterfly, in place: values[x] += sign * values[x - bit].

    sign = 1 is the zeta transform and sign = -1 its Mobius inverse.  A 1-D
    numpy array (contiguous or a strided view) takes one vectorised pass per
    bit, lowest bit first: viewed as (blocks, 2, bit), the upper half of each
    block gains its lower half.  That is the same additions in the same order
    as the scalar loop, so both paths give bit-identical results.  Any other
    mutable sequence, such as a list, runs the scalar loop, whose += / -=
    choice is made once per row, not per element.
    """
    size = len(values)
    if size & (size - 1):
        raise ValueError(f"buffer length {size} is not a power of two")
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise ValueError(f"butterfly needs a 1-D array, got shape {values.shape}")
        bit = 1
        while bit < size:
            pairs = values.reshape(-1, 2, bit)  # a view, even of a strided 1-D array
            if sign > 0:
                pairs[:, 1] += pairs[:, 0]
            else:
                pairs[:, 1] -= pairs[:, 0]
            bit <<= 1
        return
    bit = 1
    while bit < size:
        step = bit << 1
        for base in range(bit, size, step):
            if sign > 0:
                for x in range(base, base + bit):
                    values[x] += values[x - bit]
            else:
                for x in range(base, base + bit):
                    values[x] -= values[x - bit]
        bit = step


def zeta_fast_inplace(values) -> None:
    """Subset-sum butterfly over a caller-provided buffer.

    Runs n * 2**n / 2 additions in place; the buffer length must be a power
    of two.  A 1-D numpy array is updated with one vectorised pass per bit;
    any other mutable sequence of numbers (a list, say) runs the scalar
    loop.  Both give bit-identical results.
    """
    _butterfly(values, 1)


def zeta_fast(table: SubsetTable) -> SubsetTable:
    """Butterfly subset sums; same result as zeta_naive in Theta(n * 2**n)."""
    out = table.values.copy()
    zeta_fast_inplace(out)
    return SubsetTable(table.n, out)


def mobius_inverse(table: SubsetTable) -> SubsetTable:
    """Inverse of the zeta transform (classical Mobius inversion).

    The pipeline never inverts; this is the library inverse of zeta_fast
    that the README documents.
    """
    out = table.values.copy()
    _butterfly(out, -1)
    return SubsetTable(table.n, out)
