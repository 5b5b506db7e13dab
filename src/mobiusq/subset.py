"""Set functions on the subset lattice and their zeta / Mobius transforms.

Tables are indexed by the bit convention of :mod:`mobiusq.bits`.

The zeta transform of a table fm is f(x) = sum of fm(y) over all y <= x in
the bitwise partial order; mobius_inverse undoes it.  Real and complex
tables are both supported.
"""
from __future__ import annotations

from itertools import chain

import numpy as np

from .bits import BitString  # noqa: F401  (re-exported: perfbench/setup_probe.py reads it here)
from .layout import json_int


class SubsetTable:
    """Dense table over all 2**n bit strings, indexed by dec(x).

    Values are float64, or complex128 when any input entry is complex.
    """

    def __init__(self, n: int, values: np.ndarray) -> None:
        if not 1 <= n <= 62:  # no array holds 2**63 entries; also bounds the shift below
            raise ValueError(f"n must be in 1..62, got {n}")
        arr = np.asarray(values)
        dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
        arr = np.array(arr, dtype=dtype)
        if arr.shape != (1 << n,):
            raise ValueError(f"expected {1 << n} values for n={n}, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("table has non-finite values")
        self.n, self.values = n, arr

    def amplitudes(self) -> np.ndarray:
        """The real amplitudes that encode a probability table: the square root of each entry.

        Raises like require_probability when the table is not one.
        """
        self.require_probability()
        return np.sqrt(self.values)

    def require_probability(self) -> None:
        """Raise unless the table is a probability distribution: no entry below 0, sum 1 within 1e-9."""
        if np.iscomplexobj(self.values):
            raise ValueError("probability table must be real")
        if self.values.min() < 0.0:
            raise ValueError(f"negative entry {self.values.min()} in probability table")
        total = float(self.values.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probability table sums to {total}, expected 1")

    def to_json_obj(self) -> dict:
        """The table input format from_json_obj reads; the tests write their inputs with it."""
        if np.iscomplexobj(self.values):
            vals = [[float(v.real), float(v.imag)] for v in self.values]
        else:
            vals = [float(v) for v in self.values]
        return {"n": self.n, "values": vals}

    @classmethod
    def from_json_obj(cls, obj: dict) -> SubsetTable:
        if not isinstance(obj, dict) or "n" not in obj or "values" not in obj:
            raise ValueError("subset table JSON needs 'n' and 'values' keys")
        arr = json_complex(obj, "values")
        if not arr.imag.any():  # only an exactly real table loads as float64
            arr = arr.real
        return cls(json_int(obj, "n"), arr)


def json_complex(obj: dict, key: str) -> np.ndarray:
    """obj[key]: a list of JSON numbers or [re, im] number pairs, as complex128; else ValueError."""
    raw = obj[key]
    if not isinstance(raw, list):
        raise ValueError(f"'{key}' must be a list")
    # the plain numbers or plain pairs a JSON document holds convert in one step;
    # anything else, or an int too large for a float, takes the checked loop
    kinds = set(map(type, raw))
    pairs = kinds == {list} and set(map(len, raw)) == {2}
    if pairs:
        kinds = set(map(type, chain.from_iterable(raw)))
    if kinds <= {int, float}:
        try:
            values = np.array(raw, dtype=np.float64)
        except OverflowError:
            pass
        else:
            return values.view(np.complex128).ravel() if pairs else values.astype(np.complex128)
    out = []
    for i, v in enumerate(raw):
        parts = v if isinstance(v, list) and len(v) == 2 else [v]
        if not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in parts):
            raise ValueError(f"'{key}'[{i}] must be a number or an [re, im] pair, got {v!r}")
        try:
            out.append(complex(*parts))
        except OverflowError:
            raise ValueError(f"'{key}'[{i}] is too large for a float") from None
    return np.array(out, dtype=np.complex128)


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
