from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobiusq.subset import (
    BitString,
    SubsetTable,
    _butterfly,
    mobius_inverse,
    zeta_fast,
    zeta_fast_inplace,
    zeta_matrix,
    zeta_naive,
)


def _bs(text: str) -> BitString:
    return BitString.from_str(text)


# ---------------------------------------------------------------------------
# bit strings


def test_bitstring_display_is_msb_first():
    assert _bs("01111").to_int() == 15
    assert _bs("101").to_int() == 5
    assert str(BitString.from_int(15, 5)) == "01111"


def test_bitstring_bit_j_is_2_to_j():
    b = _bs("100")  # dec 4
    assert (b[0], b[1], b[2]) == (0, 0, 1)
    assert b.to_int() == 4


def test_bitstring_roundtrip():
    for n in range(1, 7):
        for v in range(1 << n):
            b = BitString.from_int(v, n)
            assert b.to_int() == v
            assert BitString.from_str(str(b)).to_int() == v
            assert len(b) == n


def test_bitstring_validation():
    with pytest.raises(ValueError):
        BitString(())
    with pytest.raises(ValueError):
        BitString((0, 2))
    with pytest.raises(ValueError):
        BitString.from_str("10a")
    with pytest.raises(ValueError):
        BitString.from_str("")
    with pytest.raises(ValueError):
        BitString.from_int(4, 2)


def test_zeta_matrix_matches_entries():
    # row x, column xm, indexed by display strings; cols is written in dec order of xm
    n2_table = {
        "00": "1000",
        "01": "1100",
        "10": "1010",
        "11": "1111",
    }
    m2 = zeta_matrix(2)
    for rx, cols in n2_table.items():
        assert list(m2[_bs(rx).to_int()]) == [int(c) for c in cols]
    for n in range(1, 5):
        m = zeta_matrix(n)
        for x in range(1 << n):
            for y in range(1 << n):
                dominates = all((x >> j) & 1 >= (y >> j) & 1 for j in range(n))
                assert m[x, y] == (1.0 if dominates else 0.0)


# ---------------------------------------------------------------------------
# zeta transform


def test_zeta_known_example():
    table = SubsetTable(2, [0.1, 0.2, 0.3, 0.4])
    for out in (zeta_naive(table), zeta_fast(table)):
        assert np.allclose(out.values, [0.1, 0.3, 0.4, 1.0], atol=1e-15)


def test_zeta_of_delta_at_zero_is_all_ones():
    vals = np.zeros(16)
    vals[0] = 1.0
    out = zeta_fast(SubsetTable(4, vals))
    assert np.array_equal(out.values, np.ones(16))


def test_zeta_top_of_probability_table_is_one():
    rng = np.random.default_rng(3)
    vals = rng.random(32)
    vals /= vals.sum()
    out = zeta_fast(SubsetTable(5, vals))
    assert abs(out.values[-1] - 1.0) < 1e-12


def test_fast_equals_naive_random():
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        vals = rng.standard_normal(1 << n)
        a = zeta_naive(SubsetTable(n, vals))
        b = zeta_fast(SubsetTable(n, vals))
        assert np.max(np.abs(a.values - b.values)) <= 1e-12


def test_fast_equals_naive_complex():
    rng = np.random.default_rng(12)
    vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    a = zeta_naive(SubsetTable(6, vals))
    b = zeta_fast(SubsetTable(6, vals))
    assert np.max(np.abs(a.values - b.values)) <= 1e-12
    assert np.iscomplexobj(b.values)


def test_fast_matches_matrix_for_small_n():
    rng = np.random.default_rng(13)
    for n in range(1, 5):
        vals = rng.standard_normal(1 << n)
        want = zeta_matrix(n) @ vals
        got = zeta_fast(SubsetTable(n, vals)).values
        assert np.max(np.abs(want - got)) <= 1e-12


def test_zeta_monotone_for_nonnegative_tables():
    rng = np.random.default_rng(14)
    vals = rng.random(64)
    out = zeta_fast(SubsetTable(6, vals)).values
    for x in range(64):
        for j in range(6):
            assert out[x | (1 << j)] >= out[x] - 1e-12


def test_inplace_transform_mutates_the_caller_buffer():
    buf = np.array([0.1, 0.2, 0.3, 0.4])
    zeta_fast_inplace(buf)
    assert np.allclose(buf, [0.1, 0.3, 0.4, 1.0])
    assert np.allclose(mobius_inverse(SubsetTable(2, buf)).values, [0.1, 0.2, 0.3, 0.4])


def test_inplace_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        zeta_fast_inplace([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        zeta_fast_inplace(np.ones(6))


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_array_and_list_paths_are_bit_identical(dtype, sign):
    rng = np.random.default_rng(16)
    for n in range(1, 13):
        vals = rng.standard_normal(1 << n).astype(dtype)
        if dtype is np.complex128:
            vals += 1j * rng.standard_normal(1 << n)
        fast = vals.copy()
        _butterfly(fast, sign)  # one vectorised pass per bit
        scalar = vals.tolist()
        _butterfly(scalar, sign)  # the scalar loop
        assert fast.dtype == dtype
        assert fast.tobytes() == np.array(scalar, dtype=dtype).tobytes(), n


def test_inplace_transforms_a_strided_view_in_place():
    backing = np.arange(16, dtype=np.float64)
    view = backing[::2]
    want = zeta_fast(SubsetTable(3, view.copy())).values
    zeta_fast_inplace(view)
    assert np.array_equal(backing[::2], want)
    assert np.array_equal(backing[1::2], np.arange(1, 16, 2))  # untouched


def test_inplace_rejects_2d_and_read_only_arrays():
    with pytest.raises(ValueError, match="1-D"):
        zeta_fast_inplace(np.ones((4, 2)))
    frozen = np.ones(8)
    frozen.setflags(write=False)
    with pytest.raises(ValueError, match="read-only"):
        zeta_fast_inplace(frozen)
    assert np.array_equal(frozen, np.ones(8))


# ---------------------------------------------------------------------------
# mobius inversion


def test_mobius_n1_example():
    out = mobius_inverse(SubsetTable(1, [0.3, 1.0]))
    assert np.allclose(out.values, [0.3, 0.7])


def test_mobius_of_all_ones_is_delta():
    out = mobius_inverse(SubsetTable(4, np.ones(16)))
    want = np.zeros(16)
    want[0] = 1.0
    assert np.allclose(out.values, want)


def test_roundtrip_random():
    rng = np.random.default_rng(15)
    for n in (1, 3, 6, 8):
        vals = rng.standard_normal(1 << n)
        back = mobius_inverse(zeta_fast(SubsetTable(n, vals)))
        assert np.max(np.abs(back.values - vals)) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.data())
def test_roundtrip_property(n, data):
    vals = data.draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False, allow_infinity=False),
            min_size=1 << n,
            max_size=1 << n,
        )
    )
    table = SubsetTable(n, np.array(vals))
    back = mobius_inverse(zeta_fast(table))
    assert np.max(np.abs(back.values - table.values)) <= 1e-9
    fwd = zeta_fast(mobius_inverse(table))
    assert np.max(np.abs(fwd.values - table.values)) <= 1e-9


# ---------------------------------------------------------------------------
# tables and serialization


def test_table_validation():
    with pytest.raises(ValueError):
        SubsetTable(2, [1.0, 2.0])
    with pytest.raises(ValueError):
        SubsetTable(0, [1.0])
    with pytest.raises(ValueError, match="1..62"):  # refused before computing 2**n
        SubsetTable(10**20, [1.0])
    for bad in (np.nan, np.inf, -np.inf, complex(0.5, np.nan)):
        with pytest.raises(ValueError, match="non-finite"):
            SubsetTable(2, [bad, 0.5, 0.25, 0.25])


def test_table_json_roundtrip_real_and_complex(tmp_path):
    real = SubsetTable(2, [0.1, 0.2, 0.3, 0.4])
    path = tmp_path / "t.json"
    real.save(path)
    back = SubsetTable.load(path)
    assert np.array_equal(back.values, real.values)
    assert not np.iscomplexobj(back.values)

    cx = SubsetTable(1, [0.6 + 0.8j, 0.0])
    cx.save(path)
    back = SubsetTable.load(path)
    assert np.allclose(back.values, cx.values)
    assert np.iscomplexobj(back.values)


def test_table_json_keeps_tiny_imaginary_parts():
    obj = {"n": 1, "values": [[0.5, 5e-9], [0.5, 0.0]]}
    table = SubsetTable.from_json_obj(obj)
    assert np.iscomplexobj(table.values)
    assert table.values[0].imag == 5e-9
    back = SubsetTable.from_json_obj(table.to_json_obj())
    assert np.iscomplexobj(back.values)
    assert np.array_equal(back.values, table.values)
    # exactly real inputs, as plain numbers or as pairs, still load as float64
    for values in ([0.5, 0.5], [[0.5, 0.0], [0.5, -0.0]], [[0.5, 0], 0.5]):
        real = SubsetTable.from_json_obj({"n": 1, "values": values})
        assert real.values.dtype == np.float64
        assert np.array_equal(real.values, [0.5, 0.5])


def test_require_probability():
    SubsetTable(2, [0.25, 0.25, 0.25, 0.25]).require_probability()
    with pytest.raises(ValueError):
        SubsetTable(2, [0.5, 0.6, 0.0, 0.0]).require_probability()
    with pytest.raises(ValueError):
        SubsetTable(2, [-0.1, 0.6, 0.25, 0.25]).require_probability()
    with pytest.raises(ValueError):
        SubsetTable(1, [0.5 + 0.1j, 0.5]).require_probability()


def test_table_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        SubsetTable.from_json_obj({"n": 2})
    with pytest.raises(ValueError):
        SubsetTable.from_json_obj({"n": 2, "values": "nope"})


@pytest.mark.parametrize("n", [2.9, 2.0, "2", True])
def test_table_from_json_takes_only_integer_n(n):
    with pytest.raises(ValueError, match="'n' must be an integer"):
        SubsetTable.from_json_obj({"n": n, "values": [0.25] * 4})
