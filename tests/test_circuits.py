from __future__ import annotations

import math

import numpy as np
import pytest

from mobiusq.circuits import (
    DecompositionError,
    TransformQuery,
    build_comparator,
    build_start_circuit,
    build_start_state,
    build_unmarked_state,
    classical_value,
    decompose_signal,
    mark_op,
    marked,
)
from mobiusq.sim import (
    Circuit,
    Controlled,
    Hadamard,
    Mode,
    PauliX,
    StateVector,
    apply_circuit,
    basis_index,
    compile_state_prep,
    new_state,
)
from mobiusq.subset import BitString, SubsetTable, zeta_fast
from mobiusq.verify import circuit_coefficient


def _exact_ratio(q: TransformQuery) -> float:
    """Transform value read off the start state's sector amplitudes."""
    return decompose_signal(q, build_start_state(q)).ratio


def _uniform_query(n: int, x: str) -> TransformQuery:
    amps = np.full(1 << n, 2.0 ** (-n / 2.0))
    return TransformQuery(Mode.MOBIUS, n, amps, BitString.from_str(x))


def _random_query(mode: Mode, n: int, x: str, n0: int | None = None, seed: int = 0) -> TransformQuery:
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    amps /= np.linalg.norm(amps)
    return TransformQuery(mode, n, amps, BitString.from_str(x), n0)


def _expected_start_amplitudes(query: TransformQuery) -> np.ndarray:
    """Assemble the start state directly from its closed-form description.

    Every (alpha_minus, alpha) pair is enumerated by hand: the mu0=1 branch
    carries gamma=1 and the per-bit mismatch pattern on beta, the mu0=0
    branch carries gamma=0 and beta=0, and omega ends up 0 exactly on the
    (alpha == x, beta == 0) components.  No simulator machinery involved.
    """
    layout = query.layout
    n, n0 = layout.n, layout.n0
    xv = query.x.to_int()
    low = (1 << n0) - 1
    amps = np.zeros(1 << layout.total_qubits, dtype=np.complex128)
    scale = 2.0 ** (-(n0 + 1) / 2.0)
    for y in range(1 << n):
        psi = complex(query.psi_minus[y])
        if psi == 0:
            continue
        for a in range(1 << n0):
            if query.mode is Mode.MOBIUS:
                viol = y & ~a & low
            else:
                viol = (y ^ a) & low
            omega1 = 0 if (a == xv and viol == 0) else 1
            idx1 = (
                y
                | (a << n)
                | (viol << (n + n0))
                | (1 << (n + 2 * n0))  # gamma
                | (1 << (n + 2 * n0 + 1))  # mu0
                | (omega1 << (n + 2 * n0 + 2))
            )
            amps[idx1] += psi * scale
            omega0 = 0 if a == xv else 1
            amps[y | (a << n) | (omega0 << (n + 2 * n0 + 2))] += psi * scale
    return amps


# ---------------------------------------------------------------------------
# queries


def test_query_validation():
    good = np.array([0.6, 0.8])
    TransformQuery(Mode.MOBIUS, 1, good, BitString.from_str("1"))
    with pytest.raises(ValueError):
        TransformQuery(Mode.MOBIUS, 1, np.array([0.6, 0.9]), BitString.from_str("1"))
    with pytest.raises(ValueError):
        TransformQuery(Mode.MOBIUS, 1, np.array([1.0]), BitString.from_str("1"))
    with pytest.raises(ValueError):
        TransformQuery(Mode.MOBIUS, 2, np.array([0.6, 0.8, 0, 0]), BitString.from_str("101"))
    with pytest.raises(TypeError):
        TransformQuery(Mode.MOBIUS, 1, good, "1")
    with pytest.raises(ValueError):
        TransformQuery(Mode.MARGINAL, 2, np.array([0.6, 0.8, 0, 0]), BitString.from_str("1"))
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
        with pytest.raises(ValueError, match="non-finite"):
            TransformQuery(Mode.MOBIUS, 1, np.array([0.6, bad]), BitString.from_str("1"))


def test_query_from_probability_table():
    table = SubsetTable(2, [0.1, 0.2, 0.3, 0.4])
    q = TransformQuery.from_probability_table(Mode.MOBIUS, table, BitString.from_str("11"))
    assert np.allclose(np.abs(q.psi_minus) ** 2, table.values)
    bad = SubsetTable(2, [0.5, 0.6, 0.0, 0.0])
    with pytest.raises(ValueError):
        TransformQuery.from_probability_table(Mode.MOBIUS, bad, BitString.from_str("11"))


def test_query_json_roundtrip(tmp_path):
    q = _random_query(Mode.MARGINAL, 3, "10", n0=2, seed=5)
    path = tmp_path / "q.json"
    q.save(path)
    back = TransformQuery.load(path)
    assert back.mode is Mode.MARGINAL
    assert (back.n, back.n0) == (3, 2)
    assert str(back.x) == "10"
    assert np.max(np.abs(back.psi_minus - q.psi_minus)) <= 1e-15


def test_query_json_missing_keys():
    with pytest.raises(ValueError, match="missing"):
        TransformQuery.from_json_obj({"mode": "mobius", "n": 1})


@pytest.mark.parametrize("key", ["n", "n0"])
@pytest.mark.parametrize("bad", [1.5, 1.0, "1", True])
def test_query_json_takes_only_integer_sizes(key, bad):
    obj = {"mode": "mobius", "n": 1, "n0": 1, "psi_minus": [[0.8, 0], [0.6, 0]], "x": "1"}
    TransformQuery.from_json_obj(obj)
    obj[key] = bad
    with pytest.raises(ValueError, match=f"'{key}' must be an integer"):
        TransformQuery.from_json_obj(obj)


# ---------------------------------------------------------------------------
# classical ground truth


def test_classical_value_uniform_counts_subsets():
    for x in range(8):
        q = _uniform_query(3, format(x, "03b"))
        want = (1 << bin(x).count("1")) / 8.0
        assert abs(classical_value(q) - want) <= 1e-15


def test_classical_value_marginal_sums_matching_rows():
    vals = np.arange(1.0, 17.0)
    vals /= vals.sum()
    table = SubsetTable(4, vals)
    q = TransformQuery.from_probability_table(
        Mode.MARGINAL, table, BitString.from_str("000"), n0=3
    )
    assert abs(classical_value(q) - 10.0 / 136.0) <= 1e-15


# ---------------------------------------------------------------------------
# comparator


def test_comparator_structure():
    q = _uniform_query(3, "111")
    circ = build_comparator(q)
    assert len(circ) == 6
    kinds = [type(op) for op in circ]
    assert kinds == [Hadamard, Controlled, Hadamard, Controlled, Hadamard, Controlled]
    for op in circ.ops[1::2]:
        assert isinstance(op.ops[0], PauliX)


def test_comparator_on_basis_source_mobius():
    q = _uniform_query(1, "1")
    layout = q.layout
    amps = np.zeros(1 << layout.total_qubits, dtype=complex)
    amps[basis_index(layout, {"alpha_minus": 1})] = 1.0
    out = apply_circuit(StateVector(layout, amps), build_comparator(q)).amplitudes
    r = 1.0 / math.sqrt(2.0)
    assert abs(out[basis_index(layout, {"alpha_minus": 1, "alpha": 0, "beta": 0})]) <= 1e-15
    assert abs(out[basis_index(layout, {"alpha_minus": 1, "alpha": 0, "beta": 1})] - r) <= 1e-15
    assert abs(out[basis_index(layout, {"alpha_minus": 1, "alpha": 1, "beta": 0})] - r) <= 1e-15


def test_comparator_on_basis_source_marginal():
    q = _random_query(Mode.MARGINAL, 2, "1", n0=1, seed=1)
    layout = q.layout
    amps = np.zeros(1 << layout.total_qubits, dtype=complex)
    amps[basis_index(layout, {"alpha_minus": 1})] = 1.0
    out = apply_circuit(StateVector(layout, amps), build_comparator(q)).amplitudes
    r = 1.0 / math.sqrt(2.0)
    # sample 0 mismatches the source bit 1 and marks beta; sample 1 survives clean
    assert abs(out[basis_index(layout, {"alpha_minus": 1, "alpha": 0, "beta": 1})] - r) <= 1e-15
    assert abs(out[basis_index(layout, {"alpha_minus": 1, "alpha": 1, "beta": 0})] - r) <= 1e-15
    assert abs(out[basis_index(layout, {"alpha_minus": 1, "alpha": 0, "beta": 0})]) <= 1e-15


def test_comparator_coefficients_all_eight():
    coefficient = circuit_coefficient(build_comparator)
    r = 1.0 / math.sqrt(2.0)
    want = {
        (Mode.MOBIUS, 0, 0): r,
        (Mode.MOBIUS, 0, 1): r,
        (Mode.MOBIUS, 1, 0): 0.0,
        (Mode.MOBIUS, 1, 1): r,
        (Mode.MARGINAL, 0, 0): r,
        (Mode.MARGINAL, 0, 1): 0.0,
        (Mode.MARGINAL, 1, 0): 0.0,
        (Mode.MARGINAL, 1, 1): r,
    }
    for (mode, src, smp), value in want.items():
        assert coefficient(src, smp, mode) == value
    with pytest.raises(ValueError):
        coefficient(2, 0, Mode.MOBIUS)


# ---------------------------------------------------------------------------
# start state


def test_target_predicate_mask_size():
    q = _random_query(Mode.MARGINAL, 4, "10", n0=2, seed=2)
    layout = q.layout
    idx = np.arange(1 << layout.total_qubits)
    hits = int(mark_op(layout, q.x).predicate.mask(idx).sum())
    assert hits == 1 << (layout.total_qubits - 2 * layout.n0)


def test_start_state_matches_direct_assembly_mobius():
    for seed, x in [(3, "101"), (4, "000"), (5, "111"), (6, "010")]:
        q = _random_query(Mode.MOBIUS, 3, x, seed=seed)
        got = build_start_state(q).amplitudes
        want = _expected_start_amplitudes(q)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_start_state_matches_direct_assembly_marginal():
    for seed, x in [(7, "10"), (8, "00"), (9, "11")]:
        q = _random_query(Mode.MARGINAL, 4, x, n0=2, seed=seed)
        got = build_start_state(q).amplitudes
        want = _expected_start_amplitudes(q)
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize(
    "mode,n,n0",
    [(Mode.MOBIUS, n, None) for n in range(1, 5)]
    + [(Mode.MARGINAL, 3, 1), (Mode.MARGINAL, 4, 2), (Mode.MARGINAL, 5, 3)],
)
def test_register_local_prep_equals_full_circuit_run(mode, n, n0):
    rng = np.random.default_rng(100 * n + (n0 or 0))
    x = format(int(rng.integers(1 << (n0 or n))), f"0{n0 or n}b")
    probs = rng.random(1 << n)
    probs[1:][rng.random((1 << n) - 1) < 0.25] = 0.0  # zero entries, as real tables have
    table = SubsetTable(n, probs / probs.sum())
    real = TransformQuery.from_probability_table(mode, table, BitString.from_str(x), n0)
    for q in (real, _random_query(mode, n, x, n0=n0, seed=n)):
        ops = build_start_circuit(q).ops
        full = apply_circuit(new_state(q.layout), Circuit(q.layout, ops)).amplitudes
        assert np.array_equal(build_start_state(q).amplitudes, full)
        unmarked = apply_circuit(new_state(q.layout), Circuit(q.layout, ops[:-1])).amplitudes
        assert np.array_equal(build_unmarked_state(q).amplitudes, unmarked)


@pytest.mark.parametrize("mode,n,n0", [(Mode.MOBIUS, 3, None), (Mode.MARGINAL, 4, 2)])
def test_marked_gives_each_start_state_and_restores_the_unmarked_one(mode, n, n0):
    unmarked = build_unmarked_state(_random_query(mode, n, "1" * (n0 or n), n0=n0, seed=21))
    before = unmarked.amplitudes.tobytes()
    for xv in range(1 << (n0 or n)):
        q = _random_query(mode, n, format(xv, f"0{n0 or n}b"), n0=n0, seed=21)
        with marked(unmarked, q.x) as start:
            assert start is unmarked
            assert start.amplitudes.tobytes() == build_start_state(q).amplitudes.tobytes()
        assert unmarked.amplitudes.tobytes() == before
    with pytest.raises(RuntimeError, match="readout failed"):
        with marked(unmarked, BitString.from_int(1, n0 or n)):
            raise RuntimeError("readout failed")
    assert unmarked.amplitudes.tobytes() == before
    with pytest.raises(ValueError, match="bits"):
        with marked(unmarked, BitString.from_int(1, (n0 or n) + 1)):
            pass
    assert unmarked.amplitudes.tobytes() == before


@pytest.mark.parametrize(
    "mode,n,x,n0",
    [(Mode.MOBIUS, 1, "1", None), (Mode.MOBIUS, 3, "101", None), (Mode.MARGINAL, 4, "10", 2)],
)
def test_start_circuit_begins_with_exactly_the_prep(mode, n, x, n0):
    q = _random_query(mode, n, x, n0=n0, seed=n)
    prep = compile_state_prep(q.psi_minus)
    ops = build_start_circuit(q).ops
    assert prep and ops[: len(prep)] == prep
    assert ops[len(prep)] == PauliX(q.layout.omega_qubit)  # the first branch op


def test_start_circuit_ends_with_target_marking():
    q = _uniform_query(2, "01")
    circ = build_start_circuit(q)
    last = circ.ops[-1]
    assert isinstance(last, Controlled)
    assert isinstance(last.ops[0], PauliX)
    assert last.ops[0].qubit == q.layout.omega_qubit
    assert last == mark_op(q.layout, q.x)


# ---------------------------------------------------------------------------
# sector decomposition


def test_decomposition_uniform_full_box():
    q = _uniform_query(3, "111")
    dec = decompose_signal(q, build_start_state(q))
    assert abs(dec.z0 - 0.25) <= 1e-12
    assert abs(dec.z1 - 0.25) <= 1e-12
    assert abs(dec.chi_norm**2 - 0.875) <= 1e-12
    assert abs(dec.ratio - 1.0) <= 1e-12


def test_decomposition_uniform_origin():
    q = _uniform_query(3, "000")
    dec = decompose_signal(q, build_start_state(q))
    assert abs(dec.z0 - 0.25) <= 1e-12
    assert abs(dec.z1 - 0.25 * math.sqrt(1.0 / 8.0)) <= 1e-12
    assert abs(dec.ratio - 0.125) <= 1e-12


def test_decomposition_marginal_frozen():
    vals = np.arange(1.0, 17.0)
    vals /= vals.sum()
    q = TransformQuery.from_probability_table(
        Mode.MARGINAL, SubsetTable(4, vals), BitString.from_str("000"), n0=3
    )
    dec = decompose_signal(q, build_start_state(q))
    assert abs(dec.z0 - 0.25) <= 1e-12
    assert abs(dec.ratio - 10.0 / 136.0) <= 1e-12


def test_decomposition_base_depends_only_on_n0():
    q = _random_query(Mode.MOBIUS, 4, "0110", seed=11)
    dec = decompose_signal(q, build_start_state(q))
    assert abs(dec.z0 - 2.0 ** (-5.0 / 2.0)) <= 1e-12


def test_sector_vectors_are_orthonormal_and_theta_weighted():
    q = _random_query(Mode.MOBIUS, 3, "101", seed=12)
    dec = decompose_signal(q, build_start_state(q))
    assert abs(np.linalg.norm(dec.psi0) - 1.0) <= 1e-9
    assert abs(np.linalg.norm(dec.psi1) - 1.0) <= 1e-9
    assert abs(np.vdot(dec.psi1, dec.psi0)) <= 1e-12

    n, n0 = q.n, q.n0
    xv = q.x.to_int()
    keep = (np.arange(1 << n) & xv) == np.arange(1 << n)
    value = float((np.abs(q.psi_minus) ** 2 * keep).sum())
    want1 = np.zeros(1 << (n + n0 + 1), dtype=complex)
    want1[np.arange(1 << n) | (xv << n) | (1 << (n + n0))] = q.psi_minus * keep / math.sqrt(value)
    assert np.max(np.abs(dec.psi1 - want1)) <= 1e-9
    want0 = np.zeros(1 << (n + n0 + 1), dtype=complex)
    want0[np.arange(1 << n) | (xv << n)] = q.psi_minus
    assert np.max(np.abs(dec.psi0 - want0)) <= 1e-9


def test_decomposition_zero_value_point():
    # all weight on y=11, so nothing lies below x=00 except the empty cell
    q = TransformQuery(Mode.MOBIUS, 2, np.array([0, 0, 0, 1.0]), BitString.from_str("00"))
    dec = decompose_signal(q, build_start_state(q))
    assert dec.psi1 is None
    assert abs(dec.z1) <= 1e-15
    assert dec.ratio == 0.0


def test_decomposition_rejects_tampered_state():
    q = _uniform_query(2, "11")
    state = build_start_state(q)
    amps = state.amplitudes.copy()
    amps[basis_index(q.layout, {"alpha_minus": 1, "alpha": 3})] += 1e-3
    with pytest.raises(DecompositionError):
        decompose_signal(q, StateVector(q.layout, amps))


def test_decomposition_rejects_layout_mismatch():
    q = _uniform_query(2, "11")
    other = build_start_state(_uniform_query(3, "111"))
    with pytest.raises(ValueError):
        decompose_signal(q, other)


# ---------------------------------------------------------------------------
# exact readout against independent classical transforms


def test_mobius_readout_matches_butterfly_all_points():
    for n in (1, 2, 3, 4):
        rng = np.random.default_rng(100 + n)
        amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        amps /= np.linalg.norm(amps)
        truth = zeta_fast(SubsetTable(n, np.abs(amps) ** 2)).values
        for x in range(1 << n):
            q = TransformQuery(Mode.MOBIUS, n, amps, BitString.from_int(x, n))
            assert abs(_exact_ratio(q) - truth[x]) <= 1e-10


def test_mobius_readout_matches_butterfly_spot_checks_n5():
    rng = np.random.default_rng(105)
    amps = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    amps /= np.linalg.norm(amps)
    truth = zeta_fast(SubsetTable(5, np.abs(amps) ** 2)).values
    for x in (0, 31, 5, 12, 26):
        q = TransformQuery(Mode.MOBIUS, 5, amps, BitString.from_int(x, 5))
        assert abs(_exact_ratio(q) - truth[x]) <= 1e-10


def test_marginal_readout_matches_explicit_sums():
    for n, n0 in ((4, 1), (4, 2), (4, 3), (6, 3)):
        rng = np.random.default_rng(200 + 10 * n + n0)
        probs = rng.random(1 << n)
        probs /= probs.sum()
        table = SubsetTable(n, probs)
        for x in range(1 << n0):
            want = sum(
                probs[y]
                for y in range(1 << n)
                if all((y >> j) & 1 == (x >> j) & 1 for j in range(n0))
            )
            q = TransformQuery.from_probability_table(
                Mode.MARGINAL, table, BitString.from_int(x, n0), n0=n0
            )
            assert abs(_exact_ratio(q) - want) <= 1e-10
            assert abs(classical_value(q) - want) <= 1e-12


def test_marginal_readout_sums_to_one_over_sweep():
    rng = np.random.default_rng(300)
    probs = rng.random(32)
    probs /= probs.sum()
    table = SubsetTable(5, probs)
    total = 0.0
    for x in range(8):
        q = TransformQuery.from_probability_table(
            Mode.MARGINAL, table, BitString.from_int(x, 3), n0=3
        )
        total += _exact_ratio(q)
    assert abs(total - 1.0) <= 1e-9
