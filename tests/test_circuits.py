from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest

import mobiusq.circuits as circuits_mod
from mobiusq.circuits import (
    Support,
    DecompositionError,
    TransformQuery,
    build_start_circuit,
    classical_value,
    gather,
    read_out_at,
)
from mobiusq.gates import (
    Circuit,
    Controlled,
    Hadamard,
    PauliX,
    StateVector,
    apply_circuit,
    basis_index,
    build_comparator,
    build_start_state,
    compile_state_prep,
    new_state,
    sector,
)
from mobiusq.layout import Mode
from mobiusq.subset import BitString, SubsetTable, zeta_fast
from mobiusq.verify import circuit_coefficient, decompose_signal
from oracle import mark_oracle, register_values, table_amplitudes, unmarked_oracle


def _exact_ratio(q: TransformQuery) -> float:
    """Transform value read off the start state's sector amplitudes."""
    return decompose_signal(q, gather(q)).ratio


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


def test_query_json_roundtrip():
    q = _random_query(Mode.MARGINAL, 3, "10", n0=2, seed=5)
    back = TransformQuery.from_json_obj(json.loads(json.dumps(q.to_json_obj())))
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
    kinds = [type(op) for op in circ.ops]
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


@pytest.mark.parametrize("mode,n,n0", [(Mode.MOBIUS, 3, None), (Mode.MARGINAL, 4, 2)])
def test_comparator_xs_permute_basis_indices_exactly(mode, n, n0):
    """Without its Hadamards the comparator only relabels amplitudes.

    Mobius: beta_j ^= am_j & ~al_j.  Marginal: beta_j ^= am_j ^ al_j, built
    from two controlled X's whose swaps cancel where both bits are 1.
    """
    q = _random_query(mode, n, "1" * (n0 or n), n0=n0, seed=n)
    layout = q.layout
    am, al, be = (layout.register(r) for r in ("alpha_minus", "alpha", "beta"))
    xs = tuple(op for op in build_comparator(q).ops if isinstance(op, Controlled))
    rng = np.random.default_rng(40 + n)
    size = 1 << layout.total_qubits
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    state = StateVector(layout, amps / np.linalg.norm(amps))
    got = apply_circuit(state, Circuit(layout, xs)).amplitudes
    idx = np.arange(size)
    source = idx.copy()
    for j in range(layout.n0):
        a, b = (idx >> am[j]) & 1, (idx >> al[j]) & 1
        source ^= (a & (1 - b) if mode is Mode.MOBIUS else a ^ b) << be[j]
    assert np.array_equal(got, state.amplitudes[source])


def test_comparator_coefficients_all_eight():
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
        assert circuit_coefficient(src, smp, mode) == value
    with pytest.raises(ValueError):
        circuit_coefficient(2, 0, Mode.MOBIUS)


# ---------------------------------------------------------------------------
# start state


def test_mark_controls_fix_alpha_to_x_and_beta_to_zero():
    q = _random_query(Mode.MARGINAL, 4, "10", n0=2, seed=2)
    layout = q.layout
    al, be = layout.register("alpha"), layout.register("beta")
    assert build_start_circuit(q).ops[-1].controls == {al[0]: 0, al[1]: 1, be[0]: 0, be[1]: 0}


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


def _assert_copies(support, unmarked: StateVector) -> None:
    """Every nonzero amplitude of the unmarked state is g[a] of its alpha_minus value a, byte for byte.

    There are 2 * 2**n0 of them per entry of the support: one per (alpha, mu0) value.
    """
    layout = support.layout
    g = np.zeros(1 << layout.n, dtype=np.complex128)
    g[support.alpha_minus] = support.amplitudes
    nonzero = np.flatnonzero(unmarked.amplitudes)
    assert unmarked.amplitudes[nonzero].tobytes() == g[register_values(layout, "alpha_minus", nonzero)].tobytes()
    assert nonzero.size == support.alpha_minus.size << (layout.n0 + 1)
    assert np.all(support.amplitudes != 0)


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
        _assert_copies(gather(q), unmarked_oracle(q))


@pytest.mark.parametrize("mode,n,n0", [(Mode.MOBIUS, 3, None), (Mode.MARGINAL, 4, 2), (Mode.MARGINAL, 5, 3)])
def test_gather_keeps_one_entry_per_alpha_minus_alpha_mu0(mode, n, n0):
    """A table with no zero: one support entry per alpha_minus value stands for 2**(n+n0+1) copies.

    Each copy sits at one (alpha_minus, alpha, mu0) value, at omega=1, with
    gamma = mu0 and beta the comparator's mismatch bits, and the target at x
    is exactly what the mark moves to omega=0.
    """
    q = _random_query(mode, n, "1" * (n0 or n), n0=n0, seed=22)
    support = gather(q)
    unmarked = unmarked_oracle(q)
    layout = q.layout
    assert np.array_equal(support.alpha_minus, np.arange(1 << n))
    _assert_copies(support, unmarked)
    index = np.flatnonzero(unmarked.amplitudes)
    a, alpha, mu0 = (register_values(layout, r, index) for r in ("alpha_minus", "alpha", "mu0"))
    slot = a | alpha << n | mu0 << (n + layout.n0)
    assert np.array_equal(np.sort(slot), np.arange(1 << (n + layout.n0 + 1)))
    assert np.all(register_values(layout, "omega", index) == 1)
    assert np.array_equal(register_values(layout, "gamma", index), mu0)
    mismatch = a & ~alpha if mode is Mode.MOBIUS else (a & ((1 << layout.n0) - 1)) ^ alpha
    assert np.array_equal(register_values(layout, "beta", index), mismatch * mu0)
    # the target at x: every a at (alpha = x, mu0 = 0), and at mu0 = 1 where keep holds
    moved = np.flatnonzero(sector(mark_oracle(unmarked, q), {layout.omega_qubit: 0}).ravel())
    on = (alpha == q.x.to_int()) & ((mu0 == 0) | support.keep(q.x)[a])
    assert np.array_equal(np.sort(index[on] ^ (1 << layout.omega_qubit)), moved)
    with pytest.raises(ValueError, match="expected n0"):
        support.keep(BitString.from_int(0, layout.n0 + 1))


def test_gather_refuses_a_build_off_the_unit_norm(monkeypatch):
    q = _random_query(Mode.MOBIUS, 2, "11", seed=23)
    prepare = circuits_mod.prepare
    monkeypatch.setattr(circuits_mod, "prepare", lambda target: 2.0 * prepare(target))
    with pytest.raises(DecompositionError, match="start state norm is 1.99"):
        gather(q)


def test_gather_peaks_far_below_the_dense_state():
    """A marginal n=14/n0=2 build: its dense state would take 2**21 * 16 B = 32 MiB.

    The prep builds its amplitudes as products, with no qubit view and no zeroed
    array, and reads its angles in place, so the build peaks under 2.8 times
    its support.  The readout on it reads every sum's terms in place, one
    weighted copy at a time, so it peaks under 6.5 times the support.
    """
    q = TransformQuery(Mode.MARGINAL, 14, table_amplitudes("complex", 14, np.random.default_rng(14)),
                       BitString.from_str("01"), 2)
    tracemalloc.start()
    try:
        support = gather(q)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        read_out_at(support, q.x)
        readout_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    support_bytes = support.amplitudes.nbytes + support.alpha_minus.nbytes
    assert support.alpha_minus.size == 1 << 14
    assert peak < 6 << 20
    assert peak < 2.8 * support_bytes
    assert readout_peak < 6.5 * support_bytes


@pytest.mark.parametrize("kind", ["complex", "real", "zeros", "uniform", "basis"])
@pytest.mark.parametrize(
    "mode,n,n0",
    [(Mode.MOBIUS, n, None) for n in range(1, 6)]
    + [(Mode.MARGINAL, 3, 1), (Mode.MARGINAL, 4, 2), (Mode.MARGINAL, 5, 3), (Mode.MARGINAL, 6, 2)],
    ids=lambda v: v.value if isinstance(v, Mode) else str(v),
)
def test_start_state_is_build_start_state_at_every_x(mode, n, n0, kind):
    """The support scattered back and marked is the gate-by-gate build, byte for byte, with no -0.0."""
    rng = np.random.default_rng(60 + 10 * n + (n0 or 0))
    amps = table_amplitudes(kind, n, rng)
    width = n0 or n
    q = TransformQuery(mode, n, amps, BitString.from_int(0, width), n0)
    support = gather(q)
    # the unmarked ops do not read x: one gate-by-gate run serves the mark at every x
    unmarked = unmarked_oracle(q)
    for xv in range(1 << width):
        x = BitString.from_int(xv, width)
        got = support.start_state(x)
        want = mark_oracle(unmarked, TransformQuery(mode, n, amps, x, n0))
        assert got.layout == want.layout
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
        parts = got.amplitudes.view(np.float64)
        assert not np.any(np.signbit(parts) & (parts == 0.0))
    with pytest.raises(ValueError, match="expected n0"):
        support.start_state(BitString.from_int(1, width + 1))


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
    al, be = q.layout.register("alpha"), q.layout.register("beta")
    assert last.controls == {al[0]: 1, al[1]: 0, be[0]: 0, be[1]: 0}


# ---------------------------------------------------------------------------
# sector decomposition


def test_decomposition_uniform_full_box():
    q = _uniform_query(3, "111")
    dec = decompose_signal(q, gather(q))
    assert abs(dec.z0 - 0.25) <= 1e-12
    assert abs(dec.z1 - 0.25) <= 1e-12
    assert abs(dec.chi_norm**2 - 0.875) <= 1e-12
    assert abs(dec.ratio - 1.0) <= 1e-12


def test_decomposition_uniform_origin():
    q = _uniform_query(3, "000")
    dec = decompose_signal(q, gather(q))
    assert abs(dec.z0 - 0.25) <= 1e-12
    assert abs(dec.z1 - 0.25 * math.sqrt(1.0 / 8.0)) <= 1e-12
    assert abs(dec.ratio - 0.125) <= 1e-12


def test_decomposition_marginal_frozen():
    vals = np.arange(1.0, 17.0)
    vals /= vals.sum()
    q = TransformQuery.from_probability_table(
        Mode.MARGINAL, SubsetTable(4, vals), BitString.from_str("000"), n0=3
    )
    dec = decompose_signal(q, gather(q))
    assert abs(dec.z0 - 0.25) <= 1e-12
    assert abs(dec.ratio - 10.0 / 136.0) <= 1e-12


def test_decomposition_base_depends_only_on_n0():
    q = _random_query(Mode.MOBIUS, 4, "0110", seed=11)
    dec = decompose_signal(q, gather(q))
    assert abs(dec.z0 - 2.0 ** (-5.0 / 2.0)) <= 1e-12


def test_sector_vectors_are_orthonormal_and_theta_weighted():
    """z1 and z0 weigh the two omega=0 sectors as predicted; the sector vectors are held by the residual checks."""
    q = _random_query(Mode.MOBIUS, 3, "101", seed=12)
    support = gather(q)
    dec = decompose_signal(q, support)
    xv = q.x.to_int()
    keep = (np.arange(1 << q.n) & xv) == np.arange(1 << q.n)
    value = float((np.abs(q.psi_minus) ** 2 * keep).sum())
    base = 2.0 ** (-(q.n0 + 1) / 2.0)
    assert abs(dec.z0 - base) <= 1e-12
    assert abs(dec.z1 - base * math.sqrt(value)) <= 1e-12
    assert abs(dec.ratio - value) <= 1e-12
    assert abs(abs(dec.z1) ** 2 + abs(dec.z0) ** 2 + dec.chi_norm**2 - 1.0) <= 1e-12
    # a sign flip in one row keeps every mass but strays from the predicted vector of each
    # sector it is in: the gamma=0 sector only for a row the value does not add up
    kept = support.keep(q.x)
    for gamma, row in ((0, np.flatnonzero(~kept)[0]), (1, np.flatnonzero(kept)[0])):
        amps = support.amplitudes.copy()
        amps[row] *= -1
        with pytest.raises(DecompositionError, match=f"gamma={gamma} sector residual"):
            decompose_signal(q, Support(support.layout, support.alpha_minus, amps))


def test_decomposition_zero_value_point():
    # all weight on y=11, so nothing lies below x=00 except the empty cell
    q = TransformQuery(Mode.MOBIUS, 2, np.array([0, 0, 0, 1.0]), BitString.from_str("00"))
    dec = decompose_signal(q, gather(q))
    assert abs(dec.z1) <= 1e-15
    assert dec.ratio == 0.0


def test_decomposition_rejects_tampered_state():
    q = _uniform_query(2, "11")
    support = gather(q)
    amps = support.amplitudes.copy()
    amps[support.alpha_minus == 1] += 1e-3
    with pytest.raises(DecompositionError):
        decompose_signal(q, Support(support.layout, support.alpha_minus, amps))


def test_decomposition_rejects_layout_mismatch():
    q = _uniform_query(2, "11")
    other = gather(_uniform_query(3, "111"))
    with pytest.raises(ValueError):
        decompose_signal(q, other)


@pytest.mark.parametrize("kind", ["complex", "real", "zeros", "uniform", "basis"])
def test_support_decomposition_reads_the_dense_sectors(kind):
    """z0, z1 and chi_norm match the gate-by-gate start state's sectors, bit for bit.

    z0 and z1 are the claims' vdots with the omega=0 sectors.  chi_norm is the square root of the
    omega=1 sector's correctly rounded mass; the dense state's zeros add nothing to that sum.
    """
    rng = np.random.default_rng(60 + len(kind))
    cases = [(Mode.MOBIUS, n, None) for n in range(1, 6)]
    cases += [(Mode.MARGINAL, n, n0) for n in range(2, 6) for n0 in range(1, n)]
    for mode, n, n0 in cases:
        x = BitString.from_int(int(rng.integers(1 << (n0 or n))), n0 or n)
        q = TransformQuery(mode, n, table_amplitudes(kind, n, rng), x, n0)
        dec = decompose_signal(q, gather(q))
        dense, keep = mark_oracle(unmarked_oracle(q), q), circuits_mod._keep(q.layout, x, np.arange(1 << n))
        om, ga = q.layout.omega_qubit, q.layout.gamma_qubit
        beta_clear = dict.fromkeys(q.layout.register("beta"), 0)
        claims = np.zeros((2, 2, 1 << q.n0, 1 << n), dtype=complex)  # gamma, mu0, alpha, alpha_minus
        claims[0, 0, x.to_int()] = q.psi_minus
        claims[1, 1, x.to_int()] = q.psi_minus * keep
        value = float((np.abs(q.psi_minus) ** 2 * keep).sum())
        claims[1] /= math.sqrt(value) if value > 0 else 1.0
        for g, z in enumerate((dec.z0, dec.z1)):
            assert z == np.vdot(claims[g].ravel(), sector(dense, {om: 0, ga: g, **beta_clear}).ravel())
        chi = math.sqrt(math.fsum(np.square(sector(dense, {om: 1}).ravel().view(np.float64)).tolist()))
        assert dec.chi_norm == chi


def test_decomposition_holds_at_its_tolerance_as_n_grows():
    """The 1e-9 sector checks at every x of mobius n=1..7 and at the corner x of marginal n0=2, n=8..16.

    Complex tables; README "Limits" records the worst errors per n.
    """
    cases = [(Mode.MOBIUS, n, None, range(1 << n)) for n in range(1, 8)]
    cases += [(Mode.MARGINAL, n, 2, (0, 3)) for n in (8, 12, 16)]
    for mode, n, n0, points in cases:
        amps = table_amplitudes("complex", n, np.random.default_rng(900 + n))
        width = n0 or n
        support = gather(TransformQuery(mode, n, amps, BitString.from_int(0, width), n0))
        base = 2.0 ** (-(width + 1) / 2.0)
        for xv in points:
            q = TransformQuery(mode, n, amps, BitString.from_int(xv, width), n0)
            dec = decompose_signal(q, support)  # raises DecompositionError past 1e-9
            assert abs(dec.z0 - base) <= 1e-9
            assert abs(dec.ratio - classical_value(q)) <= 1e-9


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
