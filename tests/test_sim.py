from __future__ import annotations

import math
import subprocess
import sys

import numpy as np
import pytest

from mobiusq.gates import (
    Circuit,
    Controlled,
    Hadamard,
    PauliX,
    QubitIs,
    StateVector,
    apply_circuit,
    basis_index,
    gate_qubits,
    gate_target_qubits,
    new_state,
    project,
    run_ops,
    sector,
    state_to_json_obj,
)
from mobiusq.sim import (
    MAX_QUBITS,
    Mode,
    Multiplexed,
    PhasePair,
    RegisterLayout,
    Ry,
    compile_state_prep,
    prepare_low_qubits,
)
from golden import ROOT, env
from oracle import (
    expand,
    layout_from_json_obj,
    per_prefix_state_prep,
    state_from_json_obj,
    table_amplitudes,
)

RNG = np.random.default_rng(20240817)


def _random_state(layout: RegisterLayout, rng=RNG) -> StateVector:
    amps = rng.standard_normal(1 << layout.total_qubits) + 1j * rng.standard_normal(
        1 << layout.total_qubits
    )
    return StateVector(layout, amps / np.linalg.norm(amps))


def _apply(state: StateVector, op) -> StateVector:
    return apply_circuit(state, Circuit(state.layout, (op,)))


def _matches(idx: np.ndarray, fixed: dict) -> np.ndarray:
    """Indices agreeing with a partial assignment {qubit: value}."""
    out = np.ones(idx.shape, dtype=bool)
    for q, v in fixed.items():
        out &= ((idx >> q) & 1) == v
    return out


def _full_matrix(op, total: int) -> np.ndarray:
    """Independent dense matrix for an op, built from kron products."""
    if isinstance(op, Controlled):
        indices = np.arange(1 << total, dtype=np.int64)
        pi = np.diag(_matches(indices, op.controls).astype(np.complex128))
        u = np.eye(1 << total, dtype=np.complex128)
        for inner in op.ops:
            u = _full_matrix(inner, total) @ u
        return np.eye(1 << total) - pi + u @ pi
    if isinstance(op, Hadamard):
        g = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
    elif isinstance(op, PauliX):
        g = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    elif isinstance(op, Ry):
        c, s = math.cos(op.theta / 2), math.sin(op.theta / 2)
        g = np.array([[c, -s], [s, c]], dtype=np.complex128)
    elif isinstance(op, PhasePair):
        g = np.diag([np.exp(1j * op.phi0), np.exp(1j * op.phi1)])
    else:  # pragma: no cover - defensive
        raise TypeError(op)
    return np.kron(np.eye(1 << (total - op.qubit - 1)), np.kron(g, np.eye(1 << op.qubit)))


# ---------------------------------------------------------------------------
# layouts


def test_mobius_layout_geometry():
    layout = RegisterLayout(Mode.MOBIUS, 3)
    assert layout.n0 == 3
    assert layout.total_qubits == 12
    regs = layout.registers
    assert regs["alpha_minus"] == range(0, 3)
    assert regs["alpha"] == range(3, 6)
    assert regs["beta"] == range(6, 9)
    assert regs["gamma"] == range(9, 10)
    assert regs["mu0"] == range(10, 11)
    assert regs["omega"] == range(11, 12)
    assert layout.gamma_qubit == 9
    assert layout.mu0_qubit == 10
    assert layout.omega_qubit == 11


def test_marginal_layout_geometry():
    layout = RegisterLayout(Mode.MARGINAL, 5, 3)
    assert layout.total_qubits == 14
    assert 1 << layout.total_qubits == 16384
    assert layout.register("alpha") == range(5, 8)
    assert layout.register("beta") == range(8, 11)


def test_layout_accepts_mode_strings():
    layout = RegisterLayout("mobius", 2)
    assert layout.mode is Mode.MOBIUS
    assert layout == RegisterLayout(Mode.MOBIUS, 2, 2)


def test_layout_validation():
    with pytest.raises(ValueError):
        RegisterLayout(Mode.MOBIUS, 0)
    with pytest.raises(ValueError):
        RegisterLayout(Mode.MOBIUS, 3, 2)  # mobius forces n0 == n
    with pytest.raises(ValueError):
        RegisterLayout(Mode.MARGINAL, 3)  # marginal needs explicit n0
    with pytest.raises(ValueError):
        RegisterLayout(Mode.MARGINAL, 3, 3)
    with pytest.raises(ValueError):
        RegisterLayout(Mode.MARGINAL, 3, 0)
    with pytest.raises(ValueError):
        RegisterLayout("nonsense", 3)


def test_layout_qubit_cap():
    # mobius: 3n + 3 qubits; n = 7 fits, n = 8 would need 27 > 26
    assert RegisterLayout(Mode.MOBIUS, 7).total_qubits == 24 <= MAX_QUBITS
    with pytest.raises(ValueError):
        RegisterLayout(Mode.MOBIUS, 8)


def test_layout_json_roundtrip():
    layout = RegisterLayout(Mode.MARGINAL, 6, 3)
    obj = layout.to_json_obj()
    assert obj["registers"]["omega"] == [14, 1]
    assert layout_from_json_obj(obj) == layout


def test_unknown_register_raises():
    with pytest.raises(KeyError):
        RegisterLayout(Mode.MOBIUS, 2).register("delta")


# ---------------------------------------------------------------------------
# gates against the dense-matrix oracle


def _random_1q_gate(total: int, rng) -> object:
    q = int(rng.integers(total))
    kind = rng.integers(4)
    if kind == 0:
        return Hadamard(q)
    if kind == 1:
        return PauliX(q)
    if kind == 2:
        return Ry(q, float(rng.uniform(-3, 3)))
    return PhasePair(q, float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))


def test_bare_gates_match_kron_matrices():
    layout = RegisterLayout(Mode.MOBIUS, 1)  # 6 qubits, 64 amplitudes
    total = layout.total_qubits
    rng = np.random.default_rng(7)
    for _ in range(40):
        op = _random_1q_gate(total, rng)
        state = _random_state(layout, rng)
        got = _apply(state, op).amplitudes
        want = _full_matrix(op, total) @ state.amplitudes
        assert np.max(np.abs(got - want)) <= 1e-12


def test_controlled_gates_match_projector_formula():
    layout = RegisterLayout(Mode.MOBIUS, 1)
    total = layout.total_qubits
    rng = np.random.default_rng(8)
    for _ in range(40):
        inner = _random_1q_gate(total, rng)
        choices = [q for q in range(total) if q not in gate_target_qubits(inner)]
        picks = rng.choice(choices, size=2, replace=False)
        controls = {int(q): int(rng.integers(2)) for q in picks}
        op = Controlled(controls, (inner,))
        state = _random_state(layout, rng)
        got = _apply(state, op).amplitudes
        want = _full_matrix(op, total) @ state.amplitudes
        assert np.max(np.abs(got - want)) <= 1e-12


# control sets on the 6-qubit layout, none reading qubits 2-3
CONTROL_CASES = [
    {4: 1},
    {5: 0, 1: 1},
    {0: 1, 1: 0, 5: 1},
    {0: 0, 1: 1, 4: 1, 5: 0},
    {},  # matches every state
]


@pytest.mark.parametrize("controls", CONTROL_CASES, ids=repr)
def test_controlled_over_each_control_set_matches_dense_oracle(controls):
    layout = RegisterLayout(Mode.MOBIUS, 1)
    total = layout.total_qubits
    rng = np.random.default_rng(11)
    for inner in (Hadamard(2), PauliX(3), Ry(2, 0.9), PhasePair(3, 0.4, -1.3)):
        op = Controlled(controls, (inner,))
        state = _random_state(layout, rng)
        got = _apply(state, op).amplitudes
        want = _full_matrix(op, total) @ state.amplitudes
        assert np.max(np.abs(got - want)) <= 1e-12


def test_controlled_with_several_ops_matches_dense_oracle():
    layout = RegisterLayout(Mode.MOBIUS, 1)
    total = layout.total_qubits
    rng = np.random.default_rng(12)
    op = Controlled({0: 1, 1: 0}, (Hadamard(2), Ry(3, 1.1), PhasePair(4, 0.3, -0.7), PauliX(2)))
    state = _random_state(layout, rng)
    got = _apply(state, op).amplitudes
    want = _full_matrix(op, total) @ state.amplitudes
    assert np.max(np.abs(got - want)) <= 1e-12


def test_gate_application_leaves_inputs_unchanged():
    layout = RegisterLayout(Mode.MOBIUS, 1)
    state = _random_state(layout, np.random.default_rng(13))
    before = state.amplitudes.copy()
    op = Controlled({5: 1}, (Hadamard(2), PauliX(3)))
    apply_circuit(state, Circuit(layout, (op, PauliX(0), Ry(1, 0.3))))
    project(state, {0: 1, 4: 0})
    assert np.array_equal(state.amplitudes, before)


def test_sector_ravel_matches_mask_gather_and_writes_through():
    layout = RegisterLayout(Mode.MOBIUS, 1)
    state = _random_state(layout, np.random.default_rng(14))
    idx = np.arange(1 << layout.total_qubits)
    for fixed in ({}, {5: 1}, {0: 1, 3: 0}, {4: 0, 2: 1, 1: 1}, {q: q & 1 for q in range(6)}):
        want = state.amplitudes[_matches(idx, fixed)]
        assert np.array_equal(sector(state, fixed).ravel(), want)
    sector(state, {5: 1, 0: 0})[...] = 0.0
    assert np.all(state.amplitudes[_matches(idx, {5: 1, 0: 0})] == 0.0)


def test_prepare_low_qubits_matches_full_state_run():
    layout = RegisterLayout(Mode.MOBIUS, 3)
    rng = np.random.default_rng(15)
    target = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    ops = compile_state_prep(target / np.linalg.norm(target))
    full = apply_circuit(new_state(layout), Circuit(layout, ops)).amplitudes
    low = prepare_low_qubits(ops, 3)
    assert np.array_equal(low, full[:8])
    assert prepare_low_qubits((op for op in ops), 3).tobytes() == low.tobytes()
    with pytest.raises(ValueError, match="outside the low 2"):
        prepare_low_qubits(ops, 2)


@pytest.mark.parametrize("ops", [
    (Ry(0, 0.3), Ry(1, 0.2)),
    (Ry(0, 0.3), Multiplexed(0, Ry, ((0.2,), (0.4,)))),
    (PhasePair(0, 0.1, 0.2), Ry(0, 0.3)),
    (PhasePair(1, 0.1, 0.2),),
    (Hadamard(0),),
    (Controlled({1: 1}, (Ry(0, 0.3),)),),
], ids=["ascending", "one-qubit-twice", "phase-first", "phase-on-1", "hadamard", "controlled"])
def test_prepare_low_qubits_takes_only_the_levels_in_order(ops):
    """The product tree reads Ry levels down from the top qubit, then one phase level on qubit 0."""
    with pytest.raises(ValueError) as info:
        prepare_low_qubits(ops, 2)
    assert str(ops[-1]) in str(info.value)  # the op that breaks the order, or is no level


def test_prepare_low_qubits_keeps_a_negative_zero_row_the_identity():
    """sin(-0.0) is -0.0: a -0.0 row must leave the fresh qubit at +0.0, as its expansion does."""
    ops = (Ry(1, 0.7), Multiplexed(0, Ry, ((0.3,), (-0.0,))))
    full = np.zeros(4, dtype=np.complex128)
    full[0] = 1.0
    run_ops(full, expand(ops))
    assert prepare_low_qubits(ops, 2).tobytes() == full.tobytes()


def test_controlled_matrix_is_unitary():
    layout = RegisterLayout(Mode.MOBIUS, 1)
    total = layout.total_qubits
    op = Controlled({0: 0, 1: 1}, (Hadamard(2), Ry(3, 1.1), PhasePair(4, 0.3, -0.7)))
    mat = np.column_stack(
        [
            _apply(StateVector(layout, np.eye(1 << total)[:, j]), op).amplitudes
            for j in range(1 << total)
        ]
    )
    assert np.max(np.abs(mat.conj().T @ mat - np.eye(1 << total))) <= 1e-12


def test_cnot_truth_table():
    layout = RegisterLayout(Mode.MOBIUS, 1)
    cnot = Controlled({0: 1}, (PauliX(1),))
    for control in (0, 1):
        for target in (0, 1):
            amps = np.zeros(1 << layout.total_qubits, dtype=complex)
            amps[control | (target << 1)] = 1.0
            out = _apply(StateVector(layout, amps), cnot).amplitudes
            want_target = target ^ control
            assert abs(out[control | (want_target << 1)] - 1.0) <= 1e-15


def test_controlled_requires_disjoint_controls_and_targets():
    with pytest.raises(ValueError, match="overlap"):
        Controlled({3: 1}, (PauliX(3),))
    with pytest.raises(ValueError, match="overlap"):
        Controlled({0: 1, 4: 0, 3: 1}, (Hadamard(2), Ry(3, 0.5)))
    with pytest.raises(ValueError):
        Controlled({3: 1}, ())


def test_controlled_rejects_values_other_than_0_or_1():
    for value in (2, -1, 0.5):
        with pytest.raises(ValueError, match="0 or 1"):
            Controlled({0: value}, (PauliX(1),))


def test_controlled_rejects_nested_controlled():
    inner = Controlled({0: 1}, (Hadamard(3),))
    for ops in ((inner,), (Hadamard(2), inner), (inner, PauliX(4))):
        with pytest.raises(ValueError, match="do not nest"):
            Controlled({5: 1}, ops)
    # the flat form of the same control is accepted and reads both qubits
    flat = Controlled({5: 1, 0: 1}, (Hadamard(3),))
    assert gate_qubits(flat) == frozenset((0, 3, 5))


def test_controlled_is_frozen_hashable_and_compared_by_value():
    controls = {5: 1, 6: 0}
    op = Controlled(controls, (Hadamard(1), PauliX(2)))
    same = Controlled({6: 0, 5: 1}, (Hadamard(1), PauliX(2)))
    assert op == same and hash(op) == hash(same) and len({op, same}) == 1
    assert op != Controlled({5: 1, 6: 1}, (Hadamard(1), PauliX(2)))
    assert op != Controlled(controls, (PauliX(2), Hadamard(1)))
    controls[7] = 1  # the gate keeps its own copy
    assert op == same
    with pytest.raises(TypeError):
        op.controls[7] = 1
    with pytest.raises(AttributeError):
        op.controls = {}


def test_gate_qubit_helpers():
    op = Controlled({5: 1, 6: 0}, (Hadamard(1), PauliX(2)))
    assert gate_target_qubits(op) == frozenset((1, 2))
    assert gate_qubits(op) == frozenset((1, 2, 5, 6))


def test_gate_application_is_linear():
    layout = RegisterLayout(Mode.MOBIUS, 1)
    rng = np.random.default_rng(9)
    a, b = _random_state(layout, rng), _random_state(layout, rng)
    op = Controlled({5: 1}, (Ry(2, 0.77),))
    combo = StateVector(layout, 0.6 * a.amplitudes + 0.8j * b.amplitudes)
    got = _apply(combo, op).amplitudes
    want = 0.6 * _apply(a, op).amplitudes + 0.8j * _apply(b, op).amplitudes
    assert np.max(np.abs(got - want)) <= 1e-12


def test_out_of_range_qubits_raise():
    layout = RegisterLayout(Mode.MOBIUS, 1)
    with pytest.raises(ValueError):
        Circuit(layout, (Hadamard(layout.total_qubits),))
    with pytest.raises(ValueError):
        Circuit(layout, (PauliX(99),))
    with pytest.raises(ValueError):
        Circuit(layout, (Controlled({-1: 0}, (PauliX(0),)),))


def test_norm_survives_long_random_circuits():
    layout = RegisterLayout(Mode.MOBIUS, 1)
    total = layout.total_qubits
    rng = np.random.default_rng(10)
    ops = []
    for _ in range(10_000):
        inner = _random_1q_gate(total, rng)
        if rng.random() < 0.3:
            choices = [q for q in range(total) if q not in gate_target_qubits(inner)]
            ops.append(Controlled({int(rng.choice(choices)): 1}, (inner,)))
        else:
            ops.append(inner)
    # apply_circuit itself raises if the norm drifts by more than 1e-9
    out = apply_circuit(_random_state(layout, rng), Circuit(layout, tuple(ops)))
    assert abs(out.norm - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# states, projection, measurement


def test_new_state_and_basis_index():
    layout = RegisterLayout(Mode.MARGINAL, 3, 1)
    state = new_state(layout)
    assert state.norm == 1.0
    assert state.amplitudes[0] == 1.0
    idx = basis_index(layout, {"alpha_minus": 5, "alpha": 1, "omega": 1})
    assert idx == 5 | (1 << 3) | (1 << 3 + 2 + 2)
    with pytest.raises(ValueError):
        basis_index(layout, {"alpha": 2})
    with pytest.raises(KeyError):
        basis_index(layout, {"nope": 0})


def test_state_shape_validation():
    layout = RegisterLayout(Mode.MOBIUS, 1)
    with pytest.raises(ValueError):
        StateVector(layout, np.ones(7))


def test_project_splits_norm():
    layout = RegisterLayout(Mode.MOBIUS, 1)
    state = _apply(new_state(layout), Hadamard(layout.gamma_qubit))
    inside, norm = project(state, {layout.gamma_qubit: 1})
    outside, norm0 = project(state, {layout.gamma_qubit: 0})
    assert abs(norm - math.sqrt(0.5)) <= 1e-12
    assert abs(norm0 - math.sqrt(0.5)) <= 1e-12
    assert np.max(np.abs(inside.amplitudes + outside.amplitudes - state.amplitudes)) == 0.0


@pytest.mark.parametrize("fixed", CONTROL_CASES, ids=repr)
def test_project_keeps_exactly_the_matching_amplitudes(fixed):
    layout = RegisterLayout(Mode.MOBIUS, 1)
    state = _random_state(layout, np.random.default_rng(16))
    hit = _matches(np.arange(1 << layout.total_qubits), fixed)
    comp, norm = project(state, fixed)
    assert np.array_equal(comp.amplitudes[hit], state.amplitudes[hit])
    assert np.all(comp.amplitudes[~hit] == 0.0)
    assert abs(norm - np.linalg.norm(state.amplitudes[hit])) <= 1e-15


def test_qubit_is_shim_is_a_one_entry_assignment():
    # perfbench/tracer.py reads the omega=0 mass as project(final, QubitIs(omega, 0))
    layout = RegisterLayout(Mode.MOBIUS, 1)
    assert QubitIs(layout.omega_qubit, 0) == {layout.omega_qubit: 0}
    state = _random_state(layout, np.random.default_rng(17))
    _, via_shim = project(state, QubitIs(layout.omega_qubit, 0))
    _, direct = project(state, {layout.omega_qubit: 0})
    assert via_shim == direct


def test_apply_circuit_checks_layout():
    s = new_state(RegisterLayout(Mode.MOBIUS, 2))
    circ = Circuit(RegisterLayout(Mode.MOBIUS, 3), (Hadamard(0),))
    with pytest.raises(ValueError):
        apply_circuit(s, circ)
    # a NaN angle turns the whole state NaN, and a NaN norm is a drift like any other
    s = new_state(RegisterLayout(Mode.MOBIUS, 1))
    with pytest.raises(RuntimeError, match="norm drifted from 1.0 to nan"):
        apply_circuit(s, Circuit(s.layout, (Ry(0, float("nan")),)))


def test_state_json_roundtrip():
    layout = RegisterLayout(Mode.MARGINAL, 2, 1)
    state = _random_state(layout)
    back = state_from_json_obj(state_to_json_obj(state))
    assert back.layout == layout
    assert np.max(np.abs(back.amplitudes - state.amplitudes)) <= 1e-15


def test_state_json_takes_only_json_numbers():
    """A --dump-state file is read by the rules of every other JSON input."""
    good = state_to_json_obj(new_state(RegisterLayout(Mode.MARGINAL, 2, 1)))
    for key, bad in [("n", True), ("n", 2.9), ("n", "2"), ("n0", 1.0)]:
        obj = {**good, "layout": {**good["layout"], key: bad}}
        with pytest.raises(ValueError, match=f"'{key}' must be an integer"):
            state_from_json_obj(obj)
    for bad in ([True, 0.0], ["1", 0], [1.0, 0.0, 7.0]):
        obj = {**good, "amplitudes": [bad] + good["amplitudes"][1:]}
        with pytest.raises(ValueError, match=r"'amplitudes'\[0\]"):
            state_from_json_obj(obj)


# ---------------------------------------------------------------------------
# state preparation


def test_uniform_register_prep_uses_two_plain_rotations():
    ops = compile_state_prep(np.full(4, 0.5))
    assert len(ops) == 2
    assert all(isinstance(op, Ry) for op in ops)
    assert np.allclose(np.abs(prepare_low_qubits(ops, 2)) ** 2, 0.25)


def test_basis_state_prep_is_empty():
    target = np.zeros(4)
    target[0] = 1.0
    assert len(compile_state_prep(target)) == 0


def test_state_prep_roundtrip_complex():
    rng = np.random.default_rng(21)
    for k in range(1, 6):
        layout = RegisterLayout(Mode.MOBIUS, k)
        target = rng.standard_normal(1 << k) + 1j * rng.standard_normal(1 << k)
        target /= np.linalg.norm(target)
        out = apply_circuit(new_state(layout), Circuit(layout, compile_state_prep(target)))
        got = out.amplitudes[: 1 << k]
        assert np.max(np.abs(got - target)) <= 1e-10
        # nothing outside the register moved
        assert np.max(np.abs(out.amplitudes[1 << k :])) == 0.0


@pytest.mark.parametrize("k", range(1, 6))
def test_state_prep_touches_only_the_low_qubits(k):
    rng = np.random.default_rng(30 + k)
    target = rng.standard_normal(1 << k) + 1j * rng.standard_normal(1 << k)
    ops = compile_state_prep(target / np.linalg.norm(target))
    assert ops
    for op in ops:
        assert gate_qubits(op) <= frozenset(range(k))
        if isinstance(op, Controlled):
            assert all(not isinstance(inner, Controlled) for inner in op.ops)


def test_state_prep_with_zeros_and_signs():
    layout = RegisterLayout(Mode.MOBIUS, 2)
    target = np.array([0.6, 0.0, -0.8, 0.0])
    out = apply_circuit(new_state(layout), Circuit(layout, compile_state_prep(target)))
    assert np.max(np.abs(out.amplitudes[:4] - target)) <= 1e-12


def test_state_prep_rejects_unnormalized():
    for unnormalized in (np.array([1.0, 1.0, 0.0, 0.0]), np.array([np.nan, 0.0, 0.0, 0.0])):
        with pytest.raises(ValueError, match="norm"):
            compile_state_prep(unnormalized)
    for wrong_length in (np.ones(3) / math.sqrt(3), np.ones(1), np.ones((2, 2)) / 2.0):
        with pytest.raises(ValueError, match="2\\*\\*k amplitudes"):
            compile_state_prep(wrong_length)


@pytest.mark.parametrize("kind", ["complex", "real", "zeros", "tiny", "uniform", "basis"])
def test_level_gates_equal_the_per_prefix_gates_they_replace(kind):
    """Each Multiplexed level is its per-prefix Controlled gates: the same gates, the same amplitude bits."""
    rng = np.random.default_rng(40 + len(kind))
    for k in range(1, 13):
        target = table_amplitudes(kind, k, rng)
        ops = compile_state_prep(target)
        expanded = expand(ops)
        assert expanded == per_prefix_state_prep(target)
        # the expansion runs through the gate model's Controlled path, not the level kernel
        full = np.zeros(1 << k, dtype=np.complex128)
        full[0] = 1.0
        run_ops(full, expanded)
        assert prepare_low_qubits(ops, k).tobytes() == full.tobytes()


def _lower_dispatch_levels() -> list[str]:
    """NPY_DISABLE_CPU_FEATURES values that step numpy down through each dispatch level this host runs.

    Each disables a suffix of numpy's dispatch targets, those this host has;
    numpy refuses to start if a baseline or unknown feature is disabled.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        try:
            from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        except ImportError:
            return []
    offered = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    return [" ".join(offered[i:]) for i in range(len(offered))]


# the byte-equality checks of the product tree and of gather against the gate model
BYTE_CHECKS = (
    "tests/test_sim.py::test_level_gates_equal_the_per_prefix_gates_they_replace",
    "tests/test_sim.py::test_prepare_low_qubits_keeps_a_negative_zero_row_the_identity",
    "tests/test_circuits.py::test_start_state_is_build_start_state_at_every_x",
)


@pytest.mark.parametrize("disabled", _lower_dispatch_levels(), ids=lambda d: "without-" + d.split()[0])
def test_prep_bytes_equal_the_gate_model_at_each_lower_dispatch_level(disabled):
    """Both sides of each check run in one process, so they must agree whichever kernels numpy picks."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *BYTE_CHECKS],
        cwd=ROOT,
        env={**env(), "NPY_DISABLE_CPU_FEATURES": disabled},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-1000:]


@pytest.mark.parametrize("kind", ["complex", "real", "zeros"])
def test_state_prep_is_one_gate_per_level_plus_the_phases(kind):
    rng = np.random.default_rng(50 + len(kind))
    for k in range(1, 13):
        ops = compile_state_prep(table_amplitudes(kind, k, rng))
        assert len(ops) <= k + 1
        assert all(isinstance(op, (Ry, PhasePair, Multiplexed)) for op in ops)


def test_multiplexed_gate_on_a_full_state_matches_its_expansion():
    """Qubits above and below the level, and a skipped row, on a random state."""
    layout = RegisterLayout(Mode.MARGINAL, 3, 1)
    state = _random_state(layout)
    for op, touched in (
        (Multiplexed(2, Ry, ((0.3,), (0.0,), (-1.2,), (2.9,))), {2, 3, 4}),
        (Multiplexed(1, PhasePair, ((0.4, -1.3), (0.0, 2.2))), {1, 2}),
        (Multiplexed(0, Ry, ((0.0,), (-0.0,))), {0, 1}),
    ):
        assert gate_target_qubits(op) == frozenset({op.qubit})
        assert gate_qubits(op) == frozenset(touched)
        assert op.params.dtype == np.float64 and not op.params.flags.writeable
        got = _apply(state, op).amplitudes
        want = apply_circuit(state, Circuit(layout, expand([op]))).amplitudes
        assert got.tobytes() == want.tobytes()
    for gate, rows in ((Ry, ((0.1,),) * 3), (Ry, ((0.1,),)), (Hadamard, ((), ())),
                       (PhasePair, ((0.4,), (0.5,))), (Ry, ((0.1, 0.2), (0.3, 0.4)))):
        with pytest.raises(ValueError, match="2\\*\\*m >= 2 rows"):
            Multiplexed(0, gate, rows)
