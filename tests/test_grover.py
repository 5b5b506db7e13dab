from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from mobiusq.circuits import (
    TransformQuery,
    build_start_state,
    build_unmarked_state,
    classical_value,
    decompose_signal,
)
from mobiusq.grover import (
    GroverPlan,
    Readout,
    amplify,
    estimate_exact,
    estimate_sampled,
    grover_step,
    plan_grover,
    read_out,
)
from mobiusq.sim import Mode, RegisterLayout, StateVector, project
from mobiusq.subset import BitString, SubsetTable


def _uniform_query(n: int, x: str) -> TransformQuery:
    amps = np.full(1 << n, 2.0 ** (-n / 2.0))
    return TransformQuery(Mode.MOBIUS, n, amps, BitString.from_str(x))


def _two_level_state(a: float) -> StateVector:
    """Minimal state with omega=0 weight a and omega=1 weight sqrt(1-a*a)."""
    layout = RegisterLayout(Mode.MOBIUS, 1)
    amps = np.zeros(1 << layout.total_qubits, dtype=complex)
    amps[0] = a
    amps[1 << layout.omega_qubit] = math.sqrt(1.0 - a * a)
    return StateVector(layout, amps)


# ---------------------------------------------------------------------------
# planning


def test_plan_keeps_zero_iterations_at_half_overlap():
    plan = plan_grover(_two_level_state(1.0 / math.sqrt(2.0)))
    assert plan.iterations == 0
    assert abs(plan.predicted_success - 0.5) <= 1e-12


def test_plan_frozen_quarter_overlap():
    plan = plan_grover(_two_level_state(0.25))
    assert plan.iterations == 3
    assert abs(plan.overlap - 0.25) <= 1e-15
    assert abs(plan.predicted_success - 0.9613189697265625) <= 1e-12


def test_plan_overlap_is_the_projected_norm():
    rng = np.random.default_rng(33)
    for n in (2, 3, 4, 5):
        amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        q = TransformQuery(Mode.MOBIUS, n, amps / np.linalg.norm(amps), BitString.from_int(n, n))
        start = build_start_state(q)
        _, a = project(start, {start.layout.omega_qubit: 0})
        plan = plan_grover(start)
        assert abs(plan.overlap - a) <= 1e-15


def test_plan_rejects_unreachable_target():
    with pytest.raises(ValueError, match="unreachable"):
        plan_grover(_two_level_state(0.0))


# ---------------------------------------------------------------------------
# the amplification step


def test_step_frozen_two_level_case():
    # start (0.6, 0.8): negate omega=1 then reflect about the start
    state = _two_level_state(0.6)
    out = grover_step(state, state)
    layout = state.layout
    assert abs(out.amplitudes[0] - (-0.936)) <= 1e-12
    assert abs(out.amplitudes[1 << layout.omega_qubit] - 0.352) <= 1e-12
    # omega=0 mass is sin(3 theta)**2
    _, a = project(out, {layout.omega_qubit: 0})
    assert abs(a**2 - math.sin(3 * math.asin(0.6)) ** 2) <= 1e-12


def test_step_order_regression():
    # reversing the two reflections is a different operator; pin the order
    state = _two_level_state(0.6)
    swapped = state.amplitudes.copy()  # reflect about start first: no-op on |s>
    omega_bit = 1 << state.layout.omega_qubit
    swapped[omega_bit] = -swapped[omega_bit]  # then negate omega=1
    out = grover_step(state, state).amplitudes
    assert np.max(np.abs(out - swapped)) > 0.5


def test_step_leaves_inputs_unchanged():
    start = build_start_state(_uniform_query(2, "10"))
    state = grover_step(start, start)
    before_state, before_start = state.amplitudes.copy(), start.amplitudes.copy()
    grover_step(state, start)
    assert np.array_equal(state.amplitudes, before_state)
    assert np.array_equal(start.amplitudes, before_start)


def _textbook_step(state: StateVector, start: StateVector) -> np.ndarray:
    """2 <s|r> s - r with r the omega-reflected state, formed on full copies."""
    reflected = state.amplitudes.copy()
    top = (np.arange(reflected.size) >> state.layout.omega_qubit) & 1 == 1
    reflected[top] = -reflected[top]
    out = 2.0 * np.vdot(start.amplitudes, reflected) * start.amplitudes
    out -= reflected
    return out


def test_step_and_amplify_match_the_textbook_step_bit_for_bit():
    rng = np.random.default_rng(34)
    for mode, n, n0 in ((Mode.MOBIUS, 3, None), (Mode.MOBIUS, 5, None), (Mode.MARGINAL, 4, 2)):
        amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        x = BitString.from_int(1, n0 or n)
        start = build_start_state(TransformQuery(mode, n, amps / np.linalg.norm(amps), x, n0))
        state = start
        for _ in range(4):
            want = _textbook_step(state, start)
            state = grover_step(state, start)
            assert state.amplitudes.tobytes() == want.tobytes()
        plan = GroverPlan(overlap=0.0, iterations=4, predicted_success=0.0)
        assert amplify(start, plan).amplitudes.tobytes() == state.amplitudes.tobytes()


def test_readout_memory_stays_within_two_and_a_half_states():
    """At 18 qubits: the build peaks at 2x the state, a readout at 1.5x on top of its input."""
    rng = np.random.default_rng(35)
    probs = rng.random(32)
    q = TransformQuery(Mode.MOBIUS, 5, np.sqrt(probs / probs.sum()), BitString.from_int(31, 5))
    state_bytes = 16 << q.layout.total_qubits
    tracemalloc.start()
    try:
        start = build_start_state(q)
        _, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        readout = read_out(start)
        _, readout_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert readout.plan.iterations > 0
    assert build_peak <= 2.05 * state_bytes
    assert readout_peak - base <= 1.55 * state_bytes


def test_step_checks_layouts():
    with pytest.raises(ValueError):
        grover_step(_two_level_state(0.5), build_start_state(_uniform_query(2, "10")))


def test_step_preserves_norm_and_matches_theory_over_iterations():
    start = build_start_state(_uniform_query(3, "111"))
    theta = math.asin(plan_grover(start).overlap)
    state = start
    for k in range(11):
        _, a = project(state, {start.layout.omega_qubit: 0})
        assert abs(a**2 - math.sin((2 * k + 1) * theta) ** 2) <= 1e-9
        assert abs(state.norm - 1.0) <= 1e-12
        state = grover_step(state, start)


def test_amplify_uniform_full_box():
    start = build_start_state(_uniform_query(3, "111"))
    plan = plan_grover(start)
    assert plan.iterations == 2
    assert abs(plan.predicted_success - 0.9453125) <= 1e-12
    final = amplify(start, plan)
    _, a = project(final, {start.layout.omega_qubit: 0})
    assert abs(a**2 - plan.predicted_success) <= 1e-9


def test_amplify_zero_iterations_is_identity():
    start = build_start_state(_uniform_query(2, "10"))
    final = amplify(start, GroverPlan(overlap=0.3, iterations=0, predicted_success=0.09))
    assert final is start


def _conditional_odds(state: StateVector) -> float:
    layout = state.layout
    idx = np.arange(state.amplitudes.shape[0])
    omega = (idx >> layout.omega_qubit) & 1
    gamma = (idx >> layout.gamma_qubit) & 1
    probs = np.abs(state.amplitudes) ** 2
    p00 = probs[(omega == 0) & (gamma == 0)].sum()
    p01 = probs[(omega == 0) & (gamma == 1)].sum()
    return float(p01 / p00)


def test_conditional_odds_survive_every_iteration_count():
    rng = np.random.default_rng(31)
    amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    amps /= np.linalg.norm(amps)
    queries = [
        TransformQuery(Mode.MOBIUS, 3, amps, BitString.from_str("101")),
        _uniform_query(3, "011"),
    ]
    probs = rng.random(16)
    probs /= probs.sum()
    queries.append(
        TransformQuery.from_probability_table(
            Mode.MARGINAL, SubsetTable(4, probs), BitString.from_str("01"), n0=2
        )
    )
    for q in queries:
        start = build_start_state(q)
        want = decompose_signal(q, start).ratio
        state = start
        for _ in range(11):
            assert abs(_conditional_odds(state) - want) <= 1e-9
            state = grover_step(state, start)


# ---------------------------------------------------------------------------
# estimators


def test_estimate_exact_frozen_mobius():
    assert abs(estimate_exact(_uniform_query(3, "110")) - 0.5) <= 1e-10


def test_estimate_exact_frozen_marginal():
    amps = np.full(32, 2.0 ** (-5.0 / 2.0))
    q = TransformQuery(Mode.MARGINAL, 5, amps, BitString.from_str("101"), n0=3)
    assert abs(estimate_exact(q) - 0.125) <= 1e-10


def test_estimate_exact_agrees_with_sector_readout():
    rng = np.random.default_rng(32)
    for x in ("000", "010", "111"):
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        amps /= np.linalg.norm(amps)
        q = TransformQuery(Mode.MOBIUS, 3, amps, BitString.from_str(x))
        measured = estimate_exact(q)
        assert abs(measured - decompose_signal(q, build_start_state(q)).ratio) <= 1e-9
        assert abs(measured - classical_value(q)) <= 1e-9


def test_sampling_is_deterministic_per_seed():
    q = _uniform_query(3, "111")
    a = estimate_sampled(q, shots=2000, seed=7)
    b = estimate_sampled(q, shots=2000, seed=7)
    assert (a.estimate, a.halfwidth) == (b.estimate, b.halfwidth)
    c = estimate_sampled(q, shots=2000, seed=8)
    assert (a.estimate, a.halfwidth) != (c.estimate, c.halfwidth)


def test_sampling_error_shrinks_with_shots():
    q = _uniform_query(3, "111")
    lo, hi = [], []
    for seed in range(10):
        lo.append(abs(estimate_sampled(q, 1_000, seed).estimate - 1.0))
        hi.append(abs(estimate_sampled(q, 100_000, seed).estimate - 1.0))
    assert np.mean(lo) / np.mean(hi) > 3.0


def test_sampling_reports_positive_halfwidth():
    q = _uniform_query(3, "101")
    rep = estimate_sampled(q, shots=5_000, seed=3)
    assert rep.halfwidth is not None and rep.halfwidth > 0.0
    assert abs(rep.estimate - estimate_exact(q)) <= 5 * rep.halfwidth


def test_single_shot_reports_insufficient_instead_of_crashing():
    q = _uniform_query(3, "111")
    reports = [estimate_sampled(q, shots=1, seed=s) for s in range(51)]
    empty = [r for r in reports if r.estimate is None]
    filled = [r for r in reports if r.estimate is not None]
    assert empty and filled
    for r in empty:
        assert r.halfwidth is None
        assert "insufficient shots" in r.message
    for r in filled:
        assert r.message == ""


def test_sampling_rejects_bad_shot_counts():
    with pytest.raises(ValueError):
        estimate_sampled(_uniform_query(2, "11"), shots=0, seed=0)
    with pytest.raises(ValueError):
        read_out(build_start_state(_uniform_query(2, "11"))).sample(0, 0)


def test_vanished_reference_mass_raises_for_exact_and_sample():
    readout = Readout(GroverPlan(0.5, 0, 0.25), (0.0, 0.5, 0.25, 0.25))
    with pytest.raises(RuntimeError, match="reference mass vanished"):
        readout.exact
    with pytest.raises(RuntimeError, match="reference mass vanished"):
        readout.sample(100, 0)


def test_one_readout_serves_both_estimators():
    q = _uniform_query(3, "101")
    readout = read_out(build_start_state(q))
    assert readout.plan == plan_grover(build_start_state(q))
    assert readout.exact == estimate_exact(q)
    got, want = readout.sample(3000, 4), estimate_sampled(q, 3000, 4)
    assert (got.estimate, got.halfwidth) == (want.estimate, want.halfwidth)
    assert abs(sum(readout.cells) - 1.0) <= 1e-12
    # the unmarked state has no omega=0 weight; the mark is what makes the target reachable
    with pytest.raises(ValueError, match="unreachable"):
        read_out(build_unmarked_state(q))
