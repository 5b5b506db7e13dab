from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import mobiusq.circuits as circuits_mod
import mobiusq.gates as gates_mod
from mobiusq.circuits import (
    Support,
    TransformQuery,
    cells_by_step,
    classical_value,
    estimate_exact,
    estimate_sampled,
    gather,
    read_out_at,
)
from mobiusq.gates import StateVector, amplify, build_start_state, plan_grover, project
from mobiusq.layout import GroverPlan, Mode, Readout, RegisterLayout
from mobiusq.subset import BitString, SubsetTable
from mobiusq.verify import decompose_signal
from oracle import cell_masses, read_out, table_amplitudes, unmarked_oracle


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


def _after(start: StateVector, steps: int) -> StateVector:
    """``start`` after a fixed number of amplification steps."""
    return amplify(start, GroverPlan(overlap=0.0, iterations=steps, predicted_success=0.0))


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
        component, _ = project(start, {start.layout.omega_qubit: 0})
        # the norm as one correctly rounded sum of the squared parts, as plan_grover takes it
        a = math.sqrt(math.fsum(np.square(component.amplitudes.view(np.float64)).tolist()))
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
    out = _after(state, 1)
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
    out = _after(state, 1).amplitudes
    assert np.max(np.abs(out - swapped)) > 0.5


def test_step_leaves_inputs_unchanged():
    q = _uniform_query(2, "10")
    start, support = build_start_state(q), gather(q)
    before_start, before_support = start.amplitudes.copy(), support.amplitudes.copy()
    _after(start, 2)
    list(cells_by_step(support, q.x, 2))
    assert np.array_equal(start.amplitudes, before_start)
    assert np.array_equal(support.amplitudes, before_support)


def _fsum_vdot(s: np.ndarray, r: np.ndarray) -> complex:
    """<s|r>, each part one math.fsum of the rounded elementwise products."""
    real = math.fsum([*(s.real * r.real).tolist(), *(s.imag * r.imag).tolist()])
    imag = math.fsum([*(s.real * r.imag).tolist(), *(-(s.imag * r.real)).tolist()])
    return complex(real, imag)


def _textbook_step(state: StateVector, start: StateVector) -> np.ndarray:
    """2 <s|r> s - r with r the omega-reflected state, formed on full copies."""
    reflected = state.amplitudes.copy()
    top = (np.arange(reflected.size) >> state.layout.omega_qubit) & 1 == 1
    reflected[top] = -reflected[top]
    out = 2.0 * _fsum_vdot(start.amplitudes, reflected) * start.amplitudes
    out -= reflected
    return out


def test_step_and_amplify_match_the_textbook_step_bit_for_bit():
    """amplify's states and cells_by_step's cells after k = 0..4 steps, against textbook steps."""
    rng = np.random.default_rng(34)
    for mode, n, n0 in ((Mode.MOBIUS, 3, None), (Mode.MOBIUS, 5, None), (Mode.MARGINAL, 4, 2)):
        amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        q = TransformQuery(mode, n, amps / np.linalg.norm(amps), BitString.from_int(1, n0 or n), n0)
        start = want = build_start_state(q)
        for k, cells in enumerate(cells_by_step(gather(q), q.x, 4)):
            if k:
                want = StateVector(start.layout, _textbook_step(want, start))
            assert _after(start, k).amplitudes.tobytes() == want.amplitudes.tobytes()
            assert cells == cell_masses(want)


def _query18() -> TransformQuery:
    """A mobius query at n = 5: 18 qubits, a dense state of 4 MiB, and some steps to run."""
    rng = np.random.default_rng(35)
    probs = rng.random(32)
    return TransformQuery(Mode.MOBIUS, 5, np.sqrt(probs / probs.sum()), BitString.from_int(31, 5))


def test_readout_memory_stays_within_two_and_a_half_states():
    """At 18 qubits: the build peaks at 2x the state, plan_grover and amplify at 1.5x on top of their input."""
    q = _query18()
    state_bytes = 16 << q.layout.total_qubits
    tracemalloc.start()
    try:
        start = build_start_state(q)
        _, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        plan = plan_grover(start)
        final = amplify(start, plan)
        _, readout_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan.iterations > 0 and final is not start
    assert build_peak <= 2.05 * state_bytes
    assert readout_peak - base <= 1.55 * state_bytes


def test_support_readout_uses_no_dense_working_copy():
    """At 18 qubits the support readout allocates under 5% of the dense state."""
    q = _query18()
    support = gather(q)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        readout = read_out_at(support, q.x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert readout.plan.iterations > 0
    assert peak - base <= 0.05 * (16 << q.layout.total_qubits)


def test_estimators_peak_under_a_tenth_of_the_dense_state():
    """At 18 qubits both estimators gather and read out the support: no dense state is built."""
    q = _query18()
    import mobiusq._pcg64  # noqa: F401  (the first sample compiles the sampler; that transient is not the estimators')
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        estimate_exact(q)
        estimate_sampled(q, 1000, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base <= 0.10 * (16 << q.layout.total_qubits)


SUPPORT_CASES = [(Mode.MOBIUS, n, None) for n in range(1, 5)] + [
    (Mode.MARGINAL, 3, 1),
    (Mode.MARGINAL, 4, 2),
    (Mode.MARGINAL, 5, 3),
]


@pytest.mark.parametrize("mode,n,n0", SUPPORT_CASES)
def test_support_readout_equals_the_dense_oracle_bit_for_bit(mode, n, n0):
    """Plan and all four cells agree exactly at every point, complex and zero-holed tables alike."""
    rng = np.random.default_rng(40 + n + (n0 or 0))
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    amps[rng.random(1 << n) < 0.3] = 0.0
    amps[0] = 1.0  # keep the table nonzero
    amps /= np.linalg.norm(amps)
    width = n0 or n
    support = gather(TransformQuery(mode, n, amps, BitString.from_int(0, width), n0))
    for xv in range(1 << width):
        x = BitString.from_int(xv, width)
        start = build_start_state(TransformQuery(mode, n, amps, x, n0))
        try:
            dense = read_out(start)
        except ValueError as exc:  # no weight at this point: both paths refuse
            with pytest.raises(ValueError, match=str(exc)):
                read_out_at(support, x)
            continue
        assert read_out_at(support, x) == dense


@pytest.mark.parametrize("kind", ["complex", "real", "zeros", "uniform", "basis"])
@pytest.mark.parametrize(
    "mode,n,n0",
    [(Mode.MOBIUS, n, None) for n in range(1, 5)] + [(Mode.MARGINAL, 4, 2), (Mode.MARGINAL, 5, 3)],
    ids=lambda v: v.value if isinstance(v, Mode) else str(v),
)
def test_support_consumers_do_not_depend_on_entry_order(mode, n, n0, kind):
    """A shuffled support reads out, steps, scatters and decomposes as gather's order does, bit for bit."""
    rng = np.random.default_rng(70 + 10 * n + (n0 or 0))
    amps = table_amplitudes(kind, n, rng)
    width = n0 or n
    support = gather(TransformQuery(mode, n, amps, BitString.from_int(0, width), n0))
    perm = rng.permutation(support.alpha_minus.size)
    shuffled = Support(support.layout, support.alpha_minus[perm], support.amplitudes[perm])
    for xv in range(1 << width):
        x = BitString.from_int(xv, width)
        assert read_out_at(shuffled, x) == read_out_at(support, x)
        assert list(cells_by_step(shuffled, x, 3)) == list(cells_by_step(support, x, 3))
        assert shuffled.start_state(x).amplitudes.tobytes() == support.start_state(x).amplitudes.tobytes()
        q = TransformQuery(mode, n, amps, x, n0)
        got, want = decompose_signal(q, shuffled), decompose_signal(q, support)
        assert (got.z0, got.z1, got.chi_norm) == (want.z0, want.z1, want.chi_norm)


def test_reductions_are_exact_sums_over_chunks():
    """Past one chunk, the dense readout's mass and inner product are still one correctly rounded sum."""
    rng = np.random.default_rng(41)
    size = 3 * gates_mod._CHUNK + 5
    s = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    r = rng.standard_normal(size) * 1e-8 + 1j * rng.standard_normal(size)
    where = rng.random(size) < 0.6
    squares = np.square(s[where].view(np.float64)).tolist()
    assert gates_mod._mass(s[where]) == math.fsum(squares)
    assert gates_mod._inner(s, r) == _fsum_vdot(s, r)
    # the order and the zero entries of the terms do not matter
    order = rng.permutation(size)
    padded = np.concatenate([s[order], np.zeros(7, dtype=complex)])
    assert gates_mod._inner(padded, np.concatenate([r[order], r[:7]])) == _fsum_vdot(s, r)


@pytest.mark.parametrize("alphas", [2, 4, 8, 1 << 19])
def test_copies_sum_as_the_multiset_they_stand_for(alphas):
    """One _fsum over exactly weighted copies is the correctly rounded sum of every copy they count.

    on = 1 + keep target copies and 2M - 1 - keep off-target copies of each
    term, as the readout, verify's chi mass and the step weigh them.  The
    terms span many binades and cancel, so a sum that rounded per copy
    group, or per weight, would drift from math.fsum over the expanded copies.
    """
    rng = np.random.default_rng(alphas)
    terms = (rng.standard_normal((40, 2)) * 2.0 ** rng.integers(-60, 60, (40, 2))).astype(np.float64)
    terms[3] = -terms[2]  # an exact cancellation
    terms[5, 0] = 0.0
    terms[7, 1] = 5e-324  # subnormal: twice it is still exact
    terms[9, 0] = -0.0
    keep = rng.random(40) < 0.5
    on = (1.0 + keep)[:, None]
    copies_on = 1 + keep
    copies_off = 2 * alphas - 1 - keep

    def copies_sum(*weighted):
        """math.fsum over every copy of the (copies per row, rows) pairs, listed out."""
        pairs = [(row, m) for copies, rows in weighted for row, m in zip(rows.tolist(), copies.tolist())]
        if alphas <= 8:
            return math.fsum(v for row, m in pairs for v in row * m)
        # too many copies to list: the exact products m * v, as fractions, summed and rounded once
        return float(sum(Fraction(v) * m for row, m in pairs for v in row))

    fsum = circuits_mod._fsum
    assert fsum([on * terms]) == copies_sum((copies_on, terms))
    assert fsum(w * terms for w in (2.0 * alphas, -on)) == copies_sum((copies_off, terms))
    # the step's form: target copies of t and off-target copies of -o
    t, o = terms, terms[::-1].copy()
    step = fsum(w * a for w, a in ((on, t), (-2.0 * alphas, o), (on, o)))
    assert step == copies_sum((copies_on, t), (copies_off, -o))
    # the cells' form: alphas - keep copies
    assert fsum(w * terms for w in (alphas, 1.0 - on)) == copies_sum((alphas - keep, terms))


def test_step_preserves_norm_and_matches_theory_over_iterations():
    start = build_start_state(_uniform_query(3, "111"))
    theta = math.asin(plan_grover(start).overlap)
    for k in range(11):
        state = _after(start, k)
        _, a = project(state, {start.layout.omega_qubit: 0})
        assert abs(a**2 - math.sin((2 * k + 1) * theta) ** 2) <= 1e-9
        assert abs(state.norm - 1.0) <= 1e-12


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
        want = decompose_signal(q, gather(q)).ratio
        for k in range(11):
            p00, p01 = cell_masses(_after(start, k))[:2]
            assert abs(p01 / p00 - want) <= 1e-9


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
        assert abs(measured - decompose_signal(q, gather(q)).ratio) <= 1e-9
        assert abs(measured - classical_value(q)) <= 1e-9


@pytest.mark.parametrize("mode,n,n0", [(Mode.MOBIUS, 3, None), (Mode.MOBIUS, 4, None), (Mode.MARGINAL, 5, 2)])
def test_estimators_are_the_support_readout_bit_for_bit(mode, n, n0):
    """estimate_exact and estimate_sampled return read_out_at(gather(q), q.x)'s value and sample."""
    rng = np.random.default_rng(36 + n)
    amps = table_amplitudes("complex", n, rng)
    for xv in range(1 << (n0 or n)):
        q = TransformQuery(mode, n, amps, BitString.from_int(xv, n0 or n), n0)
        readout = read_out_at(gather(q), q.x)
        assert estimate_exact(q).hex() == readout.exact.hex()
        got, want = estimate_sampled(q, 500, xv), readout.sample(500, xv)
        assert (got.estimate, got.halfwidth, got.message) == (want.estimate, want.halfwidth, want.message)


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
    q = _uniform_query(2, "11")
    with pytest.raises(ValueError):
        read_out_at(gather(q), q.x).sample(0, 0)


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
        read_out(unmarked_oracle(q))
