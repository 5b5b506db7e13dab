from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mobiusq.minfind as minfind_mod
from mobiusq.circuits import TransformQuery, estimate_exact
from mobiusq.layout import Mode
from mobiusq.minfind import (
    ObjectiveTable,
    choose_beta,
    classical_evaluator,
    find_min,
    probe_point,
    quadratic_objective,
    quantum_evaluator,
    softmin_table,
)
from mobiusq.subset import BitString, SubsetTable, zeta_fast


# ---------------------------------------------------------------------------
# objectives and the softmin surrogate


def test_objective_validation():
    ObjectiveTable(2, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        ObjectiveTable(2, [1.0, 2.0])
    with pytest.raises(ValueError):
        ObjectiveTable(1, [1.0, 0.0])
    with pytest.raises(ValueError):
        ObjectiveTable(1, [1.0, -2.0])
    with pytest.raises(ValueError):
        ObjectiveTable(1, [1.0, math.inf])
    with pytest.raises(ValueError):
        ObjectiveTable(0, [1.0])
    with pytest.raises(ValueError, match="must be real"):
        ObjectiveTable(1, [1.0, 1.0 + 5.0j])


def test_objective_size_is_capped_before_allocation():
    # n = 40 would need 8 TiB per table, so a missing guard fails loudly
    with pytest.raises(ValueError, match="n <= 26"):
        quadratic_objective(40, 1)
    with pytest.raises(ValueError, match="n <= 26"):
        ObjectiveTable(40, None)


def test_quadratic_objective_values():
    obj = quadratic_objective(3, 5)
    assert list(obj.values) == [(v - 5) ** 2 + 1 for v in range(8)]


def test_softmin_frozen_example():
    obj = ObjectiveTable(2, [3.0, 1.0, 2.0, 5.0])
    table = softmin_table(obj, beta=1.0)
    assert abs(table.values[1] - 0.9816902843735651) <= 1e-12
    assert abs(table.values.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_softmin_rejects_bad_beta(beta):
    with pytest.raises(ValueError, match="beta must be positive and finite"):
        softmin_table(ObjectiveTable(1, [1.0, 2.0]), beta)


def test_softmin_rejects_a_beta_whose_logits_overflow():
    obj = quadratic_objective(5, 13)  # largest value 18**2 + 1 = 325
    softmin_table(obj, 1e300)  # logits reach 1e300 * 32 * 325, still finite
    for beta in (1e306, 1e308):
        with pytest.raises(ValueError, match=re.escape(f"beta {beta} is too large")):
            softmin_table(obj, beta)


def test_softmin_peaks_at_the_argmin():
    rng = np.random.default_rng(41)
    values = rng.random(32) + 0.5
    obj = ObjectiveTable(5, values)
    table = softmin_table(obj, beta=choose_beta(obj))
    assert int(np.argmax(table.values)) == int(np.argmin(values))
    assert table.values.max() > 0.999


def test_softmin_survives_extreme_beta():
    obj = quadratic_objective(4, 9)
    table = softmin_table(obj, beta=1e6)
    table.require_probability()
    assert np.all(table.values > 0.0)
    assert abs(table.values[9] - 1.0) <= 1e-15
    with pytest.raises(ValueError):
        softmin_table(obj, beta=0.0)


def test_choose_beta_quadratic():
    assert abs(choose_beta(quadratic_objective(5, 13)) - 1.5625) <= 1e-15


def test_choose_beta_rejects_ties():
    with pytest.raises(ValueError, match="tied"):
        choose_beta(ObjectiveTable(2, [1.0, 1.0, 2.0, 3.0]))


def test_choose_beta_caps_extreme_gaps():
    obj = ObjectiveTable(1, [1e-300, 1.0])
    beta = choose_beta(obj)
    table = softmin_table(obj, beta)
    assert np.all(np.isfinite(table.values))


# ---------------------------------------------------------------------------
# probe geometry


def test_probe_point_frozen_examples():
    assert str(probe_point(5, (), 4)) == "01111"
    assert probe_point(5, (), 4).to_int() == 15
    assert probe_point(5, (1,), 3).to_int() == 23
    assert probe_point(5, (0,), 3).to_int() == 7
    assert str(probe_point(5, (0, 1, 1, 0), 0)) == "01100"


def test_probe_point_validation():
    with pytest.raises(ValueError):
        probe_point(5, (), 5)
    with pytest.raises(ValueError):
        probe_point(5, (1,), 4)
    with pytest.raises(ValueError):
        probe_point(5, (2,), 3)


def test_probe_downward_set_geometry():
    # everything bitwise below a probe has bit j clear and high bits under
    # the decided prefix; low bits are unconstrained
    for n in (3, 5):
        for j in range(n):
            for pattern in range(1 << (n - 1 - j)):
                decided = tuple((pattern >> t) & 1 for t in range(n - 1 - j))
                probe = probe_point(n, decided, j)
                pv = probe.to_int()
                below = {y for y in range(1 << n) if (y & pv) == y}
                expected = {
                    y
                    for y in range(1 << n)
                    if (y >> j) & 1 == 0
                    and all(
                        (y >> (n - 1 - t)) & 1 <= decided[t]
                        for t in range(len(decided))
                    )
                }
                assert below == expected


# ---------------------------------------------------------------------------
# the bit-by-bit search


def test_find_min_quadratic_frozen_run():
    obj = quadratic_objective(5, 13)
    trace = find_min(obj, choose_beta(obj))
    assert str(trace.result) == "01101"
    assert trace.result.to_int() == 13
    assert len(trace.probes) == 5
    assert trace.probes[0].point.to_int() == 15
    assert trace.probes[1].point.to_int() in (7, 23)
    # recorded bits read off the result most-significant first
    assert [p.bit for p in trace.probes] == list(reversed(trace.result.bits))


def test_find_min_recovers_every_target_with_ideal_queries():
    for n in (3, 4, 6):
        obj = ObjectiveTable(n, np.arange(1, (1 << n) + 1, dtype=float))
        for target in range(1 << n):
            evaluator = lambda point, t=target: 1.0 if (t & point.to_int()) == t else 0.0
            trace = find_min(obj, beta=1.0, evaluator=evaluator)
            assert trace.result.to_int() == target, f"n={n} target={target}"


def test_find_min_random_objectives():
    rng = np.random.default_rng(42)
    for _ in range(20):
        values = rng.random(32) + 0.1
        obj = ObjectiveTable(5, values)
        trace = find_min(obj, choose_beta(obj))
        assert trace.result.to_int() == int(np.argmin(values))
        assert len(trace.probes) == 5


def test_quantum_backend_reproduces_classical_traces():
    rng = np.random.default_rng(43)
    for _ in range(3):
        values = rng.random(8) + 0.2
        obj = ObjectiveTable(3, values)
        beta = choose_beta(obj)
        d_minus = softmin_table(obj, beta)
        classical = find_min(obj, beta, evaluator=classical_evaluator(d_minus))
        quantum = find_min(obj, beta, evaluator=quantum_evaluator(d_minus))
        assert quantum.result.to_int() == classical.result.to_int() == int(np.argmin(values))
        for qp, cp in zip(quantum.probes, classical.probes):
            assert qp.point.to_int() == cp.point.to_int()
            assert qp.bit == cp.bit
            assert abs(qp.value - cp.value) <= 1e-9


def test_classical_evaluator_is_one_butterfly_pass():
    table = SubsetTable(3, np.arange(1, 9, dtype=float) / 36.0)
    evaluate = classical_evaluator(table)
    truth = zeta_fast(table)
    for x in range(8):
        assert evaluate(BitString.from_int(x, 3)) == truth.values[x]


def _table_of_kind(kind: str, n: int, rng: np.random.Generator) -> SubsetTable:
    size = 1 << n
    if kind == "uniform":
        values = rng.random(size)
    elif kind == "decades":  # magnitudes spread over 1e-30 .. 1e30
        values = rng.random(size) * 10.0 ** rng.uniform(-30.0, 30.0, size)
    elif kind == "tiny":  # half the entries where softmin clamps them
        values = np.where(rng.random(size) < 0.5, np.finfo(np.float64).tiny, rng.random(size))
    else:
        values = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return SubsetTable(n, values)


@pytest.mark.parametrize("kind", ["uniform", "decades", "tiny", "complex"])
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_classical_evaluator_is_bit_equal_to_the_butterfly_at_every_point(kind, seed):
    rng = np.random.default_rng(seed)
    for n in range(1, 11):
        table = _table_of_kind(kind, n, rng)
        evaluate = classical_evaluator(table)
        truth = zeta_fast(table).values.real
        got = [evaluate(BitString.from_int(x, n)).hex() for x in range(1 << n)]
        assert got == [float(v).hex() for v in truth], f"n={n}"


@pytest.mark.parametrize("bits", ["11", "0101", "1000"])
def test_both_evaluators_refuse_a_point_of_the_wrong_width(bits):
    table = SubsetTable(3, [0.125] * 8)
    for backend in (classical_evaluator, quantum_evaluator):
        with pytest.raises(ValueError, match=f"x has {len(bits)} bits"):
            backend(table)(BitString.from_str(bits))


def test_classical_probes_peak_under_half_a_table_at_an_all_ones_argmin():
    """Each probe reads a view of its level: at n = 16 the n probes peak under half a table."""
    n = 16
    obj = quadratic_objective(n, (1 << n) - 1)
    beta = choose_beta(obj)
    evaluate = classical_evaluator(softmin_table(obj, beta))
    tracemalloc.start()
    try:
        trace = find_min(obj, beta, evaluator=evaluate)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.result.to_int() == (1 << n) - 1
    assert peak < 0.5 * (8 << n)


def test_quantum_evaluator_builds_one_unmarked_state_for_all_probes(monkeypatch):
    built = []
    gather = minfind_mod.gather
    monkeypatch.setattr(minfind_mod, "gather", lambda q: built.append(q) or gather(q))
    obj = quadratic_objective(4, 6)
    beta = choose_beta(obj)
    d_minus = softmin_table(obj, beta)
    trace = find_min(obj, beta, evaluator=quantum_evaluator(d_minus))
    assert trace.result.to_int() == 6
    assert len(built) == 1 and len(trace.probes) == 4
    amps = np.sqrt(d_minus.values)
    for probe in trace.probes:
        assert probe.value == estimate_exact(TransformQuery(Mode.MOBIUS, 4, amps, probe.point))


def test_quantum_evaluator_requires_probability_table():
    with pytest.raises(ValueError):
        quantum_evaluator(SubsetTable(2, [0.7, 0.7, -0.2, -0.2]))


def test_find_min_threshold_validation():
    obj = quadratic_objective(3, 2)
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            find_min(obj, 1.0, threshold=bad)


def test_find_min_passes_evaluator_failures_through():
    # an evaluator's ValueError stays a ValueError, which the CLI maps to exit 1
    obj = quadratic_objective(4, 6)
    calls = []

    def flaky(point):
        if len(calls) == 2:
            raise ValueError("backend went away")
        calls.append(point)
        return 1.0 if (6 & point.to_int()) == 6 else 0.0

    with pytest.raises(ValueError, match="backend went away"):
        find_min(obj, 1.0, evaluator=flaky)
    assert len(calls) == 2


def test_trace_values_are_monotone_enough_to_threshold():
    # every recorded probe value must sit on the side its bit claims
    obj = quadratic_objective(5, 22)
    trace = find_min(obj, choose_beta(obj), threshold=0.5)
    for probe in trace.probes:
        if probe.bit == 1:
            assert probe.value < 0.5
        else:
            assert probe.value >= 0.5
