"""Acceptance gate: one test per published behavioral guarantee.

Each criterion prints a single PASS/FAIL line (visible with ``pytest -s``
or by running this file directly) and asserts at its stated tolerance.
Criteria 2 to 6 run the named checks of :mod:`mobiusq.verify`, the same
functions ``mobiusq verify`` runs, on their own inputs and tolerances.
Run standalone with ``python3 tests/test_acceptance.py`` for the
plain-text report.
"""
from __future__ import annotations

import math
import time

import numpy as np

from mobiusq import verify
from mobiusq.circuits import TransformQuery
from mobiusq.gates import StateVector, project
from mobiusq.grover import amplify, estimate_sampled, plan_grover
from mobiusq.minfind import (
    ObjectiveTable,
    choose_beta,
    classical_evaluator,
    find_min,
    quadratic_objective,
    quantum_evaluator,
    softmin_table,
)
from mobiusq.sim import Mode, RegisterLayout
from mobiusq.subset import BitString, SubsetTable, zeta_fast, zeta_fast_inplace, zeta_naive

_RESULTS: list[tuple[str, bool, str]] = []


def _report(name: str, ok: bool, detail: str) -> None:
    line = f"{name}: {'PASS' if ok else 'FAIL'} - {detail}"
    _RESULTS.append((name, ok, line))
    print(line)
    assert ok, line


def _random_psi(rng: np.random.Generator, n: int) -> np.ndarray:
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return amps / np.linalg.norm(amps)


def _random_queries(
    rng: np.random.Generator, mode: Mode, n: int, n0: int | None, count: int
) -> list[TransformQuery]:
    """count queries at random points x with random amplitudes, drawn in that order."""
    width = n0 or n
    queries = []
    for _ in range(count):
        x = BitString.from_int(int(rng.integers(1 << width)), width)
        queries.append(TransformQuery(mode, n, _random_psi(rng, n), x, n0))
    return queries


def test_criterion_1_classical_transform_agreement_and_scaling():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for n in range(1, 11):
        for _ in range(100):
            table = SubsetTable(n, rng.standard_normal(1 << n))
            err = float(
                np.max(np.abs(zeta_fast(table).values - zeta_naive(table).values))
            )
            worst = max(worst, err)
    ok_equiv = worst <= 1e-12

    def best_time(n: int, reps: int) -> float:
        data = list(rng.standard_normal(1 << n))
        best = math.inf
        for _ in range(reps):
            buf = data.copy()
            t0 = time.perf_counter()
            zeta_fast_inplace(buf)
            best = min(best, time.perf_counter() - t0)
        return best

    t12 = best_time(12, 7)
    t16 = best_time(16, 3)
    ratio = t16 / t12
    ok_scaling = 17.8 / 2.0 <= ratio <= 17.8 * 2.0
    _report(
        "criterion 1 (butterfly == naive, n*2^n scaling)",
        ok_equiv and ok_scaling,
        f"max |fast - naive| = {worst:.2e} over 1000 tables; "
        f"t16/t12 = {ratio:.1f} (anchor 17.8, band [8.9, 35.6])",
    )


def test_criterion_2_subset_sum_sector_readout():
    rng = np.random.default_rng(1002)
    n3 = verify.sector_readout(_random_queries(rng, Mode.MOBIUS, 3, None, 50), 1e-10)
    n4 = verify.sector_readout(_random_queries(rng, Mode.MOBIUS, 4, None, 20), 1e-10)
    _report(
        "criterion 2 (subset-sum readout: z0 anchor and value ratio)",
        n3.ok and n4.ok,
        f"50 specs n=3 (z0 anchor 0.25): {n3.detail}; "
        f"20 specs n=4 (z0 anchor 2^-5/2): {n4.detail} "
        f"(normalization fixes z0 = 2^-(n0+1)/2, the 0.25 anchor is the n0=3 case)",
    )


def test_criterion_3_marginal_sector_readout():
    rng = np.random.default_rng(1003)
    queries = [q for n in (4, 5, 6) for q in _random_queries(rng, Mode.MARGINAL, n, 3, 10)]
    verdict = verify.sector_readout(queries, 1e-10)
    _report(
        "criterion 3 (marginal readout at n0=3, n in 4..6)",
        verdict.ok,
        f"30 specs (z0 anchor 0.25): {verdict.detail}",
    )


def test_criterion_4_comparator_coefficient_table():
    verdict = verify.comparator_table(0.0)
    _report(
        "criterion 4 (all 8 comparator coefficients exact)",
        verdict.ok,
        f"compiled circuit: {verdict.detail}",
    )


def test_criterion_5_ratio_preserved_across_iterations():
    rng = np.random.default_rng(1005)
    specs = [
        TransformQuery(Mode.MOBIUS, 3, _random_psi(rng, 3), BitString.from_str("101")),
        TransformQuery(Mode.MOBIUS, 3, _random_psi(rng, 3), BitString.from_str("111")),
        TransformQuery(Mode.MARGINAL, 4, _random_psi(rng, 4), BitString.from_str("01"), n0=2),
    ]
    verdict = verify.odds_preserved(specs, 10, 1e-9)
    _report(
        "criterion 5 (gamma odds preserved for k = 0..10)",
        verdict.ok,
        f"3 specs: {verdict.detail}",
    )


def test_criterion_6_amplification_calibration():
    # measured omega=0 mass against the two-dimensional rotation law
    q = TransformQuery(
        Mode.MOBIUS, 3, np.full(8, 2.0 ** -1.5), BitString.from_str("111")
    )
    law = verify.rotation_law(q, 10, 1e-9)

    # planner anchor at overlap 0.25
    layout = RegisterLayout(Mode.MOBIUS, 1)
    amps = np.zeros(1 << layout.total_qubits, dtype=complex)
    amps[0] = 0.25
    amps[1 << layout.omega_qubit] = math.sqrt(1 - 0.0625)
    plan = plan_grover(StateVector(layout, amps))
    final = amplify(StateVector(layout, amps), plan)
    _, a = project(final, {layout.omega_qubit: 0})
    ok_plan = (
        plan.iterations == 3
        and abs(plan.predicted_success - 0.9613189697265625) <= 1e-12
        and abs(a**2 - plan.predicted_success) <= 1e-9
    )
    _report(
        "criterion 6 (amplification calibration)",
        law.ok and ok_plan,
        f"{law.detail}; "
        f"at a=0.25 planner picks k={plan.iterations} with predicted {plan.predicted_success:.6f}",
    )


def test_criterion_7_sampled_estimation_accuracy():
    q = TransformQuery(
        Mode.MOBIUS, 3, np.full(8, 2.0 ** -1.5), BitString.from_str("111")
    )
    hits = 0
    for seed in range(100):
        report = estimate_sampled(q, shots=100_000, seed=seed)
        if report.estimate is not None and abs(report.estimate - 1.0) <= 0.02:
            hits += 1
    _report(
        "criterion 7 (sampled estimate within 0.02 on 10^5 shots)",
        hits >= 95,
        f"{hits}/100 seeds inside the band (need >= 95)",
    )


def test_criterion_8_minimum_finding():
    rng = np.random.default_rng(1008)
    recovered = 0
    five_probes = True
    for _ in range(50):
        while True:
            values = rng.random(32) + 0.1
            lowest, second = np.partition(values, 1)[:2]
            if second - lowest > 1e-9:
                break
        obj = ObjectiveTable(5, values)
        trace = find_min(obj, choose_beta(obj))
        five_probes &= len(trace.probes) == 5
        recovered += trace.result.to_int() == int(np.argmin(values))
    ok_classical = recovered == 50 and five_probes

    first_points_ok = True
    traces_match = True
    for _ in range(3):
        values = rng.random(16) + 0.1
        obj = ObjectiveTable(4, values)
        beta = choose_beta(obj)
        d_minus = softmin_table(obj, beta)
        c_trace = find_min(obj, beta, classical_evaluator(d_minus))
        q_trace = find_min(obj, beta, quantum_evaluator(d_minus))
        traces_match &= [(p.point.to_int(), p.bit) for p in c_trace.probes] == [
            (p.point.to_int(), p.bit) for p in q_trace.probes
        ]
        traces_match &= c_trace.result.to_int() == q_trace.result.to_int()

    probe0 = find_min(quadratic_objective(5, 13), 1.5625)
    first_points_ok &= probe0.probes[0].point.to_int() == 15
    first_points_ok &= probe0.probes[1].point.to_int() in (23, 7)

    _report(
        "criterion 8 (argmin recovery and backend agreement)",
        ok_classical and traces_match and first_points_ok,
        f"{recovered}/50 random n=5 objectives recovered in exactly 5 probes; "
        f"quantum traces {'match' if traces_match else 'differ from'} classical at n=4; "
        f"probe sequence starts 15 then {probe0.probes[1].point.to_int()}",
    )


def test_criterion_9_speedup_claim_excluded():
    # The square-root query-count advantage concerns oracle calls on quantum
    # hardware; a dense statevector simulation pays 2^n per gate, so no
    # wall-clock speedup exists to measure here.  The structural surrogate
    # is criterion 6: the amplification rotation follows the two-dimensional
    # theory exactly, which is the property the query-count analysis rests on.
    _report(
        "criterion 9 (asymptotic query advantage excluded)",
        True,
        "not measurable in exact simulation; structural surrogate is criterion 6",
    )


def test_gate_and_verify_share_the_check_registry(monkeypatch):
    """The gate's criteria 2 to 6 and ``run_verify`` reach the same named checks."""
    names = ("sector_readout", "odds_preserved", "rotation_law", "comparator_table")
    calls = dict.fromkeys(names, 0)
    for name in names:

        def counted(*args, _name=name):
            calls[_name] += 1
            return verify.Verdict(True, 0.0, "counted")

        monkeypatch.setattr(verify, name, counted)
    assert verify.run_verify(0)[0]
    assert calls == dict.fromkeys(names, 1)
    for criterion in (
        test_criterion_2_subset_sum_sector_readout,
        test_criterion_3_marginal_sector_readout,
        test_criterion_4_comparator_coefficient_table,
        test_criterion_5_ratio_preserved_across_iterations,
        test_criterion_6_amplification_calibration,
    ):
        criterion()
    assert calls == {"sector_readout": 4, "odds_preserved": 2, "rotation_law": 2, "comparator_table": 2}


def main() -> int:
    checks = [f for name, f in globals().items() if name.startswith("test_criterion_")]
    failures = 0
    for check in checks:
        try:
            check()
        except AssertionError:
            failures += 1
    print(f"\n{len(checks) - failures}/{len(checks)} acceptance criteria passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
