"""Named checks shared by ``mobiusq verify`` and the acceptance gate.

Each check is a function of explicit inputs (queries, a step count, a
coefficient source, a tolerance) and returns a :class:`Verdict`: pass or
fail, the worst error it measured, and one line of detail.  ``run_verify``
draws seeded random inputs for six named checks; ``tests/test_acceptance.py``
calls the same functions with its own inputs and tolerances, so every
property is stated once:

    sector_readout    z0 anchor and value ratio of the start state
    odds_preserved    gamma odds on omega=0 through Grover steps
    rotation_law      omega=0 mass sin((2k+1) theta)**2 after k steps
    comparator_table  the 8 comparator coefficients against the closed form

Both the comparator check of ``run_verify`` and the acceptance gate read the
coefficients off the compiled circuit (``circuit_coefficient``), so a
corrupted comparator builder (the fault-injection hook used by the tests) is
caught there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .circuits import (
    DecompositionError,
    TransformQuery,
    build_comparator,
    build_start_state,
    classical_value,
    decompose_signal,
)
from .grover import cell_mass, grover_step, plan_grover
from .sim import (
    Mode,
    StateVector,
    apply_circuit,
    basis_index,
    compile_state_prep,
    prepare_low_qubits,
)
from .subset import BitString, SubsetTable, zeta_fast

__all__ = [
    "Verdict",
    "sector_readout",
    "odds_preserved",
    "rotation_law",
    "comparator_table",
    "circuit_coefficient",
    "run_verify",
]

Coefficient = Callable[[int, int, Mode], complex]  # (source bit, sample bit, mode)


@dataclass(frozen=True)
class Verdict:
    """Outcome of one check: pass or fail, the worst error measured, and why."""

    ok: bool
    worst: float
    detail: str


def _worst(errors: Sequence[float]) -> float:
    """Largest error; NaN propagates, so a NaN error fails every tolerance."""
    return float(np.max(errors))


def sector_readout(queries: Sequence[TransformQuery], tol: float) -> Verdict:
    """z0 at its anchor 2**-((n0+1)/2) and |z1/z0|**2 at the classical value.

    Each query's start state is decomposed; a state whose sectors stray from
    their predicted shape (DecompositionError) fails the check.
    """
    z0_errors, ratio_errors = [], []
    for q in queries:
        try:
            dec = decompose_signal(q, build_start_state(q))
        except DecompositionError as exc:
            return Verdict(False, math.inf, f"{q.mode.value} n={q.n} x={q.x}: {exc}")
        z0_errors.append(abs(dec.z0 - 2.0 ** (-(q.n0 + 1) / 2.0)))
        ratio_errors.append(abs(dec.ratio - classical_value(q)))
    worst_z0, worst_ratio = _worst(z0_errors), _worst(ratio_errors)
    worst = max(worst_z0, worst_ratio)
    return Verdict(
        worst <= tol,
        worst,
        f"|z0 - 2^-(n0+1)/2| <= {worst_z0:.2e}, |ratio - classical| <= {worst_ratio:.2e} "
        f"(tol {tol:g})",
    )


def _gamma_odds(state: StateVector) -> float:
    return cell_mass(state, 0, 1) / cell_mass(state, 0, 0)


def odds_preserved(queries: Sequence[TransformQuery], steps: int, tol: float) -> Verdict:
    """Gamma odds on omega=0 equal the classical value after k = 0..steps Grover steps."""
    errors = []
    for q in queries:
        want = classical_value(q)
        start = state = build_start_state(q)
        for k in range(steps + 1):
            if k:
                state = grover_step(state, start)
            errors.append(abs(_gamma_odds(state) - want))
    worst = _worst(errors)
    return Verdict(
        worst <= tol,
        worst,
        f"max |odds - classical| = {worst:.2e} for k = 0..{steps} (tol {tol:g})",
    )


def rotation_law(query: TransformQuery, steps: int, tol: float) -> Verdict:
    """omega=0 mass after k steps equals sin((2k+1) theta)**2 for k = 0..steps.

    theta = asin(a) for the planner's overlap a.  The range must reach the
    iteration count the planner picks, so the law is checked where it is used.
    """
    start = state = build_start_state(query)
    plan = plan_grover(start)
    theta = math.asin(plan.overlap)
    errors = []
    for k in range(steps + 1):
        if k:
            state = grover_step(state, start)
        mass = cell_mass(state, 0, 0) + cell_mass(state, 0, 1)
        errors.append(abs(mass - math.sin((2 * k + 1) * theta) ** 2))
    worst = _worst(errors)
    return Verdict(
        worst <= tol and steps >= plan.iterations,
        worst,
        f"max |mass - sin^2((2k+1)theta)| = {worst:.2e} for k = 0..{steps}, "
        f"planner picks k = {plan.iterations} (tol {tol:g})",
    )


def _closed_form(source_bit: int, sample_bit: int, mode: Mode) -> float:
    """theta(sample >= source) / sqrt(2) (mobius) or theta(sample == source) / sqrt(2) (marginal)."""
    survives = sample_bit >= source_bit if mode is Mode.MOBIUS else sample_bit == source_bit
    return (1.0 if survives else 0.0) / np.sqrt(2.0)


def comparator_table(coefficient: Coefficient, tol: float) -> Verdict:
    """All 8 (mode, source, sample) coefficients of a source against the closed form."""
    errors, bad = [], []
    for mode in Mode:
        for source in (0, 1):
            for sample in (0, 1):
                got = coefficient(source, sample, mode)
                want = _closed_form(source, sample, mode)
                errors.append(abs(got - want))
                if not errors[-1] <= tol:
                    bad.append(
                        f"{mode.value} coefficient ({source},{sample}): "
                        f"gives {got:.6f}, closed form {want:.6f}"
                    )
    worst = _worst(errors)
    if bad:
        return Verdict(False, worst, "; ".join(bad))
    return Verdict(
        True, worst, "all 8 (mode, source, sample) coefficients match the closed form"
    )


def circuit_coefficient(builder: Callable[[TransformQuery], object]) -> Coefficient:
    """Coefficient source reading beta=0 amplitudes off the circuit ``builder`` compiles."""

    def coefficient(source_bit: int, sample_bit: int, mode: Mode) -> complex:
        n, n0 = (1, None) if mode is Mode.MOBIUS else (2, 1)
        query = TransformQuery(mode, n, np.eye(1 << n)[0], BitString.from_int(0, 1), n0)
        layout = query.layout
        amps = np.zeros(1 << layout.total_qubits, dtype=np.complex128)
        amps[basis_index(layout, {"alpha_minus": source_bit})] = 1.0
        state = apply_circuit(StateVector(layout, amps), builder(query))
        return state.amplitudes[
            basis_index(layout, {"alpha_minus": source_bit, "alpha": sample_bit})
        ]

    return coefficient


def _oracle_equivalence(mobius_probs: np.ndarray, marginal_probs: np.ndarray) -> Verdict:
    """Circuit readouts over a whole sweep against the butterfly and direct sums."""
    mobius, marginal = SubsetTable(3, mobius_probs), SubsetTable(5, marginal_probs)
    want = {
        Mode.MOBIUS: zeta_fast(mobius).values,
        Mode.MARGINAL: marginal_probs.reshape(-1, 8).sum(axis=0),  # column xv: low bits == xv
    }
    errors = []
    for mode, table in ((Mode.MOBIUS, mobius), (Mode.MARGINAL, marginal)):
        for xv in range(8):
            query = TransformQuery.from_probability_table(
                mode, table, BitString.from_int(xv, 3), n0=3
            )
            got = decompose_signal(query, build_start_state(query)).ratio
            errors.append(abs(got - want[mode][xv]))
    worst = _worst(errors)
    return Verdict(
        worst <= 1e-10,
        worst,
        f"circuit values match the butterfly and direct sums within {worst:.2e}",
    )


def _state_prep_round_trip(target: np.ndarray) -> Verdict:
    """The compiled prep on its own 5-qubit register, as build_unmarked_state runs it.

    prepare_low_qubits raises on a gate outside the register, so leakage fails the check.
    """
    amps = prepare_low_qubits(compile_state_prep(target), 5)
    err = float(np.max(np.abs(amps - target)))
    if err > 1e-10:
        return Verdict(False, err, f"round-trip error {err}")
    return Verdict(True, err, f"5-qubit complex round trip within {err:.2e}")


def _random_amplitudes(rng: np.random.Generator, size: int) -> np.ndarray:
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return amps / np.linalg.norm(amps)


def _random_query(rng: np.random.Generator, mode: Mode, n: int, n0: int | None = None) -> TransformQuery:
    amps = _random_amplitudes(rng, 1 << n)
    width = n if mode is Mode.MOBIUS else n0
    x = BitString.from_int(int(rng.integers(1 << width)), width)
    return TransformQuery(mode, n, amps, x, n0)


def _probabilities(rng: np.random.Generator, size: int) -> np.ndarray:
    probs = rng.random(size)
    return probs / probs.sum()


def run_verify(
    seed: int = 0,
    comparator_builder: Callable[[TransformQuery], object] | None = None,
) -> tuple[bool, list[str]]:
    """Run every check; returns overall success and one report line each.

    ``comparator_builder`` overrides the circuit builder under test, which
    lets the test suite inject a corrupted comparator and confirm the
    coefficient check catches it.
    """
    builder = build_comparator if comparator_builder is None else comparator_builder
    rng = np.random.default_rng(seed)
    sector_queries = [_random_query(rng, Mode.MOBIUS, 3) for _ in range(4)]
    sector_queries += [_random_query(rng, Mode.MARGINAL, 4, 2) for _ in range(3)]
    odds_query = _random_query(rng, Mode.MOBIUS, 3)
    mobius_probs, marginal_probs = _probabilities(rng, 8), _probabilities(rng, 32)
    prep_target = _random_amplitudes(rng, 32)
    uniform = TransformQuery(Mode.MOBIUS, 3, np.full(8, 2.0 ** -1.5), BitString.from_str("111"))

    checks: tuple[tuple[str, Callable[[], Verdict]], ...] = (
        ("comparator-coefficients", lambda: comparator_table(circuit_coefficient(builder), 1e-12)),
        ("sector-decomposition", lambda: sector_readout(sector_queries, 1e-10)),
        ("ratio-preservation", lambda: odds_preserved([odds_query], 8, 1e-9)),
        ("oracle-equivalence", lambda: _oracle_equivalence(mobius_probs, marginal_probs)),
        ("state-prep-round-trip", lambda: _state_prep_round_trip(prep_target)),
        ("amplification-calibration", lambda: rotation_law(uniform, 10, 1e-9)),
    )
    lines = []
    all_ok = True
    for name, check in checks:
        try:
            verdict = check()
            ok, detail = verdict.ok, verdict.detail
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"crashed: {exc}"
        all_ok &= ok
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return all_ok, lines
