"""Named checks shared by ``mobiusq verify`` and the acceptance gate.

Each check is a function of explicit inputs (queries, a step count, a
tolerance) and returns a :class:`Verdict`: pass or fail, the worst error it
measured, and one line of detail.  ``run_verify`` draws seeded random inputs
for six named checks; ``tests/test_acceptance.py`` calls the same functions
with its own inputs and tolerances, so every property is stated once:

    sector_readout    z0 anchor and value ratio of the start state
    odds_preserved    gamma odds on omega=0 through Grover steps
    rotation_law      omega=0 mass sin((2k+1) theta)**2 after k steps
    comparator_table  the 8 comparator coefficients against the closed form

The first three read each start state where the CLI reads it, on
``gather``'s support, and step it with the step ``read_out_at`` runs.

The comparator check reads the coefficients off the compiled circuit
(``circuit_coefficient``) of the gate model in :mod:`mobiusq.gates`, looking
``build_comparator`` up in this module at each call, so a corrupted
comparator (the tests inject one by replacing this module's name) is caught
by ``run_verify`` and the acceptance gate alike.  The state-prep check runs
``circuits.prepare`` as ``gather`` does, and holds it to the target and, bit
for bit, to the gate model's run of ``compile_state_prep``'s gates, a name
looked up here the same way.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from . import _Record
from .bits import BitString
from .circuits import (
    Support, TransformQuery, _fsum, _on, _squares, cells_by_step, classical_value, gather, prepare, read_out_at,
)
from .gates import (
    StateVector, apply_circuit, basis_index, build_comparator, compile_state_prep, gate_qubits, run_ops,
)
from .layout import DecompositionError, Mode, _keep
from .subset import SubsetTable, zeta_fast

_CHECK_TOL = 1e-9


class Verdict(_Record):
    """Outcome of one check: pass or fail, the worst error measured, and why."""

    __slots__ = ("ok", "worst", "detail")


class SignalDecomposition:
    """Weights of the start state's (gamma, omega) sectors.

    z1 and z0 weigh the omega=0 sectors at gamma=1 and gamma=0, whose
    contents decompose_signal has held to their predicted vectors.  chi_norm
    is the norm of the omega=1 rest: the square root of its correctly
    rounded mass, so no entry order or thread count moves it.
    """

    def __init__(self, z1: complex, z0: complex, chi_norm: float) -> None:
        self.z1, self.z0, self.chi_norm = z1, z0, chi_norm

    @property
    def ratio(self) -> float:
        """Transform value |z1 / z0| ** 2."""
        return float(abs(self.z1) ** 2 / abs(self.z0) ** 2)


def decompose_signal(query: TransformQuery, support: Support) -> SignalDecomposition:
    """Read z1, z0 and chi off the start state at query.x and verify their predicted shape.

    The start state is read on ``support``, the unmarked state's support
    (see :class:`mobiusq.circuits.Support`): its target at query.x is the
    omega=0 part, split by gamma, and the rest is chi.  Each gamma's target
    copies are scattered into a vector over the (alpha_minus, alpha, mu0)
    grouping, which holds the same values, in the same order, as the
    omega=0, beta=0 sector of the dense start state at that gamma.  The
    target only holds copies at beta == 0, so the start state has no
    omega=0 weight outside beta == 0 to check.  chi's mass sums every
    off-target copy, with its multiplicity, in one correctly rounded sum.

    Raises DecompositionError when any component strays from the predicted
    structure by more than 1e-9: z0 must equal base = 2**-((n0+1)/2), z1
    must equal base * sqrt(value), the two omega=0 sectors must match their
    predicted register contents, and the sector masses must be complete.
    """
    layout = support.layout
    if (layout.mode, layout.n, layout.n0) != (query.mode, query.n, query.n0):
        raise ValueError("support layout does not match the query")
    n, n0 = layout.n, layout.n0
    xv = query.x.to_int()
    kept, g = support.keep(query.x), support.amplitudes
    spot = support.alpha_minus | xv << n  # mu0=0; gamma is mu0
    sectors = np.zeros((2, 1 << (n + n0 + 1)), dtype=np.complex128)
    sectors[0, spot] = g
    sectors[1, spot[kept] | 1 << (n + n0)] = g[kept]
    v0, v1 = sectors
    squares = _squares(g)
    chi_norm = math.sqrt(_fsum(w * squares for w in (2.0 * (1 << n0), -_on(support, query.x))))

    # predicted sector contents: psi_minus on alpha_minus, with alpha = x
    keep = _keep(layout, query.x, np.arange(1 << n))
    value = float((np.abs(query.psi_minus) ** 2 * keep).sum())
    base = 2.0 ** (-(n0 + 1) / 2.0)

    # axes gamma, then the mu grouping: mu0, alpha, alpha_minus
    claims = np.zeros((2, 2, 1 << n0, 1 << n), dtype=np.complex128)
    claims[0, 0, xv] = query.psi_minus
    claims[1, 1, xv] = query.psi_minus * keep
    claim0, claim1 = claims.reshape(2, -1)
    z0 = complex(np.vdot(claim0, v0))
    resid0 = float(np.linalg.norm(v0 - z0 * claim0))

    if value > 0.0:
        claim1 /= np.sqrt(value)
        z1 = complex(np.vdot(claim1, v1))
        resid1 = float(np.linalg.norm(v1 - z1 * claim1))
    else:
        z1 = 0.0 + 0.0j
        resid1 = float(np.linalg.norm(v1))

    problems = []
    if abs(z0 - base) > _CHECK_TOL:
        problems.append(f"z0 = {z0}, expected {base}")
    if abs(z1 - base * np.sqrt(value)) > _CHECK_TOL:
        problems.append(f"z1 = {z1}, expected {base * np.sqrt(value)}")
    if resid0 > _CHECK_TOL:
        problems.append(f"gamma=0 sector residual {resid0}")
    if resid1 > _CHECK_TOL:
        problems.append(f"gamma=1 sector residual {resid1}")
    completeness = abs(z1) ** 2 + abs(z0) ** 2 + chi_norm**2
    if abs(completeness - 1.0) > _CHECK_TOL:
        problems.append(f"sector masses sum to {completeness}")
    if problems:
        raise DecompositionError("; ".join(problems))
    return SignalDecomposition(z1=z1, z0=z0, chi_norm=chi_norm)


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
            dec = decompose_signal(q, gather(q))
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


def odds_preserved(queries: Sequence[TransformQuery], steps: int, tol: float) -> Verdict:
    """Gamma odds on omega=0 equal the classical value after k = 0..steps Grover steps."""
    errors = []
    for q in queries:
        want = classical_value(q)
        for cells in cells_by_step(gather(q), q.x, steps):
            errors.append(abs(cells[1] / cells[0] - want))
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
    support = gather(query)
    plan = read_out_at(support, query.x).plan
    theta = math.asin(plan.overlap)
    errors = []
    for k, cells in enumerate(cells_by_step(support, query.x, steps)):
        mass = cells[0] + cells[1]
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


def comparator_table(tol: float) -> Verdict:
    """All 8 (mode, source, sample) circuit coefficients against the closed form."""
    errors, bad = [], []
    for mode in Mode:
        for source in (0, 1):
            for sample in (0, 1):
                got = circuit_coefficient(source, sample, mode)
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


def circuit_coefficient(source_bit: int, sample_bit: int, mode: Mode) -> complex:
    """Amplitude build_comparator moves from alpha_minus = source_bit to alpha = sample_bit, beta = 0.

    build_comparator is looked up in this module at each call, so a replacement there is the one read.
    """
    n, n0 = (1, None) if mode is Mode.MOBIUS else (2, 1)
    query = TransformQuery(mode, n, np.eye(1 << n)[0], BitString.from_int(0, 1), n0)
    layout = query.layout
    amps = np.zeros(1 << layout.total_qubits, dtype=np.complex128)
    amps[basis_index(layout, {"alpha_minus": source_bit})] = 1.0
    state = apply_circuit(StateVector(layout, amps), build_comparator(query))
    return state.amplitudes[basis_index(layout, {"alpha_minus": source_bit, "alpha": sample_bit})]


def _oracle_equivalence(mobius_probs: np.ndarray, marginal_probs: np.ndarray) -> Verdict:
    """Circuit readouts over a whole sweep against the butterfly and direct sums."""
    mobius, marginal = SubsetTable(3, mobius_probs), SubsetTable(5, marginal_probs)
    want = {
        Mode.MOBIUS: zeta_fast(mobius).values,
        Mode.MARGINAL: marginal_probs.reshape(-1, 8).sum(axis=0),  # column xv: low bits == xv
    }
    errors = []
    for mode, table in ((Mode.MOBIUS, mobius), (Mode.MARGINAL, marginal)):
        queries = [TransformQuery.from_probability_table(mode, table, BitString.from_int(xv, 3), n0=3)
                   for xv in range(8)]
        support = gather(queries[0])  # gather does not read x: one support serves every point
        errors += [abs(decompose_signal(q, support).ratio - want[mode][q.x.to_int()]) for q in queries]
    worst = _worst(errors)
    return Verdict(
        worst <= 1e-10,
        worst,
        f"circuit values match the butterfly and direct sums within {worst:.2e}",
    )


def _state_prep_round_trip(target: np.ndarray) -> Verdict:
    """The prep on its own 5-qubit register, as circuits.gather runs it, against the target and the gate model.

    ``circuits.prepare`` must give the bytes of the gate model's run of
    ``compile_state_prep``'s gates, looked up in this module at each call;
    a gate outside the register raises, so leakage fails the check.
    """
    ops = compile_state_prep(target)
    bad = sorted({q for op in ops for q in gate_qubits(op)} - set(range(5)))
    if bad:
        raise ValueError(f"ops touch qubits {bad} outside the low 5")
    amps, gates_run = prepare(target), np.zeros(32, dtype=np.complex128)
    gates_run[0] = 1.0
    run_ops(gates_run, ops)
    if amps.tobytes() != gates_run.tobytes():
        worst = float(np.max(np.abs(amps - gates_run)))
        return Verdict(False, worst, f"the prep differs from the gate model's run of its gates by {worst}")
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


def run_verify(seed: int = 0) -> tuple[bool, list[str]]:
    """Run every check; returns overall success and one report line each."""
    rng = np.random.default_rng(seed)
    sector_queries = [_random_query(rng, Mode.MOBIUS, 3) for _ in range(4)]
    sector_queries += [_random_query(rng, Mode.MARGINAL, 4, 2) for _ in range(3)]
    odds_query = _random_query(rng, Mode.MOBIUS, 3)
    mobius_probs, marginal_probs = _probabilities(rng, 8), _probabilities(rng, 32)
    prep_target = _random_amplitudes(rng, 32)
    uniform = TransformQuery(Mode.MOBIUS, 3, np.full(8, 2.0 ** -1.5), BitString.from_str("111"))

    checks: tuple[tuple[str, Callable[[], Verdict]], ...] = (
        ("comparator-coefficients", lambda: comparator_table(1e-12)),
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
