"""Amplitude amplification toward the omega=0 subspace, and value estimators.

One amplification step reflects about the omega=0 target subspace (negate
every omega=1 amplitude) and then about the start state (2|s><s| - 1), in
that order.  Starting from |s> with target overlap a = sin(theta), k steps
leave omega=0 mass sin((2k+1) theta)**2, and they rescale the whole omega=0
component uniformly, so the conditional gamma odds that encode the
transform value survive amplification unchanged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import TransformQuery, build_start_state
from .sim import QubitIs, StateVector, project, sector
from .subset import BitString

__all__ = [
    "GroverPlan",
    "EstimateReport",
    "plan_grover",
    "grover_step",
    "amplify",
    "estimate_exact",
    "estimate_sampled",
]


@dataclass(frozen=True)
class GroverPlan:
    """overlap a, chosen iteration count, and its predicted success mass."""

    overlap: float
    iterations: int
    predicted_success: float


def plan_grover(state: StateVector) -> GroverPlan:
    """Pick the iteration count maximizing the omega=0 success probability.

    Scans k = 0 .. ceil(pi / (4a)) for the largest sin((2k+1) asin a)**2,
    keeping the smallest k on ties.
    """
    _, a = project(state, QubitIs(state.layout.omega_qubit, 0))
    if a <= 1e-15:
        raise ValueError("target unreachable: state has no omega=0 weight")
    a = min(a, 1.0)
    theta = math.asin(a)
    k_max = math.ceil(math.pi / (4.0 * a))
    best_k, best_s = 0, math.sin(theta) ** 2
    for k in range(1, k_max + 1):
        s = math.sin((2 * k + 1) * theta) ** 2
        if s > best_s + 1e-12:
            best_k, best_s = k, s
    return GroverPlan(overlap=a, iterations=best_k, predicted_success=best_s)


def grover_step(state: StateVector, start: StateVector) -> StateVector:
    """One amplification step: reflect about omega=0, then about the start state."""
    if state.layout != start.layout:
        raise ValueError("state and start layouts differ")
    reflected = state.copy()
    top = sector(reflected, {state.layout.omega_qubit: 1})
    np.negative(top, out=top)
    overlap = np.vdot(start.amplitudes, reflected.amplitudes)
    out = 2.0 * overlap * start.amplitudes
    out -= reflected.amplitudes
    return StateVector(state.layout, out)


def amplify(start: StateVector, plan: GroverPlan) -> StateVector:
    """Run the planned number of amplification steps from the start state."""
    state = start
    for _ in range(plan.iterations):
        state = grover_step(state, start)
    return state


def _cell_mass(state: StateVector, omega: int, gamma: int) -> float:
    """Probability mass of one (omega, gamma) cell.

    Summed over the cell's C-order ravel, i.e. in ascending basis-index
    order, so the rounding is that of a boolean-mask gather of the cell.
    """
    layout = state.layout
    cell = sector(state, {layout.omega_qubit: omega, layout.gamma_qubit: gamma})
    return float((np.abs(cell.ravel()) ** 2).sum())


def _sector_masses(state: StateVector) -> tuple[float, float]:
    """(omega=0 & gamma=0, omega=0 & gamma=1) probability masses."""
    return _cell_mass(state, 0, 0), _cell_mass(state, 0, 1)


def _amplified(query: TransformQuery) -> tuple[StateVector, GroverPlan]:
    start = build_start_state(query)
    plan = plan_grover(start)
    return amplify(start, plan), plan


def estimate_exact(query: TransformQuery) -> float:
    """Transform value as the exact conditional gamma odds on omega=0."""
    final, _ = _amplified(query)
    p00, p01 = _sector_masses(final)
    if p00 <= 0.0:
        raise RuntimeError("gamma=0 reference mass vanished; cannot form the ratio")
    return p01 / p00


@dataclass(eq=False)
class EstimateReport:
    """Sampled estimate of one transform value.

    estimate and halfwidth are None when no (omega=0, gamma=0) reference
    outcomes were drawn; message says why.  The half-width is a 95% normal
    approximation for the odds ratio, delta-method propagated from the
    conditional gamma=1 fraction with a Laplace-smoothed variance, so it is
    positive whenever an estimate exists.
    """

    x: BitString
    exact: float
    estimate: float | None
    halfwidth: float | None
    shots: int
    seed: int
    message: str = ""


def estimate_sampled(query: TransformQuery, shots: int, seed: int) -> EstimateReport:
    """Estimate the transform value from seeded (omega, gamma) measurements.

    Randomness comes from numpy's default PCG64 generator seeded with
    ``seed``; results are deterministic per (query, shots, seed).
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    final, _ = _amplified(query)
    p00, p01 = _sector_masses(final)
    if p00 <= 0.0:
        raise RuntimeError("gamma=0 reference mass vanished; cannot form the ratio")
    exact = p01 / p00

    cells = np.array([p00, p01, _cell_mass(final, 1, 0), _cell_mass(final, 1, 1)])
    cells = np.clip(cells, 0.0, None)
    cells /= cells.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, cells)
    n_ref, n_hit = int(counts[0]), int(counts[1])

    if n_ref == 0:
        return EstimateReport(
            x=query.x,
            exact=exact,
            estimate=None,
            halfwidth=None,
            shots=shots,
            seed=seed,
            message="insufficient shots: no (omega=0, gamma=0) reference outcomes",
        )

    m = n_ref + n_hit
    p_hat = n_hit / m
    p_smooth = (n_hit + 1.0) / (m + 2.0)
    se = math.sqrt(p_smooth * (1.0 - p_smooth) / m) / (1.0 - p_hat) ** 2
    return EstimateReport(
        x=query.x,
        exact=exact,
        estimate=n_hit / n_ref,
        halfwidth=1.96 * se,
        shots=shots,
        seed=seed,
    )
