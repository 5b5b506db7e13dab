"""Amplitude amplification toward the omega=0 subspace, and value estimators.

One amplification step reflects about the omega=0 target subspace (negate
every omega=1 amplitude) and then about the start state (2|s><s| - 1), in
that order.  Starting from |s> with target overlap a = sin(theta), k steps
leave omega=0 mass sin((2k+1) theta)**2, and they rescale the whole omega=0
component uniformly, so the conditional gamma odds that encode the
transform value survive amplification unchanged.

read_out amplifies one start state and keeps what every estimator needs
from it: the plan and the four (omega, gamma) cell masses.  The exact value
and the seeded sample are both read from that one readout, so a start state
built or marked once (see :func:`mobiusq.circuits.marked`) is amplified once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import TransformQuery, build_start_state
from .sim import StateVector, sector

__all__ = [
    "GroverPlan",
    "Readout",
    "EstimateReport",
    "plan_grover",
    "grover_step",
    "amplify",
    "cell_mass",
    "read_out",
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
    keeping the smallest k on ties.  omega is the top qubit, so a is the norm
    of the state's first half, read in place.
    """
    a = float(np.linalg.norm(sector(state, {state.layout.omega_qubit: 0}).ravel()))
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


def _step_in_place(state: StateVector, start: StateVector) -> None:
    """One amplification step, overwriting ``state``.

    With r the state after the omega reflection and c = 2 <start|r>, the
    result c * start - r is formed as (-r) + c * start: negation is exact and
    IEEE addition commutes, so the bits are the same, while the c * start
    product is formed one omega half at a time rather than as a full copy.
    """
    omega = state.layout.omega_qubit
    top = sector(state, {omega: 1})
    np.negative(top, out=top)
    c = 2.0 * np.vdot(start.amplitudes, state.amplitudes)
    np.negative(state.amplitudes, out=state.amplitudes)
    for v in (0, 1):
        half = sector(state, {omega: v})
        half += c * sector(start, {omega: v})


def grover_step(state: StateVector, start: StateVector) -> StateVector:
    """One amplification step: reflect about omega=0, then about the start state."""
    if state.layout != start.layout:
        raise ValueError("state and start layouts differ")
    out = state.copy()
    _step_in_place(out, start)
    return out


def amplify(start: StateVector, plan: GroverPlan) -> StateVector:
    """Run the planned number of amplification steps from the start state.

    The steps update one working copy in place; with no steps the start
    state itself is returned.
    """
    if plan.iterations == 0:
        return start
    state = start.copy()
    for _ in range(plan.iterations):
        _step_in_place(state, start)
    return state


def cell_mass(state: StateVector, omega: int, gamma: int) -> float:
    """Probability mass of one (omega, gamma) cell.

    Summed over the cell's C-order ravel, i.e. in ascending basis-index
    order, so the rounding is that of a boolean-mask gather of the cell.
    """
    layout = state.layout
    cell = sector(state, {layout.omega_qubit: omega, layout.gamma_qubit: gamma})
    return float((np.abs(cell.ravel()) ** 2).sum())


@dataclass(eq=False)
class EstimateReport:
    """Sampled estimate of one transform value.

    estimate and halfwidth are None when no (omega=0, gamma=0) reference
    outcomes were drawn; message says why.  The half-width is a 95% normal
    approximation for the odds ratio, delta-method propagated from the
    conditional gamma=1 fraction with a Laplace-smoothed variance, so it is
    positive whenever an estimate exists.
    """

    estimate: float | None
    halfwidth: float | None
    message: str = ""


@dataclass(frozen=True)
class Readout:
    """What one amplified start state yields.

    cells holds the probability masses of the (omega, gamma) cells (0, 0),
    (0, 1), (1, 0) and (1, 1) of the amplified state.
    """

    plan: GroverPlan
    cells: tuple[float, float, float, float]

    @property
    def exact(self) -> float:
        """Transform value as the exact conditional gamma odds on omega=0."""
        p00, p01 = self.cells[:2]
        if p00 <= 0.0:
            raise RuntimeError("gamma=0 reference mass vanished; cannot form the ratio")
        return p01 / p00

    def sample(self, shots: int, seed: int) -> EstimateReport:
        """Estimate the value from seeded (omega, gamma) measurements.

        Randomness comes from numpy's default PCG64 generator seeded with
        ``seed``; results are deterministic per (readout, shots, seed).
        Raises RuntimeError, like ``exact``, when the reference mass vanished.
        """
        if shots < 1:
            raise ValueError("shots must be >= 1")
        self.exact  # raises when the gamma=0 reference mass vanished
        cells = np.array(self.cells)
        cells /= cells.sum()
        rng = np.random.default_rng(seed)
        counts = rng.multinomial(shots, cells)
        n_ref, n_hit = int(counts[0]), int(counts[1])

        if n_ref == 0:
            return EstimateReport(
                estimate=None,
                halfwidth=None,
                message="insufficient shots: no (omega=0, gamma=0) reference outcomes",
            )

        m = n_ref + n_hit
        p_hat = n_hit / m
        p_smooth = (n_hit + 1.0) / (m + 2.0)
        se = math.sqrt(p_smooth * (1.0 - p_smooth) / m) / (1.0 - p_hat) ** 2
        return EstimateReport(estimate=n_hit / n_ref, halfwidth=1.96 * se)


def read_out(start: StateVector) -> Readout:
    """Plan, amplify and measure the cell masses of one start state, once."""
    plan = plan_grover(start)
    final = amplify(start, plan)
    cells = tuple(cell_mass(final, omega, gamma) for omega in (0, 1) for gamma in (0, 1))
    return Readout(plan, cells)


def estimate_exact(query: TransformQuery) -> float:
    """Transform value as the exact conditional gamma odds on omega=0."""
    return read_out(build_start_state(query)).exact


def estimate_sampled(query: TransformQuery, shots: int, seed: int) -> EstimateReport:
    """Seeded estimate of the transform value; see :meth:`Readout.sample`."""
    return read_out(build_start_state(query)).sample(shots, seed)
