"""Amplitude amplification toward the omega=0 subspace, and value estimators.

One amplification step reflects about the omega=0 target subspace (negate
every omega=1 amplitude) and then about the start state (2|s><s| - 1), in
that order.  Starting from |s> with target overlap a = sin(theta), k steps
leave omega=0 mass sin((2k+1) theta)**2, and they rescale the whole omega=0
component uniformly, so the conditional gamma odds that encode the
transform value survive amplification unchanged.

The steps only mix the start state with its omega reflection, so they move
amplitude within the start state's support alone, the 2-D invariant subspace
of Brassard, Hoyer, Mosca and Tapp (quant-ph/0005055).  read_out_at is the
one readout: it plans, amplifies and measures the four (omega, gamma) cell
masses of the start state at x on that support, gathered once per table
(see :class:`mobiusq.circuits.Support`).  The exact value and the seeded
sample are both read from that one readout, so a start state is amplified
once; estimate_exact and estimate_sampled gather and read out one point,
and cells_by_step runs the same steps one at a time for ``mobiusq verify``.
plan_grover and amplify run the plan and the steps over every basis index
of a dense state.  Every reduction (the overlap, each <start|r> and the
four cell masses) is a correctly rounded math.fsum over real and imaginary
parts, so the results do not depend on the order of the terms, on zero
entries or on the BLAS thread count.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

# Nothing here calls build_start_state: perfbench/tracer.py reads and replaces it in this module.
from .circuits import Support, TransformQuery, build_start_state, gather
from .sim import StateVector
from .subset import BitString


@dataclass(frozen=True)
class GroverPlan:
    """overlap a, chosen iteration count, and its predicted success mass."""

    overlap: float
    iterations: int
    predicted_success: float


# Entries per reduction or update chunk: bounds the temporaries of a
# readout, dense or on a support, to a few chunks instead of whole copies.
_CHUNK = 1 << 14


def _chunks(size: int) -> Iterator[slice]:
    """Consecutive slices of at most _CHUNK entries covering range(size)."""
    return (slice(i, i + _CHUNK) for i in range(0, size, _CHUNK))


def _fsum(parts: Iterable[np.ndarray]) -> float:
    """Correctly rounded sum of every float64 in ``parts`` (math.fsum, Shewchuk's algorithm).

    The result depends on the multiset of nonzero terms alone: not on their
    order, on the array layout or on any thread count.  Zero terms change no
    exact sum, so they are dropped before the sum, which keeps a dense
    state's sums as cheap as its support's.
    """
    return math.fsum(itertools.chain.from_iterable(part[part != 0.0].tolist() for part in parts))


def _mass(amps: np.ndarray, where: np.ndarray) -> float:
    """Probability mass of the flagged entries: one fsum of their re**2 and im**2."""
    return _fsum(np.square(amps[c][where[c]].view(np.float64)) for c in _chunks(amps.size))


def _inner(start: np.ndarray, state: np.ndarray) -> complex:
    """<start|state>, each part one fsum of the rounded elementwise products.

    With s = s_re + i s_im and r = r_re + i r_im per entry, the real part sums
    s_re r_re and s_im r_im, the imaginary part s_re r_im and -(s_im r_re).
    """
    s, r = start.view(np.float64), state.view(np.float64)  # re, im interleaved
    wide = [slice(2 * c.start, 2 * c.stop) for c in _chunks(start.size)]
    real = _fsum(s[w] * r[w] for w in wide)
    imag = _fsum(
        part
        for w in wide
        for part in (s[w][0::2] * r[w][1::2], np.negative(s[w][1::2] * r[w][0::2]))
    )
    return complex(real, imag)


def _plan(amps: np.ndarray, target: np.ndarray) -> GroverPlan:
    """The plan for a start state whose omega=0 entries ``target`` flags."""
    a = math.sqrt(_mass(amps, target))
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


def _step_in_place(state: np.ndarray, start: np.ndarray, off_target: np.ndarray) -> None:
    """One amplification step on flat amplitudes, overwriting ``state``.

    With r the state after the omega reflection (negate the ``off_target``,
    omega=1, entries) and c = 2 <start|r>, the result c * start - r is formed
    as (-r) + c * start: negation is exact and IEEE addition commutes, so the
    bits are those of the textbook order, while the c * start product is
    formed one chunk at a time rather than as a full copy.
    """
    np.negative(state, out=state, where=off_target)
    c = 2.0 * _inner(start, state)
    np.negative(state, out=state)
    for chunk in _chunks(state.size):
        state[chunk] += c * start[chunk]


def _amplify(start: np.ndarray, target: np.ndarray, iterations: int) -> np.ndarray:
    """``start`` after ``iterations`` steps, on one working copy; ``start`` itself for none."""
    if iterations == 0:
        return start
    state = start.copy()
    off_target = ~target
    for _ in range(iterations):
        _step_in_place(state, start, off_target)
    return state


def _cells(amps: np.ndarray, target: np.ndarray, gamma: np.ndarray) -> tuple[float, float, float, float]:
    """Masses of the (omega, gamma) cells (0, 0), (0, 1), (1, 0) and (1, 1) of flat amplitudes."""
    return tuple(_mass(amps, omega & g) for omega in (target, ~target) for g in (~gamma, gamma))


def _qubit_set(state: StateVector, qubit: int) -> np.ndarray:
    """Flags of the basis indices, all of them in ascending order, whose ``qubit`` is 1.

    Built from a (high, 2, low) block rather than an index array, so the
    flags of plan_grover and amplify cost 1/16 of the state instead of a
    2**N int64 copy.
    """
    flags = np.zeros((state.amplitudes.size >> (qubit + 1), 2, 1 << qubit), dtype=bool)
    flags[:, 1] = True
    return flags.reshape(-1)


def plan_grover(state: StateVector) -> GroverPlan:
    """Pick the iteration count maximizing the omega=0 success probability.

    Scans k = 0 .. ceil(pi / (4a)) for the largest sin((2k+1) asin a)**2,
    keeping the smallest k on ties.  a is the norm of the omega=0 entries,
    the square root of one correctly rounded sum of their squared parts.
    No CLI command calls it: acceptance criterion 6 and
    ``perfbench/tracer.py``'s one-shot check do.
    """
    return _plan(state.amplitudes, ~_qubit_set(state, state.layout.omega_qubit))


def amplify(start: StateVector, plan: GroverPlan) -> StateVector:
    """Run the planned number of amplification steps from the start state.

    The steps update one working copy in place; with no steps the start
    state itself is returned.  No CLI command calls it: acceptance criterion
    6 and ``perfbench/tracer.py``'s one-shot check do.
    """
    if plan.iterations == 0:
        return start
    target = ~_qubit_set(start, start.layout.omega_qubit)
    return StateVector(start.layout, _amplify(start.amplitudes, target, plan.iterations))


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


def read_out_at(support: Support, x: BitString) -> Readout:
    """Plan, amplify and measure the four cells of the start state at x, on ``support`` alone.

    The support's ``target(x)`` flags the omega=0 entries and ``gamma`` the
    gamma=1 ones.  It holds every nonzero amplitude of the start state: a
    step mixes the state only with the start state and its omega reflection,
    so an amplitude that is zero in the start state stays zero, and the
    readout of the support equals, plan and cells bit for bit, the readout
    of the dense start state at x; see :class:`mobiusq.circuits.Support`.
    """
    start, target = support.amplitudes, support.target(x)
    plan = _plan(start, target)
    return Readout(plan, _cells(_amplify(start, target, plan.iterations), target, support.gamma))


def cells_by_step(support: Support, x: BitString, steps: int) -> Iterator[tuple[float, float, float, float]]:
    """``Readout.cells`` of the start state at x after each of k = 0..steps steps.

    Runs read_out_at's step on the support, on one working copy; ``mobiusq
    verify`` checks the gamma odds and the rotation law at every k with it.
    """
    start, target, gamma = support.amplitudes, support.target(x), support.gamma
    state = start.copy()
    off_target = ~target
    for k in range(steps + 1):
        if k:
            _step_in_place(state, start, off_target)
        yield _cells(state, target, gamma)


def estimate_exact(query: TransformQuery) -> float:
    """Transform value as the exact conditional gamma odds on omega=0 at query.x.

    This is :func:`read_out_at` on ``gather(query)``, the readout a CLI row's
    ``exact`` holds, bit for bit.
    """
    return read_out_at(gather(query), query.x).exact


def estimate_sampled(query: TransformQuery, shots: int, seed: int) -> EstimateReport:
    """Seeded estimate of the transform value at query.x; see :meth:`Readout.sample`.

    This is :func:`read_out_at` on ``gather(query)``, sampled as a CLI row is.
    """
    return read_out_at(gather(query), query.x).sample(shots, seed)
