"""What one amplified start state yields: the Grover plan, the four cell masses, the estimate.

Both kernels produce these records, the numpy one (``grover.read_out_at``)
and the pure-Python one (:mod:`mobiusq.pure`), and this module loads no
numpy.  ``grover`` re-exports every name.
"""
from __future__ import annotations

import math

from . import _Record, _defer

# The sampler is bound on the first Readout.sample, so a run without --shots compiles none of it.
_DEFERRED = {"_pcg64": ("multinomial",)}
_load, __getattr__ = _defer(globals(), _DEFERRED)


class GroverPlan(_Record):
    """overlap a, chosen iteration count, and its predicted success mass."""

    __slots__ = ("overlap", "iterations", "predicted_success")


def _plan(mass: float) -> GroverPlan:
    """The plan for a start state whose omega=0 mass is ``mass``."""
    a = math.sqrt(mass)
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


class EstimateReport:
    """Sampled estimate of one transform value.

    estimate and halfwidth are None when no (omega=0, gamma=0) reference
    outcomes were drawn; message says why.  The half-width is a 95% normal
    approximation for the odds ratio, delta-method propagated from the
    conditional gamma=1 fraction with a Laplace-smoothed variance, so it is
    positive whenever an estimate exists.
    """

    def __init__(self, estimate: float | None, halfwidth: float | None, message: str = "") -> None:
        self.estimate, self.halfwidth, self.message = estimate, halfwidth, message


class Readout(_Record):
    """What one amplified start state yields.

    cells holds the probability masses of the (omega, gamma) cells (0, 0),
    (0, 1), (1, 0) and (1, 1) of the amplified state.
    """

    __slots__ = ("plan", "cells")

    @property
    def exact(self) -> float:
        """Transform value as the exact conditional gamma odds on omega=0."""
        p00, p01 = self.cells[:2]
        if p00 <= 0.0:
            raise RuntimeError("gamma=0 reference mass vanished; cannot form the ratio")
        return p01 / p00

    def sample(self, shots: int, seed: int) -> EstimateReport:
        """Estimate the value from seeded (omega, gamma) measurements.

        The counts are ``np.random.default_rng(seed).multinomial(shots,
        cells / cells.sum())``, drawn by mobiusq's own copy of numpy's stream
        (:mod:`mobiusq._pcg64`, checked against numpy 2.4.6), so they do not
        depend on the numpy installed.  numpy sums fewer than eight terms
        left to right from 0.0, and so does the normalisation here.  Results
        are deterministic per (readout, shots, seed).  Raises RuntimeError,
        like ``exact``, when the reference mass vanished.
        """
        if shots < 1:
            raise ValueError("shots must be >= 1")
        self.exact  # raises when the gamma=0 reference mass vanished
        total = 0.0
        for cell in self.cells:
            total += cell
        _load("_pcg64")
        n_ref, n_hit = multinomial(seed, shots, [cell / total for cell in self.cells])[:2]

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
