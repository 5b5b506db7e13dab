"""What both transform kernels share: the register layout and the readout records.

The layout packs six registers onto consecutive qubits, low indices first:
alpha_minus (n qubits), alpha (n0), beta (n0), gamma, mu0, omega (one
each).  Qubit q is the 2**q bit of the amplitude index, and points of the
lattice are :class:`mobiusq.bits.BitString`, with that module's bit
convention.

What one amplified start state yields is a :class:`Readout`: the Grover
plan, the four (omega, gamma) cell masses, and from them the exact value
and a seeded estimate.  The numpy kernel (``circuits.read_out_at``) and the
pure-Python one (:mod:`mobiusq.pure`) both produce it.

This module loads no numpy: a transform run of the CLI, the numpy kernel
(:mod:`mobiusq.circuits`) and the pure-Python kernel share it.  Classical
minfind loads none of it.
"""
from __future__ import annotations

import math
from enum import Enum

from . import _Record

MAX_QUBITS = 26


def json_int(obj: dict, key: str) -> int:
    """obj[key], which must be a JSON integer: no float, string or bool."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"'{key}' must be an integer, got {value!r}")
    return value


class Mode(Enum):
    MOBIUS = "mobius"
    MARGINAL = "marginal"


class RegisterLayout(_Record):
    """Register-to-qubit map for one simulation instance.

    ``n`` sizes alpha_minus, ``n0`` sizes alpha and beta.  Mobius mode forces
    n0 == n (None means n); marginal mode needs 0 < n0 < n.
    """

    __slots__ = ("mode", "n", "n0")

    def __init__(self, mode: Mode, n: int, n0: int | None = None) -> None:
        mode = Mode(mode)
        if n < 1:
            raise ValueError("n must be >= 1")
        if mode is Mode.MOBIUS:
            n0 = n if n0 is None else n0
            if n0 != n:
                raise ValueError(f"mobius mode needs n0 == n, got n0={n0}, n={n}")
        elif n0 is None:
            raise ValueError("marginal mode needs an explicit n0")
        elif not 0 < n0 < n:
            raise ValueError(f"marginal mode needs 0 < n0 < n, got n0={n0}, n={n}")
        super().__init__(mode, n, n0)
        if self.total_qubits > MAX_QUBITS:
            raise ValueError(
                f"layout needs {self.total_qubits} qubits, cap is {MAX_QUBITS}"
            )

    @property
    def total_qubits(self) -> int:
        return self.n + 2 * self.n0 + 3

    @property
    def registers(self) -> dict[str, range]:
        n, n0 = self.n, self.n0
        return {
            "alpha_minus": range(0, n),
            "alpha": range(n, n + n0),
            "beta": range(n + n0, n + 2 * n0),
            "gamma": range(n + 2 * n0, n + 2 * n0 + 1),
            "mu0": range(n + 2 * n0 + 1, n + 2 * n0 + 2),
            "omega": range(n + 2 * n0 + 2, n + 2 * n0 + 3),
        }

    def register(self, name: str) -> range:
        try:
            return self.registers[name]
        except KeyError:
            raise KeyError(f"unknown register {name!r}; have {tuple(self.registers)}") from None

    @property
    def gamma_qubit(self) -> int:
        return self.register("gamma")[0]

    @property
    def mu0_qubit(self) -> int:
        return self.register("mu0")[0]

    @property
    def omega_qubit(self) -> int:
        return self.register("omega")[0]

    def to_json_obj(self) -> dict:
        return {
            "mode": self.mode.value,
            "n": self.n,
            "n0": self.n0,
            "registers": {k: [r.start, len(r)] for k, r in self.registers.items()},
        }


class DecompositionError(RuntimeError):
    """Start-state structure violated its predicted shape: a circuit bug."""


def _keep(layout: RegisterLayout, x: BitString, alpha_minus):
    """Which rows alpha_minus of the table add up to the value at x, as flags; an int or an int array.

    Mobius: every y <= x bitwise.  Marginal: every y whose low n0 bits equal x.
    """
    xv = x.to_int()
    if layout.mode is Mode.MOBIUS:
        return (alpha_minus & xv) == alpha_minus
    return (alpha_minus & ((1 << layout.n0) - 1)) == xv


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
        from ._pcg64 import multinomial  # here, so a run without --shots compiles none of the sampler

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
