"""Amplitude amplification toward the omega=0 subspace, and value estimators.

One amplification step reflects about the omega=0 target subspace (negate
every omega=1 amplitude) and then about the start state (2|s><s| - 1), in
that order.  Starting from |s> with target overlap a = sin(theta), k steps
leave omega=0 mass sin((2k+1) theta)**2, and they rescale the whole omega=0
component uniformly, so the conditional gamma odds that encode the
transform value survive amplification unchanged.

The steps move amplitude within the 2-D invariant subspace of Brassard,
Hoyer, Mosca and Tapp (quant-ph/0005055), and they are elementwise: every
copy of an alpha_minus value a starts at g[a] (see
:class:`mobiusq.circuits.Support`), so the copies with the same a and
target flag stay equal.  The state at x is two 2**n vectors, t on target
and o off it, with 1 + keep[a] and 2M - 1 - keep[a] copies (M = 2**n0).
read_out_at, the one readout, plans, amplifies and measures the four
(omega, gamma) cell masses on them; the exact value and the seeded sample
both come from it.  Each reduction is one correctly rounded math.fsum of
exactly weighted copies of a term array, each weight a power of two, a
sign, keep or the column on = 1 + keep: the target copies of v enter as
on v, the off-target ones as 2M v - on v.  So it sums the same real number
as every basis index of the dense state does (``gates.plan_grover`` and
``gates.amplify``), to the same float at any term order or BLAS thread count.
"""
from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator

import numpy as np

from . import _Record, _defer
from .circuits import Support, TransformQuery, gather
from .subset import BitString

# The dense readout's names, bound from mobiusq.gates on first use.  Nothing
# here calls build_start_state: perfbench/tracer.py reads and replaces it in this module.
# The sampler is bound on the first Readout.sample, so a run without --shots compiles none of it.
_DEFERRED = {"gates": ("amplify", "build_start_state", "plan_grover"), "_pcg64": ("multinomial",)}
_load, __getattr__ = _defer(globals(), _DEFERRED)


class GroverPlan(_Record):
    """overlap a, chosen iteration count, and its predicted success mass."""

    __slots__ = ("overlap", "iterations", "predicted_success")


def _fsum(parts: Iterable[np.ndarray]) -> float:
    """Correctly rounded sum of every float64 in ``parts`` (math.fsum, Shewchuk's algorithm).

    The result depends on the exact sum of the nonzero terms alone, not on
    their order, layout or thread count; zeros change no exact sum and are
    dropped.  Each part is read in place through a memoryview, one at a time.
    """
    return math.fsum(itertools.chain.from_iterable(memoryview(part[part != 0.0]) for part in parts))


def _dot_terms(s: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The terms of Re and Im <s|r>, one row per entry: the rounded elementwise products.

    With s = s_re + i s_im and r = r_re + i r_im per entry, the real part
    sums s_re r_re and s_im r_im, the imaginary part s_re r_im and -(s_im r_re).
    """
    s2, r2 = s.view(np.float64).reshape(-1, 2), r.view(np.float64).reshape(-1, 2)
    return s2 * r2, s2 * r2[:, ::-1] * (1.0, -1.0)


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


def _squares(amps: np.ndarray) -> np.ndarray:
    """re**2 and im**2 of each entry, one row per entry."""
    return np.square(amps.view(np.float64).reshape(-1, 2))


def _on(support: Support, x: BitString) -> np.ndarray:
    """The target copies of each entry at x, 1 + keep[a], as a float64 column."""
    return (1.0 + support.keep(x))[:, None]


def _steps(g: np.ndarray, on: np.ndarray, alphas: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(t, o) of the start state g after k = 0, 1, 2, ... steps, updated in place.

    With r = (t, -o), the omega reflection, and c = 2 <g|r>, a step sets
    t <- (-t) + c g and o <- o + c g: the dense step (-r) + c * start of
    ``gates.amplify``, bit for bit.
    """
    t, o = g.copy(), g.copy()
    while True:
        yield t, o
        cg = 2.0 * _overlap(g, t, o, on, alphas) * g
        np.negative(t, out=t)
        t += cg
        o += cg


def _overlap(g: np.ndarray, t: np.ndarray, o: np.ndarray, on: np.ndarray, alphas: int) -> complex:
    """<g|r> over every copy: on copies of each t term and 2 * alphas - on of each -o term."""
    (real_t, imag_t), (real_o, imag_o) = _dot_terms(g, t), _dot_terms(g, o)
    real = _fsum(w * a for w, a in ((on, real_t), (-2.0 * alphas, real_o), (on, real_o)))
    return complex(real, _fsum(w * a for w, a in ((on, imag_t), (-2.0 * alphas, imag_o), (on, imag_o))))


def _cells(t: np.ndarray, o: np.ndarray, on: np.ndarray, alphas: int) -> tuple[float, float, float, float]:
    """Masses of the (omega, gamma) cells (0, 0), (0, 1), (1, 0) and (1, 1); gamma is mu0.

    Target copies: one at mu0=0, on - 1 (keep) at mu0=1.  Off-target
    copies: alphas - 1 at mu0=0, alphas - keep at mu0=1.
    """
    target, off, kept = _squares(t), _squares(o), on - 1.0
    return (
        _fsum([target]),
        _fsum([kept * target]),
        _fsum(w * off for w in (alphas, -1.0)),
        _fsum(w * off for w in (alphas, -kept)),
    )


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
        cells)``, drawn by mobiusq's own copy of numpy's stream
        (:mod:`mobiusq._pcg64`, checked against numpy 2.4.6), so they do not
        depend on the numpy installed.  Results are deterministic per
        (readout, shots, seed).  Raises RuntimeError, like ``exact``, when
        the reference mass vanished.
        """
        if shots < 1:
            raise ValueError("shots must be >= 1")
        self.exact  # raises when the gamma=0 reference mass vanished
        cells = np.array(self.cells)
        cells /= cells.sum()
        _load("_pcg64")
        n_ref, n_hit = multinomial(seed, shots, cells.tolist())[:2]

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

    The plan and the cells equal, bit for bit, those of the dense start
    state at x read out over every basis index (``gates.plan_grover`` and
    ``gates.amplify``), because every reduction rounds the same exact sum;
    see the module docstring.
    """
    g, on, alphas = support.amplitudes, _on(support, x), 1 << support.layout.n0
    plan = _plan(_fsum([on * _squares(g)]))
    t, o = next(itertools.islice(_steps(g, on, alphas), plan.iterations, None))
    return Readout(plan, _cells(t, o, on, alphas))


def cells_by_step(support: Support, x: BitString, steps: int) -> Iterator[tuple[float, float, float, float]]:
    """``Readout.cells`` of the start state at x after each of k = 0..steps steps.

    Runs read_out_at's step on the support; ``mobiusq verify`` checks the
    gamma odds and the rotation law at every k with it.
    """
    g, on, alphas = support.amplitudes, _on(support, x), 1 << support.layout.n0
    for _, (t, o) in zip(range(steps + 1), _steps(g, on, alphas)):
        yield _cells(t, o, on, alphas)


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
