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
read_out_at, the numpy kernel's readout (:mod:`mobiusq.pure` runs the
same one on real floats), plans, amplifies and measures the four
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

from . import _defer
from .bits import BitString
from .circuits import Support, TransformQuery, gather
from .layout import GroverPlan  # noqa: F401  (re-exported: perfbench/tracer.py reads grover.GroverPlan)
from .layout import Readout, _plan

# The dense readout's names, bound from mobiusq.gates on first use.  Nothing
# here calls build_start_state: perfbench/tracer.py reads and replaces it in this module.
_DEFERRED = {"gates": ("amplify", "build_start_state", "plan_grover")}
__getattr__ = _defer(globals(), _DEFERRED)[1]


def _fsum(parts: Iterable[np.ndarray]) -> float:
    """Correctly rounded sum of every float64 in ``parts`` (math.fsum, Shewchuk's algorithm).

    The result depends on the exact sum of the nonzero terms alone, not on
    their order, layout or thread count; zeros change no exact sum and are
    dropped.  Each part is read in place through a memoryview, one at a time.
    """
    return math.fsum(itertools.chain.from_iterable(memoryview(part[part != 0.0]) for part in parts))


def _dot_terms(s: np.ndarray, r: np.ndarray, part: int) -> np.ndarray:
    """The terms of Re <s|r> (part 0) or Im <s|r> (part 1), one row per entry: the rounded elementwise products.

    With s = s_re + i s_im and r = r_re + i r_im per entry, the real part
    sums s_re r_re and s_im r_im, the imaginary part s_re r_im and -(s_im r_re).
    """
    s2, r2 = s.view(np.float64).reshape(-1, 2), r.view(np.float64).reshape(-1, 2)
    return s2 * r2 if part == 0 else s2 * r2[:, ::-1] * (1.0, -1.0)


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

    def part(k: int) -> float:
        terms_t, terms_o = _dot_terms(g, t, k), _dot_terms(g, o, k)
        return _fsum(w * a for w, a in ((on, terms_t), (-2.0 * alphas, terms_o), (on, terms_o)))

    return complex(part(0), part(1))


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
