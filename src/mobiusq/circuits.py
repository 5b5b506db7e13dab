"""The numpy transform kernel: the state prep, the support of the start state, and its readout.

A query carries an amplitude-encoded table psi_minus on alpha_minus (the
register layout is :mod:`mobiusq.layout`'s) and an evaluation point x.  A
transform run evaluates it in three stages, and :mod:`mobiusq.pure` runs the
same three on the floats of a real table, bit for bit.

*State prep.*  The prep of alpha_minus is a rotation tree (Mottonen et al.,
quant-ph/0407010) run from |0...0>: ``rotation_tree`` computes its angles,
and since each Ry level meets a qubit still at 0, ``prepare`` runs it as
products, one float64 entry per prefix split into its cos and sin shares,
and then multiplies in the phase level.  No gate is built: the gate model's
``compile_state_prep`` turns the same angles into gates, and its run of them
has the same bytes.

*The start state and its support.*  The start-state circuit
(:mod:`mobiusq.gates`) entangles two branches on mu0: the mu0=1 branch runs a
comparator that Hadamard-samples alpha and marks subset violations (mobius)
or bit mismatches (marginal) on beta; the mu0=0 branch just Hadamard-spreads
alpha.  A final X on omega, controlled on (alpha == x and beta == 0), moves
the two on-target components to omega=0:

    z1 * |psi1>|beta=0,gamma=1>|omega=0>   with |z1| = sqrt(value) * base
  + z0 * |psi0>|beta=0,gamma=0>|omega=0>   with  z0  = base
  + |chi>|omega=1>

where base = 2**-((n0+1)/2) and value is the subset sum f(x) (mobius) or
the marginal probability P(x) (marginal).  The conditional gamma odds on
omega=0 therefore equal the transform value.  x enters only that final mark,
and every earlier op leaves one amplitude per (alpha_minus, alpha, mu0)
value, all at omega=1: the X's on omega, gamma and beta only relabel
amplitudes.  The amplitude of the alpha_minus value a is g[a] whatever alpha
and mu0 hold, so ``gather`` returns one :class:`Support` entry per nonzero
g[a], with no gate run past the prep and no dense state.  It serves every
point of a table, and ``Support.start_state(x)`` scatters it into the dense
start state at x when one is wanted (``--dump-state``).

*Amplification and readout.*  One amplification step reflects about the
omega=0 target subspace (negate every omega=1 amplitude) and then about the
start state (2|s><s| - 1), in that order.  Starting from |s> with target
overlap a = sin(theta), k steps leave omega=0 mass sin((2k+1) theta)**2, and
they rescale the whole omega=0 component uniformly, so the gamma odds that
encode the value survive amplification unchanged.  The steps move amplitude
within the 2-D invariant subspace of Brassard, Hoyer, Mosca and Tapp
(quant-ph/0005055), and they are elementwise: every copy of a starts at
g[a], so the copies with the same a and target flag stay equal.  The state
at x is two 2**n vectors, t on target and o off it, with 1 + keep[a] and
2M - 1 - keep[a] copies (M = 2**n0).  ``read_out_at`` plans, amplifies and
measures the four (omega, gamma) cell masses on them; the exact value and
the seeded sample both come from it.  Each reduction is one correctly
rounded math.fsum of exactly weighted copies of a term array, each weight a
power of two, a sign, keep or the column on = 1 + keep: the target copies of
v enter as on v, the off-target ones as 2M v - on v.  So it sums the same
real number as every basis index of the dense state does
(``gates.plan_grover`` and ``gates.amplify``), to the same float at any term
order or BLAS thread count.

This is all a transform run computes.  The gate model lives in
:mod:`mobiusq.gates`; the two names of it that perfbench/tracer.py reads
through this module are bound here on first use, and no code here reads them.
"""
from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator

import numpy as np

from . import _Record, _defer
from .bits import BitString
# perfbench/tracer.py also reads circuits.DecompositionError
from .layout import DecompositionError, EstimateReport, Mode, Readout, RegisterLayout, _keep, _plan, json_int
from .subset import SubsetTable, json_complex

# bound from mobiusq.gates on first use: perfbench/tracer.py reads and replaces them here
_DEFERRED = {"gates": ("build_start_circuit", "compile_state_prep")}
__getattr__ = _defer(globals(), _DEFERRED)[1]


# ---------------------------------------------------------------------------
# state preparation


# the Hadamard matrix: gather's H factor and the gate model's Hadamard read the same bytes
_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)


def rotation_tree(target) -> tuple[list[np.ndarray], np.ndarray]:
    """The angles of the rotation tree (Mottonen et al., quant-ph/0407010) that maps |0...0> to the target.

    The tree acts on qubits 0..k-1, the alpha_minus register of every
    layout, k being log2 of the target's length.  ``turns[m]`` holds the Ry
    angles of level m, on qubit k-1-m: one per value p of the m qubits above
    it (qubit k-m its low bit), or a single one where all of them agree
    within 1e-12.  ``phases`` holds the (phi0, phi1) pairs of qubit 0, one
    row per value of qubits 1..k-1, or a single row where all rows are
    equal; one of zeros where every phase is within 1e-12 of 0.  In a level
    of several rows, a row within 1e-12 of 0 is set to zeros, which leaves
    its amplitudes alone.  The tree reproduces the target with no residual
    global phase.

    Args:
        target: complex array of 2**k amplitudes, k >= 1, normalized within 1e-9.
    """
    target = np.asarray(target, dtype=np.complex128)
    k = target.size.bit_length() - 1
    if k < 1 or target.shape != (1 << k,):
        raise ValueError(f"target needs 2**k amplitudes with k >= 1, got shape {target.shape}")
    norm = np.linalg.norm(target)
    if not abs(norm - 1.0) <= 1e-9:  # a NaN norm fails too
        raise ValueError(f"target norm is {norm}, expected 1 within 1e-9")

    turns = []
    weights = np.abs(target) ** 2
    for m in range(k):
        # the weights of each prefix's two halves, each summed as its own slice; sqrt is exact-rounded
        r0, r1 = map(memoryview, np.sqrt(weights.reshape(1 << m, 2, -1).sum(axis=2)).T)
        angles = 2.0 * np.fromiter(map(math.atan2, r1, r0), np.float64, 1 << m)
        if np.any(np.abs(angles - angles[0]) > 1e-12):
            angles[np.abs(angles) <= 1e-12] = 0.0
        else:
            angles = angles[:1] if abs(angles[0]) > 1e-12 else np.zeros(1)
        turns.append(angles)

    phases = np.where(np.abs(target) > 0, np.angle(target), 0.0).reshape(-1, 2)
    if not np.max(np.abs(phases)) > 1e-12:
        phases = np.zeros((1, 2))
    elif np.all(phases == phases[0]):  # always so for k == 1
        phases = phases[:1]
    else:
        phases[np.all(np.abs(phases) <= 1e-12, axis=1)] = 0.0
    return turns, phases


def _split(amps: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each prefix amplitude a, by its row theta, followed by cos(theta/2) a and sin(theta/2) a."""
    live = np.flatnonzero(rows)  # a zero row gives a and 0 with no libm call: sin(-0.0) is -0.0
    half = memoryview(rows[live] / 2.0)
    c, s = np.ones(len(rows)), np.zeros(len(rows))
    c[live], s[live] = (np.fromiter(map(f, half), np.float64, len(half)) for f in (math.cos, math.sin))
    a = amps.reshape(-1, len(rows))
    return np.stack([a * c, a * s], -1).ravel()


def prepare(target) -> np.ndarray:
    """The amplitudes of qubits 0..k-1 after the rotation tree of ``target`` acts on their |0...0> state.

    Each Ry level meets a qubit still at 0, so it splits each prefix's
    amplitude into its cos and sin shares; the phase level then multiplies
    in once.  The result has the bytes of the gate model's run of
    ``gates.compile_state_prep(target)``.
    """
    turns, phases = rotation_tree(target)
    amps = np.ones(1)
    for rows in turns:
        amps = _split(amps, rows)
    # the + 0.0 is the gate model's zero off-diagonal product: it turns a -0.0 part into +0.0
    return (amps.reshape(-1, *phases.shape) * np.exp(1j * phases)).ravel() + 0.0


# ---------------------------------------------------------------------------
# queries and the support of their start states


class TransformQuery:
    """One transform evaluation: mode, encoded table, and the point x.

    psi_minus holds 2**n complex amplitudes whose squared magnitudes form
    the table being transformed; x has n0 bits (n0 == n in mobius mode).
    """

    def __init__(self, mode: Mode, n: int, psi_minus: np.ndarray, x: BitString, n0: int | None = None) -> None:
        layout = RegisterLayout(mode, n, n0)  # validates n/n0
        arr = np.array(psi_minus, dtype=np.complex128)
        if arr.shape != (1 << n,):
            raise ValueError(f"psi_minus needs {1 << n} amplitudes, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("psi_minus has non-finite amplitudes")
        norm = np.linalg.norm(arr)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"psi_minus norm is {norm}, expected 1 within 1e-9")
        if not isinstance(x, BitString):
            raise TypeError("x must be a BitString")
        if len(x) != layout.n0:
            raise ValueError(f"x has {len(x)} bits, expected n0 = {layout.n0}")
        self.mode, self.n, self.psi_minus, self.x, self.n0 = layout.mode, n, arr, x, layout.n0
        self.layout = layout

    @classmethod
    def from_probability_table(
        cls, mode: Mode, table: SubsetTable, x: BitString, n0: int | None = None
    ) -> TransformQuery:
        """Encode a probability table as real nonnegative amplitudes."""
        return cls(mode, table.n, table.amplitudes(), x, n0)

    def to_json_obj(self) -> dict:
        """The query input format from_json_obj reads; the tests write their inputs with it."""
        return {
            "mode": self.mode.value,
            "n": self.n,
            "n0": self.n0,
            "psi_minus": [[float(a.real), float(a.imag)] for a in self.psi_minus],
            "x": str(self.x),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> TransformQuery:
        needed = {"mode", "n", "n0", "psi_minus", "x"}
        missing = needed - set(obj)
        if missing:
            raise ValueError(f"query JSON missing keys: {sorted(missing)}")
        amps = json_complex(obj, "psi_minus")
        n, n0 = json_int(obj, "n"), json_int(obj, "n0")
        return cls(Mode(obj["mode"]), n, amps, BitString.from_str(obj["x"]), n0)


def classical_value(query: TransformQuery) -> float:
    """Ground-truth transform value by direct summation over psi_minus."""
    probs = np.abs(query.psi_minus) ** 2
    return float(probs[_keep(query.layout, query.x, np.arange(1 << query.n))].sum())


class Support(_Record):
    """The unmarked state of a table: g[a] for each a in ``alpha_minus`` (ascending) where g[a] != 0.

    Each a has one copy per (alpha, mu0) value, all at omega=1, with gamma =
    mu0 and beta 0 at mu0=0; at mu0=1 beta holds the comparator's mismatch
    bits, a & ~alpha (mobius) or (a mod 2**n0) ^ alpha (marginal).  So at x
    the mark moves the copy at (alpha = x, mu0 = 0) of every a, and the copy
    at (alpha = x, mu0 = 1) where ``keep(x)`` holds.  Its fields are
    arrays, so a support is equal only to itself and hashes by identity.
    """

    __slots__ = ("layout", "alpha_minus", "amplitudes")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def keep(self, x: BitString) -> np.ndarray:
        """Flags of the entries whose mu0=1 copy at alpha = x is on target: the rows the value at x sums."""
        if len(x) != self.layout.n0:
            raise ValueError(f"x has {len(x)} bits, expected n0 = {self.layout.n0}")
        return _keep(self.layout, x, self.alpha_minus)

    def start_state(self, x: BitString):
        """The dense start state at x, a ``gates.StateVector``; equal to the gate-by-gate build bit for bit.

        Each copy's basis index follows from (a, alpha, mu0), and the mark
        clears omega where alpha == x and beta == 0.
        """
        from .gates import StateVector

        layout = self.layout
        n, n0 = layout.n, layout.n0
        self.keep(x)  # checks the width of x
        a = self.alpha_minus
        alpha = np.arange(1 << n0)[:, None]
        mismatch = a & ~alpha if layout.mode is Mode.MOBIUS else (a & ((1 << n0) - 1)) ^ alpha
        beta = np.stack([np.zeros_like(mismatch), mismatch])  # axes mu0, alpha, entry
        mu0 = np.arange(2)[:, None, None]
        marked = (alpha == x.to_int()) & (beta == 0)
        index = a | alpha << n | beta << (n + n0) | mu0 << layout.gamma_qubit | mu0 << layout.mu0_qubit
        index |= np.where(marked, 0, 1) << layout.omega_qubit
        amps = np.zeros(1 << layout.total_qubits, dtype=np.complex128)
        amps[index] = self.amplitudes
        return StateVector(layout, amps)


def gather(query: TransformQuery) -> Support:
    """The support of the table's unmarked state; query.x is not read.

    g is the prep of psi_minus multiplied n0+1 times by ``_H[0, 0]``,
    once for the mu0 Hadamard and once per alpha Hadamard of the start
    circuit, which gives the bytes of every copy.  Raises DecompositionError
    when the unmarked state's norm is not 1.
    """
    layout = query.layout
    amps = prepare(query.psi_minus)
    for _ in range(layout.n0 + 1):
        amps *= _H[0, 0]
    norm = float(np.linalg.norm(amps)) * math.sqrt(2 << layout.n0)
    if abs(norm - 1.0) > 1e-12:
        raise DecompositionError(f"start state norm is {norm}")
    alpha_minus = np.flatnonzero(amps)
    return Support(layout, alpha_minus, amps[alpha_minus])


# ---------------------------------------------------------------------------
# amplification and readout


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
