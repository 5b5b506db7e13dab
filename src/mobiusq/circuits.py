"""Transform queries, their classical value, and the support of their start states.

A query carries an amplitude-encoded table psi_minus on alpha_minus and an
evaluation point x.  The start-state circuit (:mod:`mobiusq.gates`)
entangles two branches on mu0: the mu0=1 branch runs a comparator that
Hadamard-samples alpha and marks subset violations (mobius) or bit
mismatches (marginal) on beta; the mu0=0 branch just Hadamard-spreads alpha.
A final X on omega, controlled on (alpha == x and beta == 0), moves the two
on-target components to omega=0:

    z1 * |psi1>|beta=0,gamma=1>|omega=0>   with |z1| = sqrt(value) * base
  + z0 * |psi0>|beta=0,gamma=0>|omega=0>   with  z0  = base
  + |chi>|omega=1>

where base = 2**-((n0+1)/2) and value is the subset sum f(x) (mobius) or
the marginal probability P(x) (marginal).  The conditional gamma odds on
omega=0 therefore equal the transform value, and they are preserved by the
amplitude amplification in :mod:`mobiusq.grover`.

x enters only that final mark, and every earlier op leaves one amplitude per
(alpha_minus, alpha, mu0) value, all at omega=1: the X's on omega, gamma and
beta only relabel amplitudes.  The amplitude of the alpha_minus value a is
g[a] whatever alpha and mu0 hold, so ``gather`` returns one :class:`Support`
entry per nonzero g[a], with no gate run past the prep and no dense state.
It serves every point of a table, and ``Support.start_state(x)`` scatters
it into the dense start state at x when one is wanted (``--dump-state``).
"""
from __future__ import annotations

import math

import numpy as np

from . import _Record, _defer
from .sim import _H, Mode, RegisterLayout, compile_state_prep, prepare_low_qubits
from .subset import BitString, SubsetTable, json_complex, json_int

# bound from mobiusq.gates on first use: perfbench/tracer.py reads and replaces it here
_DEFERRED = {"gates": ("build_start_circuit",)}
__getattr__ = _defer(globals(), _DEFERRED)[1]


class DecompositionError(RuntimeError):
    """Start-state structure violated its predicted shape: a circuit bug."""


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

    @property
    def layout(self) -> RegisterLayout:
        return RegisterLayout(self.mode, self.n, self.n0)

    @classmethod
    def from_probability_table(
        cls, mode: Mode, table: SubsetTable, x: BitString, n0: int | None = None
    ) -> TransformQuery:
        """Encode a probability table as real nonnegative amplitudes."""
        table.require_probability()
        return cls(mode, table.n, np.sqrt(table.values), x, n0)

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


def _keep(layout: RegisterLayout, x: BitString, alpha_minus: np.ndarray) -> np.ndarray:
    """Which rows alpha_minus of the table add up to the value at x, as flags.

    Mobius: every y <= x bitwise.  Marginal: every y whose low n0 bits equal x.
    """
    xv = x.to_int()
    if layout.mode is Mode.MOBIUS:
        return (alpha_minus & xv) == alpha_minus
    return (alpha_minus & ((1 << layout.n0) - 1)) == xv


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

    g is the prep of psi_minus multiplied n0+1 times by ``sim._H[0, 0]``,
    once for the mu0 Hadamard and once per alpha Hadamard of the start
    circuit, which gives the bytes of every copy.  Raises DecompositionError
    when the unmarked state's norm is not 1.
    """
    layout = query.layout
    amps = prepare_low_qubits(compile_state_prep(query.psi_minus), layout.n)
    for _ in range(layout.n0 + 1):
        amps *= _H[0, 0]
    norm = float(np.linalg.norm(amps)) * math.sqrt(2 << layout.n0)
    if abs(norm - 1.0) > 1e-12:
        raise DecompositionError(f"start state norm is {norm}")
    alpha_minus = np.flatnonzero(amps)
    return Support(layout, alpha_minus, amps[alpha_minus])
