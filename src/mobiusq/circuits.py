"""Builders for the transform-evaluation circuit and its exact readout.

A query carries an amplitude-encoded table psi_minus on alpha_minus and an
evaluation point x.  The start-state construction entangles two branches on
mu0: the mu0=1 branch runs a comparator that Hadamard-samples alpha and
marks subset violations (mobius) or bit mismatches (marginal) on beta; the
mu0=0 branch just Hadamard-spreads alpha.  A final X on omega, controlled
on (alpha == x and beta == 0), moves the two on-target components to
omega=0:

    z1 * |psi1>|beta=0,gamma=1>|omega=0>   with |z1| = sqrt(value) * base
  + z0 * |psi0>|beta=0,gamma=0>|omega=0>   with  z0  = base
  + |chi>|omega=1>

where base = 2**-((n0+1)/2) and value is the subset sum f(x) (mobius) or
the marginal probability P(x) (marginal).  The conditional gamma odds on
omega=0 therefore equal the transform value, and they are preserved by the
amplitude amplification in :mod:`mobiusq.grover`.

x enters only that final mark; every earlier op depends on (mode, n, n0,
psi_minus) alone.  build_unmarked_state simulates those ops once, and
``marked`` turns the result into the start state at any x by applying the
mark in place and, on exit, applying it again.  The mark is an X, an exact
swap of amplitudes, so this restores the unmarked state bit for bit, and a
table's points are all read from one unmarked state.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .sim import (
    Circuit,
    Controlled,
    GateOp,
    Hadamard,
    Mode,
    PauliX,
    RegisterLayout,
    StateVector,
    apply_in_place,
    compile_state_prep,
    prepare_low_qubits,
    sector,
)
from .subset import BitString, SubsetTable, json_complex, json_int

__all__ = [
    "TransformQuery",
    "SignalDecomposition",
    "DecompositionError",
    "classical_value",
    "build_comparator",
    "mark_op",
    "build_start_circuit",
    "build_unmarked_state",
    "marked",
    "build_start_state",
    "decompose_signal",
]

_CHECK_TOL = 1e-9


class DecompositionError(RuntimeError):
    """Start-state structure violated its predicted shape: a circuit bug."""


@dataclass(eq=False)
class TransformQuery:
    """One transform evaluation: mode, encoded table, and the point x.

    psi_minus holds 2**n complex amplitudes whose squared magnitudes form
    the table being transformed; x has n0 bits (n0 == n in mobius mode).
    """

    mode: Mode
    n: int
    psi_minus: np.ndarray
    x: BitString
    n0: int | None = None

    def __post_init__(self) -> None:
        self.mode = Mode(self.mode)
        layout = RegisterLayout(self.mode, self.n, self.n0)  # validates n/n0
        self.n0 = layout.n0
        arr = np.array(self.psi_minus, dtype=np.complex128)
        if arr.shape != (1 << self.n,):
            raise ValueError(f"psi_minus needs {1 << self.n} amplitudes, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("psi_minus has non-finite amplitudes")
        norm = np.linalg.norm(arr)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"psi_minus norm is {norm}, expected 1 within 1e-9")
        self.psi_minus = arr
        if not isinstance(self.x, BitString):
            raise TypeError("x must be a BitString")
        if len(self.x) != self.n0:
            raise ValueError(f"x has {len(self.x)} bits, expected n0 = {self.n0}")

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
        amps = np.array(json_complex(obj, "psi_minus"), dtype=np.complex128)
        n, n0 = json_int(obj, "n"), json_int(obj, "n0")
        return cls(Mode(obj["mode"]), n, amps, BitString.from_str(obj["x"]), n0)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_obj()))

    @classmethod
    def load(cls, path: str | Path) -> TransformQuery:
        return cls.from_json_obj(json.loads(Path(path).read_text()))


def _keep(query: TransformQuery) -> np.ndarray:
    """Rows of the table that add up to the value at x, as a mask over dec(y).

    Mobius: every y <= x bitwise.  Marginal: every y whose low n0 bits equal x.
    """
    idx = np.arange(1 << query.n)
    xv = query.x.to_int()
    if query.mode is Mode.MOBIUS:
        return (idx & xv) == idx
    return (idx & ((1 << query.n0) - 1)) == xv


def classical_value(query: TransformQuery) -> float:
    """Ground-truth transform value by direct summation over psi_minus."""
    probs = np.abs(query.psi_minus) ** 2
    return float(probs[_keep(query)].sum())


def build_comparator(query: TransformQuery) -> Circuit:
    """Comparator core: Hadamard-sample alpha, mark mismatches on beta.

    For each j ascending, emits H(alpha_j) and then, in mobius mode, an X on
    beta_j controlled on (alpha_minus_j = 1 and alpha_j = 0).  In marginal
    mode it emits two X's on beta_j instead, controlled on alpha_minus_j = 1
    and on alpha_j = 1, which leave beta_j = alpha_minus_j XOR alpha_j.  In
    marginal mode only the n0 low qubits of alpha_minus are compared.
    """
    layout = query.layout
    am = layout.register("alpha_minus")
    al = layout.register("alpha")
    be = layout.register("beta")
    ops: list[GateOp] = []
    for j in range(layout.n0):
        ops.append(Hadamard(al[j]))
        if query.mode is Mode.MOBIUS:
            ops.append(Controlled({am[j]: 1, al[j]: 0}, (PauliX(be[j]),)))
        else:
            # an X only swaps amplitudes, so where both bits are 1 the two
            # swaps cancel exactly
            ops.append(Controlled({am[j]: 1}, (PauliX(be[j]),)))
            ops.append(Controlled({al[j]: 1}, (PauliX(be[j]),)))
    return Circuit(layout, tuple(ops))


def mark_op(layout: RegisterLayout, x: BitString) -> Controlled:
    """The target-marking X on omega, controlled on alpha == x and beta == 0."""
    if len(x) != layout.n0:
        raise ValueError(f"x has {len(x)} bits, expected n0 = {layout.n0}")
    controls = dict(zip(layout.register("alpha"), x.bits))
    controls.update(dict.fromkeys(layout.register("beta"), 0))
    return Controlled(controls, (PauliX(layout.omega_qubit),))


def _controlled_on(controls: dict[int, int], op: GateOp) -> GateOp:
    if isinstance(op, Controlled):
        return Controlled({**controls, **op.controls}, op.ops)
    return Controlled(controls, (op,))


def _branch_ops(query: TransformQuery) -> list[GateOp]:
    """The ops between the state prep and the final mark; query.x is not read."""
    layout = query.layout
    al = layout.register("alpha")
    mu0 = layout.mu0_qubit
    ops: list[GateOp] = [
        PauliX(layout.omega_qubit),
        Hadamard(mu0),
        Controlled({mu0: 1}, (PauliX(layout.gamma_qubit),)),
    ]
    for op in build_comparator(query).ops:
        ops.append(_controlled_on({mu0: 1}, op))
    ops.append(Controlled({mu0: 0}, tuple(Hadamard(q) for q in al)))
    return ops


def build_start_circuit(query: TransformQuery) -> Circuit:
    """Full start-state circuit: the alpha_minus prep, the branch ops, the mark.

    See the module docstring for the state it builds.
    """
    prep = compile_state_prep(query.psi_minus)
    ops = (*prep, *_branch_ops(query), mark_op(query.layout, query.x))
    return Circuit(query.layout, ops)


def build_unmarked_state(query: TransformQuery) -> StateVector:
    """Simulate build_start_circuit(query) without its final mark.

    The result serves every point x of the table; query.x is not read.
    alpha_minus is the lowest register and the prep touches it alone, so the
    prep runs on its 2**n amplitudes only; the result fills the low end of an
    otherwise zero state and the branch ops run on the whole, in place.  The
    amplitudes equal those of apply_circuit on the same ops.
    """
    layout = query.layout
    state = StateVector(layout, np.zeros(1 << layout.total_qubits, dtype=np.complex128))
    state.amplitudes[: 1 << layout.n] = prepare_low_qubits(
        compile_state_prep(query.psi_minus), layout.n
    )
    apply_in_place(state, Circuit(layout, _branch_ops(query)))
    if abs(state.norm - 1.0) > 1e-12:
        raise DecompositionError(f"start state norm is {state.norm}")
    return state


@contextmanager
def marked(unmarked: StateVector, x: BitString) -> Iterator[StateVector]:
    """The start state at point x, made by marking ``unmarked`` in place.

    Yields ``unmarked`` itself with the mark applied.  On exit, also when the
    body raises, the mark is applied again, which restores every amplitude
    bit for bit because the mark only swaps amplitudes.
    """
    mark = Circuit(unmarked.layout, (mark_op(unmarked.layout, x),))
    apply_in_place(unmarked, mark)
    try:
        yield unmarked
    finally:
        apply_in_place(unmarked, mark)


def build_start_state(query: TransformQuery) -> StateVector:
    """Simulate build_start_circuit(query) from the all-zeros state.

    This is build_unmarked_state(query) with the mark applied, and its
    amplitudes equal those of apply_circuit on the full circuit.
    """
    state = build_unmarked_state(query)
    apply_in_place(state, Circuit(state.layout, (mark_op(query.layout, query.x),)))
    return state


@dataclass(eq=False)
class SignalDecomposition:
    """Split of the start state by its (beta, gamma, omega) sectors.

    psi1 and psi0 are amplitude vectors over the (alpha_minus, alpha, mu0)
    grouping, indexed alpha_minus lowest and mu0 highest; psi1 is None when
    the transform value is zero.  chi_norm is the norm of the omega=1 rest.
    """

    z1: complex
    z0: complex
    chi_norm: float
    psi1: np.ndarray | None
    psi0: np.ndarray

    @property
    def ratio(self) -> float:
        """Transform value |z1 / z0| ** 2."""
        return float(abs(self.z1) ** 2 / abs(self.z0) ** 2)


def decompose_signal(query: TransformQuery, state: StateVector) -> SignalDecomposition:
    """Read z1, z0 and chi off the start state and verify their predicted shape.

    Raises DecompositionError when any component strays from the predicted
    structure by more than 1e-9: z0 must equal base = 2**-((n0+1)/2), z1
    must equal base * sqrt(value), the two omega=0 sectors must match their
    predicted register contents, and the sector masses must be complete.
    """
    layout = state.layout
    if (layout.mode, layout.n, layout.n0) != (query.mode, query.n, query.n0):
        raise ValueError("state layout does not match the query")
    n, n0 = layout.n, layout.n0
    om, ga = layout.omega_qubit, layout.gamma_qubit
    beta_clear = {q: 0 for q in layout.register("beta")}

    # with omega, gamma and beta fixed, the axes left are mu0, alpha,
    # alpha_minus: the ravel is indexed exactly like the mu grouping
    v1 = sector(state, {om: 0, ga: 1, **beta_clear}).ravel()
    v0 = sector(state, {om: 0, ga: 0, **beta_clear}).ravel()
    chi_norm = float(np.linalg.norm(sector(state, {om: 1}).ravel()))
    by_beta = sector(state, {om: 0}).reshape(2, 2, 1 << n0, -1)  # mu0, gamma, beta, rest
    stray = float(np.linalg.norm(by_beta[:, :, 1:].ravel()))

    # predicted sector contents: psi_minus on alpha_minus, with alpha = x
    xv = query.x.to_int()
    keep = _keep(query)
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
    if stray > _CHECK_TOL:
        problems.append(f"stray omega=0 weight {stray} outside the beta=0 sectors")
    completeness = abs(z1) ** 2 + abs(z0) ** 2 + chi_norm**2
    if abs(completeness - 1.0) > _CHECK_TOL:
        problems.append(f"sector masses sum to {completeness}")
    if problems:
        raise DecompositionError("; ".join(problems))

    psi1 = v1 / z1 if abs(z1) > 0 else None
    psi0 = v0 / z0
    return SignalDecomposition(z1=z1, z0=z0, chi_norm=chi_norm, psi1=psi1, psi0=psi0)

