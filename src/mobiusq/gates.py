"""The gate model: the start-state circuit, dense states and the dense readout.

The circuit is the specification of the start state.  Gates act in place on
the ``(2,)*N`` view of a dense amplitude array, qubit q being axis N-1-q: a
one-qubit gate replaces the halves a0, a1 of its axis by m00*a0 + m01*a1 and
m10*a0 + m11*a1.  A controlled gate pairs one partial basis assignment
{qubit: value} with one-qubit gates that act only where each listed qubit
holds its value: the simulator applies them to the sub-view that fixes
those qubits with width-1 slices, which realizes (1 - pi) + U pi directly,
pi being the projector onto the assignment.  A ``Multiplexed`` level is the
controlled gate of each nonzero row.

No transform run loads this module.  It serves ``mobiusq verify``'s
comparator check, ``--dump-state``, the tests' oracles and
``perfbench/tracer.py``, which read its names where they lived before
(``sim``, ``circuits`` and ``grover`` bind them on first use).
"""
from __future__ import annotations

import math
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Union

import numpy as np

from . import _Record
from .circuits import TransformQuery, gather
from .grover import GroverPlan, _dot_terms, _fsum, _plan
from .sim import (
    Mode,
    Multiplexed,
    PhasePair,
    RegisterLayout,
    Ry,
    _H,
    compile_state_prep,
)

# ---------------------------------------------------------------------------
# gates


class Hadamard(_Record):
    __slots__ = ("qubit",)


class PauliX(_Record):
    __slots__ = ("qubit",)


class Controlled(_Record):
    """Apply the inner one-qubit gates only where the controls hold.

    ``controls`` is one partial basis assignment {qubit: 0 or 1}; an empty
    one matches every state.  Controls are one level deep (an inner op is
    never a Controlled) and disjoint from the inner ops' targets, so the gate
    realizes (1 - pi) + U pi exactly.  They are kept as a read-only copy and
    the ops as a tuple, so the gate is hashable and compares by value.
    """

    __slots__ = ("controls", "ops")

    def __init__(self, controls: Mapping[int, int], ops: Iterable[OneQubitGate]) -> None:
        controls, ops = MappingProxyType(dict(controls)), tuple(ops)
        bad = {q: v for q, v in controls.items() if v not in (0, 1)}
        if bad:
            raise ValueError(f"control values must be 0 or 1, got {bad}")
        if not ops:
            raise ValueError("controlled gate needs at least one inner op")
        if any(isinstance(op, (Controlled, Multiplexed)) for op in ops):
            raise ValueError("controlled gates do not nest; merge the controls into one assignment")
        super().__init__(controls, ops)
        overlap = set(self.controls) & gate_target_qubits(self)
        if overlap:
            raise ValueError(f"control and target qubits overlap: {sorted(overlap)}")

    def __hash__(self) -> int:
        return hash((frozenset(self.controls.items()), self.ops))

    def __reduce__(self):  # a mappingproxy does not pickle
        return Controlled, (dict(self.controls), self.ops)


OneQubitGate = Union[Hadamard, PauliX, Ry, PhasePair]
GateOp = Union[OneQubitGate, Controlled, Multiplexed]


def gate_target_qubits(op: GateOp) -> frozenset[int]:
    """Qubits an op can modify (control reads excluded)."""
    ops = op.ops if isinstance(op, Controlled) else (op,)
    return frozenset(o.qubit for o in ops)


def gate_qubits(op: GateOp) -> frozenset[int]:
    """All qubits an op touches, reads included."""
    if isinstance(op, Multiplexed):
        return frozenset(range(op.qubit, op.qubit + 1 + op.width))
    reads = frozenset(op.controls) if isinstance(op, Controlled) else frozenset()
    return reads | gate_target_qubits(op)


class Circuit:
    """Ordered gate list tied to a layout."""

    def __init__(self, layout: RegisterLayout, ops: tuple[GateOp, ...]) -> None:
        self.layout, self.ops = layout, tuple(ops)
        total = layout.total_qubits
        for op in self.ops:
            bad = [q for q in gate_qubits(op) if not 0 <= q < total]
            if bad:
                raise ValueError(f"op {op} uses qubits {bad} outside the {total}-qubit layout")

    def __len__(self) -> int:
        return len(self.ops)


# ---------------------------------------------------------------------------
# states and gate application


class StateVector:
    def __init__(self, layout: RegisterLayout, amplitudes: np.ndarray) -> None:
        arr = np.asarray(amplitudes, dtype=np.complex128)
        if arr.shape != (1 << layout.total_qubits,):
            raise ValueError(f"expected {1 << layout.total_qubits} amplitudes, got {arr.shape}")
        self.layout, self.amplitudes = layout, arr

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def new_state(layout: RegisterLayout) -> StateVector:
    """All-zeros basis state; the tests' full-circuit runs and perfbench's replay start here."""
    amps = np.zeros(1 << layout.total_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(layout, amps)


def basis_index(layout: RegisterLayout, values: Mapping[str, int]) -> int:
    """Amplitude index of the basis state with the given register values."""
    index = 0
    for name, value in values.items():
        reg = layout.register(name)
        if not 0 <= value < (1 << len(reg)):
            raise ValueError(f"value {value} out of range for register {name!r}")
        index |= value << reg.start
    return index


def _qubit_view(amps: np.ndarray) -> np.ndarray:
    """The ``(2,)*N`` view of a flat amplitude array; qubit q is axis N-1-q."""
    return amps.reshape((2,) * (amps.size.bit_length() - 1))


def _halves(view: np.ndarray, qubit: int) -> tuple[np.ndarray, np.ndarray]:
    """The views of ``view`` where ``qubit`` is 0 and where it is 1."""
    axis = view.ndim - 1 - qubit
    # the trailing Ellipsis keeps a one-axis view a 0-d view, not a scalar copy
    return view[(slice(None),) * axis + (0, Ellipsis)], view[(slice(None),) * axis + (1, Ellipsis)]


def _rotate(a0: np.ndarray, a1: np.ndarray, m00, m01, m10, m11) -> None:
    """(a0, a1) <- (m00 a0 + m01 a1, m10 a0 + m11 a1), in place."""
    t01 = m01 * a1
    t10 = m10 * a0
    a0 *= m00
    a0 += t01
    a1 *= m11
    a1 += t10


def _fix(view: np.ndarray, controls: Mapping[int, int]) -> np.ndarray:
    """Sub-view with each control qubit cut to a width-1 slice (axes kept)."""
    index = [slice(None)] * view.ndim
    for q, v in controls.items():
        index[view.ndim - 1 - q] = slice(v, v + 1)
    return view[tuple(index)]


def _apply_op(view: np.ndarray, op: GateOp) -> None:
    """Apply op in place to a qubit view."""
    if isinstance(op, Controlled):
        sub = _fix(view, op.controls)
        for inner in op.ops:
            _apply_op(sub, inner)
    elif isinstance(op, Multiplexed):  # the Controlled gate of each nonzero row
        for p, row in enumerate(op.params.tolist()):
            if any(row):
                controls = {op.qubit + 1 + t: p >> t & 1 for t in range(op.width)}
                _apply_op(_fix(view, controls), op.gate(op.qubit, *row))
    elif isinstance(op, PauliX):
        a0, a1 = _halves(view, op.qubit)
        saved = a0.copy()
        a0[...] = a1
        a1[...] = saved
    elif isinstance(op, Hadamard):
        _rotate(*_halves(view, op.qubit), *_H.ravel())
    elif isinstance(op, Ry):
        c, s = math.cos(op.theta / 2.0), math.sin(op.theta / 2.0)
        _rotate(*_halves(view, op.qubit), c, -s, s, c)
    else:  # a PhasePair
        e0, e1 = np.exp(1j * np.array([op.phi0, op.phi1], dtype=np.float64))
        _rotate(*_halves(view, op.qubit), e0, 0.0, 0.0, e1)


def run_ops(amps: np.ndarray, ops) -> None:
    """Apply ops in place to a flat array of 2**k amplitudes, qubit q being the 2**q bit."""
    view = _qubit_view(amps)
    for op in ops:
        _apply_op(view, op)


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    if circuit.layout != state.layout:
        raise ValueError("circuit and state layouts differ")
    out = StateVector(state.layout, state.amplitudes.copy())
    before = out.norm
    run_ops(out.amplitudes, circuit.ops)
    after = out.norm
    if before > 0 and not abs(after - before) <= 1e-9 * max(1.0, before):  # a NaN norm fails too
        raise RuntimeError(f"norm drifted from {before} to {after} over {len(circuit)} ops")
    return out


def sector(state: StateVector, fixed: Mapping[int, int]) -> np.ndarray:
    """View of the amplitudes with the given qubits fixed to the given values.

    The fixed axes are dropped; the remaining axes are the other qubits,
    highest first, so the C-order ``ravel()`` of the view lists its
    amplitudes in ascending basis-index order.  Writing to the view writes to
    the state.
    """
    view = _qubit_view(state.amplitudes)
    index = [slice(None)] * view.ndim
    for q, v in fixed.items():
        index[view.ndim - 1 - q] = v
    return view[(*index, Ellipsis)]


def project(state: StateVector, fixed: Mapping[int, int]) -> tuple[StateVector, float]:
    """Unnormalized component with the given qubits fixed, plus its norm.

    The component is the ``sector`` view copied into an otherwise zero
    state.  Acceptance criterion 6 and the benchmark's tracer read the
    omega=0 success mass through it.
    """
    comp = StateVector(state.layout, np.zeros_like(state.amplitudes))
    sector(comp, fixed)[...] = sector(state, fixed)
    return comp, float(np.linalg.norm(comp.amplitudes))


def QubitIs(qubit: int, value: int) -> dict[int, int]:
    """{qubit: value}; kept only for perfbench/tracer.py until ROADMAP item 3 retargets it."""
    return {qubit: value}


def state_to_json_obj(state: StateVector) -> dict:
    return {
        "layout": state.layout.to_json_obj(),
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
    }


# ---------------------------------------------------------------------------
# the start circuit


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
    for op in build_comparator(query).ops:  # each a Hadamard or a Controlled X, now also on mu0 = 1
        controls, inner = (op.controls, op.ops) if isinstance(op, Controlled) else ({}, (op,))
        ops.append(Controlled({mu0: 1, **controls}, inner))
    ops.append(Controlled({mu0: 0}, tuple(Hadamard(q) for q in al)))
    return ops


def build_start_circuit(query: TransformQuery) -> Circuit:
    """Full start-state circuit: the alpha_minus prep, the branch ops, the mark.

    The mark is an X on omega controlled on alpha == x and beta == 0.  Run
    gate by gate, it is the tests' oracle for ``gather``; perfbench's tracer
    replays it.  :mod:`mobiusq.circuits` describes the state it builds.
    """
    layout = query.layout
    controls = dict(zip(layout.register("alpha"), query.x.bits))
    controls.update(dict.fromkeys(layout.register("beta"), 0))
    mark = Controlled(controls, (PauliX(layout.omega_qubit),))
    prep = compile_state_prep(query.psi_minus)
    return Circuit(layout, (*prep, *_branch_ops(query), mark))


def build_start_state(query: TransformQuery) -> StateVector:
    """The dense start state at query.x, gather's support scattered; for the tests and the tracer."""
    return gather(query).start_state(query.x)


# ---------------------------------------------------------------------------
# the dense readout


# Entries per reduction or update chunk: bounds the temporaries of the dense
# readout to a few chunks instead of whole copies of the state.
_CHUNK = 1 << 14


def _chunks(size: int) -> Iterator[slice]:
    """Consecutive slices of at most _CHUNK entries covering range(size)."""
    return (slice(i, i + _CHUNK) for i in range(0, size, _CHUNK))


def _mass(amps: np.ndarray) -> float:
    """Probability mass of the entries: one fsum of their re**2 and im**2."""
    return _fsum(np.square(amps[c].view(np.float64)) for c in _chunks(amps.size))


def _inner(start: np.ndarray, state: np.ndarray) -> complex:
    """<start|state>, each part one fsum of the rounded elementwise products (``grover._dot_terms``)."""
    real = _fsum(_dot_terms(start[c], state[c])[0] for c in _chunks(start.size))
    imag = _fsum(_dot_terms(start[c], state[c])[1] for c in _chunks(start.size))
    return complex(real, imag)


def plan_grover(state: StateVector) -> GroverPlan:
    """read_out_at's plan, from the omega=0 entries of a dense start state (see grover._plan).

    No CLI command calls it: acceptance criterion 6, the tests' dense
    readout and ``perfbench/tracer.py``'s one-shot check do.
    """
    return _plan(_mass(state.amplitudes[: 1 << state.layout.omega_qubit]))  # omega is the top qubit


def amplify(start: StateVector, plan: GroverPlan) -> StateVector:
    """read_out_at's planned steps over every basis index of a dense start state; ``start`` for none.

    A step negates the omega=1 entries, forms c = 2 <start|r> of the result
    r, and returns (-r) + c * start.  Called by the same three as plan_grover.
    """
    if plan.iterations == 0:
        return start
    s = start.amplitudes
    state = s.copy()
    off_target = state[1 << start.layout.omega_qubit :]  # omega is the top qubit
    for _ in range(plan.iterations):
        np.negative(off_target, out=off_target)
        c = 2.0 * _inner(s, state)
        np.negative(state, out=state)
        for chunk in _chunks(state.size):
            state[chunk] += c * s[chunk]
    return StateVector(start.layout, state)
