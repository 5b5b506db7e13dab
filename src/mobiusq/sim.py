"""Dense statevector simulation over a fixed named-register layout.

The layout packs six registers onto consecutive qubits, low indices first:
alpha_minus (n qubits), alpha (n0), beta (n0), gamma, mu0, omega (one each).
Qubit q is the 2**q bit of the amplitude index, matching the bit convention
in :mod:`mobiusq.subset`.

Gates act in place on the ``(2,)*N`` view of the amplitude array, in which
qubit q is axis N-1-q.  A one-qubit gate on q replaces the two halves a0, a1
of that axis by m00*a0 + m01*a1 and m10*a0 + m11*a1, elementwise, so a
result never depends on the shape of the array it sits in.

A controlled gate pairs one partial basis assignment {qubit: value} with a
list of one-qubit gates, and is one level deep: the inner gates act only
where each listed qubit holds its value.  The simulator fixes those qubits
with width-1 slices and applies the inner ops to that sub-view only, which
realizes

    U**pi = (1 - pi) + U * pi

directly, pi being the projector onto the assignment, instead of
decomposing the control into a gate network.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Mapping, Union

import numpy as np

from .subset import json_complex, json_int

MAX_QUBITS = 26


class Mode(Enum):
    MOBIUS = "mobius"
    MARGINAL = "marginal"


@dataclass(frozen=True)
class RegisterLayout:
    """Register-to-qubit map for one simulation instance.

    ``n`` sizes alpha_minus, ``n0`` sizes alpha and beta.  Mobius mode forces
    n0 == n; marginal mode needs 0 < n0 < n.
    """

    mode: Mode
    n: int
    n0: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", Mode(self.mode))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.mode is Mode.MOBIUS:
            n0 = self.n if self.n0 is None else self.n0
            if n0 != self.n:
                raise ValueError(f"mobius mode needs n0 == n, got n0={n0}, n={self.n}")
        else:
            if self.n0 is None:
                raise ValueError("marginal mode needs an explicit n0")
            n0 = self.n0
            if not 0 < n0 < self.n:
                raise ValueError(f"marginal mode needs 0 < n0 < n, got n0={n0}, n={self.n}")
        object.__setattr__(self, "n0", n0)
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

    @classmethod
    def from_json_obj(cls, obj: dict) -> RegisterLayout:
        return cls(Mode(obj["mode"]), json_int(obj, "n"), json_int(obj, "n0"))


# ---------------------------------------------------------------------------
# gates


@dataclass(frozen=True)
class Hadamard:
    qubit: int


@dataclass(frozen=True)
class PauliX:
    qubit: int


@dataclass(frozen=True)
class Ry:
    """Real rotation cos(theta/2) I - i sin(theta/2) Y."""

    qubit: int
    theta: float


@dataclass(frozen=True)
class PhasePair:
    """Diagonal phases diag(e^{i phi0}, e^{i phi1}) on one qubit."""

    qubit: int
    phi0: float
    phi1: float


@dataclass(frozen=True)
class Controlled:
    """Apply the inner one-qubit gates only where the controls hold.

    ``controls`` is one partial basis assignment {qubit: 0 or 1}; an empty
    one matches every state.  Controls are one level deep (an inner op is
    never a Controlled) and disjoint from the inner ops' targets, so the gate
    realizes (1 - pi) + U pi exactly.  They are kept as a read-only copy, so
    the gate is hashable and compares by value.
    """

    controls: Mapping[int, int]
    ops: tuple["OneQubitGate", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "controls", MappingProxyType(dict(self.controls)))
        bad = {q: v for q, v in self.controls.items() if v not in (0, 1)}
        if bad:
            raise ValueError(f"control values must be 0 or 1, got {bad}")
        if not self.ops:
            raise ValueError("controlled gate needs at least one inner op")
        if any(isinstance(op, Controlled) for op in self.ops):
            raise ValueError("controlled gates do not nest; merge the controls into one assignment")
        overlap = set(self.controls) & gate_target_qubits(self)
        if overlap:
            raise ValueError(f"control and target qubits overlap: {sorted(overlap)}")

    def __hash__(self) -> int:
        return hash((frozenset(self.controls.items()), self.ops))


OneQubitGate = Union[Hadamard, PauliX, Ry, PhasePair]
GateOp = Union[OneQubitGate, Controlled]


def gate_target_qubits(op: GateOp) -> frozenset[int]:
    """Qubits an op can modify (control reads excluded)."""
    ops = op.ops if isinstance(op, Controlled) else (op,)
    return frozenset(o.qubit for o in ops)


def gate_qubits(op: GateOp) -> frozenset[int]:
    """All qubits an op touches, reads included."""
    reads = frozenset(op.controls) if isinstance(op, Controlled) else frozenset()
    return reads | gate_target_qubits(op)


@dataclass(eq=False)
class Circuit:
    """Ordered gate list tied to a layout."""

    layout: RegisterLayout
    ops: tuple[GateOp, ...]

    def __post_init__(self) -> None:
        self.ops = tuple(self.ops)
        total = self.layout.total_qubits
        for op in self.ops:
            bad = [q for q in gate_qubits(op) if not 0 <= q < total]
            if bad:
                raise ValueError(f"op {op} uses qubits {bad} outside the {total}-qubit layout")

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)


# ---------------------------------------------------------------------------
# states and gate application


@dataclass(eq=False)
class StateVector:
    layout: RegisterLayout
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.amplitudes, dtype=np.complex128)
        if arr.shape != (1 << self.layout.total_qubits,):
            raise ValueError(
                f"expected {1 << self.layout.total_qubits} amplitudes, got {arr.shape}"
            )
        self.amplitudes = arr

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> StateVector:
        return StateVector(self.layout, self.amplitudes.copy())


def new_state(layout: RegisterLayout) -> StateVector:
    """All-zeros basis state."""
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


_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)


def _gate_matrix(op: GateOp) -> np.ndarray:
    if isinstance(op, Hadamard):
        return _H
    if isinstance(op, Ry):
        c, s = math.cos(op.theta / 2.0), math.sin(op.theta / 2.0)
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    if isinstance(op, PhasePair):
        return np.array(
            [[np.exp(1j * op.phi0), 0.0], [0.0, np.exp(1j * op.phi1)]], dtype=np.complex128
        )
    raise TypeError(f"no matrix for {op!r}")


def _qubit_view(amps: np.ndarray) -> np.ndarray:
    """The ``(2,)*N`` view of a flat amplitude array; qubit q is axis N-1-q."""
    return amps.reshape((2,) * (amps.size.bit_length() - 1))


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
        return
    axis = view.ndim - 1 - op.qubit
    # the trailing Ellipsis keeps a one-axis view a 0-d view, not a scalar copy
    a0 = view[(slice(None),) * axis + (0, Ellipsis)]
    a1 = view[(slice(None),) * axis + (1, Ellipsis)]
    if isinstance(op, PauliX):
        saved = a0.copy()
        a0[...] = a1
        a1[...] = saved
        return
    (m00, m01), (m10, m11) = _gate_matrix(op)
    t01 = m01 * a1
    t10 = m10 * a0
    a0 *= m00
    a0 += t01
    a1 *= m11
    a1 += t10


def _run(amps: np.ndarray, ops) -> None:
    view = _qubit_view(amps)
    for op in ops:
        _apply_op(view, op)


def apply_in_place(state: StateVector, circuit: Circuit) -> None:
    """Apply the circuit to the state's own amplitudes, with no copy and no norm check."""
    if circuit.layout != state.layout:
        raise ValueError("circuit and state layouts differ")
    _run(state.amplitudes, circuit.ops)


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    out = state.copy()
    before = out.norm
    apply_in_place(out, circuit)
    after = out.norm
    if before > 0 and abs(after - before) > 1e-9 * max(1.0, before):
        raise RuntimeError(f"norm drifted from {before} to {after} over {len(circuit)} ops")
    return out


def prepare_low_qubits(ops, k: int) -> np.ndarray:
    """Amplitudes of qubits 0..k-1 after ops act on their |0...0> state.

    The ops must touch only those qubits.  Since qubit q is the 2**q bit, the
    result is also the first 2**k amplitudes of a full state whose other
    qubits start and stay at 0, computed without the rest of the state.
    """
    bad = sorted({q for op in ops for q in gate_qubits(op) if not 0 <= q < k})
    if bad:
        raise ValueError(f"ops touch qubits {bad} outside the low {k}")
    amps = np.zeros(1 << k, dtype=np.complex128)
    amps[0] = 1.0
    _run(amps, ops)
    return amps


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
    state.  The pipeline reads sector masses through ``sector`` itself; this
    stays because acceptance criterion 6 and the benchmark's tracer read the
    omega=0 success mass through it.
    """
    comp = StateVector(state.layout, np.zeros_like(state.amplitudes))
    sector(comp, fixed)[...] = sector(state, fixed)
    return comp, float(np.linalg.norm(comp.amplitudes))


def QubitIs(qubit: int, value: int) -> dict[int, int]:
    """{qubit: value}; kept only for perfbench/tracer.py until ROADMAP item 3 retargets it."""
    return {qubit: value}


# ---------------------------------------------------------------------------
# state preparation


def compile_state_prep(target) -> tuple[GateOp, ...]:
    """Compile gates mapping |0...0> of qubits 0..k-1 to the target amplitudes.

    Those qubits are the alpha_minus register of every layout, and k is
    log2 of the target's length.  Classic rotation-tree construction
    (Mottonen et al., quant-ph/0407010): level m applies Ry rotations on
    qubit k-1-m, controlled on the basis values of the m qubits above it; a
    final pass of controlled diagonal phase gates fixes the complex
    phases.  Gate count is O(2**k).  The compiled gates reproduce the target
    with no residual global phase.  Levels whose rotation angles agree across
    all prefixes collapse to a single uncontrolled gate, so product states
    compile to single-qubit rotations.

    Args:
        target: complex array of 2**k amplitudes, k >= 1, normalized within 1e-9.

    Returns:
        Gates acting only on qubits 0..k-1.
    """
    target = np.asarray(target, dtype=np.complex128)
    k = target.size.bit_length() - 1
    if k < 1 or target.shape != (1 << k,):
        raise ValueError(f"target needs 2**k amplitudes with k >= 1, got shape {target.shape}")
    norm = np.linalg.norm(target)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"target norm is {norm}, expected 1 within 1e-9")

    ops: list[GateOp] = []
    weights = np.abs(target) ** 2

    for m in range(k):
        qubit = k - 1 - m
        block = 1 << (k - m)
        angles = []
        for p in range(1 << m):
            sub = weights[p * block : (p + 1) * block]
            w0 = float(sub[: block // 2].sum())
            w1 = float(sub[block // 2 :].sum())
            angles.append(2.0 * math.atan2(math.sqrt(w1), math.sqrt(w0)))
        if all(abs(a - angles[0]) <= 1e-12 for a in angles):
            if abs(angles[0]) > 1e-12:
                ops.append(Ry(qubit, angles[0]))
            continue
        for p, angle in enumerate(angles):
            if abs(angle) <= 1e-12:
                continue
            controls = {k - 1 - t: (p >> (m - 1 - t)) & 1 for t in range(m)}
            ops.append(Controlled(controls, (Ry(qubit, angle),)))

    phases = np.where(np.abs(target) > 0, np.angle(target), 0.0)
    if np.max(np.abs(phases)) > 1e-12:
        pairs = [(float(phases[2 * h]), float(phases[2 * h + 1])) for h in range(1 << (k - 1))]
        if all(p == pairs[0] for p in pairs):  # always so for k == 1
            ops.append(PhasePair(0, *pairs[0]))
        else:
            for h, (phi0, phi1) in enumerate(pairs):
                if abs(phi0) <= 1e-12 and abs(phi1) <= 1e-12:
                    continue
                controls = {1 + t: (h >> t) & 1 for t in range(k - 1)}
                ops.append(Controlled(controls, (PhasePair(0, phi0, phi1),)))

    return tuple(ops)


# ---------------------------------------------------------------------------
# serialization


def state_to_json_obj(state: StateVector) -> dict:
    return {
        "layout": state.layout.to_json_obj(),
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
    }


def state_from_json_obj(obj: dict) -> StateVector:
    """Read a state written by state_to_json_obj, e.g. a ``--dump-state`` file.

    The CLI only writes such files; this is the reader that loads them back,
    and the tests use it to check what ``--dump-state`` wrote.
    """
    layout = RegisterLayout.from_json_obj(obj["layout"])
    amps = np.array(json_complex(obj, "amplitudes"), dtype=np.complex128)
    return StateVector(layout, amps)
