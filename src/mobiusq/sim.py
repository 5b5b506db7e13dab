"""Dense statevector simulation over a fixed named-register layout.

The layout packs six registers onto consecutive qubits, low indices first:
alpha_minus (n qubits), alpha (n0), beta (n0), gamma, mu0, omega (one each).
Qubit q is the 2**q bit of the amplitude index, matching the bit convention
in :mod:`mobiusq.subset`.

Gates act in place on the ``(2,)*N`` view of the amplitude array, in which
qubit q is axis N-1-q.  A one-qubit gate on q replaces the two halves a0, a1
of that axis by m00*a0 + m01*a1 and m10*a0 + m11*a1, elementwise, so a
result never depends on the shape of the array it sits in.

Controlled gates carry an explicit basis-state predicate (per-qubit value,
qubit inequality, conjunction).  A predicate
lists its truth set as disjoint partial assignments {qubit: value}; the
simulator fixes each assignment's qubits with width-1 slices and applies the
inner ops to that sub-view only, which realizes

    U**pi = (1 - pi) + U * pi

directly, instead of decomposing the control into a gate network.
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Union

import numpy as np

MAX_QUBITS = 26

REGISTER_ORDER = ("alpha_minus", "alpha", "beta", "gamma", "mu0", "omega")


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
            raise KeyError(f"unknown register {name!r}; have {REGISTER_ORDER}") from None

    @property
    def gamma_qubit(self) -> int:
        return self.register("gamma")[0]

    @property
    def mu0_qubit(self) -> int:
        return self.register("mu0")[0]

    @property
    def omega_qubit(self) -> int:
        return self.register("omega")[0]

    @property
    def mu_qubits(self) -> tuple[int, ...]:
        """Qubits of the (alpha_minus, alpha, mu0) grouping, low to high."""
        return tuple(self.register("alpha_minus")) + tuple(self.register("alpha")) + (
            self.mu0_qubit,
        )

    @property
    def nu_qubits(self) -> tuple[int, ...]:
        """Qubits of the (beta, gamma) grouping, low to high."""
        return tuple(self.register("beta")) + (self.gamma_qubit,)

    def to_json_obj(self) -> dict:
        return {
            "mode": self.mode.value,
            "n": self.n,
            "n0": self.n0,
            "registers": {k: [r.start, len(r)] for k, r in self.registers.items()},
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> RegisterLayout:
        return cls(Mode(obj["mode"]), int(obj["n"]), int(obj["n0"]))


# ---------------------------------------------------------------------------
# basis-state predicates


Assignment = dict[int, int]  # partial basis assignment {qubit: value}


class Predicate(ABC):
    """Boolean function of computational-basis qubit values."""

    @abstractmethod
    def qubits(self) -> frozenset[int]:
        """Qubits the predicate reads."""

    @abstractmethod
    def mask(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized truth value over an array of basis-state indices.

        The simulator never calls this; the tests use it as the independent
        dense oracle for assignments() and controlled gates.
        """

    @abstractmethod
    def assignments(self) -> list[Assignment]:
        """Disjoint partial assignments whose union is the predicate's truth set.

        A basis state satisfies the predicate iff it agrees with exactly one
        of the returned {qubit: value} maps; an empty map matches every state.
        """


@dataclass(frozen=True)
class QubitIs(Predicate):
    qubit: int
    value: int

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise ValueError(f"qubit value must be 0 or 1, got {self.value}")

    def qubits(self) -> frozenset[int]:
        return frozenset((self.qubit,))

    def mask(self, indices: np.ndarray) -> np.ndarray:
        return ((indices >> self.qubit) & 1) == self.value

    def assignments(self) -> list[Assignment]:
        return [{self.qubit: self.value}]


@dataclass(frozen=True)
class QubitsDiffer(Predicate):
    a: int
    b: int

    def qubits(self) -> frozenset[int]:
        return frozenset((self.a, self.b))

    def mask(self, indices: np.ndarray) -> np.ndarray:
        return ((indices >> self.a) & 1) != ((indices >> self.b) & 1)

    def assignments(self) -> list[Assignment]:
        if self.a == self.b:
            return []
        return [{self.a: v, self.b: 1 - v} for v in (0, 1)]


@dataclass(frozen=True)
class AllOf(Predicate):
    terms: tuple[Predicate, ...]

    def qubits(self) -> frozenset[int]:
        return frozenset().union(*(t.qubits() for t in self.terms)) if self.terms else frozenset()

    def mask(self, indices: np.ndarray) -> np.ndarray:
        out = np.ones(indices.shape, dtype=bool)
        for t in self.terms:
            out &= t.mask(indices)
        return out

    def assignments(self) -> list[Assignment]:
        out: list[Assignment] = [{}]
        for t in self.terms:
            out = [
                {**a, **b}
                for a in out
                for b in t.assignments()
                if all(a.get(q, v) == v for q, v in b.items())
            ]
        return out


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
    """Apply the inner ops only where the predicate holds.

    Predicate qubits must be disjoint from the inner ops' target qubits, so
    the controlled action is unitary and realizes (1 - pi) + U pi exactly.
    The simulator applies the inner ops, in order, to the sub-view of each of
    the predicate's disjoint assignments in turn; amplitudes outside every
    assignment are not touched.
    """

    predicate: Predicate
    ops: tuple["GateOp", ...]

    def __post_init__(self) -> None:
        if not self.ops:
            raise ValueError("controlled gate needs at least one inner op")
        overlap = self.predicate.qubits() & gate_target_qubits(self)
        if overlap:
            raise ValueError(f"predicate and target qubits overlap: {sorted(overlap)}")


GateOp = Union[Hadamard, PauliX, Ry, PhasePair, Controlled]


def gate_target_qubits(op: GateOp) -> frozenset[int]:
    """Qubits an op can modify (predicate reads excluded)."""
    if isinstance(op, Controlled):
        return frozenset().union(*(gate_target_qubits(o) for o in op.ops))
    return frozenset((op.qubit,))


def gate_qubits(op: GateOp) -> frozenset[int]:
    """All qubits an op touches, reads included."""
    if isinstance(op, Controlled):
        return op.predicate.qubits() | frozenset().union(*(gate_qubits(o) for o in op.ops))
    return frozenset((op.qubit,))


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


def _fix(view: np.ndarray, assignment: Assignment) -> np.ndarray:
    """Sub-view with each assigned qubit cut to a width-1 slice (axes kept)."""
    index = [slice(None)] * view.ndim
    for q, v in assignment.items():
        index[view.ndim - 1 - q] = slice(v, v + 1)
    return view[tuple(index)]


def _apply_op(view: np.ndarray, op: GateOp, fixed: Assignment) -> None:
    """Apply op in place to a qubit view whose ``fixed`` qubits are already cut."""
    if isinstance(op, Controlled):
        for assignment in op.predicate.assignments():
            if any(fixed.get(q, v) != v for q, v in assignment.items()):
                continue  # contradicts an enclosing control: this part is empty
            new = {q: v for q, v in assignment.items() if q not in fixed}
            sub = _fix(view, new)
            for inner in op.ops:
                _apply_op(sub, inner, {**fixed, **new})
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
        _apply_op(view, op, {})


def apply_gate(state: StateVector, op: GateOp) -> StateVector:
    total = state.layout.total_qubits
    bad = [q for q in gate_qubits(op) if not 0 <= q < total]
    if bad:
        raise ValueError(f"op {op} uses qubits {bad} outside the {total}-qubit layout")
    amps = state.amplitudes.copy()
    _run(amps, (op,))
    return StateVector(state.layout, amps)


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


def project(state: StateVector, predicate: Predicate) -> tuple[StateVector, float]:
    """Unnormalized component where the predicate holds, plus its norm."""
    comp = StateVector(state.layout, np.zeros_like(state.amplitudes))
    for assignment in predicate.assignments():
        sector(comp, assignment)[...] = sector(state, assignment)
    return comp, float(np.linalg.norm(comp.amplitudes))


# ---------------------------------------------------------------------------
# state preparation


def compile_state_prep(layout: RegisterLayout, target, register: str) -> Circuit:
    """Compile gates mapping |0...0> of one register to the target amplitudes.

    Classic rotation-tree construction: level m applies Ry rotations on the
    register's (k-1-m)-th qubit, controlled on the basis values of the m
    qubits above it; a final pass of predicate-controlled diagonal phase
    gates fixes the complex phases.  Gate count is O(2**k) for a k-qubit
    register.  The compiled circuit reproduces the target with no residual
    global phase.  Levels whose rotation angles agree across all prefixes
    collapse to a single uncontrolled gate, so product states compile to
    single-qubit rotations.

    Args:
        layout: register layout the circuit will run on.
        target: complex array of 2**k amplitudes, normalized within 1e-9.
        register: name of the register to prepare.

    Returns:
        Circuit acting only on the register's qubits.
    """
    qubits = layout.register(register)
    k = len(qubits)
    target = np.asarray(target, dtype=np.complex128)
    if target.shape != (1 << k,):
        raise ValueError(f"target needs {1 << k} amplitudes for register {register!r}")
    norm = np.linalg.norm(target)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"target norm is {norm}, expected 1 within 1e-9")

    ops: list[GateOp] = []
    weights = np.abs(target) ** 2

    for m in range(k):
        qubit = qubits[k - 1 - m]
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
            controls = tuple(
                QubitIs(qubits[k - 1 - t], (p >> (m - 1 - t)) & 1) for t in range(m)
            )
            ops.append(Controlled(AllOf(controls), (Ry(qubit, angle),)))

    phases = np.where(np.abs(target) > 0, np.angle(target), 0.0)
    if np.max(np.abs(phases)) > 1e-12:
        pairs = [(float(phases[2 * h]), float(phases[2 * h + 1])) for h in range(1 << (k - 1))]
        if all(p == pairs[0] for p in pairs):
            ops.append(PhasePair(qubits[0], *pairs[0]))
        else:
            for h, (phi0, phi1) in enumerate(pairs):
                if abs(phi0) <= 1e-12 and abs(phi1) <= 1e-12:
                    continue
                gate = PhasePair(qubits[0], phi0, phi1)
                if k == 1:
                    ops.append(gate)
                else:
                    controls = tuple(QubitIs(qubits[1 + t], (h >> t) & 1) for t in range(k - 1))
                    ops.append(Controlled(AllOf(controls), (gate,)))

    return Circuit(layout, tuple(ops))


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
    amps = np.array([complex(re, im) for re, im in obj["amplitudes"]], dtype=np.complex128)
    return StateVector(layout, amps)
