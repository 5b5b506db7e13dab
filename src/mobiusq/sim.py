"""The register layout, and the state prep of the alpha_minus register.

The layout packs six registers onto consecutive qubits, low indices first:
alpha_minus (n qubits), alpha (n0), beta (n0), gamma, mu0, omega (one each).
Qubit q is the 2**q bit of the amplitude index, matching the bit convention
in :mod:`mobiusq.subset`.

The prep gates act in place on the ``(2,)*k`` view of the amplitude array,
in which qubit q is axis k-1-q.  A one-qubit gate on q replaces the two
halves a0, a1 of that axis by m00*a0 + m01*a1 and m10*a0 + m11*a1,
elementwise, so a result never depends on the shape of the array it sits
in.  A multiplexed gate is one level of a rotation tree: it applies its own
one-qubit gate per value of the qubits just above its target, as the same
elementwise operations with one coefficient per value.

This is all a transform run simulates.  The rest of the gate model lives in
:mod:`mobiusq.gates`; its names are bound here on first use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from . import _defer

_DEFERRED = {
    "gates": (
        "Circuit", "Controlled", "Hadamard", "PauliX", "QubitIs", "StateVector", "apply_circuit",
        "basis_index", "gate_qubits", "gate_target_qubits", "new_state", "project", "sector",
        "state_to_json_obj",
    ),
}
__getattr__ = _defer(globals(), _DEFERRED)[1]

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


# ---------------------------------------------------------------------------
# prep gates


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
class Multiplexed:
    """A uniformly controlled Ry or PhasePair: one gate per value of the qubits above ``qubit``.

    The m qubits qubit+1 .. qubit+m, 2**m being ``len(rows)``, hold a value
    p (qubit+1 its low bit), and where they do, the gate applies
    ``gate(qubit, *rows[p])``; a row of None leaves those amplitudes alone.
    That is the same as one controlled gate per row that is not None, bit
    for bit, and it is one level of the rotation tree of Mottonen et al.
    (quant-ph/0407010), also called a multiplexed rotation.
    """

    qubit: int
    gate: type
    rows: tuple

    def __post_init__(self) -> None:
        size = len(self.rows)
        if self.gate not in (Ry, PhasePair) or size < 2 or size & (size - 1):
            raise ValueError(f"a Multiplexed gate is an Ry or PhasePair with 2**m >= 2 rows, got {size}")

    @property
    def width(self) -> int:
        """m, the number of qubits that select the row."""
        return len(self.rows).bit_length() - 1


PrepGate = Union[Ry, PhasePair, Multiplexed]

# the Hadamard matrix: gather's H factor and the gate model's Hadamard read the same bytes
_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)


def _gate_matrices(gate: type, rows) -> np.ndarray:
    """The matrices of gate(q, *row), an Ry or a PhasePair, for each row, stacked."""
    out = np.zeros((len(rows), 2, 2), dtype=np.complex128)
    if gate is Ry:
        c, s = np.array([(math.cos(t / 2.0), math.sin(t / 2.0)) for t, in rows]).reshape(-1, 2).T
        out[:, 0, 0] = out[:, 1, 1] = c
        out[:, 0, 1], out[:, 1, 0] = -s, s
    else:
        out[:, 0, 0], out[:, 1, 1] = np.exp(1j * np.array(rows).reshape(-1, 2).T)
    return out


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


def _apply_prep_gate(view: np.ndarray, op: PrepGate) -> None:
    """Apply an Ry, PhasePair or Multiplexed gate in place to a qubit view."""
    if isinstance(op, Multiplexed):
        # axes: the qubits above the selecting ones, the row p, the target, the qubits below
        block = view.reshape(-1, len(op.rows), 2, 1 << op.qubit)
        live = [p for p, row in enumerate(op.rows) if row is not None]
        sub = block if len(live) == len(op.rows) else block[:, live]  # a copy if rows are skipped
        m = _gate_matrices(op.gate, [op.rows[p] for p in live])[..., None]
        _rotate(sub[:, :, 0], sub[:, :, 1], m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1])
        if sub is not block:
            block[:, live] = sub
        return
    m = _gate_matrices(type(op), [tuple(vars(op).values())[1:]])[0]
    _rotate(*_halves(view, op.qubit), *m.ravel())


def prepare_low_qubits(ops, k: int) -> np.ndarray:
    """Amplitudes of qubits 0..k-1 after the prep gates ``ops`` act on their |0...0> state.

    The ops must touch only those qubits.  Since qubit q is the 2**q bit, the
    result is also the first 2**k amplitudes of a full state whose other
    qubits start and stay at 0, computed without the rest of the state.
    """
    spans = [range(op.qubit, op.qubit + 1 + (op.width if isinstance(op, Multiplexed) else 0)) for op in ops]
    bad = sorted({q for span in spans for q in span if not 0 <= q < k})
    if bad:
        raise ValueError(f"ops touch qubits {bad} outside the low {k}")
    amps = np.zeros(1 << k, dtype=np.complex128)
    amps[0] = 1.0
    view = _qubit_view(amps)
    for op in ops:
        _apply_prep_gate(view, op)
    return amps


# ---------------------------------------------------------------------------
# state preparation


def _rows(params: np.ndarray) -> tuple:
    """The rows of a Multiplexed gate: each row of params as floats, None where all are within 1e-12 of 0."""
    rows = list(zip(*params.T.tolist()))
    for p in np.flatnonzero(np.all(np.abs(params) <= 1e-12, axis=1)).tolist():
        rows[p] = None
    return tuple(rows)


def compile_state_prep(target) -> tuple[PrepGate, ...]:
    """Compile gates mapping |0...0> of qubits 0..k-1 to the target amplitudes.

    Those qubits are the alpha_minus register of every layout, and k is
    log2 of the target's length.  Classic rotation-tree construction
    (Mottonen et al., quant-ph/0407010): level m is one Multiplexed Ry on
    qubit k-1-m, with one angle per basis value of the m qubits above it; a
    final Multiplexed PhasePair on qubit 0 fixes the complex phases.  So
    there are at most k+1 gates.  The compiled gates reproduce the target
    with no residual global phase.  A row whose angles are all within 1e-12
    of 0 is left alone, and a level whose angles agree across all prefixes
    collapses to a single plain gate, so product states compile to
    single-qubit rotations.

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
    if not abs(norm - 1.0) <= 1e-9:  # a NaN norm fails too
        raise ValueError(f"target norm is {norm}, expected 1 within 1e-9")

    ops: list[PrepGate] = []
    weights = np.abs(target) ** 2

    for m in range(k):
        # the weights of each prefix's two halves, each summed as its own slice; sqrt is exact-rounded
        halves = np.sqrt(weights.reshape(1 << m, 2, -1).sum(axis=2))
        angles = np.array([2.0 * math.atan2(r1, r0) for r0, r1 in zip(*halves.T.tolist())])
        if np.any(np.abs(angles - angles[0]) > 1e-12):
            ops.append(Multiplexed(k - 1 - m, Ry, _rows(angles[:, None])))
        elif abs(angles[0]) > 1e-12:
            ops.append(Ry(k - 1 - m, float(angles[0])))

    phases = np.where(np.abs(target) > 0, np.angle(target), 0.0).reshape(-1, 2)
    if np.max(np.abs(phases)) > 1e-12:
        if np.any(phases != phases[0]):
            ops.append(Multiplexed(0, PhasePair, _rows(phases)))
        else:  # always so for k == 1
            ops.append(PhasePair(0, *phases[0].tolist()))
    return tuple(ops)
