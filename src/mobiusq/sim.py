"""The register layout, and the state prep of the alpha_minus register.

The layout packs six registers onto consecutive qubits, low indices first:
alpha_minus (n qubits), alpha (n0), beta (n0), gamma, mu0, omega (one each).
Qubit q is the 2**q bit of the amplitude index, matching the bit convention
in :mod:`mobiusq.subset`.

The prep of alpha_minus is a rotation tree (Mottonen et al.,
quant-ph/0407010) run from |0...0>: each Ry level meets a qubit still at 0,
so ``prepare_low_qubits`` computes it as products, one float64 entry per
prefix split into its cos and sin shares, and then multiplies in the phase
level.  Its bytes are those of the gate model's run of the same gates.

This is all a transform run computes.  The gate model lives in
:mod:`mobiusq.gates`; the names of it that perfbench/tracer.py reads through
this module are bound here on first use.
"""
from __future__ import annotations

import math
from enum import Enum
from typing import Union

import numpy as np

from . import _Record, _defer

_DEFERRED = {
    "gates": ("Circuit", "QubitIs", "apply_circuit", "gate_qubits", "gate_target_qubits", "new_state", "project"),
}
__getattr__ = _defer(globals(), _DEFERRED)[1]

MAX_QUBITS = 26


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


# ---------------------------------------------------------------------------
# prep gates


class Ry(_Record):
    """Real rotation cos(theta/2) I - i sin(theta/2) Y."""

    __slots__ = ("qubit", "theta")


class PhasePair(_Record):
    """Diagonal phases diag(e^{i phi0}, e^{i phi1}) on one qubit."""

    __slots__ = ("qubit", "phi0", "phi1")


class Multiplexed(_Record):
    """A uniformly controlled Ry or PhasePair: one gate per value of the qubits above ``qubit``.

    ``params`` is a read-only float64 array of shape (2**m, 1) for Ry or
    (2**m, 2) for PhasePair.  Where the m qubits qubit+1 .. qubit+m hold p
    (qubit+1 its low bit), the gate applies ``gate(qubit, *params[p])``; a
    row of zeros is the identity.  That is the same as one controlled gate
    per nonzero row, bit for bit, and it is one level of the rotation tree
    of Mottonen et al. (quant-ph/0407010), also called a multiplexed rotation.
    """

    __slots__ = ("qubit", "gate", "params")

    def __init__(self, qubit: int, gate: type, params) -> None:
        params = np.array(params, dtype=np.float64)
        size, angles = len(params) if params.ndim == 2 else 0, {Ry: 1, PhasePair: 2}.get(gate)
        if angles is None or size < 2 or size & (size - 1) or params.shape[1] != angles:
            raise ValueError(f"a Multiplexed Ry or PhasePair needs 2**m >= 2 rows of angles, got {params.shape}")
        params.flags.writeable = False
        super().__init__(qubit, gate, params)

    def _values(self) -> tuple:  # the rows as tuples, for ==, hash and pickle
        return self.qubit, self.gate, tuple(map(tuple, self.params.tolist()))

    @property
    def width(self) -> int:
        """m, the number of qubits that select the row."""
        return len(self.params).bit_length() - 1


PrepGate = Union[Ry, PhasePair, Multiplexed]

# the Hadamard matrix: gather's H factor and the gate model's Hadamard read the same bytes
_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)


def _split(amps: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each prefix amplitude a, by its row theta, followed by cos(theta/2) a and sin(theta/2) a."""
    live = np.flatnonzero(rows)  # a zero row gives a and 0 with no libm call: sin(-0.0) is -0.0
    half = memoryview(rows[live] / 2.0)
    c, s = np.ones(len(rows)), np.zeros(len(rows))
    c[live], s[live] = (np.fromiter(map(f, half), np.float64, len(half)) for f in (math.cos, math.sin))
    a = amps.reshape(-1, len(rows))
    return np.stack([a * c, a * s], -1).ravel()


def prepare_low_qubits(ops, k: int) -> np.ndarray:
    """Amplitudes of qubits 0..k-1 after the prep levels ``ops`` act on their |0...0> state.

    The ops are Ry levels on descending qubits, then at most one PhasePair
    level on qubit 0, as compile_state_prep emits them; a missing level is
    rows of zeros.  The result has the gate model's bytes, and it is also the
    first 2**k amplitudes of a full state whose other qubits stay at 0.
    """
    ops = tuple(ops)
    spans = [range(op.qubit, op.qubit + 1 + getattr(op, "width", 0)) for op in ops if hasattr(op, "qubit")]
    bad = sorted({q for span in spans for q in span if not 0 <= q < k})
    if bad:
        raise ValueError(f"ops touch qubits {bad} outside the low {k}")
    turns, phases = {}, None
    for op in ops:
        gate = op.gate if isinstance(op, Multiplexed) else type(op)
        in_order = gate is Ry and op.qubit < min(turns, default=k) or gate is PhasePair and op.qubit == 0
        if phases is not None or not in_order:
            raise ValueError(f"{op} is not the next level: Ry levels down from qubit {k - 1}, then PhasePair on 0")
        rows = op.params if isinstance(op, Multiplexed) else np.array([op._values()[1:]], dtype=np.float64)
        if gate is Ry:
            turns[op.qubit] = rows[:, 0]
        else:
            phases = rows
    amps = np.ones(1)
    for q in range(k - 1, -1, -1):
        amps = _split(amps, turns.get(q, np.zeros(1)))
    phases = np.zeros((1, 2)) if phases is None else phases
    # the + 0.0 is the gate model's zero off-diagonal product: it turns a -0.0 part into +0.0
    return (amps.reshape(-1, *phases.shape) * np.exp(1j * phases)).ravel() + 0.0


# ---------------------------------------------------------------------------
# state preparation


def compile_state_prep(target) -> tuple[PrepGate, ...]:
    """Compile gates mapping |0...0> of qubits 0..k-1 to the target amplitudes.

    Those qubits are the alpha_minus register of every layout, and k is
    log2 of the target's length.  Classic rotation-tree construction
    (Mottonen et al., quant-ph/0407010): level m is one Multiplexed Ry on
    qubit k-1-m, with one angle per basis value of the m qubits above it; a
    final Multiplexed PhasePair on qubit 0 fixes the complex phases.  So
    there are at most k+1 gates.  The compiled gates reproduce the target
    with no residual global phase.  A row whose angles are all within 1e-12
    of 0 is set to zeros, which leaves its amplitudes alone, and a level
    whose angles agree across all prefixes collapses to a single plain gate,
    so product states compile to single-qubit rotations.

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
        r0, r1 = map(memoryview, np.sqrt(weights.reshape(1 << m, 2, -1).sum(axis=2)).T)
        angles = 2.0 * np.fromiter(map(math.atan2, r1, r0), np.float64, 1 << m)
        if np.any(np.abs(angles - angles[0]) > 1e-12):
            angles[np.abs(angles) <= 1e-12] = 0.0
            ops.append(Multiplexed(k - 1 - m, Ry, angles[:, None]))
        elif abs(angles[0]) > 1e-12:
            ops.append(Ry(k - 1 - m, float(angles[0])))

    phases = np.where(np.abs(target) > 0, np.angle(target), 0.0).reshape(-1, 2)
    if np.max(np.abs(phases)) > 1e-12:
        if np.any(phases != phases[0]):
            phases[np.all(np.abs(phases) <= 1e-12, axis=1)] = 0.0
            ops.append(Multiplexed(0, PhasePair, phases))
        else:  # always so for k == 1
            ops.append(PhasePair(0, *phases[0].tolist()))
    return tuple(ops)
