"""Dense oracles for the start-state build and the readout, shared by the test modules.

``circuits.gather`` is the one builder of start states in the package; these
helpers rebuild its states independently, by running ``build_start_circuit``
one gate at a time from the all-zeros state with ``apply_circuit``.  Its
state prep is ``gates.compile_state_prep``'s per-prefix ``Controlled``
gates, run through the gate model, so the oracle never runs
``circuits.prepare``'s product tree; ``per_prefix_state_prep`` compiles
those gates from the target directly, one prefix at a time, with no
``circuits.rotation_tree``.

``circuits.read_out_at`` is the one readout in the package, run on a support.
``read_out`` here is the same readout over every basis index of a dense
start state: the gate model's dense ``plan_grover`` and ``amplify``
(``mobiusq.gates``), then cell masses that are each one ``math.fsum`` over
an ``np.arange`` index mask, not the package's cell reduction.  The module
also holds the reader of ``--dump-state`` files, which only the tests load
back, and ``register_values``, which reads a register off basis indices.
"""
from __future__ import annotations

import math

import numpy as np

from mobiusq.circuits import TransformQuery
from mobiusq.gates import (
    Circuit,
    Controlled,
    PhasePair,
    Ry,
    StateVector,
    amplify,
    apply_circuit,
    build_start_circuit,
    new_state,
    plan_grover,
)
from mobiusq.layout import Mode, Readout, RegisterLayout
from mobiusq.subset import json_complex, json_int


def per_prefix_state_prep(target) -> list:
    """compile_state_prep's gates, each prefix's angle from its own slice sums."""
    target = np.asarray(target, dtype=np.complex128)
    k = target.size.bit_length() - 1
    ops: list = []
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
            if abs(angle) > 1e-12:
                controls = {k - 1 - t: (p >> (m - 1 - t)) & 1 for t in range(m)}
                ops.append(Controlled(controls, (Ry(qubit, angle),)))
    phases = np.where(np.abs(target) > 0, np.angle(target), 0.0)
    if np.max(np.abs(phases)) > 1e-12:
        pairs = [(float(phases[2 * h]), float(phases[2 * h + 1])) for h in range(1 << (k - 1))]
        if all(p == pairs[0] for p in pairs):
            ops.append(PhasePair(0, *pairs[0]))
        else:
            for h, (phi0, phi1) in enumerate(pairs):
                if abs(phi0) > 1e-12 or abs(phi1) > 1e-12:
                    controls = {1 + t: (h >> t) & 1 for t in range(k - 1)}
                    ops.append(Controlled(controls, (PhasePair(0, phi0, phi1),)))
    return ops


def table_amplitudes(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """A unit 2**n-entry table of one kind: complex, real, zeros (60% zero), tiny, uniform or basis.

    A tiny table has about half its magnitudes scaled by 1e-14 and each
    phase drawn from {0, 1e-13, -1e-13, pi}, so the prep has angle and phase
    rows within 1e-12 of 0, which it leaves alone.
    """
    size = 1 << n
    if kind == "tiny":
        amps = rng.random(size) * np.where(rng.random(size) < 0.5, 1e-14, 1.0)
        amps = amps * np.exp(1j * rng.choice([0.0, 1e-13, -1e-13, np.pi], size))
    elif kind == "uniform":
        amps = np.ones(size)
    elif kind == "basis":
        amps = np.zeros(size)
        amps[rng.integers(size)] = 1.0
    elif kind == "real":
        amps = rng.random(size)
    else:
        amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        if kind == "zeros":
            amps[rng.random(size) < 0.6] = 0.0
            amps[rng.integers(size)] = 1.0  # keep the table nonzero
    return amps / np.linalg.norm(amps)


def unmarked_oracle(query: TransformQuery) -> StateVector:
    """The start circuit without its final mark, run gate by gate; query.x is not read."""
    ops = build_start_circuit(query).ops[:-1]
    return apply_circuit(new_state(query.layout), Circuit(query.layout, ops))


def mark_oracle(unmarked: StateVector, query: TransformQuery) -> StateVector:
    """The start state at query.x: the start circuit's final mark run on ``unmarked``."""
    mark = build_start_circuit(query).ops[-1:]
    return apply_circuit(unmarked, Circuit(query.layout, mark))


def register_values(layout: RegisterLayout, name: str, index: np.ndarray) -> np.ndarray:
    """Value of register ``name`` at each basis index in ``index``."""
    reg = layout.register(name)
    return (index >> reg.start) & ((1 << len(reg)) - 1)


def layout_from_json_obj(obj: dict) -> RegisterLayout:
    """Inverse of RegisterLayout.to_json_obj, by the rules of every other JSON input."""
    return RegisterLayout(Mode(obj["mode"]), json_int(obj, "n"), json_int(obj, "n0"))


def state_from_json_obj(obj: dict) -> StateVector:
    """Read a state written by gates.state_to_json_obj, such as a ``--dump-state`` file."""
    return StateVector(layout_from_json_obj(obj["layout"]), json_complex(obj, "amplitudes"))


def cell_masses(state: StateVector) -> tuple[float, float, float, float]:
    """The (omega, gamma) cell masses (0, 0), (0, 1), (1, 0), (1, 1), each one math.fsum."""
    idx = np.arange(state.amplitudes.size)
    omega, gamma = (idx >> state.layout.omega_qubit) & 1, (idx >> state.layout.gamma_qubit) & 1
    cells = [state.amplitudes[(omega == w) & (gamma == g)] for w in (0, 1) for g in (0, 1)]
    return tuple(math.fsum(np.square(cell.view(np.float64)).tolist()) for cell in cells)


def read_out(start: StateVector) -> Readout:
    """The readout of a dense start state: its plan and the cell masses after the planned steps."""
    plan = plan_grover(start)
    return Readout(plan, cell_masses(amplify(start, plan)))
