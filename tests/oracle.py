"""Gate-by-gate oracle for the start-state build, shared by the test modules.

``circuits.gather`` is the one builder of start states in the package; these
helpers rebuild its states independently, by running ``build_start_circuit``
one gate at a time from the all-zeros state with ``apply_circuit``.
"""
from __future__ import annotations

from mobiusq.circuits import TransformQuery, build_start_circuit
from mobiusq.sim import Circuit, StateVector, apply_circuit, new_state


def unmarked_oracle(query: TransformQuery) -> StateVector:
    """The start circuit without its final mark, run gate by gate; query.x is not read."""
    ops = build_start_circuit(query).ops[:-1]
    return apply_circuit(new_state(query.layout), Circuit(query.layout, ops))


def mark_oracle(unmarked: StateVector, query: TransformQuery) -> StateVector:
    """The start state at query.x: the start circuit's final mark run on ``unmarked``."""
    mark = build_start_circuit(query).ops[-1:]
    return apply_circuit(unmarked, Circuit(query.layout, mark))
