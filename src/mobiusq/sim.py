"""The names perfbench/ reads through ``mobiusq.sim``, the old home of the state prep (:mod:`mobiusq.circuits`).

perfbench/ is its only reader: no src module imports it.  ROADMAP item 3c deletes it.
"""
from . import _defer
from .layout import Mode, RegisterLayout  # noqa: F401  (re-exported: perfbench/setup_probe.py reads them here)

_DEFERRED = {
    "gates": ("Circuit", "QubitIs", "apply_circuit", "gate_qubits", "gate_target_qubits", "new_state", "project"),
}
__getattr__ = _defer(globals(), _DEFERRED)[1]
