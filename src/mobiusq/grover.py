"""The names perfbench/ reads through ``mobiusq.grover``, the old home of the readout (:mod:`mobiusq.circuits`).

perfbench/ is its only reader: no src module imports it.  ROADMAP item 3c deletes it.
"""
from . import _defer
from .layout import GroverPlan  # noqa: F401  (re-exported: perfbench/tracer.py reads grover.GroverPlan)

_DEFERRED = {"gates": ("amplify", "build_start_state", "plan_grover")}
__getattr__ = _defer(globals(), _DEFERRED)[1]
