"""Subset-lattice transforms and marginals via amplitude-amplified circuits.

Classical side: dense tables over the boolean lattice with naive and
butterfly zeta transforms plus Mobius inversion.  Quantum side: a
start-state construction whose conditional gamma odds on omega=0 equal the
transform value, simulated on one amplitude per table row, Grover-style
amplification that preserves those odds, and exact or sampled estimators;
the gate model that specifies the construction, a dense statevector
simulator with {qubit: value}-controlled gates, checks it.  On top of both sits a bit-fixing binary search that
finds the argmin of a positive objective in n probes.

The names below are re-exported lazily (PEP 562): ``import mobiusq`` loads
no submodule and so no numpy, and ``from mobiusq import read_out_at`` loads
only what that name needs.  The CLI relies on this to set its BLAS thread
count before numpy first loads (see :mod:`mobiusq.cli`), and binds the
names of its commands the same way, through :func:`_defer`.
"""
from __future__ import annotations

_EXPORTS = {
    "bits": ("BitString",),
    "layout": (
        "DecompositionError", "EstimateReport", "GroverPlan", "MAX_QUBITS", "Mode", "Readout", "RegisterLayout",
    ),
    "subset": (
        "SubsetTable", "mobius_inverse", "zeta_fast", "zeta_fast_inplace", "zeta_matrix", "zeta_naive",
    ),
    "circuits": (
        "Support", "TransformQuery", "classical_value", "estimate_exact", "estimate_sampled", "gather", "read_out_at",
    ),
    "gates": (
        "Circuit", "Controlled", "Hadamard", "PauliX", "PhasePair", "Ry", "StateVector", "amplify", "apply_circuit",
        "basis_index", "build_comparator", "build_start_circuit", "build_start_state", "compile_state_prep",
        "new_state", "plan_grover", "project", "sector", "state_to_json_obj",
    ),
    "minfind": ("ProbeRecord", "SearchTrace", "find_min", "probe_point", "quantum_evaluator"),
    "dense": (
        "ObjectiveTable", "choose_beta", "classical_evaluator", "min_gap", "quadratic_objective", "softmin_table",
    ),
    "verify": ("SignalDecomposition", "decompose_signal", "run_verify"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)
__version__ = "0.1.0"


def _defer(namespace: dict, exports: dict[str, tuple[str, ...]]):
    """Bind the names ``exports`` lists per submodule into a module's ``namespace`` on first use.

    Returns ``(load, __getattr__)``.  ``load(*submodules)`` imports those
    submodules of this package and binds the names listed for them; a module
    calls it before code that reads those names as globals.  It imports
    through the builtin ``__import__``, whose C import path writes the
    ``-X importtime`` log, where ``importlib.import_module`` does not.
    ``__getattr__`` is the module's PEP 562 hook: the first attribute access
    to a listed name loads its submodule.  So every listed name is an attribute of the module
    before any load.  Names are bound with ``setdefault``: a value already
    bound, such as a test's or a tracer's replacement, wins.
    """
    home = {name: module for module, names in exports.items() for name in names}

    def load(*modules: str) -> None:
        for module in modules:
            source = __import__(f"{__name__}.{module}", fromlist=exports[module])
            for name in exports[module]:
                namespace.setdefault(name, getattr(source, name))

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        load(home[name])
        return namespace[name]

    return load, __getattr__


class _Record:
    """An immutable value whose fields are its class's ``__slots__``, in order.

    Built from its fields by position or keyword, equal to a record of the
    same type with equal fields and hashed by them.  Defining a subclass
    generates and compiles no code, so importing one costs next to nothing.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        fields, init = self.__slots__, f"{type(self).__name__}.__init__()"
        if len(args) > len(fields):
            raise TypeError(f"{init} takes {len(fields) + 1} positional arguments but {len(args) + 1} were given")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in values:
                why = "multiple values for argument" if name in values else "an unexpected keyword argument"
                raise TypeError(f"{init} got {why} {name!r}")
            values[name] = value
        missing = [name for name in fields if name not in values]
        if missing:
            raise TypeError(f"{init} missing required arguments: {', '.join(map(repr, missing))}")
        for name in fields:
            object.__setattr__(self, name, values[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self.__slots__)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__; the frozen __setattr__ bars the default
        return type(self), self._values()


__getattr__ = _defer(globals(), _EXPORTS)[1]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
