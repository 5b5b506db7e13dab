"""The register layout: what both kernels address a table by.

Points of the lattice are :mod:`mobiusq.bits`' ``BitString``, re-exported
here, with that module's bit convention.  The layout packs six registers
onto consecutive qubits, low indices first: alpha_minus (n qubits), alpha
(n0), beta (n0), gamma, mu0, omega (one each).  Qubit q is the 2**q bit of
the amplitude index.

This module loads no numpy: a transform run of the CLI, the numpy kernel
(``sim``, ``circuits``, ``grover``) and the pure-Python kernel
(:mod:`mobiusq.pure`) share it, and ``subset``, ``sim`` and ``circuits``
re-export its names.  Classical minfind loads none of it.
"""
from __future__ import annotations

from enum import Enum

from . import _Record
from .bits import BitString  # noqa: F401  (re-exported)

MAX_QUBITS = 26


def json_int(obj: dict, key: str) -> int:
    """obj[key], which must be a JSON integer: no float, string or bool."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"'{key}' must be an integer, got {value!r}")
    return value


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


class DecompositionError(RuntimeError):
    """Start-state structure violated its predicted shape: a circuit bug."""


def _keep(layout: RegisterLayout, x: BitString, alpha_minus):
    """Which rows alpha_minus of the table add up to the value at x, as flags; an int or an int array.

    Mobius: every y <= x bitwise.  Marginal: every y whose low n0 bits equal x.
    """
    xv = x.to_int()
    if layout.mode is Mode.MOBIUS:
        return (alpha_minus & xv) == alpha_minus
    return (alpha_minus & ((1 << layout.n0) - 1)) == xv
