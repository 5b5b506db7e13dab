"""Builders for the transform-evaluation circuit and its exact readout.

A query carries an amplitude-encoded table psi_minus on alpha_minus and an
evaluation point x.  The start-state construction entangles two branches on
mu0: the mu0=1 branch runs a comparator that Hadamard-samples alpha and
marks subset violations (mobius) or bit mismatches (marginal) on beta; the
mu0=0 branch just Hadamard-spreads alpha.  A final X on omega, controlled
on (alpha == x and beta == 0), moves the two on-target components to
omega=0:

    z1 * |psi1>|beta=0,gamma=1>|omega=0>   with |z1| = sqrt(value) * base
  + z0 * |psi0>|beta=0,gamma=0>|omega=0>   with  z0  = base
  + |chi>|omega=1>

where base = 2**-((n0+1)/2) and value is the subset sum f(x) (mobius) or
the marginal probability P(x) (marginal).  The conditional gamma odds on
omega=0 therefore equal the transform value, and they are preserved by the
amplitude amplification in :mod:`mobiusq.grover`.

x enters only that final mark; every earlier op depends on (mode, n, n0,
psi_minus) alone.  Those ops leave at most one nonzero amplitude per
(alpha_minus, alpha, mu0) value: the other qubits they only relabel.
``gather``, the one builder of start states, simulates them once on those
2**(n+n0+1) amplitudes, each labelled with its basis index, and keeps the
nonzero ones.  The mark at x only moves the omega bit of those with
alpha == x and beta == 0, so the :class:`Support` it returns serves every
point of a table with no dense state at all, and ``Support.start_state(x)``
scatters it back into the dense start state at x when one is wanted
(``--dump-state``, ``build_start_state``).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .sim import (
    Circuit,
    Controlled,
    GateOp,
    Hadamard,
    Mode,
    PauliX,
    RegisterLayout,
    StateVector,
    compile_state_prep,
    prepare_low_qubits,
    register_values,
    run_ops,
)
from .subset import BitString, SubsetTable, json_complex, json_int


class DecompositionError(RuntimeError):
    """Start-state structure violated its predicted shape: a circuit bug."""


@dataclass(eq=False)
class TransformQuery:
    """One transform evaluation: mode, encoded table, and the point x.

    psi_minus holds 2**n complex amplitudes whose squared magnitudes form
    the table being transformed; x has n0 bits (n0 == n in mobius mode).
    """

    mode: Mode
    n: int
    psi_minus: np.ndarray
    x: BitString
    n0: int | None = None

    def __post_init__(self) -> None:
        self.mode = Mode(self.mode)
        layout = RegisterLayout(self.mode, self.n, self.n0)  # validates n/n0
        self.n0 = layout.n0
        arr = np.array(self.psi_minus, dtype=np.complex128)
        if arr.shape != (1 << self.n,):
            raise ValueError(f"psi_minus needs {1 << self.n} amplitudes, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("psi_minus has non-finite amplitudes")
        norm = np.linalg.norm(arr)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"psi_minus norm is {norm}, expected 1 within 1e-9")
        self.psi_minus = arr
        if not isinstance(self.x, BitString):
            raise TypeError("x must be a BitString")
        if len(self.x) != self.n0:
            raise ValueError(f"x has {len(self.x)} bits, expected n0 = {self.n0}")

    @property
    def layout(self) -> RegisterLayout:
        return RegisterLayout(self.mode, self.n, self.n0)

    @classmethod
    def from_probability_table(
        cls, mode: Mode, table: SubsetTable, x: BitString, n0: int | None = None
    ) -> TransformQuery:
        """Encode a probability table as real nonnegative amplitudes."""
        table.require_probability()
        return cls(mode, table.n, np.sqrt(table.values), x, n0)

    def to_json_obj(self) -> dict:
        """The query input format from_json_obj reads; the tests write their inputs with it."""
        return {
            "mode": self.mode.value,
            "n": self.n,
            "n0": self.n0,
            "psi_minus": [[float(a.real), float(a.imag)] for a in self.psi_minus],
            "x": str(self.x),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> TransformQuery:
        needed = {"mode", "n", "n0", "psi_minus", "x"}
        missing = needed - set(obj)
        if missing:
            raise ValueError(f"query JSON missing keys: {sorted(missing)}")
        amps = json_complex(obj, "psi_minus")
        n, n0 = json_int(obj, "n"), json_int(obj, "n0")
        return cls(Mode(obj["mode"]), n, amps, BitString.from_str(obj["x"]), n0)


def _keep(query: TransformQuery) -> np.ndarray:
    """Rows of the table that add up to the value at x, as a mask over dec(y).

    Mobius: every y <= x bitwise.  Marginal: every y whose low n0 bits equal x.
    """
    idx = np.arange(1 << query.n)
    xv = query.x.to_int()
    if query.mode is Mode.MOBIUS:
        return (idx & xv) == idx
    return (idx & ((1 << query.n0) - 1)) == xv


def classical_value(query: TransformQuery) -> float:
    """Ground-truth transform value by direct summation over psi_minus."""
    probs = np.abs(query.psi_minus) ** 2
    return float(probs[_keep(query)].sum())


def build_comparator(query: TransformQuery) -> Circuit:
    """Comparator core: Hadamard-sample alpha, mark mismatches on beta.

    For each j ascending, emits H(alpha_j) and then, in mobius mode, an X on
    beta_j controlled on (alpha_minus_j = 1 and alpha_j = 0).  In marginal
    mode it emits two X's on beta_j instead, controlled on alpha_minus_j = 1
    and on alpha_j = 1, which leave beta_j = alpha_minus_j XOR alpha_j.  In
    marginal mode only the n0 low qubits of alpha_minus are compared.
    """
    layout = query.layout
    am = layout.register("alpha_minus")
    al = layout.register("alpha")
    be = layout.register("beta")
    ops: list[GateOp] = []
    for j in range(layout.n0):
        ops.append(Hadamard(al[j]))
        if query.mode is Mode.MOBIUS:
            ops.append(Controlled({am[j]: 1, al[j]: 0}, (PauliX(be[j]),)))
        else:
            # an X only swaps amplitudes, so where both bits are 1 the two
            # swaps cancel exactly
            ops.append(Controlled({am[j]: 1}, (PauliX(be[j]),)))
            ops.append(Controlled({al[j]: 1}, (PauliX(be[j]),)))
    return Circuit(layout, tuple(ops))


def _controlled_on(controls: dict[int, int], op: GateOp) -> GateOp:
    if isinstance(op, Controlled):
        return Controlled({**controls, **op.controls}, op.ops)
    return Controlled(controls, (op,))


def _branch_ops(query: TransformQuery) -> list[GateOp]:
    """The ops between the state prep and the final mark; query.x is not read."""
    layout = query.layout
    al = layout.register("alpha")
    mu0 = layout.mu0_qubit
    ops: list[GateOp] = [
        PauliX(layout.omega_qubit),
        Hadamard(mu0),
        Controlled({mu0: 1}, (PauliX(layout.gamma_qubit),)),
    ]
    for op in build_comparator(query).ops:
        ops.append(_controlled_on({mu0: 1}, op))
    ops.append(Controlled({mu0: 0}, tuple(Hadamard(q) for q in al)))
    return ops


def build_start_circuit(query: TransformQuery) -> Circuit:
    """Full start-state circuit: the alpha_minus prep, the branch ops, the mark.

    The mark is an X on omega controlled on alpha == x and beta == 0.  See
    the module docstring for the state the circuit builds.  gather simulates
    all but the mark; run gate by gate, the whole circuit is the tests'
    oracle for that and the op list perfbench's tracer replays.
    """
    layout = query.layout
    controls = dict(zip(layout.register("alpha"), query.x.bits))
    controls.update(dict.fromkeys(layout.register("beta"), 0))
    mark = Controlled(controls, (PauliX(layout.omega_qubit),))
    prep = compile_state_prep(query.psi_minus)
    return Circuit(layout, (*prep, *_branch_ops(query), mark))


@dataclass(frozen=True, eq=False)
class Support:
    """The nonzero amplitudes of an unmarked state, and the gamma bit the readout reads.

    ``index`` lists the basis indices where the unmarked state is nonzero
    and ``amplitudes`` its values there, in the order of gather's register:
    ascending in the slot (index & (2**(n+n0) - 1)) | mu0 << (n+n0).  Each
    entry is at omega=1, and ``gamma`` flags the entries at gamma=1.  The
    mark's controls, alpha and beta, are read off ``index``.
    """

    layout: RegisterLayout
    index: np.ndarray
    amplitudes: np.ndarray
    gamma: np.ndarray

    def target(self, x: BitString) -> np.ndarray:
        """Flags of the entries at omega=0 in the start state at x: the ones the mark moves."""
        n, n0 = self.layout.n, self.layout.n0
        if len(x) != n0:
            raise ValueError(f"x has {len(x)} bits, expected n0 = {n0}")
        # alpha and beta are the 2*n0 qubits above alpha_minus: alpha == x, beta == 0
        return (self.index & ((1 << 2 * n0) - 1) << n) == x.to_int() << n

    def start_state(self, x: BitString) -> StateVector:
        """The dense start state at x: the support scattered back, marked at x.

        The mark is an X on omega, so it moves the target's amplitudes to the
        omega=0 index unchanged; the result equals apply_circuit on
        build_start_circuit at x bit for bit.
        """
        moved = np.where(self.target(x), self.index ^ (1 << self.layout.omega_qubit), self.index)
        amps = np.zeros(1 << self.layout.total_qubits, dtype=np.complex128)
        amps[moved] = self.amplitudes
        return StateVector(self.layout, amps)


def _holds(label: np.ndarray, controls) -> np.ndarray:
    """Flags of the basis indices in ``label`` that meet every {qubit: value} control."""
    hold = np.ones(label.shape, dtype=bool)
    for q, v in controls.items():
        hold &= ((label >> q) & 1) == v
    return hold


def _mixes_labels(label: np.ndarray, controls, qubit: int, bit: int) -> bool:
    """Whether a gate on register bit ``bit`` pairs two entries whose labels differ off ``qubit``."""
    pairs = label.reshape(-1, 2, 1 << bit)
    low, high = pairs[:, 0], pairs[:, 1]
    return bool(np.any(_holds(low, controls) & ((low ^ high) != 1 << qubit)))


def gather(query: TransformQuery) -> Support:
    """The support of the table's unmarked state: its nonzero amplitudes, all at omega=1.

    Simulates build_start_circuit(query) without its final mark, so
    query.x is not read.  The amplitudes live on a register of the
    alpha_minus, alpha and mu0 qubits, 2**(n+n0+1) of them, and each carries
    a label, the basis index of the full state where it sits.  alpha_minus
    is the lowest register and the prep touches it alone, so the prep fills
    the low end of the register.  Then each branch op runs on the register:
    an X on beta, gamma or omega flips that bit of the labels where its
    controls hold, and any other op runs as it would on the full state,
    which it may only where every pair it mixes differs in the target
    qubit's bit of the label alone.  The amplitudes equal those of
    apply_circuit on the same ops, at the labels, bit for bit, and the
    support keeps them in the register's order.  Raises DecompositionError
    for an op the register cannot carry, when the build's norm is not 1, or
    when it leaves weight at omega=0.
    """
    layout = query.layout
    n, n0 = layout.n, layout.n0
    held = [*layout.register("alpha_minus"), *layout.register("alpha"), layout.mu0_qubit]
    spot = {q: r for r, q in enumerate(held)}  # qubit -> its bit in the register
    prep = prepare_low_qubits(compile_state_prep(query.psi_minus), n)  # its gates are freed first
    amps = np.zeros(1 << len(held), dtype=np.complex128)
    amps[: prep.size] = prep
    label = np.arange(1 << (n + n0))
    label = np.concatenate([label, label | 1 << layout.mu0_qubit])
    for op in _branch_ops(query):
        controls, gates = (op.controls, op.ops) if isinstance(op, Controlled) else ({}, (op,))
        for gate in gates:
            if isinstance(gate, PauliX) and gate.qubit not in spot:
                label[_holds(label, controls)] ^= 1 << gate.qubit
                continue
            if isinstance(gate, PauliX) or not {gate.qubit, *controls} <= spot.keys():
                raise DecompositionError(f"the (alpha_minus, alpha, mu0) register cannot carry {op}")
            if _mixes_labels(label, controls, gate.qubit, spot[gate.qubit]):
                raise DecompositionError(f"{op} mixes amplitudes whose labels differ off its target")
            moved = {spot[q]: v for q, v in controls.items()}
            run_ops(amps, [Controlled(moved, (replace(gate, qubit=spot[gate.qubit]),))])
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > 1e-12:
        raise DecompositionError(f"start state norm is {norm}")
    keep = amps != 0  # each copy below is made once its source is freed, to bound the peak
    index = label[keep]
    del label
    amplitudes = amps[keep]
    del amps, keep
    if not register_values(layout, "omega", index).all():
        raise DecompositionError("the unmarked state has omega=0 weight before the mark")
    return Support(layout, index, amplitudes, register_values(layout, "gamma", index) == 1)


def build_start_state(query: TransformQuery) -> StateVector:
    """The dense start state at query.x: gather's support, scattered and marked.

    Its amplitudes equal those of apply_circuit on build_start_circuit(query).
    No command or estimator calls it: ``perfbench/tracer.py``'s one-shot
    check does, through the name :mod:`mobiusq.grover` imports.
    """
    return gather(query).start_state(query.x)
