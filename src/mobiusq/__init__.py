"""Subset-lattice transforms and marginals via amplitude-amplified circuits.

Classical side: dense tables over the boolean lattice with naive and
butterfly zeta transforms plus Mobius inversion.  Quantum side: a dense
statevector simulator with {qubit: value}-controlled gates, a start-state
construction whose conditional gamma odds on omega=0 equal the transform
value, Grover-style amplification that preserves those odds, and exact or
sampled estimators.  On top of both sits a bit-fixing binary search that
finds the argmin of a positive objective in n probes.
"""
from .subset import (
    BitString,
    SubsetTable,
    mobius_inverse,
    zeta_fast,
    zeta_fast_inplace,
    zeta_matrix,
    zeta_naive,
)
from .sim import (
    MAX_QUBITS,
    Circuit,
    Controlled,
    Hadamard,
    Mode,
    PauliX,
    PhasePair,
    RegisterLayout,
    Ry,
    StateVector,
    apply_circuit,
    apply_in_place,
    basis_index,
    compile_state_prep,
    new_state,
    prepare_low_qubits,
    project,
    sector,
    state_from_json_obj,
    state_to_json_obj,
)
from .circuits import (
    DecompositionError,
    SignalDecomposition,
    TransformQuery,
    build_comparator,
    build_start_circuit,
    build_start_state,
    build_unmarked_state,
    classical_value,
    decompose_signal,
    mark_op,
    marked,
)
from .grover import (
    EstimateReport,
    GroverPlan,
    Readout,
    amplify,
    estimate_exact,
    estimate_sampled,
    grover_step,
    plan_grover,
    read_out,
)
from .minfind import (
    ObjectiveTable,
    ProbeRecord,
    SearchTrace,
    choose_beta,
    classical_evaluator,
    find_min,
    probe_point,
    quadratic_objective,
    quantum_evaluator,
    softmin_table,
)
from .verify import run_verify

__version__ = "0.1.0"
