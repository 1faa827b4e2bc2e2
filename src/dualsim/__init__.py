"""Duality-mode quantum computing simulator.

Weighted-slit (generally non-unitary) gates executed both directly and
through an ancilla dilation circuit, post-selected conditional measurement
with a hit/miss collapse-out branch, a recycling execution loop, the
duality-mode database search with its amplitude-amplification hybrid, and
constructive decompositions of arbitrary operators into weighted
combinations of unitaries.
"""

from .statevec import (
    DEFAULT_UNITARY_TOL,
    NORMALIZED_TOL,
    StateVector,
    apply_operator,
    basis_state,
    controlled_apply,
    format_matrix_text,
    inner_product,
    is_normalized,
    is_unitary,
    norm,
    parse_matrix_text,
    uniform_state,
    validate_operator,
)
from .duality import (
    MAX_DENSE_BYTES,
    BranchState,
    DegenerateBranchError,
    DilationCircuit,
    DualityGate,
    Hit,
    MeasurementOutcome,
    Miss,
    PhaseDiagonal,
    Readout,
    SlitOperator,
    apply_duality_gate,
    apply_per_slit,
    as_slit_weights,
    aux_zero_block,
    build_dilation,
    combine,
    conditional_measure,
    divide,
    hit_probability,
    run_dilation,
    unitary_completion,
)
from .opalg import (
    GateClass,
    LcuDecomposition,
    NotNormalError,
    check_normal,
    classify_duality_gate,
    lcu_decompose,
    normal_decompose,
)
from .recycling import (
    Custom,
    ExactUnitary,
    InfiniteExpectationError,
    RecoveryStrategy,
    RecyclingRun,
    Reset,
    cycle_budget,
    default_max_cycles,
    exact_recovery,
    expected_cycles,
    run_recycling,
    run_trials,
)
from .search import (
    Exhausted,
    HybridParams,
    SearchProblem,
    SearchStats,
    TrialResult,
    duality_search_step,
    grover_iterate,
    hybrid_search,
    repetition_curve,
    run_search_experiment,
    search_gate,
)
from .circuit import (
    CircuitResult,
    CircuitSpec,
    CircuitSyntaxError,
    GateSequence,
    parse_circuit,
    run_circuit,
    serialize_circuit,
)
from .rand import random_state, random_unitary, trial_rng

__version__ = "0.1.0"
