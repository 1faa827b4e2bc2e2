"""Recycling execution loop: run the dilation, conditionally measure, and on
a miss restore an input state and go again, until a hit or the cycle budget
runs out.

Recovery strategies: ``ExactUnitary`` applies a detected unitary that maps
the normalized miss state back onto the input (exists iff the miss-branch
operator is proportional to a unitary; see ``exact_recovery``).  ``Reset``
re-prepares a stored input, which works for any gate.  ``Custom`` applies a
caller-supplied unitary with no restore guarantee.  Unitary strategies need
a single-auxiliary (2-slit) gate: with more auxiliary qubits the miss state
can be entangled between work and auxiliary registers, so no pure work
state exists to recover.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .duality import (
    DEGENERATE_BRANCH_TOL,
    DualityGate,
    Hit,
    MeasurementOutcome,
    apply_duality_gate,
    build_dilation,
)
from .statevec import DEFAULT_UNITARY_TOL, StateVector, checked_unitary, is_normalized

#: Hard ceiling on any cycle budget.
MAX_CYCLES_CAP = 1_000_000


class InfiniteExpectationError(ValueError):
    """Hit probability vanishes, so the expected cycle count diverges."""


@dataclass(frozen=True)
class ExactUnitary:
    """Detected recovery: apply this unitary to the miss work state."""

    recovery: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "recovery", checked_unitary(self.recovery, "recovery operator"))


@dataclass(frozen=True)
class Reset:
    """Re-prepare the stored input after every miss (always available)."""

    input: StateVector

    def __post_init__(self):
        if not is_normalized(self.input):
            raise ValueError("Reset input must be normalized")


@dataclass(frozen=True)
class Custom:
    """Caller-supplied recovery unitary; no restore guarantee."""

    recovery: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "recovery", checked_unitary(self.recovery, "recovery operator"))


RecoveryStrategy = ExactUnitary | Reset | Custom


@dataclass(frozen=True)
class RecyclingRun:
    """One loop execution.

    ``outcome`` is the final measurement: a Hit on success, otherwise the
    last Miss (budget exhausted).  ``per_cycle_hit_prob`` logs the analytic
    hit probability seen at the top of each cycle.
    """

    outcome: MeasurementOutcome
    cycles_used: int
    per_cycle_hit_prob: tuple[float, ...]

    @property
    def exhausted(self) -> bool:
        return not isinstance(self.outcome, Hit)


def exact_recovery(gate: DualityGate, tol: float = DEFAULT_UNITARY_TOL) -> np.ndarray | None:
    """Recovery unitary for a 2-slit gate, when one exists.

    The miss branch applies M = p0 U0 - p1 U1 (slit order fixes the sign).
    When M†M = c I within ``tol`` and c > 0, V = M†/sqrt(c) is unitary and
    V (M/sqrt(c)) = I, so V maps the normalized miss state back onto the
    input.  Returns None for other slit counts or when M is not
    proportional to a unitary (e.g. the search-oracle gate).
    """
    if gate.num_slits != 2:
        return None
    m = gate.weights[0] * gate.unitaries[0] - gate.weights[1] * gate.unitaries[1]
    gram = m.conj().T @ m
    c = float(np.mean(np.diag(gram)).real)
    if c <= DEGENERATE_BRANCH_TOL:
        return None
    if float(np.abs(gram - c * np.eye(gate.dim)).max()) > tol:
        return None
    return m.conj().T / math.sqrt(c)


def cycle_budget(p_hit: float) -> int:
    """Budget heuristic for a loop that hits with probability ``p_hit`` per
    attempt: ceil(64 / p_hit), capped at 10**6 (the cap when p_hit <= 0)."""
    if p_hit <= 0.0:
        return MAX_CYCLES_CAP
    return min(MAX_CYCLES_CAP, math.ceil(64.0 / p_hit))


def _direct_hit_probability(gate: DualityGate, state: StateVector) -> float:
    """P0 = ||sum_i p_i U_i state||**2, by the direct route."""
    return float(np.linalg.norm(apply_duality_gate(state, gate).amplitudes) ** 2)


def default_max_cycles(gate: DualityGate, state: StateVector) -> int:
    """``cycle_budget`` of P0 = ||sum_i p_i U_i state||**2."""
    return cycle_budget(_direct_hit_probability(gate, state))


def run_recycling(input_state: StateVector, gate: DualityGate,
                  strategy: RecoveryStrategy, max_cycles: int | None = None, *,
                  rng: np.random.Generator,
                  circuit=None) -> RecyclingRun:
    """Loop (dilation -> conditional measurement) until a Hit or exhaustion.

    Each cycle starts with a fresh auxiliary |0> register (the miss state's
    auxiliary flip is pure bookkeeping in simulation).  After a miss the
    strategy produces the next work state: unitary strategies act on the
    miss work state, Reset swaps in its stored input.  ``circuit`` may carry
    a prebuilt dilation of ``gate`` (``circuit.gate is gate``) to amortize
    construction over many runs.

    Every cycle measures ``circuit.readout(state)``, which the circuit keeps
    for its last input.  A cycle that starts from the same state as the one
    before (every cycle under Reset) therefore costs one ``rng.random()``
    (two on a Hit): the same draws, in the same order, as running the
    dilation and ``conditional_measure`` every cycle.
    """
    if not is_normalized(input_state):
        raise ValueError("run_recycling requires a normalized input state")
    if input_state.dim != gate.dim:
        raise ValueError(f"input dim {input_state.dim} does not match gate dim {gate.dim}")
    if circuit is None:
        circuit = build_dilation(gate)
    elif circuit.gate is not gate:
        raise ValueError("prebuilt circuit is the dilation of a different gate")
    if isinstance(strategy, (ExactUnitary, Custom)):
        if circuit.num_aux_qubits != 1:
            raise ValueError("unitary recovery needs a single-auxiliary (2-slit) gate; use Reset")
        if strategy.recovery.shape[0] != gate.dim:
            raise ValueError(f"recovery dim {strategy.recovery.shape[0]} does not match gate dim {gate.dim}")
    elif isinstance(strategy, Reset):
        if strategy.input.dim != gate.dim:
            raise ValueError(f"Reset input dim {strategy.input.dim} does not match gate dim {gate.dim}")
    else:
        raise TypeError(f"unknown recovery strategy: {strategy!r}")
    if max_cycles is None:
        max_cycles = default_max_cycles(gate, input_state)
    if max_cycles < 1:
        raise ValueError(f"max_cycles must be >= 1, got {max_cycles}")

    dim_work = gate.dim
    reset = isinstance(strategy, Reset)
    state = input_state
    probs: list[float] = []
    outcome: MeasurementOutcome
    for cycle in range(1, max_cycles + 1):
        readout = circuit.readout(state)
        probs.append(readout.p_hit)
        outcome = readout.measure(rng)
        if isinstance(outcome, Hit):
            return RecyclingRun(outcome, cycle, tuple(probs))
        if reset:
            state = strategy.input
        else:
            miss_work = outcome.post_state.amplitudes[dim_work:]
            state = StateVector(gate.num_qubits, strategy.recovery @ miss_work)
    return RecyclingRun(outcome, max_cycles, tuple(probs))


def expected_cycles(gate: DualityGate, input_state: StateVector) -> float:
    """1 / P0 with P0 = ||sum_i p_i U_i input||**2.

    Valid under exact recovery or Reset, where the state at the top of
    every cycle is the same input.
    """
    if not is_normalized(input_state):
        raise ValueError("expected_cycles requires a normalized input state")
    p_hit = _direct_hit_probability(gate, input_state)
    if p_hit <= DEGENERATE_BRANCH_TOL:
        raise InfiniteExpectationError(f"hit probability {p_hit!r} vanishes")
    return 1.0 / p_hit
