"""Recycling execution loop: run the dilation, conditionally measure, and on
a miss restore an input state and go again, until a hit or the cycle budget
runs out.  ``run_recycling`` runs one trial; ``run_trials`` runs the seeded
trials of an experiment, reusing their readouts within the call.

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
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .duality import (
    DEGENERATE_BRANCH_TOL,
    MAX_DENSE_BYTES,
    DilationCircuit,
    DualityGate,
    Hit,
    MeasurementOutcome,
    PhaseDiagonal,
    Readout,
    apply_duality_gate,
    dense_operator_buffer,
    rewinds_draws,
)
from .rand import trial_rngs
from .statevec import (
    DEFAULT_UNITARY_TOL,
    StateVector,
    _fresh_state,
    checked_unitary,
    is_normalized,
    is_unitary,
)

#: Hard ceiling on any cycle budget.
MAX_CYCLES_CAP = 1_000_000
#: Bytes counted for the Python objects of one chain link, beside its
#: arrays (about 1.3 KiB measured on a 1-qubit gate).
LINK_OBJECT_BYTES = 2048


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
    last Miss (budget exhausted); ``cycles_used`` counts the measurements.
    """

    outcome: MeasurementOutcome
    cycles_used: int

    @property
    def exhausted(self) -> bool:
        return not isinstance(self.outcome, Hit)


def exact_recovery(circuit: DilationCircuit) -> np.ndarray | None:
    """Recovery unitary for a single-auxiliary (2-slit) circuit, when one exists.

    The miss branch (aux = 1) applies M = sum_i combine[1, i] prepare[i, 0]
    U_i, which is sqrt(p0 p1) (U0 - U1) for ``build_dilation``'s stages.
    When M†M = c I within ``DEFAULT_UNITARY_TOL`` and c > 0, V = M†/sqrt(c)
    is unitary and V (M/sqrt(c)) = I, so V maps the normalized miss state
    back onto the input; with c = ||M||_F**2 / N the test is ``is_unitary(M
    / sqrt(c), DEFAULT_UNITARY_TOL / c)``.  Returns None for more auxiliary
    qubits or when M is not proportional to a unitary (e.g. the
    search-oracle gate).  For two ``PhaseDiagonal`` slits M is a diagonal m
    and the same rule reads max | |m_i|**2 / c - 1 | <=
    ``DEFAULT_UNITARY_TOL`` / c, decided in O(N); only a V that exists is
    built as a matrix.  Other slits are taken as explicit matrices
    (``DualityGate.dense_unitaries``).
    """
    if circuit.num_aux_qubits != 1:
        return None
    gate = circuit.gate
    c0, c1 = circuit.combine[1, :] * circuit.prepare[:, 0]
    if all(isinstance(u, PhaseDiagonal) for u in gate.unitaries):
        return _diagonal_recovery(c0 * gate.unitaries[0].phases + c1 * gate.unitaries[1].phases)
    u0, u1 = gate.dense_unitaries()
    m = c0 * u0
    m += c1 * u1
    c = float(np.vdot(m, m).real) / gate.dim
    if c <= DEGENERATE_BRANCH_TOL:
        return None
    m /= math.sqrt(c)
    if not is_unitary(m, DEFAULT_UNITARY_TOL / c):
        return None
    return m.conj().T


def _diagonal_recovery(m: np.ndarray) -> np.ndarray | None:
    """``exact_recovery`` of the diagonal miss operator diag(m)."""
    c = float(np.vdot(m, m).real) / m.size
    if c <= DEGENERATE_BRANCH_TOL:
        return None
    if float(np.abs(np.abs(m) ** 2 / c - 1.0).max()) > DEFAULT_UNITARY_TOL / c:
        return None
    v = dense_operator_buffer(m.size)
    v.flat[:: m.size + 1] = m / math.sqrt(c)
    return v.conj()  # diagonal: M†/sqrt(c)


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


def _max_links(dim_work: int) -> int:
    """Links one chain keeps: ``MAX_DENSE_BYTES`` over the bytes of one link,
    four complex vectors of the single-auxiliary full register (the next
    work state, its dilated state, miss branch and hit branch with Born
    sums) plus ``LINK_OBJECT_BYTES``."""
    return MAX_DENSE_BYTES // (4 * 16 * 2 * dim_work + LINK_OBJECT_BYTES)


def _checked_budget(input_state: StateVector, circuit: DilationCircuit,
                    strategy: RecoveryStrategy, max_cycles: int | None) -> int:
    """The cycle budget (``default_max_cycles`` for None), once ``strategy``
    is checked against ``circuit``."""
    gate = circuit.gate
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
    return max_cycles


def _trials(input_state: StateVector, circuit: DilationCircuit, strategy: RecoveryStrategy,
            max_cycles: int, rngs, chunked: bool,
            max_links: int) -> Iterator[tuple[MeasurementOutcome, int]]:
    """(final outcome, cycles) of one trial per generator in ``rngs``; ``chunked``
    when every one passes ``rewinds_draws``.

    A trial measures the input's readout and, after each miss, the readout
    of the strategy's next work state.  That walk is the same in every
    trial, so up to ``max_links`` links from a missed readout to (next work
    state, its readout) are kept for the trials after it, which follow them
    instead of recovering and dilating again.  A next state with the bits
    of the current one (the same object, or equal bytes, so -0.0 and 0.0
    differ) links back to the current readout.
    """
    start = (input_state, circuit.readout(input_state))
    links: dict[Readout, tuple[StateVector, Readout]] = {}
    for rng in rngs:
        state, readout = start
        missed = None
        cycles = 0
        while True:
            if chunked and readout is missed:
                used, outcome = readout.measure_until_hit(rng, max_cycles - cycles)
            else:
                used, outcome = 1, readout.measure(rng)
            cycles += used
            if isinstance(outcome, Hit) or cycles >= max_cycles:
                break
            missed = readout
            link = links.get(readout)
            if link is None:
                if isinstance(strategy, Reset):
                    nxt = strategy.input
                else:
                    miss_work = outcome.post_state.amplitudes[state.dim:]
                    nxt = _fresh_state(state.num_qubits, strategy.recovery @ miss_work)
                same = nxt is state or nxt.amplitudes.tobytes() == state.amplitudes.tobytes()
                link = (state, readout) if same else (nxt, circuit.readout(nxt))
                if len(links) < max_links:
                    links[readout] = link
            state, readout = link
        yield outcome, cycles


def run_recycling(input_state: StateVector, circuit: DilationCircuit,
                  strategy: RecoveryStrategy, max_cycles: int | None = None, *,
                  rng: np.random.Generator) -> RecyclingRun:
    """Rerun ``circuit`` (dilation -> conditional measurement) until a Hit or
    exhaustion.

    Each cycle starts with a fresh auxiliary |0> register (the miss state's
    auxiliary flip is pure bookkeeping in simulation).  After a miss the
    strategy produces the next work state: unitary strategies act on the
    miss work state, Reset swaps in its stored input.  The budget and the
    recovery checks use ``circuit.gate``.  An input of the wrong size or
    norm raises ``ValueError`` before any draw: the first cycle's
    ``run_dilation`` checks it.

    The trial dilates its input once and each new work state once; it keeps
    no links, since one trial never returns to a readout it has left.  A
    cycle whose readout is the one the cycle before missed on (every cycle
    under Reset after the first, and a unitary recovery at a bit-exact
    fixed point) repeats the same measurement, so with a PCG64
    ``Generator`` the run of such cycles is drawn in chunks by
    ``Readout.measure_until_hit``.  Any other ``rng`` (only ``.random()`` is
    needed) draws one cycle at a time.  Either way the cycles use the same
    doubles in the same order, and leave ``rng`` in the same state, as
    running the dilation and ``conditional_measure`` every cycle.
    """
    max_cycles = _checked_budget(input_state, circuit, strategy, max_cycles)
    return RecyclingRun(*next(_trials(input_state, circuit, strategy, max_cycles, (rng,),
                                      rewinds_draws(rng), 0)))


def run_trials(input_state: StateVector, circuit: DilationCircuit, strategy: RecoveryStrategy,
               max_cycles: int | None, seed: int,
               indices: range) -> tuple[np.ndarray, np.ndarray]:
    """``run_recycling`` on ``trial_rng(seed, t)`` for each t in ``indices``:
    int64 arrays (cycles, hit_index), with hit_index -1 for a trial whose
    budget ran out.

    The trials share one chain of readouts (see ``_trials``): the input is
    dilated once per call, and so is each distinct work state the trials
    reach, up to ``_max_links(gate.dim)`` links (``MAX_DENSE_BYTES`` in
    all); cycles past that build their state and readout anew.  The chain
    is dropped when the call returns.  Every ``trial_rngs`` generator draws
    in chunks, so each trial gives the same cycles and hit index as
    ``run_recycling`` on its ``trial_rng``.
    """
    max_cycles = _checked_budget(input_state, circuit, strategy, max_cycles)
    cycles = np.empty(len(indices), dtype=np.int64)
    hit_index = np.empty(len(indices), dtype=np.int64)
    for t, (outcome, used) in enumerate(_trials(input_state, circuit, strategy, max_cycles,
                                                trial_rngs(seed, indices), True,
                                                _max_links(circuit.gate.dim))):
        cycles[t] = used
        hit_index[t] = outcome.sampled_index if isinstance(outcome, Hit) else -1
    return cycles, hit_index


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
