"""Recycling execution loop: run the dilation, conditionally measure, and on
a miss restore an input state and go again, until a hit or the cycle budget
runs out.  ``run_recycling`` runs one trial; ``run_trials`` runs the seeded
trials of an experiment on one depth-indexed chain of readouts, in lockstep
blocks of numpy PCG64s, and each trial on its own in rows of draws against
the chain's hit probabilities (``_Chain.walk``).

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
    MAX_DENSE_BYTES,
    DilationCircuit,
    DualityGate,
    Hit,
    MeasurementOutcome,
    PhaseDiagonal,
    Readout,
    apply_duality_gate,
    dense_operator_buffer,
)
from . import rand
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
#: Lockstep limits of ``run_trials`` (see ``_in_lockstep``): a step draws at
#: most ``_STEP_ELEMENTS`` doubles, twice ``rand._BLOCK`` or more, so every
#: lane of a block draws at least two.
_MIN_LANES = 32
_DRAW_WINDOW = 128
_STEP_ELEMENTS = 1 << 12
#: Largest row of branch draws ``_Chain.walk`` takes at once.
_MAX_DRAW_ROW = 1 << 16


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


class _Chain:
    """The (work state, readout) pairs of an experiment by depth, the number
    of cycles a trial has done: the input's, then after each miss the
    strategy's next work state and its readout, the same in every trial.

    A depth is built when a trial first reaches it and kept while the chain
    holds at most ``max_links`` depths past the input; ``p_hit`` holds the
    kept depths' hit probabilities.  A next state with the bits of the one
    before it (the same object, or equal bytes, so -0.0 and 0.0 differ) is a
    fixed point, wherever it is found: ``fixed`` is then (depth, pair), and
    every cycle from that depth on measures that pair's readout.
    """

    __slots__ = ("circuit", "strategy", "max_links", "states", "readouts", "p_hit", "fixed")

    def __init__(self, input_state: StateVector, circuit: DilationCircuit,
                 strategy: RecoveryStrategy, max_links: int):
        self.circuit, self.strategy, self.max_links = circuit, strategy, max_links
        self.states, self.readouts = [input_state], [circuit.readout(input_state)]
        self.p_hit = np.array([self.readouts[0].p_hit])
        self.fixed: tuple[int, tuple[StateVector, Readout]] | None = None

    def room(self, depth: int) -> float:
        """Depths from ``depth`` on that the chain keeps or will keep, with no
        gap between the kept depths and a fixed point."""
        if self.fixed is not None and self.fixed[0] <= len(self.readouts):
            return math.inf
        return self.max_links + 1 - depth

    def at(self, depth: int, pair: tuple[StateVector, Readout] | None = None
           ) -> tuple[StateVector, Readout]:
        """The pair measured at ``depth``, for a trial that missed on ``pair``
        at depth - 1 (needed only past the kept depths)."""
        if self.fixed is not None and depth >= self.fixed[0]:
            return self.fixed[1]
        kept = len(self.readouts)
        if depth < kept:
            return self.states[depth], self.readouts[depth]
        pair = pair if depth > kept else (self.states[-1], self.readouts[-1])
        nxt = self._after_miss(*pair)
        if nxt[1] is pair[1]:
            self.fixed = depth - 1, pair
        elif depth == kept <= self.max_links:
            self.states.append(nxt[0])
            self.readouts.append(nxt[1])
            if kept == self.p_hit.size:
                self.p_hit = np.resize(self.p_hit, 2 * kept)
            self.p_hit[kept] = nxt[1].p_hit
        return nxt

    def hit_probabilities(self, depth: int, count: int) -> np.ndarray:
        """p_hit of the depths from ``depth`` on, at most ``count`` and at
        most ``room(depth)``: the kept ones, then the fixed point's."""
        row = self.p_hit[depth:min(depth + count, len(self.readouts))]
        if self.fixed is not None and row.size < count:
            row = np.concatenate((row, np.full(count - row.size, self.fixed[1][1].p_hit)))
        return row

    def _after_miss(self, state: StateVector, readout: Readout) -> tuple[StateVector, Readout]:
        miss = readout.miss()
        if isinstance(self.strategy, Reset):
            nxt = self.strategy.input
        else:
            nxt = _fresh_state(state.num_qubits,
                               self.strategy.recovery @ miss.post_state.amplitudes[state.dim:])
        if nxt is state or nxt.amplitudes.tobytes() == state.amplitudes.tobytes():
            return state, readout
        return nxt, self.circuit.readout(nxt)

    def _row(self, depth: int, max_cycles: int) -> tuple[float | np.ndarray, int]:
        """(p, k): the p_hit of the next k depths from ``depth`` whose miss
        branch is built, within the budget: those from the fixed point on (p
        one float) or the kept depths but the last (p an array); k = 1
        elsewhere.  k is ceil(2 / p_hit at ``depth``), which covers 86% of
        the runs of misses at one p_hit, and at most ``_MAX_DRAW_ROW``."""
        if self.fixed is not None and depth >= self.fixed[0]:
            p = first = self.fixed[1][1].p_hit
            end = max_cycles
        elif depth < len(self.readouts) - 1:
            p, first, end = self.p_hit, self.p_hit[depth], min(max_cycles, len(self.readouts) - 1)
        else:
            return 0.0, 1
        k = min(end - depth, _MAX_DRAW_ROW if first * _MAX_DRAW_ROW <= 2.0 else math.ceil(2.0 / first))
        return (p[depth:depth + k] if p is self.p_hit else p), k

    def walk(self, rng, depth: int, max_cycles: int,
             rewinds: bool) -> tuple[MeasurementOutcome, int]:
        """(final outcome, cycles) of a trial that has missed ``depth`` times,
        going on with ``rng``; ``rewinds`` when it passes ``rewinds_draws``.

        With ``rewinds``, a row of k > 1 depths (``_row``) is one
        ``rng.random(k)`` whose first draw below its depth's p_hit is the Hit,
        and ``bit_generator.advance`` steps back over the draws after it.  Any
        other step is one ``Readout.measure``.  Either way the trial draws the
        same doubles, and leaves ``rng`` in the same state, as one ``measure``
        per cycle."""
        pair = self.at(depth)
        while True:
            p, k = self._row(depth, max_cycles) if rewinds else (0.0, 1)
            if k > 1:
                below = (rng.random(k) < p).nonzero()[0]
                used = int(below[0]) + 1 if below.size else k
                if used < k:
                    rng.bit_generator.advance((used - k) % (1 << 128))  # back k - used draws
                depth += used - 1
                pair = self.at(depth)
                outcome = pair[1].sample_hit(rng) if below.size else pair[1].miss()
            else:
                outcome = pair[1].measure(rng)
            depth += 1
            if isinstance(outcome, Hit) or depth >= max_cycles:
                return outcome, depth
            pair = self.at(depth, pair)


def rewinds_draws(rng) -> bool:
    """Whether ``_Chain.walk`` can draw rows from ``rng``: a ``Generator`` on
    a PCG64 bit generator, whose ``advance`` steps back by wrapping around
    the 2**128 period, holding no buffered 32-bit half-word (``advance``
    would drop it)."""
    return (isinstance(rng, np.random.Generator)
            and isinstance(rng.bit_generator, (np.random.PCG64, np.random.PCG64DXSM))
            and not rng.bit_generator.state["has_uint32"])


def _in_lockstep(chain: _Chain, lanes: int, depth: int, max_cycles: int) -> bool:
    """Whether ``lanes`` trials at ``depth`` take another lockstep step: at
    least ``_MIN_LANES`` of them, inside the budget, the kept depths and the
    first ``_DRAW_WINDOW`` cycles, at a depth whose p_hit is at least
    1 / ``_DRAW_WINDOW``.

    A lockstep double costs 25-40 ns against ~2 ns from ``Generator.random``,
    while a trial finished on its own costs about 8 us of Python: lockstep
    pays for trials expected to hit within a couple of hundred draws, and a
    step over few lanes is mostly fixed overhead.
    """
    return (lanes >= _MIN_LANES and depth < min(_DRAW_WINDOW, max_cycles) and chain.room(depth) > 0
            and chain.at(depth)[1].p_hit * _DRAW_WINDOW >= 1.0)


def _lockstep(chain: _Chain, lanes: np.ndarray, lane_state: tuple[np.ndarray, ...], depth: int,
              max_cycles: int, cycles: np.ndarray, hit_index: np.ndarray):
    """One lockstep step of the trials ``lanes``, whose PCG64s are at
    ``lane_state`` (``rand._pcg64_states`` limbs) after ``depth`` misses
    each: record the trials that end in it, and return the others, their
    states and their depth.

    Draw i of a lane is its branch draw at depth + i, a Hit when below that
    depth's p_hit, and draw i + 1 is then its index draw.  A depth the chain
    lacks is built only once some lane has missed every depth before it.
    """
    n = lanes.size
    p = chain.at(depth)[1].p_hit
    k = min(_STEP_ELEMENTS // n - 1, max_cycles - depth, _DRAW_WINDOW - depth, chain.room(depth))
    if p * k > 2.0:
        k = math.ceil(2.0 / p)
    draws, state_hi, state_lo = rand._pcg64_random(*lane_state, k + 1)
    rows = np.arange(n)
    while True:
        p_row = chain.hit_probabilities(depth, k)
        below = draws[:, :p_row.size] < p_row
        first = below.argmax(axis=1)
        hit = below[rows, first]
        if p_row.size == k or hit.all():
            break
        chain.at(depth + p_row.size)
    if hit.any():
        rows = rows[hit]
        done, at = lanes[rows], first[rows]
        cycles[done] = depth + at + 1
        index_draws = draws[rows, at + 1]
        # one searchsorted per readout: the depths from a fixed point on share one
        kept = depth + at if chain.fixed is None else np.minimum(depth + at, chain.fixed[0])
        base = int(kept.min())
        for d in (np.flatnonzero(np.bincount(kept - base)) + base).tolist():
            mine = kept == d
            hit_index[done[mine]] = chain.at(d)[1].hit_indices(index_draws[mine])
    going = ~hit
    depth += k
    if depth == max_cycles and going.any():
        chain.at(depth - 1)[1].miss()  # the last cycle's Miss, which measure builds
        cycles[lanes[going]] = max_cycles
        hit_index[lanes[going]] = -1
        going[:] = False
    inc_hi, inc_lo = lane_state[2:]
    return (lanes[going], (state_hi[going, k - 1], state_lo[going, k - 1], inc_hi[going],
                           inc_lo[going]), depth)


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

    The trial dilates its input once and each new work state once, and past
    the input keeps only a fixed point: one trial never returns to a readout
    it has left.  From a fixed point on (every cycle under Reset after the
    first, and a unitary recovery at a bit-exact fixed point) the trial
    repeats one measurement, so with a ``rewinds_draws`` generator it draws
    them in rows (``_Chain.walk``).  Any other ``rng`` (only ``.random()``
    is needed) draws one cycle at a time.  Either way the cycles use the
    same doubles in the same order, and leave ``rng`` in the same state, as
    running the dilation and ``conditional_measure`` every cycle.
    """
    max_cycles = _checked_budget(input_state, circuit, strategy, max_cycles)
    chain = _Chain(input_state, circuit, strategy, 0)
    return RecyclingRun(*chain.walk(rng, 0, max_cycles, rewinds_draws(rng)))


def run_trials(input_state: StateVector, circuit: DilationCircuit, strategy: RecoveryStrategy,
               max_cycles: int | None, seed: int,
               indices: range) -> tuple[np.ndarray, np.ndarray]:
    """``run_recycling`` on ``trial_rng(seed, t)`` for each t in ``indices``:
    int64 arrays (cycles, hit_index), with hit_index -1 for a trial whose
    budget ran out.

    The trials share one ``_Chain``, kept up to ``_max_links(gate.dim)``
    depths (``MAX_DENSE_BYTES`` in all) and dropped when the call returns:
    the input is dilated once per call, and so is each kept work state.
    The trials run in lockstep, one block of ``rand._pcg64_states`` lanes
    at a time: every lane still going is at the same depth d, and a step
    draws K + 1 doubles per lane from its PCG64 (``rand._pcg64_random``), K
    branch draws for depths d .. d + K - 1 and the index draw after a Hit,
    with K = ceil(2 / p_hit) at most.  The lanes of a block leave lockstep
    together (``_in_lockstep``) and finish one at a time on a PCG64
    ``Generator``, through ``_Chain.walk`` as ``run_recycling`` does, in
    rows over the kept depths.  Each trial gives the same cycles and hit
    index as ``run_recycling`` on its ``trial_rng``.
    """
    max_cycles = _checked_budget(input_state, circuit, strategy, max_cycles)
    chain = _Chain(input_state, circuit, strategy, _max_links(circuit.gate.dim))
    cycles = np.empty(len(indices), dtype=np.int64)
    hit_index = np.empty(len(indices), dtype=np.int64)
    tail_rng = None
    start = 0
    for lane_state in rand._pcg64_states(seed, indices):
        lanes = np.arange(start, start + lane_state[0].size)
        start += lanes.size
        depth = 0
        while _in_lockstep(chain, lanes.size, depth, max_cycles):
            lanes, lane_state, depth = _lockstep(chain, lanes, lane_state, depth, max_cycles,
                                                 cycles, hit_index)
        if lanes.size:
            if tail_rng is None:
                tail_rng = np.random.Generator(np.random.PCG64(0))
            for lane, rng in zip(lanes.tolist(), rand._reseeded(tail_rng, lane_state)):
                outcome, cycles[lane] = chain.walk(rng, depth, max_cycles, True)
                hit_index[lane] = outcome.sampled_index if isinstance(outcome, Hit) else -1
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
