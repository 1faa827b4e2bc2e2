"""The shared recycling cycle against the plain loop it replaces.

``run_recycling`` runs one trial and ``run_trials`` runs many on one chain
of readouts: a trial measures the input's readout, and after each miss the
readout of the next work state, which ``run_trials`` keeps, indexed by
depth, for the trials after it, up to a bound on the depths one chain
keeps.  ``run_trials`` draws blocks of trials in lockstep from a numpy
PCG64 and finishes the last lanes of a block one at a time.  A trial on its
own draws rows of branch draws, over the chain's kept depths or from a
fixed point on, when the generator is a rewindable PCG64 ``Generator``.
The reference runs the dilation and ``conditional_measure`` on every cycle,
one scalar draw at a time.  Under Reset (also from a different input),
ExactUnitary and Custom recovery, on a gate that never hits, on a drifting
chain below the lockstep rate, across the chain's bound, at a bit-exact
fixed point (also one past the kept depths), and with generators that draw
rows or one double at a time, the two must give the same cycle count,
outcome and post-state bytes, leave the generator in the same state, and
raise ``DegenerateBranchError`` at the same draw; ``run_trials`` must give
each trial the cycles and hit index of the reference on ``trial_rng(seed,
t)``, on either side of the lockstep limits, and raise the reference's
``DegenerateBranchError``.  A bad input is refused before the first draw.
"""
import gc
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FixedRandom, count_dilations
from dualsim import (
    Custom,
    DegenerateBranchError,
    DualityGate,
    ExactUnitary,
    Hit,
    Reset,
    SearchProblem,
    StateVector,
    basis_state,
    build_dilation,
    conditional_measure,
    duality,
    exact_recovery,
    hit_probability,
    hybrid_search,
    rand,
    random_state,
    random_unitary,
    recycling,
    run_dilation,
    run_recycling,
    run_search_experiment,
    run_trials,
    search_gate,
    trial_rng,
    uniform_state,
)

I2 = np.eye(2, dtype=complex)
PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def reference_loop(state, circuit, strategy, max_cycles, rng):
    """(outcome, cycles), measuring a fresh dilated state every cycle.

    After a miss the next cycle starts from the Reset input, or from the
    recovery unitary applied to the miss work amplitudes (dilated anew;
    the Reset input's dilation is computed once per call).
    """
    full = run_dilation(state, circuit)
    if isinstance(strategy, Reset):
        reset_full = run_dilation(strategy.input, circuit)
    for cycle in range(1, max_cycles + 1):
        outcome = conditional_measure(full, circuit.num_aux_qubits, rng)
        if isinstance(outcome, Hit):
            return outcome, cycle
        if isinstance(strategy, Reset):
            full = reset_full
        else:
            miss_work = outcome.post_state.amplitudes[state.dim:]
            full = run_dilation(StateVector(state.num_qubits, strategy.recovery @ miss_work),
                                circuit)
    return outcome, max_cycles


def reference_trials(state, circuit, strategy, max_cycles, seed, trials):
    """``reference_loop`` on ``trial_rng(seed, t)`` for t < ``trials``: int64
    arrays (cycles, hit index), -1 for exhausted."""
    cycles, hit_index = [], []
    for t in range(trials):
        outcome, used = reference_loop(state, circuit, strategy, max_cycles, trial_rng(seed, t))
        cycles.append(used)
        hit_index.append(outcome.sampled_index if isinstance(outcome, Hit) else -1)
    return np.array(cycles, dtype=np.int64), np.array(hit_index, dtype=np.int64)


def assert_same_trials(state, circuit, strategy, max_cycles, seed, trials):
    """``run_trials`` over ``range(trials)`` against ``reference_trials``: the
    same cycles and hit index (-1 for exhausted).  Returns the cycle counts."""
    cycles, hit_index = run_trials(state, circuit, strategy, max_cycles, seed, range(trials))
    assert cycles.dtype == hit_index.dtype == np.int64
    ref_cycles, ref_hit_index = reference_trials(state, circuit, strategy, max_cycles, seed, trials)
    assert cycles.tolist() == ref_cycles.tolist()
    assert hit_index.tolist() == ref_hit_index.tolist()
    return cycles


def assert_same_run(state, circuit, strategy, max_cycles, make_rng):
    """``run_recycling`` and ``reference_loop``, each on a new generator from
    ``make_rng``: the same cycles, outcome and post-state bytes, and the
    same final generator state."""
    fast_rng, ref_rng = make_rng(), make_rng()
    run = run_recycling(state, circuit, strategy, max_cycles, rng=fast_rng)
    outcome, cycles = reference_loop(state, circuit, strategy, max_cycles, ref_rng)
    assert run.cycles_used == cycles
    assert type(run.outcome) is type(outcome)
    if isinstance(outcome, Hit):
        assert run.outcome.sampled_index == outcome.sampled_index
    assert run.outcome.post_state.num_qubits == outcome.post_state.num_qubits
    assert run.outcome.post_state.amplitudes.tobytes() == outcome.post_state.amplitudes.tobytes()
    assert rng_state(fast_rng) == rng_state(ref_rng)


def random_gate(num_slits, num_qubits, rng):
    weights = rng.dirichlet(np.ones(num_slits))
    weights /= weights.sum()
    return DualityGate(weights, tuple(random_unitary(1 << num_qubits, rng)
                                      for _ in range(num_slits)))


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["random", "search"]), num_slits=st.integers(2, 5),
       num_qubits=st.integers(1, 2), search_qubits=st.integers(6, 8),
       gate_seed=st.integers(0, 2**32 - 1), run_seed=st.integers(0, 2**32 - 1),
       max_cycles=st.integers(1, 3000))
# P0 = 1/256: trial 3 misses 1100 times, two full chunks of 512 and a cut one
@example(family="search", num_slits=2, num_qubits=1, search_qubits=8, gate_seed=0, run_seed=8,
         max_cycles=1100)
def test_reset_loop_matches_reference(family, num_slits, num_qubits, search_qubits, gate_seed,
                                      run_seed, max_cycles):
    rng = np.random.default_rng(gate_seed)
    if family == "search":
        # P0 = 1/64 .. 1/256 from the uniform state: runs of hundreds of
        # cycles that span draw chunks, and budgets that end inside one
        marked = rng.choice(1 << search_qubits, size=2, replace=False)
        gates = [search_gate(SearchProblem(search_qubits, frozenset({int(m)}))) for m in marked]
        state = uniform_state(search_qubits)
    else:
        gates = [random_gate(num_slits, num_qubits, rng) for _ in range(2)]
        state = random_state(num_qubits, rng)
    circuits = [build_dilation(gate) for gate in gates]
    strategy = Reset(state)
    # several trials share one Reset and two circuits
    for t, k in enumerate((0, 0, 1, 0)):
        assert_same_run(state, circuits[k], strategy, max_cycles, lambda: trial_rng(run_seed, t))


def pcg64_drawing(top_bits, at):
    """A PCG64 Generator whose ``random()`` draw number ``at`` (from 1) is
    ``top_bits * 2**-53``: 0 gives 0.0, 2**53 - 1 the largest double below 1.

    PCG64 outputs rotr64(hi ^ lo, hi >> 58) of its state after each step, so
    the state hi = 0, lo = top_bits << 11 outputs that double; the generator
    starts ``at`` LCG steps before it.  Earlier draws are whatever the stream
    gives.
    """
    inc = np.random.default_rng(0).bit_generator.state["state"]["inc"]
    inverse = pow(PCG64_MULT, -1, 1 << 128)
    state = top_bits << 11
    for _ in range(at):
        state = (state - inc) * inverse % (1 << 128)
    rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    return rng


def scalar_or_chunked_rng(kind, seed, count):
    if kind == "fixed":
        return FixedRandom(np.random.default_rng(seed).random(count))
    if kind == "mt19937":
        return np.random.Generator(np.random.MT19937(seed))
    if kind == "pcg64dxsm":
        return np.random.Generator(np.random.PCG64DXSM(seed))
    rng = np.random.default_rng(seed)
    rng.integers(0, 10, dtype=np.uint32)  # leaves a buffered 32-bit half-word
    assert rng.bit_generator.state["has_uint32"] == 1
    return rng


def rng_state(rng):
    """Draw count of a FixedRandom; a generator's bit generator state (the
    MT19937 key array as a list)."""
    if isinstance(rng, FixedRandom):
        return rng.draws
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["fixed", "mt19937", "pcg64dxsm", "pcg64_half_word"]),
       num_qubits=st.integers(4, 6), marked=st.integers(0, 15),
       run_seed=st.integers(0, 2**32 - 1), max_cycles=st.integers(1, 300))
def test_other_generators_match_reference(kind, num_qubits, marked, run_seed, max_cycles):
    # FixedRandom has only .random(), MT19937 has no advance, and a buffered
    # half-word would be dropped by advance: these draw one cycle at a time.
    # PCG64DXSM rewinds like PCG64 and draws in rows.
    gate = search_gate(SearchProblem(num_qubits, frozenset({marked})))
    circuit = build_dilation(gate)
    state = uniform_state(num_qubits)
    assert_same_run(state, circuit, Reset(state), max_cycles,
                    lambda: scalar_or_chunked_rng(kind, run_seed, max_cycles + 1))


def exactly_recoverable_gate(num_qubits, rng):
    """2-slit gate p0 U + p1 U W whose miss operator sqrt(p0 p1) U (I - W) is
    proportional to a unitary: W has eigenvalues e^{+i phi} and e^{-i phi} only."""
    dim = 1 << num_qubits
    u, q = random_unitary(dim, rng), random_unitary(dim, rng)
    phases = np.exp(1j * rng.uniform(0.1, np.pi) * rng.choice([-1.0, 1.0], size=dim))
    p0 = rng.uniform(0.05, 0.95)
    return DualityGate(np.array([p0, 1.0 - p0]), (u, u @ ((q * phases) @ q.conj().T)))


@settings(max_examples=60, deadline=None)
@given(recovery=st.sampled_from(["exact", "custom"]), num_qubits=st.integers(1, 2),
       gate_seed=st.integers(0, 2**32 - 1), run_seed=st.integers(0, 2**32 - 1),
       max_cycles=st.integers(1, 40))
def test_unitary_recovery_loop_matches_reference(recovery, num_qubits, gate_seed, run_seed,
                                                 max_cycles):
    rng = np.random.default_rng(gate_seed)
    if recovery == "exact":
        circuit = build_dilation(exactly_recoverable_gate(num_qubits, rng))
        strategy = ExactUnitary(exact_recovery(circuit))
    else:
        circuit = build_dilation(random_gate(2, num_qubits, rng))
        strategy = Custom(random_unitary(circuit.gate.dim, rng))
    state = random_state(num_qubits, rng)
    for t in range(12):
        assert_same_run(state, circuit, strategy, max_cycles, lambda: trial_rng(run_seed, t))


@settings(max_examples=30, deadline=None)
@given(num_qubits=st.integers(1, 2), gate_seed=st.integers(0, 2**32 - 1),
       run_seed=st.integers(0, 2**32 - 1), max_cycles=st.integers(1, 40))
def test_alternating_recovery_strategies_on_one_circuit_match_reference(
        num_qubits, gate_seed, run_seed, max_cycles):
    # nothing a run finds is kept on the circuit or its readouts for the next
    # run, whatever its strategy
    rng = np.random.default_rng(gate_seed)
    circuit = build_dilation(exactly_recoverable_gate(num_qubits, rng))
    strategies = (ExactUnitary(exact_recovery(circuit)),
                  Custom(random_unitary(circuit.gate.dim, rng)))
    state = random_state(num_qubits, rng)
    for t in range(12):
        assert_same_run(state, circuit, strategies[t % 2], max_cycles,
                        lambda: trial_rng(run_seed, t))


def link_bytes(circuit):
    """What one link counts against the bound: four full-register vectors
    and the allowance for its Python objects."""
    return 4 * 16 * (2 * circuit.gate.dim) + recycling.LINK_OBJECT_BYTES


#: Trial counts on both sides of ``recycling._MIN_LANES`` (32): fewer lanes
#: never enter lockstep, and a block that drops below it finishes one trial at
#: a time.
TRIAL_COUNTS = [1, 31, 32, 33, 200]


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(["reset", "reset_other_input", "exact", "custom", "never_hit"]),
       trials=st.sampled_from(TRIAL_COUNTS), num_qubits=st.integers(1, 2),
       search_qubits=st.integers(4, 8), links=st.none() | st.integers(0, 12),
       gate_seed=st.integers(0, 2**32 - 1), run_seed=st.integers(0, 2**32 - 1),
       max_cycles=st.integers(1, 1200))
# P0 = 1/256: trial 3 misses 1100 times, two full chunks of 512 and a cut one
@example(kind="reset", trials=8, num_qubits=1, search_qubits=8, links=None, gate_seed=0,
         run_seed=8, max_cycles=1100)
# P0 = 1/16, so steps draw ceil(2 / P0) = 32 cycles: budgets that end inside
# the first step, at the end of the lockstep window and just past it
@example(kind="reset", trials=200, num_qubits=1, search_qubits=4, links=None, gate_seed=1,
         run_seed=3, max_cycles=5)
@example(kind="reset", trials=200, num_qubits=1, search_qubits=4, links=None, gate_seed=1,
         run_seed=3, max_cycles=128)
@example(kind="reset", trials=200, num_qubits=1, search_qubits=4, links=None, gate_seed=1,
         run_seed=3, max_cycles=129)
# P0 = 1/128 = 1 / the window: lanes leave lockstep at the window, 128 cycles in
@example(kind="reset", trials=200, num_qubits=1, search_qubits=7, links=None, gate_seed=1,
         run_seed=3, max_cycles=1200)
# a chain of three depths: lanes leave lockstep at its end
@example(kind="custom", trials=200, num_qubits=1, search_qubits=4, links=2, gate_seed=5,
         run_seed=9, max_cycles=40)
def test_run_trials_matches_reference(kind, trials, num_qubits, search_qubits, links, gate_seed,
                                      run_seed, max_cycles):
    assert recycling._MIN_LANES == 32 and recycling._DRAW_WINDOW == 128
    rng = np.random.default_rng(gate_seed)
    if kind.startswith("reset"):
        # P0 = 1/16 .. 1/256 from the uniform state: runs that span draw chunks
        # and lockstep steps, and runs that never enter lockstep (P0 < 1/128)
        marked = int(rng.integers(1 << search_qubits))
        circuit = build_dilation(search_gate(SearchProblem(search_qubits, frozenset({marked}))))
        stored = uniform_state(search_qubits)
        state = stored if kind == "reset" else random_state(search_qubits, rng)
        strategy = Reset(stored)
    elif kind == "exact":
        circuit = build_dilation(exactly_recoverable_gate(num_qubits, rng))
        strategy = ExactUnitary(exact_recovery(circuit))
        state = random_state(num_qubits, rng)
    else:
        # Custom drifts to a new state every cycle; never_hit is P0 = 0 under
        # Reset or Custom
        gate = (DualityGate(np.array([0.5, 0.5]), (I2, -I2)) if kind == "never_hit"
                else random_gate(2, num_qubits, rng))
        circuit = build_dilation(gate)
        state = basis_state(1, 0) if kind == "never_hit" else random_state(num_qubits, rng)
        strategy = (Reset(state) if kind == "never_hit" and rng.random() < 0.5
                    else Custom(random_unitary(circuit.gate.dim, rng)))
        max_cycles = max_cycles % 60 + 1  # the reference dilates every cycle
    with pytest.MonkeyPatch.context() as mp:
        if links is not None:  # a chain of at most ``links`` depths past the input
            mp.setattr(recycling, "MAX_DENSE_BYTES", links * link_bytes(circuit) + 1)
        assert_same_trials(state, circuit, strategy, max_cycles, run_seed, trials)


class RowRecordingGenerator(np.random.Generator):
    """A Generator that appends the size of each ``random(size)`` call, a row
    of draws, to ``rows``."""

    def __init__(self, rng, rows):
        super().__init__(type(rng.bit_generator)())
        self.bit_generator.state = rng.bit_generator.state
        self.rows = rows

    def random(self, size=None, *args, **kwargs):
        if size is not None:
            self.rows.append(size)
        return super().random(size, *args, **kwargs)


def test_fixed_point_recovery_draws_in_chunks(monkeypatch):
    # p0 = p1, U1 = e^{2.5i} U0 from |0>: P0 = 0.099, and the recovered state
    # is bit for bit the one before it from the third cycle on, so that
    # readout links to itself and the rest of the trial is drawn in rows
    gate = DualityGate(np.array([0.5, 0.5]), (I2, np.exp(2.5j) * I2))
    circuit = build_dilation(gate)
    state = basis_state(1, 0)
    strategy = ExactUnitary(exact_recovery(circuit))
    rows = []
    for t in range(12):
        assert_same_run(state, circuit, strategy, 300,
                        lambda: RowRecordingGenerator(trial_rng(21, t), rows))
    assert len(rows) >= 5
    # one run_trials call: the chain is two readouts, the second linking to
    # itself; its 12 trials (fewer than a lockstep block) finish one at a time
    rows.clear()
    reseeded = rand._reseeded
    monkeypatch.setattr(rand, "_reseeded", lambda rng, lanes: (
        RowRecordingGenerator(lane, rows) for lane in reseeded(rng, lanes)))
    calls = count_dilations(monkeypatch)
    assert_same_trials(state, circuit, strategy, 300, 21, 12)
    assert len(rows) >= 5 and len(calls) == 2


@settings(max_examples=30, deadline=None)
@given(num_qubits=st.integers(1, 2), links=st.integers(1, 12),
       gate_seed=st.integers(0, 2**32 - 1), run_seed=st.integers(0, 2**32 - 1))
def test_runs_across_the_link_bound_match_reference(num_qubits, links, gate_seed, run_seed):
    # a drifting Custom recovery reaches a new state every cycle: the first
    # ``links`` states after the input are dilated once per call, deeper ones
    # once per trial that reaches them; 12 trials run one at a time, 40 in
    # lockstep up to the bound
    rng = np.random.default_rng(gate_seed)
    circuit = build_dilation(random_gate(2, num_qubits, rng))
    strategy = Custom(random_unitary(circuit.gate.dim, rng))
    state = random_state(num_qubits, rng)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recycling, "MAX_DENSE_BYTES", links * link_bytes(circuit) + 1)
        for t in range(12):
            assert_same_run(state, circuit, strategy, 40, lambda: trial_rng(run_seed, t))
        for trials in (12, 40):
            calls = count_dilations(mp)
            cycles = assert_same_trials(state, circuit, strategy, 40, run_seed, trials)
            assert len(calls) == 1 + min(links, cycles.max() - 1) + np.maximum(
                cycles - 1 - links, 0).sum()


def test_drifting_exhausted_run_keeps_no_link_past_the_bound(monkeypatch):
    # P0 = 0 and Custom(e^{0.3i} I) turns the phase on every miss: each cycle
    # has a new state, so without a bound an exhausted trial links them all
    gate = DualityGate(np.array([0.5, 0.5]), (I2, -I2))
    circuit = build_dilation(gate)
    state = basis_state(1, 0)
    strategy = Custom(np.exp(0.3j) * I2)
    monkeypatch.setattr(recycling, "MAX_DENSE_BYTES", 25 * link_bytes(circuit))
    for t in range(3):
        assert_same_run(state, circuit, strategy, 200, lambda: trial_rng(5, t))
    calls = count_dilations(monkeypatch)
    assert_same_trials(state, circuit, strategy, 200, 5, 3)
    # the input and 25 linked states once, the 174 states past the bound per trial
    assert len(calls) == 1 + 25 + 3 * 174
    assert run_recycling(state, circuit, strategy, 200, rng=trial_rng(5, 0)).exhausted


def test_drifting_chain_below_the_lockstep_rate_draws_rows():
    # P0 = 0 with Custom(e^{0.3i} I): a new state every cycle, each kept by
    # the chain, and no trial enters lockstep (P0 < 1/128); every trial after
    # the first walks the kept depths in rows, about a second in all, where
    # one draw per kept cycle takes about a minute
    circuit = build_dilation(DualityGate(np.array([0.5, 0.5]), (I2, -I2)))
    start = time.perf_counter()
    cycles, hit_index = run_trials(basis_state(1, 0), circuit, Custom(np.exp(0.3j) * I2), 10**4,
                                   7, range(4000))
    assert time.perf_counter() - start < 10.0
    assert (cycles == 10**4).all() and (hit_index == -1).all()


def test_drifting_chain_below_the_lockstep_rate_matches_reference():
    # slits I and diag(e^{i(pi - 0.1)}, e^{i(pi - 0.15)}): p_hit 0.0025 on |0>
    # and 0.0056 on |1>, so a random Custom recovery drifts between them,
    # below 1/128 at every depth, and most trials hit within the budget
    rng = np.random.default_rng(3)
    gate = DualityGate(np.array([0.5, 0.5]),
                       (I2, np.diag(np.exp(1j * (np.pi - np.array([0.1, 0.15]))))))
    circuit = build_dilation(gate)
    strategy = Custom(random_unitary(2, rng))
    cycles = assert_same_trials(random_state(1, rng), circuit, strategy, 600, 13, 40)
    assert 0 < (cycles < 600).sum() < 40


def test_fixed_point_past_the_kept_depths_matches_reference(monkeypatch):
    # slits I and diag(-1, i, 1, 1) with Custom(swap of e1 and e2) from
    # (e0 + e1)/sqrt(2): p_hit 1/4, then 1/3, then ~0 on a state that turns
    # bit for bit fixed at depth 42.  The chain keeps only the input, so a
    # trial of the first 64-trial block finds that fixed point past a gap of
    # unkept depths; the second block's lockstep must stop at the gap and
    # not take depth 1 (p_hit 1/3) for the fixed point (p_hit 0)
    monkeypatch.setattr(rand, "_BLOCK", 64)
    monkeypatch.setattr(recycling, "MAX_DENSE_BYTES", 1)
    gate = DualityGate(np.array([0.5, 0.5]), (np.eye(4), np.diag([-1, 1j, 1, 1])))
    state = StateVector(2, np.array([1, 1, 0, 0]) / np.sqrt(2))
    cycles = assert_same_trials(state, build_dilation(gate), Custom(np.eye(4)[[0, 2, 1, 3]]), 50,
                                5, 100)
    assert (cycles == 2).any() and (cycles == 50).any()


@settings(max_examples=20, deadline=None)
@given(gate_seed=st.integers(0, 2**32 - 1), run_seed=st.integers(0, 2**32 - 1))
def test_reset_from_a_different_input_matches_reference(gate_seed, run_seed):
    # the first cycle runs from input_state, later ones from the stored input
    rng = np.random.default_rng(gate_seed)
    gate = random_gate(2, 1, rng)
    first, stored = random_state(1, rng), random_state(1, rng)
    assert_same_run(first, build_dilation(gate), Reset(stored), 30,
                    lambda: np.random.default_rng(run_seed))


def test_bad_input_fails_before_any_draw(monkeypatch):
    # the first cycle's run_dilation refuses it, in run_recycling before the
    # first draw and in run_trials before any trial's generator is seeded;
    # valid runs afterwards match the reference
    state = basis_state(1, 0)
    gate = DualityGate(np.array([0.5, 0.5]), (I2, 1j * I2))
    circuit = build_dilation(gate)
    strategies = (Reset(state), ExactUnitary(exact_recovery(circuit)), Custom(I2))

    def no_generators(*args):
        raise AssertionError("seeded a trial generator")

    for bad, strategy, max_cycles in itertools.product(
            (StateVector(1, [0.6, 0.0]), basis_state(2, 0)), strategies, (None, 8)):
        rng = FixedRandom([0.99, 0.5])
        with pytest.raises(ValueError):
            run_recycling(bad, circuit, strategy, max_cycles, rng=rng)
        assert rng.draws == 0
        with monkeypatch.context() as mp, pytest.raises(ValueError):
            mp.setattr(rand, "_pcg64_states", no_generators)
            run_trials(bad, circuit, strategy, max_cycles, 11, range(4))
    for strategy in strategies:
        assert_same_run(state, circuit, strategy, 8, lambda: trial_rng(11, 0))
        assert_same_trials(state, circuit, strategy, 8, 11, 4)


def _draws_until_error(loop, rng):
    with pytest.raises(DegenerateBranchError) as info:
        loop(rng)
    return rng_state(rng), str(info.value)


@given(misses=st.integers(0, 20), real=st.booleans())
def test_degenerate_hit_raises_at_the_same_draw(misses, real):
    # P0 ~ 1e-31: positive, so a draw of 0.0 selects the hit, whose norm is
    # degenerate; a real generator meets it inside a chunk of draws
    gate = DualityGate(np.array([0.5, 0.5]), (I2, -np.exp(1e-15j) * I2))
    state = basis_state(1, 0)
    circuit = build_dilation(gate)
    make = (lambda: pcg64_drawing(0, misses + 1)) if real else (
        lambda: FixedRandom([0.5] * misses + [0.0]))
    fast = _draws_until_error(
        lambda rng: run_recycling(state, circuit, Reset(state), 100, rng=rng), make())
    ref = _draws_until_error(
        lambda rng: reference_loop(state, circuit, Reset(state), 100, rng), make())
    assert fast == ref
    assert ref[1] == "hit branch has vanishing norm; cannot normalize"
    if real:  # stopped right after the 0.0 draw, whose state is 0
        assert json.loads(ref[0])["state"]["state"] == 0
    else:
        assert ref[0] == misses + 1


def test_degenerate_miss_raises_at_the_same_draw():
    # U and e^{i eps} U: the miss norm is ~1e-16 while P0 rounds just below 1
    for seed in range(200):
        rng = np.random.default_rng(seed)
        u = random_unitary(2, rng)
        gate = DualityGate(np.array([0.5, 0.5]), (u, np.exp(1e-16j) * u))
        state = random_state(1, rng)
        circuit = build_dilation(gate)
        if hit_probability(run_dilation(state, circuit), 1) < 1.0:
            break
    else:
        pytest.fail("no seed gives a hit probability below 1")
    # the largest double below 1 is a miss, from a FixedRandom and from a real generator
    top = (1 << 53) - 1
    for make, stopped_at in ((lambda: FixedRandom([np.nextafter(1.0, 0.0)]), 1),
                             (lambda: pcg64_drawing(top, 1), None)):
        fast = _draws_until_error(
            lambda rng: run_recycling(state, circuit, Reset(state), 100, rng=rng), make())
        ref = _draws_until_error(
            lambda rng: reference_loop(state, circuit, Reset(state), 100, rng), make())
        assert fast == ref
        assert ref[1] == "miss branch has vanishing norm; cannot normalize"
        if stopped_at is None:  # just past that draw, whose state is top << 11
            assert json.loads(ref[0])["state"]["state"] == top << 11
        else:
            assert ref[0] == stopped_at


def trials_or_error(run):
    """``run()``'s (cycles, hit index) as lists, or the message of the
    ``DegenerateBranchError`` it raised."""
    try:
        return [a.tolist() for a in run()]
    except DegenerateBranchError as exc:
        return str(exc)


def phase_gate(p_hit):
    """(I, e^{i theta} I) with cos(theta / 2)**2 = ``p_hit`` on |0>."""
    return DualityGate(np.array([0.5, 0.5]), (I2, np.exp(2j * np.arccos(np.sqrt(p_hit))) * I2))


@pytest.mark.parametrize("trials", TRIAL_COUNTS)
@pytest.mark.parametrize("branch, p_hit", [("hit", 0.2), ("miss", 0.9)])
def test_run_trials_degenerate_branch_raises_like_reference(monkeypatch, branch, p_hit, trials):
    # the run_trials twins of the two tests above: with the tolerance at 0.5,
    # P0 = 0.2 leaves a hit branch of norm 0.45 and P0 = 0.9 a miss branch of
    # norm 0.32 that count as degenerate, so seeded trials reach them; the
    # first trial of the reference to draw that branch raises, and run_trials,
    # in lockstep or one trial at a time, raises the same error
    # (a budget of one cycle ends every trial on its first draw, and a miss
    # there still builds the miss branch)
    monkeypatch.setattr(duality, "DEGENERATE_BRANCH_TOL", 0.5)
    state = basis_state(1, 0)
    circuit = build_dilation(phase_gate(p_hit))
    for seed, max_cycles in itertools.product((3, 4), (1, 100)):
        fast = trials_or_error(lambda: run_trials(state, circuit, Reset(state), max_cycles, seed,
                                                  range(trials)))
        ref = trials_or_error(lambda: reference_trials(state, circuit, Reset(state), max_cycles,
                                                       seed, trials))
        assert fast == ref
        if trials > 1:
            assert ref == f"{branch} branch has vanishing norm; cannot normalize"


#: tracemalloc peak allowed for ``run_trials`` over 4000 trials of 10**4
#: cycles; about 0.53 MB was measured for both runs below (numpy 2.4.6).
WIDE_RUN_PEAK_BYTES = 1 << 20


@pytest.mark.parametrize("gate, marked", [("never_hit", None), ("search", 13)])
def test_wide_exhausting_run_stays_small(gate, marked):
    # 4000 trials of 10**4 cycles that never hit (P0 = 0), or at P0 = 1/128
    # draw in lockstep up to the window and then finish one at a time:
    # neither holds more than a block's draws at once
    if gate == "never_hit":
        circuit, state = build_dilation(DualityGate(np.array([0.5, 0.5]), (I2, -I2))), basis_state(1, 0)
    else:
        circuit = build_dilation(search_gate(SearchProblem(7, frozenset({marked}))))
        state = uniform_state(7)
    run_trials(state, circuit, Reset(state), 10**4, 5, range(40))  # one-time set-up
    gc.collect()
    tracemalloc.start()
    try:
        cycles, _ = run_trials(state, circuit, Reset(state), 10**4, 5, range(4000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < WIDE_RUN_PEAK_BYTES
    assert (cycles == 10**4).all() if gate == "never_hit" else cycles.max() > recycling._DRAW_WINDOW


def test_run_trials_builds_no_jump_table_at_import_and_loads_no_numpy_ma():
    # numpy.ma (loaded by np.unique, for one) would add ~1.2 MB of peak RSS
    code = """if True:
        import sys
        import dualsim
        from dualsim import rand
        assert rand._jumps.cache_info().currsize == 0
        state = dualsim.uniform_state(4)
        circuit = dualsim.build_dilation(dualsim.search_gate(dualsim.SearchProblem(4, frozenset({3}))))
        cycles, _ = dualsim.run_trials(state, circuit, dualsim.Reset(state), 1024, 7, range(2000))
        assert rand._jumps.cache_info().currsize > 0
        assert "numpy.ma" not in sys.modules
        """
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_search_experiment_matches_hybrid_search_per_trial():
    for problem, j in ((SearchProblem(3, frozenset({5})), 0),
                       (SearchProblem(4, frozenset({2, 9})), 1),
                       (SearchProblem(5, frozenset({7})), 3)):
        stats = run_search_experiment(problem, j, trials=200, seed=17)
        for t, res in enumerate(stats.trial_results):
            assert res == hybrid_search(problem, j, rng=trial_rng(17, t))
