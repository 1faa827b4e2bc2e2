"""Reset's reused readout against the plain loop it replaces.

The reference runs the dilation and ``conditional_measure`` on every cycle.
Under Reset, ``run_recycling`` must give the same cycle count, outcome,
post-state bytes and per-cycle hit probabilities, leave the generator in
the same state, and raise ``DegenerateBranchError`` at the same draw.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FixedRandom
from dualsim import (
    DegenerateBranchError,
    DualityGate,
    Hit,
    Miss,
    Reset,
    SearchProblem,
    basis_state,
    build_dilation,
    conditional_measure,
    hit_probability,
    hybrid_search,
    random_state,
    random_unitary,
    run_dilation,
    run_recycling,
    run_search_experiment,
    trial_rng,
)

I2 = np.eye(2, dtype=complex)


def reference_loop(state, circuit, max_cycles, rng):
    """(outcome, cycles, per-cycle hit probabilities), re-measuring every cycle."""
    probs = []
    for cycle in range(1, max_cycles + 1):
        full = run_dilation(state, circuit)
        probs.append(hit_probability(full, circuit.num_aux_qubits))
        outcome = conditional_measure(full, circuit.num_aux_qubits, rng)
        if isinstance(outcome, Hit):
            return outcome, cycle, tuple(probs)
    return outcome, max_cycles, tuple(probs)


def assert_same_run(run, reference):
    outcome, cycles, probs = reference
    assert run.cycles_used == cycles
    assert type(run.outcome) is type(outcome)
    if isinstance(outcome, Hit):
        assert run.outcome.sampled_index == outcome.sampled_index
    assert run.outcome.post_state.num_qubits == outcome.post_state.num_qubits
    assert run.outcome.post_state.amplitudes.tobytes() == outcome.post_state.amplitudes.tobytes()
    assert run.per_cycle_hit_prob == probs


def random_gate(num_slits, num_qubits, rng):
    weights = rng.dirichlet(np.ones(num_slits))
    weights /= weights.sum()
    return DualityGate(weights, tuple(random_unitary(1 << num_qubits, rng)
                                      for _ in range(num_slits)))


@settings(max_examples=60, deadline=None)
@given(num_slits=st.integers(2, 5), num_qubits=st.integers(1, 2),
       gate_seed=st.integers(0, 2**32 - 1), run_seed=st.integers(0, 2**32 - 1),
       max_cycles=st.integers(1, 40))
def test_reset_loop_matches_reference(num_slits, num_qubits, gate_seed, run_seed, max_cycles):
    rng = np.random.default_rng(gate_seed)
    gates = [random_gate(num_slits, num_qubits, rng) for _ in range(2)]
    circuits = [build_dilation(gate) for gate in gates]
    state = random_state(num_qubits, rng)
    strategy = Reset(state)
    # several trials share one Reset, as in an experiment; switching the
    # circuit must not reuse the other circuit's readout
    for t, k in enumerate((0, 0, 1, 0)):
        fast_rng = trial_rng(run_seed, t)
        ref_rng = trial_rng(run_seed, t)
        run = run_recycling(state, gates[k], strategy, max_cycles, rng=fast_rng,
                            circuit=circuits[k])
        assert_same_run(run, reference_loop(state, circuits[k], max_cycles, ref_rng))
        assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=20, deadline=None)
@given(gate_seed=st.integers(0, 2**32 - 1), run_seed=st.integers(0, 2**32 - 1))
def test_reset_from_a_different_input_matches_reference(gate_seed, run_seed):
    # the first cycle runs from input_state, later ones from the stored input
    rng = np.random.default_rng(gate_seed)
    gate = random_gate(2, 1, rng)
    first, stored = random_state(1, rng), random_state(1, rng)
    circuit = build_dilation(gate)
    fast_rng, ref_rng = np.random.default_rng(run_seed), np.random.default_rng(run_seed)
    run = run_recycling(first, gate, Reset(stored), 30, rng=fast_rng, circuit=circuit)
    outcome, cycles, probs = reference_loop(first, circuit, 1, ref_rng)
    if isinstance(outcome, Miss):
        outcome, more, rest = reference_loop(stored, circuit, 29, ref_rng)
        cycles, probs = 1 + more, probs + rest
    assert_same_run(run, (outcome, cycles, probs))
    assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


def _draws_until_error(loop, rng):
    with pytest.raises(DegenerateBranchError) as info:
        loop(rng)
    return rng.draws, str(info.value)


@given(misses=st.integers(0, 20))
def test_degenerate_hit_raises_at_the_same_draw(misses):
    # P0 ~ 1e-31: positive, so a draw of 0.0 selects the hit, whose norm is degenerate
    gate = DualityGate(np.array([0.5, 0.5]), (I2, -np.exp(1e-15j) * I2))
    state = basis_state(1, 0)
    circuit = build_dilation(gate)
    draws = [0.5] * misses + [0.0]
    fast = _draws_until_error(
        lambda rng: run_recycling(state, gate, Reset(state), 100, rng=rng, circuit=circuit),
        FixedRandom(draws))
    ref = _draws_until_error(lambda rng: reference_loop(state, circuit, 100, rng),
                             FixedRandom(draws))
    assert fast == ref == (misses + 1, "hit branch has vanishing norm; cannot normalize")


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
    draws = [np.nextafter(1.0, 0.0)]
    fast = _draws_until_error(
        lambda rng: run_recycling(state, gate, Reset(state), 100, rng=rng, circuit=circuit),
        FixedRandom(draws))
    ref = _draws_until_error(lambda rng: reference_loop(state, circuit, 100, rng),
                             FixedRandom(draws))
    assert fast == ref == (1, "miss branch has vanishing norm; cannot normalize")


def test_search_experiment_matches_hybrid_search_per_trial():
    for problem, j in ((SearchProblem(3, frozenset({5})), 0),
                       (SearchProblem(4, frozenset({2, 9})), 1),
                       (SearchProblem(5, frozenset({7})), 3)):
        stats = run_search_experiment(problem, j, trials=200, seed=17)
        for t, res in enumerate(stats.trial_results):
            assert res == hybrid_search(problem, j, rng=trial_rng(17, t))
