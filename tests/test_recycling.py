import math

import numpy as np
import pytest

from conftest import FixedRandom
from dualsim import (
    Custom,
    DualityGate,
    ExactUnitary,
    Hit,
    InfiniteExpectationError,
    Miss,
    Reset,
    SearchProblem,
    StateVector,
    basis_state,
    build_dilation,
    cycle_budget,
    default_max_cycles,
    exact_recovery,
    expected_cycles,
    is_unitary,
    random_state,
    random_unitary,
    run_recycling,
    search_gate,
    trial_rng,
    uniform_state,
)

I2 = np.eye(2, dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

PHASE_SLIT = DualityGate(np.array([0.5, 0.5]), (I2, 1j * I2))


def test_exact_recovery_phase_slit():
    v = exact_recovery(PHASE_SLIT)
    assert v is not None
    assert is_unitary(v, 1e-10)
    # V = M†/sqrt(c) with M = (1-i)/2 I, c = 1/2: the e^{i pi/4} phase
    assert np.abs(v - np.exp(1j * np.pi / 4) * I2).max() < 1e-12
    m = 0.5 * I2 - 0.5 * (1j * I2)
    assert np.abs(v @ (m / math.sqrt(0.5)) - I2).max() <= 1e-10


def test_exact_recovery_absent_cases():
    # search-oracle gate: miss operator is a projector, not proportional to a unitary
    assert exact_recovery(search_gate(SearchProblem(2, frozenset({1})))) is None
    # equal slits: zero miss branch
    assert exact_recovery(DualityGate(np.array([0.5, 0.5]), (I2, I2))) is None
    # only defined for 2 slits
    gate3 = DualityGate(np.array([0.4, 0.3, 0.3]), (I2, I2, I2))
    assert exact_recovery(gate3) is None


def test_exact_recovery_contract_on_random_proportional_gates():
    # gates U0 = U, U1 = phase * U always admit an exact recovery
    rng = np.random.default_rng(3)
    for _ in range(10):
        u = random_unitary(4, rng)
        phase = np.exp(2j * np.pi * rng.random())
        gate = DualityGate(np.array([0.5, 0.5]), (u, phase * u))
        m = 0.5 * u - 0.5 * phase * u
        c = float(np.mean(np.diag(m.conj().T @ m)).real)
        v = exact_recovery(gate)
        if c <= 1e-14:
            assert v is None
            continue
        assert v is not None
        assert is_unitary(v, 1e-10)
        assert np.abs(v @ (m / math.sqrt(c)) - np.eye(4)).max() <= 1e-10


def test_run_recycling_sure_hit():
    gate = DualityGate(np.array([0.5, 0.5]), (I2, I2))
    for seed in range(10):
        run = run_recycling(basis_state(1, 0), gate, Reset(basis_state(1, 0)),
                            rng=np.random.default_rng(seed))
        assert isinstance(run.outcome, Hit)
        assert run.cycles_used == 1
        assert run.per_cycle_hit_prob[0] == pytest.approx(1.0, abs=1e-12)


def test_exact_unitary_restores_the_input_each_cycle():
    state = random_state(1, np.random.default_rng(5))
    v = exact_recovery(PHASE_SLIT)
    # drive one miss by hand and check V maps the miss work state back
    miss = run_recycling(state, PHASE_SLIT, ExactUnitary(v), max_cycles=1,
                         rng=FixedRandom([0.99, 0.5]))
    assert miss.exhausted and isinstance(miss.outcome, Miss)
    recovered = v @ miss.outcome.post_state.amplitudes[2:]
    assert np.abs(recovered - state.amplitudes).max() <= 1e-10
    # forced misses keep the analytic hit probability pinned at 1/2
    run = run_recycling(state, PHASE_SLIT, ExactUnitary(v), max_cycles=6,
                        rng=FixedRandom([0.99]))
    assert run.exhausted and run.cycles_used == 6
    assert np.abs(np.array(run.per_cycle_hit_prob) - 0.5).max() <= 1e-10


def test_reset_mean_cycles_matches_inverse_hit_probability():
    # phase-slit gate: P0 = 1/2, so cycle counts are geometric with mean 2
    state = basis_state(1, 0)
    strategy = Reset(state)
    circuit = build_dilation(PHASE_SLIT)
    trials = 100_000
    counts = np.empty(trials)
    for t in range(trials):
        run = run_recycling(state, PHASE_SLIT, strategy, 128, rng=trial_rng(99, t),
                            circuit=circuit)
        assert not run.exhausted
        counts[t] = run.cycles_used
    want = expected_cycles(PHASE_SLIT, state)
    assert want == pytest.approx(2.0, abs=1e-12)
    se = counts.std(ddof=1) / math.sqrt(trials)
    assert abs(counts.mean() - want) <= 3 * se


def test_exact_unitary_mean_cycles_phase_slit():
    state = basis_state(1, 0)
    strategy = ExactUnitary(exact_recovery(PHASE_SLIT))
    circuit = build_dilation(PHASE_SLIT)
    trials = 20_000
    counts = np.empty(trials)
    for t in range(trials):
        run = run_recycling(state, PHASE_SLIT, strategy, 128, rng=trial_rng(7, t),
                            circuit=circuit)
        counts[t] = run.cycles_used
        assert np.abs(np.array(run.per_cycle_hit_prob) - 0.5).max() <= 1e-10
    se = counts.std(ddof=1) / math.sqrt(trials)
    assert abs(counts.mean() - 2.0) <= 3 * se


def test_search_gate_reset_small_sample():
    problem = SearchProblem(4, frozenset({11}))
    gate = search_gate(problem)
    state = uniform_state(4)
    circuit = build_dilation(gate)
    trials = 2000
    counts = np.empty(trials)
    for t in range(trials):
        run = run_recycling(state, gate, Reset(state), 2048, rng=trial_rng(3, t),
                            circuit=circuit)
        assert isinstance(run.outcome, Hit)
        assert run.outcome.sampled_index == 11
        counts[t] = run.cycles_used
    se = counts.std(ddof=1) / math.sqrt(trials)
    assert abs(counts.mean() - 16.0) <= 3 * se


def test_run_recycling_reproducible():
    state = uniform_state(2)
    gate = search_gate(SearchProblem(2, frozenset({1})))
    runs = [run_recycling(state, gate, Reset(state), rng=np.random.default_rng(12345))
            for _ in range(2)]
    assert runs[0].cycles_used == runs[1].cycles_used
    assert runs[0].outcome.sampled_index == runs[1].outcome.sampled_index
    assert runs[0].per_cycle_hit_prob == runs[1].per_cycle_hit_prob


def test_run_recycling_exhaustion():
    gate = DualityGate(np.array([0.5, 0.5]), (Z, -Z))  # P0 = 0: every cycle misses
    state = basis_state(1, 0)
    run = run_recycling(state, gate, Reset(state), max_cycles=3,
                        rng=np.random.default_rng(0))
    assert run.exhausted
    assert isinstance(run.outcome, Miss)
    assert run.cycles_used == 3
    assert np.abs(np.array(run.per_cycle_hit_prob)).max() <= 1e-20


def test_run_recycling_strategy_validation():
    state = basis_state(1, 0)
    gate3 = DualityGate(np.array([0.4, 0.3, 0.3]), (I2, 1j * I2, I2))
    with pytest.raises(ValueError):
        run_recycling(state, gate3, Custom(I2), rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        run_recycling(state, PHASE_SLIT, ExactUnitary(np.eye(4)), rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        run_recycling(state, PHASE_SLIT, Reset(basis_state(2, 0)), rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        Reset(StateVector(1, [0.5, 0.0]))
    with pytest.raises(ValueError):
        ExactUnitary(np.diag([1.0, 0.0]))


def test_expected_cycles():
    assert expected_cycles(DualityGate(np.array([0.5, 0.5]), (I2, I2)),
                           basis_state(1, 0)) == pytest.approx(1.0)
    problem = SearchProblem(4, frozenset({3}))
    assert expected_cycles(search_gate(problem), uniform_state(4)) == pytest.approx(16.0)
    with pytest.raises(InfiniteExpectationError):
        expected_cycles(DualityGate(np.array([0.5, 0.5]), (Z, -Z)), basis_state(1, 0))


def test_default_max_cycles_policy():
    assert default_max_cycles(DualityGate(np.array([0.5, 0.5]), (I2, I2)), basis_state(1, 0)) == 64
    assert default_max_cycles(PHASE_SLIT, basis_state(1, 0)) == 128
    assert default_max_cycles(DualityGate(np.array([0.5, 0.5]), (Z, -Z)),
                              basis_state(1, 0)) == 1_000_000


def test_cycle_budget_rule():
    assert cycle_budget(1.0) == 64
    assert cycle_budget(0.5) == 128
    assert cycle_budget(0.3) == 214  # ceil(213.33...)
    assert cycle_budget(64e-6) == 1_000_000
    assert cycle_budget(1e-7) == 1_000_000
    assert cycle_budget(0.0) == 1_000_000
    assert cycle_budget(-1.0) == 1_000_000


def test_prebuilt_circuit_of_another_gate_is_rejected():
    # same register sizes, different slits: the budget and the recovery would
    # come from one gate while the loop runs the other
    other = DualityGate(np.array([0.5, 0.5]), (Z, I2))
    equal_copy = DualityGate(PHASE_SLIT.weights, PHASE_SLIT.unitaries)
    for circuit_gate in (other, equal_copy):
        circuit = build_dilation(circuit_gate)
        assert circuit.num_work_qubits == PHASE_SLIT.num_qubits
        assert circuit.num_aux_qubits == 1
        for strategy in (Reset(basis_state(1, 0)), ExactUnitary(exact_recovery(PHASE_SLIT))):
            with pytest.raises(ValueError, match="different gate"):
                run_recycling(basis_state(1, 0), PHASE_SLIT, strategy, 4,
                              rng=np.random.default_rng(0), circuit=circuit)
    circuit = build_dilation(PHASE_SLIT)
    run = run_recycling(basis_state(1, 0), PHASE_SLIT, Reset(basis_state(1, 0)), 4,
                        rng=np.random.default_rng(0), circuit=circuit)
    assert run.cycles_used >= 1
