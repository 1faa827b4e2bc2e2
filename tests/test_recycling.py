import math
import sys
import threading

import numpy as np
import pytest

from conftest import FixedRandom
from dualsim import (
    Custom,
    DilationCircuit,
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
    hit_probability,
    is_unitary,
    random_state,
    random_unitary,
    run_dilation,
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


def _count_dilations(monkeypatch):
    """Record (circuit, work state) for every run_dilation call from now on."""
    import dualsim.duality as duality

    calls = []
    real = duality.run_dilation

    def counting(work_state, circuit):
        calls.append((circuit, work_state))
        return real(work_state, circuit)

    monkeypatch.setattr(duality, "run_dilation", counting)
    return calls


def test_circuit_keeps_the_readout_of_its_last_input(monkeypatch):
    circuit = build_dilation(PHASE_SLIT)
    state = StateVector(1, [1.0, 0.0])
    p_hit = hit_probability(run_dilation(state, circuit), 1)
    calls = _count_dilations(monkeypatch)
    first = circuit.readout(state)
    assert first.p_hit == p_hit
    assert circuit.readout(state) is first  # the same object
    assert circuit.readout(StateVector(1, [1.0, 0.0])) is first  # a bit-equal copy
    assert len(calls) == 1
    # differs only in the sign of a zero amplitude: not the same bits
    signed = StateVector(1, [1.0, -0.0])
    assert signed.amplitudes.tobytes() != state.amplitudes.tobytes()
    again = circuit.readout(signed)
    assert again is not first and len(calls) == 2
    assert circuit.readout(state) is not first and len(calls) == 3  # one input is kept


def test_two_circuits_sharing_one_reset_keep_separate_readouts(monkeypatch):
    state = basis_state(1, 0)
    strategy = Reset(state)
    gates = (PHASE_SLIT, DualityGate(np.array([0.7, 0.3]), (I2, 1j * I2)))
    circuits = tuple(build_dilation(gate) for gate in gates)
    calls = _count_dilations(monkeypatch)
    cycles = 0
    for t, k in enumerate((0, 1, 0, 1, 1, 0)):
        run = run_recycling(state, gates[k], strategy, 50, rng=trial_rng(5, t),
                            circuit=circuits[k])
        cycles += run.cycles_used
    assert cycles > 6  # some trials missed and went round again
    assert calls == [(circuits[0], state), (circuits[1], state)]


def test_unitary_recovery_reruns_the_dilation_only_for_a_new_state(monkeypatch):
    # every cycle asks the circuit for a readout; the dilation runs only when
    # that cycle's state differs in bits from the one before it, across trials
    state = basis_state(1, 0)
    starts = []
    real_readout = DilationCircuit.readout

    def recording_readout(self, work_state):
        starts.append(work_state.amplitudes.tobytes())
        return real_readout(self, work_state)

    monkeypatch.setattr(DilationCircuit, "readout", recording_readout)
    calls = _count_dilations(monkeypatch)
    for strategy in (ExactUnitary(exact_recovery(PHASE_SLIT)), Custom(Z)):
        circuit = build_dilation(PHASE_SLIT)
        total_cycles = 0
        starts.clear()
        calls.clear()
        for t in range(20):
            run = run_recycling(state, PHASE_SLIT, strategy, 50, rng=trial_rng(9, t),
                                circuit=circuit)
            total_cycles += run.cycles_used
        assert len(starts) == total_cycles
        changes = sum(1 for prev, cur in zip([None] + starts, starts) if cur != prev)
        assert len(calls) == changes < total_cycles


def test_threads_sharing_a_circuit_get_the_readout_of_their_own_input():
    # the kept (input, readout) pair is replaced as one tuple, so a reader
    # never pairs its input with a readout another thread kept for another
    circuit = build_dilation(DualityGate(np.array([0.5, 0.5]), (I2, Z)))  # P0 = |<0|state>|^2
    states = (basis_state(1, 0), StateVector(1, [0.6, 0.8j]))
    expected = [hit_probability(run_dilation(s, circuit), 1) for s in states]
    assert expected == [pytest.approx(1.0), pytest.approx(0.36)]
    wrong = []

    def worker(k):
        for i in range(3000):
            j = (i + k) % 2
            try:
                p_hit = circuit.readout(states[j]).p_hit
            except Exception as exc:  # a worker's error would otherwise only warn
                p_hit = exc
            if p_hit != expected[j]:
                wrong.append((k, i, p_hit))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
