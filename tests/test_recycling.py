import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import FixedRandom, count_dilations
from dualsim import (
    DEFAULT_UNITARY_TOL,
    Custom,
    DilationCircuit,
    DualityGate,
    ExactUnitary,
    Hit,
    InfiniteExpectationError,
    Miss,
    PhaseDiagonal,
    Reset,
    SearchProblem,
    StateVector,
    basis_state,
    build_dilation,
    conditional_measure,
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
    trial_rngs,
    uniform_state,
)
from dualsim.duality import DEGENERATE_BRANCH_TOL

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


def gram_rule_recovery(gate):
    """Reference: M†M and c·I formed in full, accepted iff max |M†M - cI| <= tol."""
    u0, u1 = gate.dense_unitaries()
    m = gate.weights[0] * u0 - gate.weights[1] * u1
    gram = m.conj().T @ m
    c = float(np.mean(np.diag(gram)).real)
    deviation = float(np.abs(gram - c * np.eye(gate.dim)).max())
    if c <= DEGENERATE_BRANCH_TOL or deviation > DEFAULT_UNITARY_TOL:
        return None, deviation
    return m.conj().T / math.sqrt(c), deviation


@settings(max_examples=80, deadline=None)
@given(num_qubits=st.integers(1, 4), proportional=st.booleans(), p0=st.floats(0.05, 0.95),
       phi=st.floats(0.2, 2 * math.pi - 0.2), seed=st.integers(0, 2**32 - 1))
def test_exact_recovery_agrees_with_the_full_gram_rule(num_qubits, proportional, p0, phi, seed):
    # U1 = e^{i phi} U0 makes M proportional to a unitary, with c = |p0 - p1 e^{i phi}|^2
    # >= sin^2(0.1); independent Haar slits are far from it: nothing lands near the tolerance
    rng = np.random.default_rng(seed)
    u0 = random_unitary(1 << num_qubits, rng)
    u1 = np.exp(1j * phi) * u0 if proportional else random_unitary(1 << num_qubits, rng)
    gate = DualityGate(np.array([p0, 1.0 - p0]), (u0, u1))
    want, deviation = gram_rule_recovery(gate)
    assume(proportional or deviation > 1e-6)
    v = exact_recovery(gate)
    assert (v is None) == (want is None) == (not proportional)
    if proportional:
        assert np.abs(v - want).max() <= 1e-12


@settings(max_examples=120, deadline=None)
@given(num_qubits=st.integers(1, 8),
       kind=st.sampled_from(["proportional", "conjugate_phases", "signs", "independent"]),
       p0=st.floats(0.05, 0.95), phi=st.floats(0.2, 2 * math.pi - 0.2),
       seed=st.integers(0, 2**32 - 1))
def test_diagonal_exact_recovery_agrees_with_the_dense_rule(num_qubits, kind, p0, phi, seed):
    # two PhaseDiagonal slits are decided from the diagonal of M in O(N); the
    # same gate with explicit diagonal matrices takes the dense route
    rng = np.random.default_rng(seed)
    dim = 1 << num_qubits
    d0 = np.exp(1j * rng.uniform(0, 2 * math.pi, dim))
    if kind == "proportional":  # |m_i| = |p0 - p1 e^{i phi}| on every entry
        d1 = np.exp(1j * phi) * d0
    elif kind == "conjugate_phases":  # e^{+i phi} or e^{-i phi}: the same |m_i|
        d1 = d0 * np.exp(1j * phi * rng.choice([-1.0, 1.0], size=dim))
    elif kind == "signs":  # the search oracle's kind: |m_i| is |p0 - p1| or p0 + p1
        d1 = d0 * rng.choice([-1.0, 1.0], size=dim)
    else:
        d1 = np.exp(1j * rng.uniform(0, 2 * math.pi, dim))
    weights = np.array([p0, 1.0 - p0])
    gate = DualityGate(weights, (PhaseDiagonal(d0), PhaseDiagonal(d1)))
    dense = DualityGate(weights, (np.diag(d0), np.diag(d1)))
    want, deviation = gram_rule_recovery(gate)
    assume(want is not None or deviation > 1e-6)
    v, dense_v = exact_recovery(gate), exact_recovery(dense)
    assert (v is None) == (dense_v is None) == (want is None)
    if kind in ("proportional", "conjugate_phases"):
        assert v is not None
    if want is not None:
        assert np.abs(v - dense_v).max() <= 1e-12 and np.abs(v - want).max() <= 1e-12
        assert np.array_equal(v, np.diag(np.diag(v)))


def test_diagonal_exact_recovery_tolerance_is_relative_to_c():
    # p0 = p1 and phases 0.2 and 0.2 + delta: c ~ 0.02, and |m_1|^2 - c ~ 0.05 delta.
    # delta = 1e-9 is within the Gram rule's 1e-10 (so within 1e-10 / c of the
    # scaled rule, not within 1e-10); delta = 4e-9 is past it
    for delta, accepted in ((1e-9, True), (4e-9, False)):
        d1 = np.exp(1j * np.array([0.2, 0.2 + delta]))
        gate = DualityGate(np.array([0.5, 0.5]), (PhaseDiagonal([1.0, 1.0]), PhaseDiagonal(d1)))
        want, deviation = gram_rule_recovery(gate)
        assert (want is not None) == accepted and 0.02 * DEFAULT_UNITARY_TOL < deviation
        v = exact_recovery(gate)
        assert (v is not None) == accepted
        if accepted:
            assert np.abs(v - want).max() <= 1e-12


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
    state = basis_state(1, 0)
    circuit = build_dilation(DualityGate(np.array([0.5, 0.5]), (I2, I2)))
    assert circuit.readout(state).p_hit == pytest.approx(1.0, abs=1e-12)
    for seed in range(10):
        run = run_recycling(state, circuit, Reset(state), rng=np.random.default_rng(seed))
        assert isinstance(run.outcome, Hit)
        assert run.cycles_used == 1


def test_exact_unitary_restores_the_input_each_cycle():
    state = random_state(1, np.random.default_rng(5))
    v = exact_recovery(PHASE_SLIT)
    circuit = build_dilation(PHASE_SLIT)
    # k forced misses: V maps each miss work state back onto the input, so
    # the hit probability of the next cycle stays pinned at 1/2
    for k in range(1, 7):
        run = run_recycling(state, circuit, ExactUnitary(v), max_cycles=k,
                            rng=FixedRandom([0.99]))
        assert run.exhausted and isinstance(run.outcome, Miss) and run.cycles_used == k
        recovered = StateVector(1, v @ run.outcome.post_state.amplitudes[2:])
        assert np.abs(recovered.amplitudes - state.amplitudes).max() <= 1e-10
        assert abs(circuit.readout(recovered).p_hit - 0.5) <= 1e-10


def trial_runs(state, circuit, strategy, max_cycles, seed, trials):
    return [run_recycling(state, circuit, strategy, max_cycles, rng=rng)
            for rng in trial_rngs(seed, range(trials))]


def assert_mean_cycles(runs, want):
    """Every run hit, and the mean cycle count is within 3 SE of ``want``."""
    assert not any(run.exhausted for run in runs)
    counts = np.array([run.cycles_used for run in runs])
    assert abs(counts.mean() - want) <= 3 * counts.std(ddof=1) / math.sqrt(counts.size)


def test_reset_mean_cycles_matches_inverse_hit_probability():
    # phase-slit gate: P0 = 1/2, so cycle counts are geometric with mean 2
    state = basis_state(1, 0)
    want = expected_cycles(PHASE_SLIT, state)
    assert want == pytest.approx(2.0, abs=1e-12)
    circuit = build_dilation(PHASE_SLIT)
    assert_mean_cycles(trial_runs(state, circuit, Reset(state), 128, 99, 100_000), want)


def test_exact_unitary_mean_cycles_phase_slit():
    state = basis_state(1, 0)
    strategy = ExactUnitary(exact_recovery(PHASE_SLIT))
    assert_mean_cycles(trial_runs(state, build_dilation(PHASE_SLIT), strategy, 128, 7, 20_000), 2.0)


def test_search_gate_reset_small_sample():
    state = uniform_state(4)
    circuit = build_dilation(search_gate(SearchProblem(4, frozenset({11}))))
    runs = trial_runs(state, circuit, Reset(state), 2048, 3, 2000)
    assert {run.outcome.sampled_index for run in runs} == {11}
    assert_mean_cycles(runs, 16.0)


def test_run_recycling_reproducible():
    state = uniform_state(2)
    gate = search_gate(SearchProblem(2, frozenset({1})))
    runs = [run_recycling(state, build_dilation(gate), Reset(state),
                          rng=np.random.default_rng(12345)) for _ in range(2)]
    assert runs[0].cycles_used == runs[1].cycles_used
    assert runs[0].outcome.sampled_index == runs[1].outcome.sampled_index
    assert (runs[0].outcome.post_state.amplitudes.tobytes()
            == runs[1].outcome.post_state.amplitudes.tobytes())


def test_run_recycling_exhaustion():
    circuit = build_dilation(DualityGate(np.array([0.5, 0.5]), (Z, -Z)))  # P0 = 0
    state = basis_state(1, 0)
    assert circuit.readout(state).p_hit <= 1e-20  # every cycle misses
    run = run_recycling(state, circuit, Reset(state), max_cycles=3,
                        rng=np.random.default_rng(0))
    assert run.exhausted
    assert isinstance(run.outcome, Miss)
    assert run.cycles_used == 3


def test_run_recycling_strategy_validation():
    state = basis_state(1, 0)
    gate3 = DualityGate(np.array([0.4, 0.3, 0.3]), (I2, 1j * I2, I2))
    circuit = build_dilation(PHASE_SLIT)
    with pytest.raises(ValueError):
        run_recycling(state, build_dilation(gate3), Custom(I2), rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        run_recycling(state, circuit, ExactUnitary(np.eye(4)), rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        run_recycling(state, circuit, Reset(basis_state(2, 0)), rng=np.random.default_rng(0))
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


def test_circuit_keeps_the_readout_of_its_last_input(monkeypatch):
    circuit = build_dilation(PHASE_SLIT)
    state = StateVector(1, [1.0, 0.0])
    p_hit = hit_probability(run_dilation(state, circuit), 1)
    calls = count_dilations(monkeypatch)
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
    calls = count_dilations(monkeypatch)
    cycles = 0
    for t, k in enumerate((0, 1, 0, 1, 1, 0)):
        cycles += run_recycling(state, circuits[k], strategy, 50, rng=trial_rng(5, t)).cycles_used
    assert cycles > 6  # some trials missed and went round again
    assert calls == [(circuits[0], state), (circuits[1], state)]


def chain_states(circuit, strategy, state, length):
    """Bytes of the work states at the top of cycles 1..length of a trial that
    keeps missing: the input, then the recovery of each miss work state."""
    states = [state]
    while len(states) < length:
        miss = conditional_measure(run_dilation(states[-1], circuit), 1, FixedRandom([1.0]))
        states.append(StateVector(1, strategy.recovery @ miss.post_state.amplitudes[2:]))
    return [s.amplitudes.tobytes() for s in states]


def test_unitary_recovery_dilates_each_chain_state_once(monkeypatch):
    # the state at cycle k is the same in every trial, so across trials on one
    # circuit each distinct state of the chain is dilated once, the first time
    # a trial reaches it; every trial starts on the circuit's kept readout
    state = basis_state(1, 0)
    starts = []
    real_readout = DilationCircuit.readout

    def recording_readout(self, work_state):
        starts.append(work_state.amplitudes.tobytes())
        return real_readout(self, work_state)

    # ExactUnitary drifts in the last bits for 52 cycles and then stays at a
    # bit-exact fixed point; Custom(Z) keeps drifting
    for strategy in (ExactUnitary(exact_recovery(PHASE_SLIT)), Custom(Z)):
        circuit = build_dilation(PHASE_SLIT)
        chain = chain_states(circuit, strategy, state, 80)
        monkeypatch.setattr(DilationCircuit, "readout", recording_readout)
        calls = count_dilations(monkeypatch)
        starts.clear()
        cycles = [run_recycling(state, circuit, strategy, 80, rng=trial_rng(9, t)).cycles_used
                  for t in range(20)]
        monkeypatch.undo()
        deepest = chain[:max(cycles)]
        distinct = 1 + sum(cur != prev for prev, cur in zip(deepest, deepest[1:]))
        assert starts == [state.amplitudes.tobytes()] * 20
        assert [s.amplitudes.tobytes() for _, s in calls] == list(dict.fromkeys(deepest))
        assert len(calls) == distinct < sum(cycles)
        assert 1 < max(cycles) <= distinct  # the trials reach past the first cycle


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
