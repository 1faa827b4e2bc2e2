import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import FixedRandom, count_dilations, global_phase_dev
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
    duality,
    exact_recovery,
    expected_cycles,
    is_unitary,
    random_state,
    random_unitary,
    run_dilation,
    run_recycling,
    run_trials,
    search_gate,
    uniform_state,
)
from dualsim.duality import DEGENERATE_BRANCH_TOL

I2 = np.eye(2, dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

PHASE_SLIT = DualityGate(np.array([0.5, 0.5]), (I2, 1j * I2))
PHASE_SLIT_V = exact_recovery(build_dilation(PHASE_SLIT))


def test_exact_recovery_phase_slit():
    v = PHASE_SLIT_V
    assert v is not None
    assert is_unitary(v, 1e-10)
    # V = M†/sqrt(c) with M = (1-i)/2 I, c = 1/2: the e^{i pi/4} phase
    assert np.abs(v - np.exp(1j * np.pi / 4) * I2).max() < 1e-12
    m = 0.5 * I2 - 0.5 * (1j * I2)
    assert np.abs(v @ (m / math.sqrt(0.5)) - I2).max() <= 1e-10


def test_exact_recovery_absent_cases():
    # search-oracle gate: miss operator is a projector, not proportional to a unitary
    assert exact_recovery(build_dilation(search_gate(SearchProblem(2, frozenset({1}))))) is None
    # equal slits: zero miss branch
    assert exact_recovery(build_dilation(DualityGate(np.array([0.5, 0.5]), (I2, I2)))) is None
    # only defined for a single auxiliary qubit (2 slits)
    gate3 = DualityGate(np.array([0.4, 0.3, 0.3]), (I2, I2, I2))
    assert exact_recovery(build_dilation(gate3)) is None


def miss_operator(circuit):
    """The miss block's operator, sum_i combine[1, i] prepare[i, 0] U_i, as a matrix."""
    u0, u1 = circuit.gate.dense_unitaries()
    c0, c1 = circuit.combine[1, :] * circuit.prepare[:, 0]
    return c0 * u0 + c1 * u1


def gram_rule_recovery(circuit):
    """Reference: M†M and c·I formed in full for the circuit's miss operator M,
    accepted iff max |M†M - cI| <= tol."""
    m = miss_operator(circuit)
    gram = m.conj().T @ m
    c = float(np.mean(np.diag(gram)).real)
    deviation = float(np.abs(gram - c * np.eye(circuit.gate.dim)).max())
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
    circuit = build_dilation(DualityGate(np.array([p0, 1.0 - p0]), (u0, u1)))
    want, deviation = gram_rule_recovery(circuit)
    assume(proportional or deviation > 1e-6)
    v = exact_recovery(circuit)
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
    circuit = build_dilation(DualityGate(weights, (PhaseDiagonal(d0), PhaseDiagonal(d1))))
    dense = build_dilation(DualityGate(weights, (np.diag(d0), np.diag(d1))))
    want, deviation = gram_rule_recovery(circuit)
    assume(want is not None or deviation > 1e-6)
    v, dense_v = exact_recovery(circuit), exact_recovery(dense)
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
        circuit = build_dilation(gate)
        want, deviation = gram_rule_recovery(circuit)
        assert (want is not None) == accepted and 0.02 * DEFAULT_UNITARY_TOL < deviation
        v = exact_recovery(circuit)
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
        v = exact_recovery(build_dilation(gate))
        if c <= 1e-14:
            assert v is None
            continue
        assert v is not None
        assert is_unitary(v, 1e-10)
        assert np.abs(v @ (m / math.sqrt(c)) - np.eye(4)).max() <= 1e-10


@settings(max_examples=80, deadline=None)
@given(num_qubits=st.integers(1, 3), p0=st.floats(0.05, 0.95), custom_stages=st.booleans(),
       alpha=st.floats(0.0, 2 * math.pi), seed=st.integers(0, 2**32 - 1))
def test_exact_recovery_restores_the_input_for_any_weights_and_stages(num_qubits, p0,
                                                                      custom_stages, alpha, seed):
    # U1 = U0 D with D = e^{i alpha} P + e^{i (2 psi - alpha)} (I - P), P a random
    # projector of rank 1..N-1 and psi = arg(a conj(b)) for the miss block's
    # coefficients a, b: |a + b lambda| is the same on both eigenvalues, so the
    # miss operator U0 (a I + b D) is proportional to a unitary although D is
    # not a multiple of I and p0 != p1
    rng = np.random.default_rng(seed)
    dim = 1 << num_qubits
    stages = (random_unitary(2, rng), random_unitary(2, rng))
    u0, q = random_unitary(dim, rng), random_unitary(dim, rng)
    rank = int(rng.integers(1, dim)) if dim > 2 else 1
    weights = np.array([p0, 1.0 - p0])
    circuit = build_dilation(DualityGate(weights, (u0, u0)))
    if custom_stages:
        circuit = DilationCircuit(circuit.gate, *stages)
    a, b = circuit.combine[1, :] * circuit.prepare[:, 0]
    lambdas = (np.exp(1j * alpha), np.exp(1j * (2 * np.angle(a * np.conj(b)) - alpha)))
    assume(abs(lambdas[0] - lambdas[1]) > 0.1 and abs(a + b * lambdas[0]) ** 2 > 1e-3)
    phases = np.where(np.arange(dim) < rank, lambdas[0], lambdas[1])
    gate = DualityGate(weights, (u0, u0 @ ((q * phases) @ q.conj().T)))
    circuit = DilationCircuit(gate, circuit.prepare, circuit.combine)
    v = exact_recovery(circuit)
    assert v is not None
    for _ in range(3):
        psi = random_state(num_qubits, rng)
        miss_work = run_dilation(psi, circuit).amplitudes[dim:]
        recovered = v @ (miss_work / np.linalg.norm(miss_work))
        assert global_phase_dev(psi.amplitudes, recovered) <= 1e-10


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
    v = PHASE_SLIT_V
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
    return run_trials(state, circuit, strategy, max_cycles, seed, range(trials))


def assert_mean_cycles(runs, want):
    """Every trial hit, and the mean cycle count is within 3 SE of ``want``."""
    counts, hit_index = runs
    assert (hit_index >= 0).all()
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
    strategy = ExactUnitary(PHASE_SLIT_V)
    assert_mean_cycles(trial_runs(state, build_dilation(PHASE_SLIT), strategy, 128, 7, 20_000), 2.0)


def test_search_gate_reset_small_sample():
    state = uniform_state(4)
    circuit = build_dilation(search_gate(SearchProblem(4, frozenset({11}))))
    runs = trial_runs(state, circuit, Reset(state), 2048, 3, 2000)
    assert set(runs[1].tolist()) == {11}
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


def chain_states(circuit, strategy, state, length):
    """Bytes of the work states at the top of cycles 1..length of a trial that
    keeps missing: the input, then the recovery of each miss work state."""
    states = [state]
    while len(states) < length:
        miss = conditional_measure(run_dilation(states[-1], circuit), 1, FixedRandom([1.0]))
        states.append(StateVector(1, strategy.recovery @ miss.post_state.amplitudes[2:]))
    return [s.amplitudes.tobytes() for s in states]


def test_unitary_recovery_dilates_each_chain_state_once(monkeypatch):
    # the state at cycle k is the same in every trial, so one run_trials call
    # dilates each distinct state of the chain once, the first time a trial
    # reaches it; the chain is dropped when the call returns, so a second
    # call on the same circuit dilates them all again
    state = basis_state(1, 0)
    # ExactUnitary reaches a bit-exact fixed point from the third cycle on;
    # Custom(Z) keeps drifting
    for strategy in (ExactUnitary(PHASE_SLIT_V), Custom(Z)):
        circuit = build_dilation(PHASE_SLIT)
        chain = chain_states(circuit, strategy, state, 80)
        calls = count_dilations(monkeypatch)
        cycles, _ = run_trials(state, circuit, strategy, 80, 9, range(20))
        deepest = chain[:cycles.max()]
        distinct = 1 + sum(cur != prev for prev, cur in zip(deepest, deepest[1:]))
        dilated = [s.amplitudes.tobytes() for _, s in calls]
        assert dilated == list(dict.fromkeys(deepest))
        assert len(calls) == distinct < cycles.sum()
        assert 3 < cycles.max()  # the trials reach past the fixed point
        calls.clear()
        again, _ = run_trials(state, circuit, strategy, 80, 9, range(20))
        assert np.array_equal(again, cycles)
        assert [s.amplitudes.tobytes() for _, s in calls] == dilated
        monkeypatch.undo()


def test_run_trials_keeps_nothing_after_it_returns(monkeypatch):
    # every dilated state the chain held is freed once the call returns
    kept, real = [], duality.run_dilation

    def tracking(work_state, circuit):
        full = real(work_state, circuit)
        kept.append(weakref.ref(full))
        return full

    monkeypatch.setattr(duality, "run_dilation", tracking)
    circuit = build_dilation(PHASE_SLIT)
    state = basis_state(1, 0)
    for strategy in (Reset(state), ExactUnitary(PHASE_SLIT_V), Custom(Z)):
        kept.clear()
        run_trials(state, circuit, strategy, 80, 9, range(20))
        gc.collect()
        assert kept and all(ref() is None for ref in kept)
