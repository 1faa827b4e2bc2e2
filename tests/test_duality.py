import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from conftest import FixedRandom
from dualsim import (
    BranchState,
    DegenerateBranchError,
    DilationCircuit,
    DualityGate,
    Hit,
    Miss,
    StateVector,
    apply_duality_gate,
    apply_per_slit,
    as_slit_weights,
    aux_zero_block,
    basis_state,
    build_dilation,
    combine,
    conditional_measure,
    divide,
    hit_probability,
    is_unitary,
    norm,
    random_state,
    random_unitary,
    run_dilation,
    uniform_state,
    unitary_completion,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
HAD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
SQ2 = 1.0 / np.sqrt(2)


def sym2(u0, u1):
    return DualityGate(np.array([0.5, 0.5]), (u0, u1))


def random_gate(num_slits, num_qubits, rng):
    weights = rng.random(num_slits) + 0.05
    weights /= weights.sum()
    return DualityGate(weights, tuple(random_unitary(1 << num_qubits, rng) for _ in range(num_slits)))


# --- weights / branch state ---------------------------------------------------


def test_slit_weights_validation():
    w = as_slit_weights([0.3, 0.7])
    assert np.allclose(w, [0.3, 0.7])
    with pytest.raises(ValueError):
        as_slit_weights([1.0])  # m >= 2
    with pytest.raises(ValueError):
        as_slit_weights([0.6, 0.6])
    with pytest.raises(ValueError):
        as_slit_weights([-0.1, 1.1])
    # a degenerate second slit is allowed
    assert np.allclose(as_slit_weights([1.0, 0.0]), [1, 0])


def test_divide_examples():
    b = divide(basis_state(1, 0), [0.5, 0.5])
    assert [p for p, _ in b.branches] == [0.5, 0.5]
    for _, wave in b.branches:
        assert np.array_equal(wave.amplitudes, [1, 0])

    b = divide(random_state(1, np.random.default_rng(0)), [1.0, 0.0])
    assert [p for p, _ in b.branches] == [1.0, 0.0]

    b = divide(uniform_state(2), [0.3, 0.7])
    assert [p for p, _ in b.branches] == [0.3, 0.7]
    with pytest.raises(ValueError):
        divide(StateVector(1, [0.5, 0.0]), [0.5, 0.5])  # not normalized


def test_branch_state_invariants():
    good = basis_state(1, 0)
    with pytest.raises(ValueError):
        BranchState(((0.5, good), (0.5, StateVector(1, [0.5, 0.0]))))
    with pytest.raises(ValueError):
        BranchState(((0.5, good), (0.5, basis_state(2, 0))))
    with pytest.raises(ValueError):
        BranchState(((0.9, good), (0.9, good)))


def test_apply_per_slit():
    b = divide(basis_state(1, 0), [0.5, 0.5])
    out = apply_per_slit(b, [X, I2])
    assert np.allclose(out.branches[0][1].amplitudes, [0, 1])
    assert np.allclose(out.branches[1][1].amplitudes, [1, 0])
    assert [p for p, _ in out.branches] == [0.5, 0.5]

    same = apply_per_slit(b, [I2, I2])
    for (_, w0), (_, w1) in zip(b.branches, same.branches):
        assert np.array_equal(w0.amplitudes, w1.amplitudes)

    plus = StateVector(1, [SQ2, SQ2])
    out = apply_per_slit(divide(plus, [0.5, 0.5]), [Z, I2])
    assert np.abs(out.branches[0][1].amplitudes - [SQ2, -SQ2]).max() < 1e-15
    assert np.abs(out.branches[1][1].amplitudes - [SQ2, SQ2]).max() < 1e-15

    with pytest.raises(ValueError):
        apply_per_slit(b, [X])  # count mismatch
    with pytest.raises(ValueError):
        apply_per_slit(b, [np.eye(4), np.eye(4)])  # dim mismatch
    with pytest.raises(ValueError):
        apply_per_slit(b, [np.diag([1.0, 0.0]), I2])  # non-unitary entry


def test_combine_examples():
    rng = np.random.default_rng(21)
    # round trip over several weight vectors, no per-slit ops
    for weights in ([0.5, 0.5], [0.3, 0.7], [0.25, 0.25, 0.25, 0.25], [0.9, 0.05, 0.05]):
        psi = random_state(2, rng)
        back = combine(divide(psi, weights))
        assert np.abs(back.amplitudes - psi.amplitudes).max() <= 1e-12

    half = combine(BranchState(((0.5, basis_state(1, 1)), (0.5, basis_state(1, 0)))))
    assert np.allclose(half.amplitudes, [0.5, 0.5])
    assert abs(norm(half) - SQ2) < 1e-15

    plus = StateVector(1, [SQ2, SQ2])
    minus = StateVector(1, [-SQ2, -SQ2])
    zero = combine(BranchState(((0.5, plus), (0.5, minus))))
    assert np.abs(zero.amplitudes).max() == 0.0


def test_apply_duality_gate_examples():
    rng = np.random.default_rng(2)
    psi = random_state(1, rng)
    out = apply_duality_gate(psi, sym2(I2, I2))
    assert np.abs(out.amplitudes - psi.amplitudes).max() <= 1e-15

    out = apply_duality_gate(basis_state(1, 0), sym2(X, I2))
    assert np.allclose(out.amplitudes, [0.5, 0.5])

    out = apply_duality_gate(psi, sym2(Z, -Z))
    assert np.abs(out.amplitudes).max() <= 1e-15


def test_apply_duality_gate_matches_three_step_composition():
    rng = np.random.default_rng(23)
    for m in (2, 3, 4):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            gate = random_gate(m, n, rng)
            psi = random_state(n, rng)
            direct = apply_duality_gate(psi, gate)
            composed = combine(apply_per_slit(divide(psi, gate.weights), gate.unitaries))
            assert np.abs(direct.amplitudes - composed.amplitudes).max() <= 1e-12


def test_duality_gate_contraction():
    rng = np.random.default_rng(29)
    for _ in range(50):
        gate = random_gate(int(rng.integers(2, 5)), int(rng.integers(1, 4)), rng)
        psi = random_state(gate.num_qubits, rng)
        assert norm(apply_duality_gate(psi, gate)) <= 1.0 + 1e-12


def test_duality_gate_validation():
    with pytest.raises(ValueError):
        DualityGate(np.array([0.5, 0.5]), (np.diag([1.0, 0.0]), I2))  # non-unitary
    with pytest.raises(ValueError):
        DualityGate(np.array([0.5, 0.5]), (I2, np.eye(4)))  # mixed dims
    with pytest.raises(ValueError):
        DualityGate(np.array([0.5, 0.5]), (np.eye(3), np.eye(3)))  # not a power of 2
    with pytest.raises(ValueError):
        DualityGate(np.array([0.5, 0.5]), (I2,))  # count mismatch


# --- dilation ------------------------------------------------------------------


def test_build_dilation_symmetric_two_slit_is_hadamard():
    circ = build_dilation(sym2(X, I2))
    assert circ.num_aux_qubits == 1
    assert np.abs(circ.prepare - HAD).max() < 1e-12
    assert np.abs(circ.combine - HAD).max() < 1e-12
    assert np.allclose(circ.effective_coefficients(), [0.5, 0.5])


def test_build_dilation_four_slits():
    gate = DualityGate(np.full(4, 0.25), tuple(random_unitary(2, np.random.default_rng(i)) for i in range(4)))
    circ = build_dilation(gate)
    assert circ.num_aux_qubits == 2
    w = np.asarray(circ.prepare)
    assert np.abs(w.conj().T @ w - np.eye(4)).max() < 1e-12
    assert np.abs(w[:, 0] - 0.5).max() < 1e-12


def test_build_dilation_asymmetric_column():
    circ = build_dilation(DualityGate(np.array([0.64, 0.36]), (I2, I2)))
    assert np.abs(np.asarray(circ.prepare)[:, 0] - [0.8, 0.6]).max() < 1e-12
    w = np.asarray(circ.prepare)
    assert np.abs(w.conj().T @ w - np.eye(2)).max() < 1e-12


def brute_force_dilation(circ, psi):
    """kron(combine, I) . blockdiag(U_0..U_{m-1}, I..I) . kron(prepare, I) on |0>|psi>."""
    eye = np.eye(psi.dim)
    dim_aux = circ.prepare.shape[0]
    slits = list(circ.gate.unitaries) + [eye] * (dim_aux - circ.gate.num_slits)
    full = (np.kron(circ.combine, eye) @ scipy.linalg.block_diag(*slits)
            @ np.kron(circ.prepare, eye))
    return full[:, : psi.dim] @ psi.amplitudes


def test_build_dilation_pads_odd_slit_counts():
    rng = np.random.default_rng(53)
    for m, num_aux in ((3, 2), (5, 3), (7, 3)):
        gate = random_gate(m, 1, rng)
        circ = build_dilation(gate)
        assert circ.gate is gate
        assert circ.num_aux_qubits == num_aux
        assert circ.total_qubits == 1 + num_aux
        coeffs = circ.effective_coefficients()
        assert np.abs(coeffs[:m] - gate.weights).max() < 1e-12
        assert np.array_equal(coeffs[m:], np.zeros((1 << num_aux) - m))
        psi = random_state(1, rng)
        full = run_dilation(psi, circ)
        assert np.abs(full.amplitudes - brute_force_dilation(circ, psi)).max() < 1e-12


def test_dilation_circuit_holds_only_its_gate_and_the_two_stages():
    assert [f.name for f in dataclasses.fields(DilationCircuit)] == ["gate", "prepare", "combine"]
    gate = DualityGate(np.full(3, 1 / 3), (I2, X, Z))
    with pytest.raises(ValueError):
        DilationCircuit(gate, HAD, HAD)  # 2 auxiliary values cannot hold 3 slits
    with pytest.raises(ValueError):
        DilationCircuit(gate, np.eye(3), np.eye(3))  # not a whole register
    with pytest.raises(ValueError):
        DilationCircuit(gate, np.eye(4), np.eye(8))  # stages of different sizes
    with pytest.raises(ValueError):
        DilationCircuit(gate, np.eye(4), np.diag([1.0, 1.0, 1.0, 0.5]))  # not unitary


def test_dilation_circuit_with_any_stages_matches_its_effective_operator():
    # stages that give the padding slots nonzero weight: those slots are the identity
    rng = np.random.default_rng(59)
    gate = random_gate(3, 2, rng)
    circ = DilationCircuit(gate, random_unitary(4, rng), random_unitary(4, rng))
    assert np.abs(circ.effective_coefficients()[3]) > 1e-3
    psi = random_state(2, rng)
    full = run_dilation(psi, circ)
    assert np.abs(full.amplitudes - brute_force_dilation(circ, psi)).max() < 1e-12
    block = aux_zero_block(full, circ.num_aux_qubits)
    assert np.abs(block.amplitudes - circ.effective_operator() @ psi.amplitudes).max() < 1e-12


def test_build_dilation_checks_unitarity_of_its_two_stages_only(monkeypatch):
    # the slits were checked by DualityGate; the circuit checks prepare and combine
    import dualsim.statevec as statevec

    rng = np.random.default_rng(61)
    calls = []

    def counting_is_unitary(op, tol):
        calls.append(np.shape(op))
        return is_unitary(op, tol)

    for m in range(2, 10):
        gate = random_gate(m, 1, rng)
        calls.clear()
        monkeypatch.setattr(statevec, "is_unitary", counting_is_unitary)
        circ = build_dilation(gate)
        monkeypatch.undo()
        dim_aux = 1 << circ.num_aux_qubits
        assert calls == [(dim_aux, dim_aux)] * 2, m


def test_unitary_completion_edge_cases():
    w = unitary_completion([1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(w, np.eye(4))
    with pytest.raises(ValueError):
        unitary_completion([0.5, 0.5])  # not a unit vector


def test_run_dilation_identity_slits():
    phi = random_state(2, np.random.default_rng(4))
    full = run_dilation(phi, build_dilation(sym2(np.eye(4), np.eye(4))))
    want = np.zeros(8, dtype=complex)
    want[:4] = phi.amplitudes
    assert np.abs(full.amplitudes - want).max() < 1e-12


def test_run_dilation_frozen_example():
    # slits (X, I) on |0>: aux0 block (|0>+|1>)/2, aux1 block (|1>-|0>)/2
    full = run_dilation(basis_state(1, 0), build_dilation(sym2(X, I2)))
    assert np.abs(full.amplitudes - [0.5, 0.5, -0.5, 0.5]).max() < 1e-12
    assert abs(norm(full) - 1.0) < 1e-12


def test_dilation_equivalence_property():
    rng = np.random.default_rng(31)
    worst = 0.0
    count = 0
    for m in (2, 3, 4, 5, 7):
        for _ in range(34):
            n = int(rng.integers(1, 5))
            gate = random_gate(m, n, rng)
            psi = random_state(n, rng)
            full = run_dilation(psi, build_dilation(gate))
            direct = apply_duality_gate(psi, gate)
            block = aux_zero_block(full, full.num_qubits - n)
            worst = max(worst, float(np.abs(block.amplitudes - direct.amplitudes).max()))
            assert abs(norm(full) - 1.0) <= 1e-12
            count += 1
    assert count >= 100
    assert worst <= 1e-10


def test_run_dilation_with_custom_combine():
    rng = np.random.default_rng(37)
    gate = random_gate(2, 2, rng)
    comb = random_unitary(2, rng)
    circ = build_dilation(gate, combine_unitary=comb)
    psi = random_state(2, rng)
    full = run_dilation(psi, circ)
    block = aux_zero_block(full, 1)
    want = circ.effective_operator() @ psi.amplitudes
    assert np.abs(block.amplitudes - want).max() <= 1e-10
    coeffs = circ.effective_coefficients()
    assert np.abs(coeffs - np.asarray(comb)[0, :] * np.asarray(circ.prepare)[:, 0]).max() < 1e-15


def test_probability_completeness():
    rng = np.random.default_rng(41)
    for _ in range(20):
        gate = random_gate(int(rng.integers(2, 5)), int(rng.integers(1, 4)), rng)
        full = run_dilation(random_state(gate.num_qubits, rng), build_dilation(gate))
        p_hit = hit_probability(full, full.num_qubits - gate.num_qubits)
        p_miss = float(norm(full) ** 2 - p_hit)
        assert abs(p_hit + p_miss - 1.0) <= 1e-12


# --- conditional measurement -----------------------------------------------------


def test_conditional_measure_sure_hit():
    phi = random_state(2, np.random.default_rng(6))
    full = StateVector(3, np.concatenate([phi.amplitudes, np.zeros(4)]))
    for trial in range(20):
        out = conditional_measure(full, 1, np.random.default_rng(trial))
        assert isinstance(out, Hit)
        assert np.abs(out.post_state.amplitudes - phi.amplitudes).max() < 1e-12


def test_conditional_measure_frozen_miss_state():
    full = run_dilation(basis_state(1, 0), build_dilation(sym2(X, I2)))
    assert abs(hit_probability(full, 1) - 0.5) < 1e-12
    out = conditional_measure(full, 1, FixedRandom([0.99]))
    assert isinstance(out, Miss)
    assert np.abs(out.post_state.amplitudes - [0, 0, -SQ2, SQ2]).max() < 1e-12
    # forcing the other branch gives the normalized aux=0 block
    out = conditional_measure(full, 1, FixedRandom([0.0, 0.5]))
    assert isinstance(out, Hit)
    assert np.abs(out.post_state.amplitudes - [SQ2, SQ2]).max() < 1e-12


def test_conditional_measure_sure_miss():
    full = run_dilation(random_state(1, np.random.default_rng(8)), build_dilation(sym2(Z, -Z)))
    assert hit_probability(full, 1) <= 1e-20
    for trial in range(20):
        out = conditional_measure(full, 1, np.random.default_rng(trial))
        assert isinstance(out, Miss)
        assert np.abs(out.post_state.amplitudes[:2]).max() == 0.0


def test_conditional_measure_hit_reads_marked_index():
    # the 2-qubit search-style state: hit always reads the marked index
    tau = 2
    amps = np.zeros(8, dtype=complex)
    amps[tau] = 0.5
    rest = np.array([i for i in range(4) if i != tau])
    amps[4 + rest] = np.sqrt(0.75 / 3)
    full = StateVector(3, amps)
    hits = 0
    for trial in range(200):
        out = conditional_measure(full, 1, np.random.default_rng(trial))
        if isinstance(out, Hit):
            hits += 1
            assert out.sampled_index == tau
    assert 0 < hits < 200


def test_conditional_measure_degenerate_branch():
    tiny = 1e-16
    amps = np.zeros(4, dtype=complex)
    amps[0] = tiny
    amps[2] = np.sqrt(1 - tiny**2)
    full = StateVector(2, amps)
    with pytest.raises(DegenerateBranchError):
        conditional_measure(full, 1, FixedRandom([0.0]))  # forces the hit branch


def test_conditional_measure_born_sampling():
    # uniform aux=0 block: sampled indices spread over the support
    full = StateVector(2, np.array([SQ2, SQ2, 0, 0], dtype=complex))
    seen = set()
    for trial in range(100):
        out = conditional_measure(full, 1, np.random.default_rng(trial))
        assert isinstance(out, Hit)
        seen.add(out.sampled_index)
    assert seen == {0, 1}


def test_empirical_hit_frequency_matches_analytic():
    full = run_dilation(basis_state(1, 0), build_dilation(sym2(X, I2)))
    p_analytic = hit_probability(full, 1)
    rng = np.random.default_rng(20260809)
    trials = 100_000
    hits = sum(isinstance(conditional_measure(full, 1, rng), Hit) for _ in range(trials))
    sigma = math.sqrt(p_analytic * (1 - p_analytic) / trials)
    assert abs(hits / trials - p_analytic) <= 4 * sigma


def test_unitary_extreme_norm_preservation():
    rng = np.random.default_rng(43)
    # equal slits (the extreme points): norm preserved on every probe
    for _ in range(10):
        u = random_unitary(4, rng)
        gate = DualityGate(np.array([0.3, 0.7]), (u, u))
        for _ in range(5):
            psi = random_state(2, rng)
            assert abs(norm(apply_duality_gate(psi, gate)) - 1.0) <= 1e-12
    # distinct random slits: strictly contractive on the worst probe
    for _ in range(20):
        gate = random_gate(2, 2, rng)
        _, svals, vh = np.linalg.svd(gate.matrix())
        probe = StateVector(2, vh.conj().T[:, -1])
        assert norm(apply_duality_gate(probe, gate)) < 1.0 - 1e-6
