import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_normal_matrix, unit_disc_matrix
from dualsim import (
    DualityGate,
    GateClass,
    LcuDecomposition,
    NotNormalError,
    check_normal,
    classify_duality_gate,
    is_unitary,
    lcu_decompose,
    normal_decompose,
    random_unitary,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
SHIFT = np.array([[0, 1], [0, 0]], dtype=complex)


def test_check_normal():
    rng = np.random.default_rng(0)
    assert check_normal(random_unitary(4, rng))
    assert not check_normal(SHIFT)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = h + h.conj().T
    assert check_normal(h)
    # the bound scales with the matrix, not its absolute size
    assert check_normal(1e6 * h)


def test_lcu_decompose_identity():
    dec = lcu_decompose(I2)
    assert dec.residual <= 1e-12
    assert abs(dec.alpha - 2.0) < 1e-12
    assert np.abs(dec.reconstruct() - I2).max() <= 1e-12


def test_lcu_decompose_diag_two_zero():
    a = np.diag([2.0, 0.0]).astype(complex)
    # independent two-term witness: diag(2, 0) = I + Z
    assert np.array_equal(I2 + Z, a)
    dec = lcu_decompose(a)
    assert dec.residual <= 1e-9
    assert len(dec.unitaries) == 4
    assert np.abs(dec.reconstruct() - a).max() <= 1e-9


def test_lcu_decompose_nilpotent_shift():
    dec = lcu_decompose(SHIFT)
    assert dec.residual <= 1e-9
    for u in dec.unitaries:
        assert is_unitary(u, 1e-10)
    assert np.abs(dec.reconstruct() - SHIFT).max() <= 1e-9


def test_lcu_decompose_zero_matrix():
    dec = lcu_decompose(np.zeros((4, 4)))
    assert dec.alpha == 0.0
    assert np.allclose(dec.weights, 0.25)
    assert np.abs(dec.reconstruct()).max() == 0.0


def test_lcu_round_trip_random():
    rng = np.random.default_rng(17)
    count = 0
    for dim in (2, 4, 8):
        for _ in range(17):
            a = unit_disc_matrix(dim, rng)
            dec = lcu_decompose(a)
            assert np.abs(dec.reconstruct() - a).max() <= 1e-9
            assert np.allclose(dec.weights, 0.25)
            for u in dec.unitaries:
                assert is_unitary(u, 1e-10)
            count += 1
    assert count >= 50


def assert_witness(dec, a):
    """Unitary factors, and the reported residual is the true one and within
    1e-9 * max(1, alpha)."""
    assert all(is_unitary(u) for u in dec.unitaries)
    assert dec.residual == np.abs(dec.reconstruct() - a).max()
    assert dec.residual <= 1e-9 * max(1.0, dec.alpha)


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(1, 8), rank=st.integers(0, 8), log_scale=st.floats(-6, 6),
       seed=st.integers(0, 2**32 - 1))
def test_lcu_decompose_residual_on_random_inputs(dim, rank, log_scale, seed):
    rng = np.random.default_rng(seed)
    rank = min(rank, dim)
    left = rng.standard_normal((dim, rank, 2)) @ [1, 1j]
    right = rng.standard_normal((rank, dim, 2)) @ [1, 1j]
    a = 10.0**log_scale * (left @ right)  # Gaussian of the given rank; the zero matrix at rank 0
    dec = lcu_decompose(a)
    assert len(dec.unitaries) == 4
    assert_witness(dec, a)


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(1, 8), distinct=st.integers(1, 8), log_scale=st.floats(-3, 3),
       seed=st.integers(0, 2**32 - 1))
def test_normal_decompose_residual_on_random_normal_inputs(dim, distinct, log_scale, seed):
    # Q diag(lambda) Q† with at most ``distinct`` eigenvalues, so repeated ones are common
    rng = np.random.default_rng(seed)
    values = 10.0**log_scale * (rng.standard_normal((distinct, 2)) @ [1, 1j])
    lam = values[rng.integers(0, distinct, dim)]
    q = random_unitary(dim, rng)
    a = (q * lam) @ q.conj().T
    dec = normal_decompose(a)
    u1, u2 = dec.unitaries
    assert np.abs(u1 @ u2 - u2 @ u1).max() <= 1e-9
    assert_witness(dec, a)


def test_normal_decompose_unitary_input_is_its_own_witness():
    dec = normal_decompose(Z)
    assert abs(dec.alpha - 1.0) < 1e-12
    assert np.abs(dec.unitaries[0] - Z).max() <= 1e-9
    assert np.abs(dec.unitaries[1] - Z).max() <= 1e-9
    assert dec.residual <= 1e-12


def test_normal_decompose_frozen_eigenphases():
    a = np.diag([1.0, 0.5]).astype(complex)
    dec = normal_decompose(a)
    assert abs(dec.alpha - 1.0) < 1e-12
    # second eigenvalue splits at arccos(1/2) = pi/3
    want1 = np.diag([1.0, np.exp(1j * np.pi / 3)])
    want2 = np.diag([1.0, np.exp(-1j * np.pi / 3)])
    assert np.abs(dec.unitaries[0] - want1).max() <= 1e-9
    assert np.abs(dec.unitaries[1] - want2).max() <= 1e-9
    assert np.abs(dec.reconstruct() - a).max() <= 1e-12


def test_normal_decompose_rejects_non_normal():
    with pytest.raises(NotNormalError):
        normal_decompose(SHIFT)


def test_normal_decompose_zero_matrix():
    dec = normal_decompose(np.zeros((3, 3)))
    assert dec.alpha == 0.0
    assert np.abs(dec.reconstruct()).max() == 0.0


def test_normal_decompose_random_normals():
    rng = np.random.default_rng(19)
    for _ in range(50):
        dim = int(rng.choice([2, 3, 4, 8]))
        a = random_normal_matrix(dim, rng)
        dec = normal_decompose(a)
        u1, u2 = dec.unitaries
        assert np.abs(dec.reconstruct() - a).max() <= 1e-9
        assert np.abs(u1 @ u2 - u2 @ u1).max() <= 1e-9
        assert is_unitary(u1, 1e-10) and is_unitary(u2, 1e-10)
        # the reconstruction itself passes the normality test
        assert check_normal(dec.reconstruct())


def test_normal_decompose_reports_the_residual_of_a_nilpotent_input():
    # commutator 1e-12 passes the normality test, but both eigenvalues are 0
    a = np.array([[0, 1e-6], [0, 0]], dtype=complex)
    assert check_normal(a)
    dec = normal_decompose(a)
    assert dec.alpha == 0.0
    assert dec.residual == 1e-6
    assert dec.residual == np.abs(dec.reconstruct() - a).max()


def _cube_roots_repeated(rng):
    lam = np.repeat(np.exp(2j * np.pi * np.arange(3) / 3), [6, 5, 5])
    q = random_unitary(16, rng)
    return (q * lam) @ q.conj().T


def _repeated_eigenvalue_inputs():
    rng = np.random.default_rng(37)
    q = random_unitary(3, rng)
    yield np.eye(4, dtype=complex)
    yield (q * np.array([1.0, 1.0, 0.5])) @ q.conj().T
    yield np.kron(I2, X)
    yield np.roll(np.eye(8, dtype=complex), 1, axis=0)  # 8-cycle shift
    yield _cube_roots_repeated(rng)


@pytest.mark.parametrize("a", list(_repeated_eigenvalue_inputs()),
                         ids=["I4", "Q diag(1,1,0.5) Q+", "kron(I2,X)", "8-cycle", "cube roots"])
def test_normal_decompose_repeated_eigenvalues(a):
    dec = normal_decompose(a)
    u1, u2 = dec.unitaries
    assert is_unitary(u1, 1e-10) and is_unitary(u2, 1e-10)
    assert np.abs(u1 @ u2 - u2 @ u1).max() <= 1e-9
    assert dec.residual <= 1e-9 * max(1.0, dec.alpha)
    assert dec.residual == np.abs(dec.reconstruct() - a).max()


def test_normal_decompose_near_defective_input():
    # [[1, eps], [0, 1]]: commutator eps**2 passes the normality test
    a = np.array([[1, 1e-6], [0, 1]], dtype=complex)
    assert check_normal(a)
    dec = normal_decompose(a)
    u1, u2 = dec.unitaries
    assert is_unitary(u1, 1e-10) and is_unitary(u2, 1e-10)
    assert np.abs(u1 @ u2 - u2 @ u1).max() <= 1e-9
    assert dec.residual == np.abs(dec.reconstruct() - a).max()
    assert 0.5e-6 <= dec.residual <= 2e-6


def test_normal_decompose_deterministic():
    rng = np.random.default_rng(23)
    a = random_normal_matrix(4, rng)
    d1 = normal_decompose(a)
    d2 = normal_decompose(a)
    assert np.array_equal(d1.unitaries[0], d2.unitaries[0])
    assert np.array_equal(d1.unitaries[1], d2.unitaries[1])


def test_lcu_decomposition_validation():
    with pytest.raises(ValueError):
        LcuDecomposition(-1.0, np.array([0.5, 0.5]), (I2, I2), 0.0)
    with pytest.raises(ValueError):
        LcuDecomposition(1.0, np.array([0.5, 0.5]), (I2, np.diag([1.0, 0.0])), 0.0)


def test_classify_duality_gate():
    assert classify_duality_gate(DualityGate(np.array([0.5, 0.5]), (I2, I2))) is GateClass.UNITARY
    gate = DualityGate(np.array([0.5, 0.5]), (X, I2))
    # explicit product check: ((X+I)/2)†((X+I)/2) = (I+X)/2 != I
    m = gate.matrix()
    assert np.abs(m.conj().T @ m - (I2 + X) / 2).max() < 1e-15
    assert classify_duality_gate(gate) is GateClass.STRICTLY_CONTRACTIVE

    rng = np.random.default_rng(29)
    for _ in range(10):
        u = random_unitary(4, rng)
        gate = DualityGate(np.array([0.5, 0.5]), (u, u))
        assert classify_duality_gate(gate) is GateClass.UNITARY


def test_classify_random_distinct_gates_mostly_contractive():
    rng = np.random.default_rng(31)
    contractive = 0
    total = 100
    for _ in range(total):
        gate = DualityGate(np.array([0.5, 0.5]),
                           (random_unitary(4, rng), random_unitary(4, rng)))
        if classify_duality_gate(gate) is GateClass.STRICTLY_CONTRACTIVE:
            contractive += 1
    assert contractive >= 99
