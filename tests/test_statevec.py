import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import controlled_block_matrix, embed_matrix
from dualsim import (
    StateVector,
    apply_operator,
    basis_state,
    controlled_apply,
    format_matrix_text,
    inner_product,
    is_unitary,
    norm,
    parse_matrix_text,
    random_state,
    random_unitary,
    uniform_state,
)
from dualsim import statevec
from dualsim.statevec import checked_unitary, format_complex_literal

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = (X + Z) / np.sqrt(2)

SQ2 = 1.0 / np.sqrt(2)


def test_basis_state_examples():
    assert np.array_equal(basis_state(1, 0).amplitudes, [1, 0])
    assert np.array_equal(basis_state(2, 3).amplitudes, [0, 0, 0, 1])
    # empty register edge case: a single scalar amplitude
    assert np.array_equal(basis_state(0, 0).amplitudes, [1])


def test_basis_state_index_out_of_range():
    with pytest.raises(ValueError):
        basis_state(2, 4)
    with pytest.raises(ValueError):
        basis_state(1, -1)


def test_uniform_state_examples():
    assert np.allclose(uniform_state(1).amplitudes, [SQ2, SQ2])
    assert np.allclose(uniform_state(2).amplitudes, [0.5] * 4)
    st = uniform_state(4)
    assert np.allclose(st.amplitudes, [0.25] * 16)
    # independent norm computation
    assert abs(sum(abs(a) ** 2 for a in st.amplitudes) - 1.0) < 1e-14


def test_statevector_validation():
    with pytest.raises(ValueError):
        StateVector(1, [1.0])  # wrong length
    with pytest.raises(ValueError):
        StateVector(-1, [1.0])
    with pytest.raises(ValueError):
        StateVector(0, [np.nan])
    st = basis_state(1, 0)
    with pytest.raises(ValueError):
        st.amplitudes[0] = 2.0  # read-only buffer


def test_apply_operator_examples():
    assert np.allclose(apply_operator(basis_state(1, 0), X, [0]).amplitudes, [0, 1])
    # projector shrinks the norm and nothing renormalizes it
    proj = np.diag([1.0, 0.0])
    out = apply_operator(uniform_state(1), proj, [0])
    assert np.allclose(out.amplitudes, [SQ2, 0])
    assert abs(norm(out) - SQ2) < 1e-14
    psi = random_state(3, np.random.default_rng(1))
    same = apply_operator(psi, np.eye(8), [0, 1, 2])
    assert np.array_equal(same.amplitudes, psi.amplitudes)


def test_apply_operator_errors():
    st = basis_state(2, 0)
    with pytest.raises(ValueError):
        apply_operator(st, X, [0, 1])  # dim mismatch
    with pytest.raises(ValueError):
        apply_operator(st, np.eye(4), [0, 0])  # duplicate targets
    with pytest.raises(ValueError):
        apply_operator(st, X, [2])  # out of range
    with pytest.raises(ValueError):
        apply_operator(st, np.ones((2, 3)), [0])  # not square


def test_apply_operator_matches_bruteforce_embedding():
    rng = np.random.default_rng(42)
    for n in range(1, 5):
        for _ in range(8):
            k = int(rng.integers(1, min(n, 3) + 1))
            targets = list(rng.permutation(n)[:k])
            op = rng.standard_normal((1 << k, 1 << k)) + 1j * rng.standard_normal((1 << k, 1 << k))
            psi = random_state(n, rng)
            got = apply_operator(psi, op, targets).amplitudes
            want = embed_matrix(op, targets, n) @ psi.amplitudes
            assert np.abs(got - want).max() < 1e-12


def test_unitary_preserves_norm_up_to_10_qubits():
    rng = np.random.default_rng(7)
    for n in range(1, 11):
        psi = random_state(n, rng)
        k = int(rng.integers(1, min(n, 3) + 1))
        targets = list(rng.permutation(n)[:k])
        out = apply_operator(psi, random_unitary(1 << k, rng), targets)
        assert abs(norm(out) - 1.0) <= 1e-12


def test_apply_operator_is_linear():
    rng = np.random.default_rng(11)
    op = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a, b = 0.3 - 0.2j, -1.1 + 0.7j
    psi = random_state(3, rng)
    chi = random_state(3, rng)
    mixed = StateVector(3, a * psi.amplitudes + b * chi.amplitudes)
    got = apply_operator(mixed, op, [2, 0]).amplitudes
    want = (a * apply_operator(psi, op, [2, 0]).amplitudes
            + b * apply_operator(chi, op, [2, 0]).amplitudes)
    assert np.abs(got - want).max() <= 1e-12


def test_controlled_apply_cnot_truth_table():
    out = controlled_apply(basis_state(2, 2), X, [0], control=1, control_value=1)
    assert np.allclose(out.amplitudes, basis_state(2, 3).amplitudes)
    # control not satisfied: |10> unchanged under a 0-controlled X? control=1 reads 1
    out = controlled_apply(basis_state(2, 2), X, [0], control=1, control_value=0)
    assert np.allclose(out.amplitudes, basis_state(2, 2).amplitudes)


def test_controlled_apply_two_slit_shape():
    # (|phi>|0> + |phi>|1>)/sqrt2 with a 0-controlled U0 -> (U0|phi>|0> + |phi>|1>)/sqrt2
    rng = np.random.default_rng(3)
    u0 = random_unitary(2, rng)
    phi = random_state(1, rng)
    full = np.concatenate([phi.amplitudes, phi.amplitudes]) * SQ2
    out = controlled_apply(StateVector(2, full), u0, [0], control=1, control_value=0)
    want = np.concatenate([u0 @ phi.amplitudes, phi.amplitudes]) * SQ2
    assert np.abs(out.amplitudes - want).max() < 1e-12


def test_controlled_apply_matches_block_matrix():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        qubits = list(rng.permutation(n))
        control = qubits[0]
        k = int(rng.integers(1, min(n - 1, 2) + 1))
        targets = qubits[1:1 + k]
        value = int(rng.integers(0, 2))
        op = random_unitary(1 << k, rng)
        psi = random_state(n, rng)
        got = controlled_apply(psi, op, targets, control=control, control_value=value).amplitudes
        block = controlled_block_matrix(op, targets, control, value, n)
        assert np.abs(got - block @ psi.amplitudes).max() < 1e-12


def test_controlled_apply_errors():
    st = basis_state(2, 0)
    with pytest.raises(ValueError):
        controlled_apply(st, X, [1], control=1, control_value=1)  # overlap
    with pytest.raises(ValueError):
        controlled_apply(st, np.ones((2, 3)), [0], control=1, control_value=1)
    with pytest.raises(ValueError):
        controlled_apply(st, X, [0], control=1, control_value=2)


def test_norm_and_inner_product():
    assert abs(norm(uniform_state(1)) - 1.0) < 1e-14
    assert inner_product(basis_state(1, 0), basis_state(1, 1)) == 0
    out = apply_operator(basis_state(1, 1), (X + np.eye(2)) / 2, [0])
    assert abs(norm(out) - SQ2) < 1e-14
    # conjugate-linear in the first argument
    a = StateVector(0, [1j])
    b = StateVector(0, [1.0])
    assert inner_product(a, b) == -1j
    with pytest.raises(ValueError):
        inner_product(basis_state(1, 0), basis_state(2, 0))


def test_basis_states_orthonormal():
    states = [basis_state(2, i) for i in range(4)]
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            assert abs(inner_product(a, b) - (1.0 if i == j else 0.0)) < 1e-15


def test_is_unitary():
    assert is_unitary(np.eye(3))
    assert not is_unitary(np.diag([1.0, 0.0]))
    # explicit 2x2 product for the Hadamard
    prod = H.conj().T @ H
    assert np.abs(prod - np.eye(2)).max() < 1e-15
    assert is_unitary(H)
    rng = np.random.default_rng(9)
    assert is_unitary(random_unitary(8, rng))
    assert not is_unitary(1.0000001 * random_unitary(4, rng), tol=1e-10)
    # past the first block of Gram rows: a deviation in any block counts
    big = random_unitary(600, rng)
    assert is_unitary(big)
    for row, col in ((590, 590), (300, 10), (5, 599)):
        off = big.copy()
        off[:, col] += 1e-9 * off[:, row]  # perturbs (op† op)[row, col] and [col, row]
        assert not is_unitary(off), (row, col)
        gram = off.conj().T @ off - np.eye(600)
        assert 1e-10 < np.abs(gram).max() < 1e-8


def test_matrix_text_round_trip():
    rng = np.random.default_rng(13)
    mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    mat[0, 1] = 2.5  # exercise the pure-real branch
    mat[1, 2] = 1.5e-3 + 2e4j
    again = parse_matrix_text(format_matrix_text(mat))
    assert np.array_equal(again, mat)


def test_matrix_text_keeps_a_negative_zero_imaginary_part():
    # 1-0j with a signed zero: the literal 1-0j itself evaluates to 1+0j
    mat = np.array([[complex(1.0, -0.0), 0], [0, 1]])
    text = format_matrix_text(mat)
    assert text.splitlines()[1] == "1.0-0.0i 0.0"
    again = parse_matrix_text(text)
    assert math.copysign(1.0, again[0, 0].imag) == -1.0
    assert again.tobytes() == mat.tobytes()


_SIGNED_ZERO_OR_FINITE = st.one_of(st.sampled_from([0.0, -0.0]),
                                   st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda d: st.lists(st.tuples(_SIGNED_ZERO_OR_FINITE, _SIGNED_ZERO_OR_FINITE),
                       min_size=d * d, max_size=d * d)))
def test_matrix_text_round_trip_is_bit_exact(entries):
    dim = math.isqrt(len(entries))
    mat = np.array([complex(re, im) for re, im in entries]).reshape(dim, dim)
    assert parse_matrix_text(format_matrix_text(mat)).tobytes() == mat.tobytes()


_EXTREME = st.one_of(_SIGNED_ZERO_OR_FINITE,
                    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308,
                                     1.7976931348623157e308, -1.7976931348623157e308,
                                     1e16, 1e-5, 123456789012345680.0]))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda d: st.lists(st.tuples(_EXTREME, _EXTREME), min_size=d * d, max_size=d * d)))
def test_matrix_text_reads_as_the_per_entry_literals(entries):
    # the row-at-a-time formatter writes every entry as format_complex_literal does
    dim = math.isqrt(len(entries))
    mat = np.array([complex(re, im) for re, im in entries]).reshape(dim, dim)
    rows = [" ".join(format_complex_literal(z) for z in row) for row in mat]
    assert format_matrix_text(mat) == "\n".join([str(dim)] + rows) + "\n"



@pytest.mark.parametrize("block_entries, dim", [(statevec._FORMAT_BLOCK_ENTRIES, 300), (20, 7), (1, 3)])
def test_matrix_text_in_several_row_blocks(monkeypatch, block_entries, dim):
    # 300 rows go in blocks of 54, the last one 30 rows long; 7 rows in blocks
    # of 2, the last one 1 row; and a block smaller than a row still holds one
    monkeypatch.setattr(statevec, "_FORMAT_BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(dim)
    pool = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16,
            1.7976931348623157e308, 1e-5, 123456789012345680.0]
    parts = np.where(rng.random((2, dim, dim)) < 0.5, rng.choice(pool, (2, dim, dim)),
                     rng.standard_normal((2, dim, dim)))
    mat = np.empty((dim, dim), dtype=np.complex128)
    mat.real, mat.imag = parts  # no arithmetic, so every signed zero stays as drawn
    text = format_matrix_text(mat)
    rows = [" ".join(format_complex_literal(z) for z in row) for row in mat]
    assert text == "\n".join([str(dim)] + rows) + "\n"
    assert parse_matrix_text(text).tobytes() == mat.tobytes()

def test_checked_unitary_returns_a_frozen_copy_or_names_the_operator():
    h = H.real.tolist()  # a real nested list: coerced to complex128
    u = checked_unitary(h, "test operator")
    assert u.dtype == np.complex128 and not u.flags.writeable
    assert np.array_equal(u, H)
    src = H.copy()
    assert not np.shares_memory(checked_unitary(src, "test operator"), src)
    with pytest.raises(ValueError, match=r"^test operator is not unitary within 1e-10$"):
        checked_unitary(2 * H, "test operator")
    with pytest.raises(ValueError, match="square"):
        checked_unitary(np.ones((2, 3)), "test operator")


def test_each_unitarity_check_names_its_operator():
    from dualsim import (Custom, DilationCircuit, DualityGate, ExactUnitary,
                         LcuDecomposition, apply_per_slit, divide)

    bad = 2 * H
    half = np.array([0.5, 0.5])
    tail = " is not unitary within 1e-10$"
    with pytest.raises(ValueError, match="^slit operator 1" + tail):
        DualityGate(half, (H, bad))
    with pytest.raises(ValueError, match="^slit operator 0" + tail):
        apply_per_slit(divide(basis_state(1, 0), half), (bad, np.eye(4)))
    gate = DualityGate(half, (H, X))
    with pytest.raises(ValueError, match="^prepare operator" + tail):
        DilationCircuit(gate, bad, H)
    with pytest.raises(ValueError, match="^combine operator" + tail):
        DilationCircuit(gate, H, bad)
    with pytest.raises(ValueError, match="combine operator has dim 4"):
        DilationCircuit(gate, bad, np.eye(4))  # sizes are checked before unitarity
    for strategy in (ExactUnitary, Custom):
        with pytest.raises(ValueError, match="^recovery operator" + tail):
            strategy(bad)
    with pytest.raises(ValueError, match="^factor 1" + tail):
        LcuDecomposition(1.0, half, (H, bad), 0.0)


def test_matrix_text_parsing():
    mat = parse_matrix_text("# comment\n2\n1 0\n0.5-0.5i 1e-3+2.0i\n")
    assert mat[0, 0] == 1 and mat[1, 0] == 0.5 - 0.5j and mat[1, 1] == 1e-3 + 2j
    with pytest.raises(ValueError):
        parse_matrix_text("2\n1 0\n")  # missing row
    with pytest.raises(ValueError):
        parse_matrix_text("2\n1 0\n0 1+j\n")  # bad literal
    with pytest.raises(ValueError):
        parse_matrix_text("x\n1\n")
    with pytest.raises(ValueError):
        parse_matrix_text("")
