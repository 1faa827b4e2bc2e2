import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualsim import (
    CircuitSpec,
    CircuitSyntaxError,
    GateSequence,
    Hit,
    Miss,
    basis_state,
    is_unitary,
    norm,
    parse_circuit,
    run_circuit,
    serialize_circuit,
    uniform_state,
)
from dualsim.circuit import DualityInstr, GateInstr, InitInstr, _apply_gate, duality_gate_of

SQ2 = 1.0 / np.sqrt(2)

FIG_STYLE = """\
# two-slit block: x on the upper slit, nothing on the lower
qubits 1
init basis 0
duality 2
weights 0.5 0.5
slit 0
x 0
slit 1
endduality
cmeasure
"""


def test_parse_minimal_circuit():
    spec = parse_circuit("qubits 1\ninit basis 0\nh 0\n")
    assert spec.num_qubits == 1
    assert spec.instructions == (InitInstr("basis", 0), GateInstr("h", (0,)))


def test_parse_duality_block():
    spec = parse_circuit(FIG_STYLE)
    assert len(spec.instructions) == 2
    block = spec.instructions[1]
    assert isinstance(block, DualityInstr)
    assert block.weights == (0.5, 0.5)
    assert block.slit_gates == ((GateInstr("x", (0,)),), ())
    assert block.measured


def test_parse_errors_carry_line_numbers():
    cases = [
        ("qubits 1\nweights 0.6 0.6\n", "line 2"),
        ("qubits 1\nh 5\n", "line 2"),
        ("qubits 1\nfrobnicate 0\n", "line 2"),
        ("h 0\n", "line 1"),
        ("qubits 1\nduality 2\nweights 0.6 0.6\nendduality\n", "weight-sum"),
        ("qubits 1\nduality 2\nweights 0.5 0.5\nslit 2\nendduality\n", "slit index 2"),
        ("qubits 1\nduality 2\nweights 0.5 0.5\nslit 0\nslit 0\nendduality\n", "duplicate slit"),
        ("qubits 1\nduality 2\nweights 0.5 0.5\n", "unterminated"),
        ("qubits 1\nduality 2\nslit 0\n", "before the weights"),
        ("qubits 1\nduality 2\nweights 0.5 0.5\nx 0\nendduality\n", "outside a slit"),
        ("qubits 1\ncmeasure\n", "must directly follow"),
        ("qubits 1\nduality 2\nweights 0.5 0.5\nendduality\ncmeasure\nh 0\n", "final instruction"),
        ("qubits 1\nduality 2\nweights 0.5 0.5\nduality 2\n", "nest"),
        ("qubits 1\noracle 2\n", "out of range"),
        ("qubits 2\ncx 1 1\n", "must differ"),
        ("qubits 1\ninit basis 2\n", "out of range"),
        ("qubits 1\nqubits 1\n", "duplicate qubits"),
    ]
    for text, needle in cases:
        with pytest.raises(CircuitSyntaxError) as err:
            parse_circuit(text)
        assert needle in str(err.value), f"{needle!r} not in {err.value}"


def test_serialize_round_trip():
    texts = [
        "qubits 2\ninit uniform\nh 0\ncx 0 1\noracle 1 3\ndiffusion\n",
        FIG_STYLE,
        "qubits 2\nduality 3\nweights 0.5 0.25 0.25\nslit 1\nz 0\nx 1\nslit 0\nendduality\n",
        "qubits 1\ninit basis 0\ns 0\nt 0\ny 0\n",
    ]
    for text in texts:
        spec = parse_circuit(text)
        again = parse_circuit(serialize_circuit(spec))
        assert again == spec
        # serialization is a fixed point
        assert serialize_circuit(again) == serialize_circuit(spec)


@st.composite
def circuit_specs(draw):
    """Specs over every instruction kind: init, each gate, duality blocks
    (empty slits included) and an optional final measured block."""
    n = draw(st.integers(1, 4))
    size = 1 << n
    qubit = st.integers(0, n - 1)
    gate_kinds = [
        st.builds(lambda name, q: GateInstr(name, (q,)), st.sampled_from("hxyzst"), qubit),
        st.lists(st.integers(0, size - 1), min_size=1, max_size=4, unique=True)
        .map(lambda ix: GateInstr("oracle", tuple(ix))),
        st.just(GateInstr("diffusion", ())),
    ]
    if n > 1:
        gate_kinds.append(st.lists(qubit, min_size=2, max_size=2, unique=True)
                          .map(lambda qs: GateInstr("cx", tuple(qs))))
    gate = st.one_of(gate_kinds)

    @st.composite
    def block(draw, measured):
        parts = draw(st.lists(st.integers(0, 1000), min_size=2, max_size=4)
                     .filter(lambda ks: sum(ks) > 0))
        weights = tuple(k / sum(parts) for k in parts)
        slits = tuple(tuple(draw(st.lists(gate, max_size=3))) for _ in parts)
        return DualityInstr(weights, slits, measured)

    init = st.one_of(st.just(InitInstr("uniform")),
                     st.integers(0, size - 1).map(lambda k: InitInstr("basis", k)))
    body = draw(st.lists(st.one_of(init, gate, block(False)), max_size=6))
    if draw(st.booleans()):
        body.append(draw(block(True)))
    return CircuitSpec(n, tuple(body))


@settings(max_examples=150, deadline=None)
@given(spec=circuit_specs())
def test_parse_inverts_serialize_on_generated_specs(spec):
    text = serialize_circuit(spec)
    assert parse_circuit(text) == spec
    assert serialize_circuit(parse_circuit(text)) == text


def test_run_plain_gates():
    res = run_circuit(parse_circuit("qubits 1\nh 0\n"))
    assert np.abs(res.state.amplitudes - [SQ2, SQ2]).max() < 1e-12
    assert res.outcome is None
    res = run_circuit(parse_circuit("qubits 2\nx 0\ncx 0 1\n"))
    assert np.allclose(res.state.amplitudes, basis_state(2, 3).amplitudes)


def test_run_oracle_and_diffusion():
    res = run_circuit(parse_circuit("qubits 2\ninit uniform\noracle 2\n"))
    assert np.allclose(res.state.amplitudes, [-0.5, -0.5, 0.5, -0.5])
    # oracle/diffusion pair amplifies like a (sign-flipped) amplification round
    res = run_circuit(parse_circuit("qubits 2\ninit uniform\noracle 2\ndiffusion\n"))
    assert abs(abs(res.state.amplitudes[2]) - 1.0) <= 1e-12
    assert np.abs(res.state.amplitudes[[0, 1, 3]]).max() <= 1e-12


def test_run_bare_duality_block_leaves_norm_alone():
    text = "qubits 1\ninit basis 0\nduality 2\nweights 0.5 0.5\nslit 0\nx 0\nslit 1\nendduality\n"
    res = run_circuit(parse_circuit(text))
    assert np.abs(res.state.amplitudes - [0.5, 0.5]).max() < 1e-12
    assert abs(norm(res.state) - SQ2) < 1e-12
    assert res.outcome is None


def test_consecutive_bare_duality_blocks_apply_the_map_to_an_unnormalized_state():
    block = "duality 2\nweights 0.5 0.5\nslit 0\nx 0\nslit 1\nendduality\n"
    res = run_circuit(parse_circuit("qubits 1\ninit basis 0\n" + 2 * block))
    # (X + I)/2 maps |0> to (|0> + |1>)/2, which it leaves unchanged
    assert np.array_equal(res.state.amplitudes, [0.5, 0.5])
    assert f"{norm(res.state):.17g}" == "0.70710678118654757"
    with pytest.raises(ValueError, match="normalized"):
        run_circuit(parse_circuit("qubits 1\ninit basis 0\n" + 2 * block + "cmeasure\n"),
                    rng=np.random.default_rng(0))


def test_run_measured_duality_block():
    spec = parse_circuit(FIG_STYLE)
    saw = set()
    for seed in range(30):
        res = run_circuit(spec, rng=np.random.default_rng(seed))
        assert res.outcome is not None
        if isinstance(res.outcome, Hit):
            assert res.state.num_qubits == 1
            assert np.abs(res.state.amplitudes - [SQ2, SQ2]).max() < 1e-12
            saw.add("hit")
        else:
            assert isinstance(res.outcome, Miss)
            assert res.state.num_qubits == 2
            assert np.abs(res.state.amplitudes - [0, 0, -SQ2, SQ2]).max() < 1e-12
            saw.add("miss")
    assert saw == {"hit", "miss"}
    with pytest.raises(ValueError):
        run_circuit(spec)  # cmeasure without an rng


def test_measured_block_reproducible():
    spec = parse_circuit(FIG_STYLE)
    a = run_circuit(spec, rng=np.random.default_rng(123))
    b = run_circuit(spec, rng=np.random.default_rng(123))
    assert type(a.outcome) is type(b.outcome)
    assert np.array_equal(a.state.amplitudes, b.state.amplitudes)


def test_three_slit_circuit_matches_direct_sum():
    text = ("qubits 1\ninit uniform\n"
            "duality 3\nweights 0.5 0.25 0.25\nslit 0\nz 0\nslit 1\nx 0\nslit 2\nendduality\n")
    res = run_circuit(parse_circuit(text))
    z = np.diag([1, -1]).astype(complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    m = 0.5 * z + 0.25 * x + 0.25 * np.eye(2)
    want = m @ uniform_state(1).amplitudes
    assert np.abs(res.state.amplitudes - want).max() <= 1e-12


def column_by_column(gates, num_qubits):
    """Reference: a slit's gate lines composed into an explicit matrix, one
    basis column at a time."""
    dim = 1 << num_qubits
    mat = np.empty((dim, dim), dtype=np.complex128)
    for c in range(dim):
        state = basis_state(num_qubits, c)
        for g in gates:
            state = _apply_gate(state, g)
        mat[:, c] = state.amplitudes
    return mat


GATE_LINES = st.one_of(
    st.tuples(st.sampled_from("hxyzst"), st.integers(0, 3)).map(lambda t: (t[0], (t[1],))),
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda t: t[0] != t[1])
    .map(lambda t: ("cx", t)),
    st.sets(st.integers(0, 15), min_size=1, max_size=3).map(lambda s: ("oracle", tuple(sorted(s)))),
    st.just(("diffusion", ())),
)


@settings(max_examples=80, deadline=None)
@given(lines=st.lists(GATE_LINES, max_size=8), n=st.integers(1, 4))
def test_gate_sequence_dense_matches_the_column_by_column_matrix(lines, n):
    gates = [GateInstr(name, args) for name, args in lines
             if all(0 <= a < (1 << n if name == "oracle" else n) for a in args)]
    seq = GateSequence(gates, n)
    mat = seq.dense()
    assert is_unitary(mat)
    assert mat.tobytes() == column_by_column(gates, n).tobytes()
    psi = np.random.default_rng(len(gates)).standard_normal((1 << n, 2)) @ [1, 1j]
    assert np.abs(seq @ psi - mat @ psi).max() <= 1e-14


def test_duality_blocks_run_past_ten_work_qubits():
    # 12 work qubits: the slits are gate sequences, never explicit matrices
    n = 12
    slit0 = "h 0\ncx 0 11\nt 11\n"
    slit1 = "x 5\ns 0\n"
    block = f"duality 2\nweights 0.25 0.75\nslit 0\n{slit0}slit 1\n{slit1}endduality\n"
    spec = parse_circuit(f"qubits {n}\ninit uniform\nh 3\n" + block)
    assert all(isinstance(u, GateSequence) for u in duality_gate_of(spec.instructions[-1], n).unitaries)
    got = run_circuit(spec).state.amplitudes
    ways = [run_circuit(parse_circuit(f"qubits {n}\ninit uniform\nh 3\n" + s)).state.amplitudes
            for s in (slit0, slit1)]
    assert np.abs(got - (0.25 * ways[0] + 0.75 * ways[1])).max() <= 1e-15
    res = run_circuit(parse_circuit(f"qubits {n}\ninit uniform\nh 3\n" + block + "cmeasure\n"),
                      rng=np.random.default_rng(5))
    assert res.state.num_qubits in (n, n + 1)
    assert abs(norm(res.state) - 1.0) <= 1e-12
