"""Line-oriented circuit text format: parser, serializer, and runner.

Grammar (one instruction per line; '#' starts a comment; blank lines are
ignored):

    qubits <n>                 first instruction: work-register size
    init uniform               reset to the evenly distributed state
    init basis <k>             reset to basis state |k>
    h|x|y|z|s|t <q>            single-qubit gates
    cx <control> <target>
    oracle <i1> [i2 ...]       diagonal: +1 on the listed basis indices, -1 elsewhere
    diffusion                  inversion about the mean, 2|s><s| - I
    duality <m>                open an m-slit block (m >= 2)
    weights <p1> ... <pm>      required once per block, before any slit
    slit <i>                   gate lines that follow attach to slit i
    endduality                 close the block; unlisted slits act as identity
    cmeasure                   conditional measurement of the block above;
                               only valid directly after endduality, as the
                               final instruction

Semantics: a duality block without cmeasure applies the weighted sum of its
slit unitaries directly, so the state may come out unnormalized (that is
the point of a duality gate); with cmeasure the block runs as a dilation
circuit on work + auxiliary qubits followed by the hit/miss readout.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .duality import (
    WEIGHT_SUM_TOL,
    DualityGate,
    MeasurementOutcome,
    SlitOperator,
    apply_duality_gate,
    build_dilation,
    dense_operator_buffer,
)
from .statevec import (StateVector, apply_operator, basis_state, checked_unitary,
                       controlled_apply, invert_about_mean, oracle_phases, uniform_state)

_SINGLE_QUBIT_GATES = {
    "h": np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2),
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    "s": np.array([[1, 0], [0, 1j]], dtype=np.complex128),
    "t": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=np.complex128),
}


class CircuitSyntaxError(ValueError):
    """Parse failure; the message starts with the 1-based line number."""


@dataclass(frozen=True)
class InitInstr:
    kind: str  # "uniform" | "basis"
    index: int = 0


@dataclass(frozen=True)
class GateInstr:
    name: str
    args: tuple[int, ...]  # qubit indices; basis indices for oracle


@dataclass(frozen=True)
class DualityInstr:
    weights: tuple[float, ...]
    slit_gates: tuple[tuple[GateInstr, ...], ...]
    measured: bool = False


Instruction = InitInstr | GateInstr | DualityInstr


@dataclass(frozen=True)
class CircuitSpec:
    num_qubits: int
    instructions: tuple[Instruction, ...]


def _err(lineno: int, msg: str):
    raise CircuitSyntaxError(f"line {lineno}: {msg}")


def _int_tok(tok: str, lineno: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        _err(lineno, f"bad {what} {tok!r}")


def _float_tok(tok: str, lineno: int, what: str) -> float:
    try:
        return float(tok)
    except ValueError:
        _err(lineno, f"bad {what} {tok!r}")


def _parse_gate(toks: list[str], lineno: int, num_qubits: int) -> GateInstr:
    name = toks[0]
    args = toks[1:]
    if name in _SINGLE_QUBIT_GATES or name == "cx":
        arity = 2 if name == "cx" else 1
        if len(args) != arity:
            _err(lineno, f"{name} takes {arity} qubit argument(s), got {len(args)}")
        qubits = tuple(_int_tok(a, lineno, "qubit index") for a in args)
        for q in qubits:
            if not 0 <= q < num_qubits:
                _err(lineno, f"qubit {q} out of range for {num_qubits} qubit(s)")
        if name == "cx" and qubits[0] == qubits[1]:
            _err(lineno, "cx control and target must differ")
        return GateInstr(name, qubits)
    if name == "oracle":
        if not args:
            _err(lineno, "oracle needs at least one marked basis index")
        indices = tuple(_int_tok(a, lineno, "basis index") for a in args)
        if len(set(indices)) != len(indices):
            _err(lineno, f"duplicate oracle indices {indices}")
        for i in indices:
            if not 0 <= i < (1 << num_qubits):
                _err(lineno, f"oracle index {i} out of range for {num_qubits} qubit(s)")
        return GateInstr(name, indices)
    if name == "diffusion":
        if args:
            _err(lineno, "diffusion takes no arguments")
        return GateInstr(name, ())
    _err(lineno, f"unknown instruction {name!r}")


def parse_circuit(text: str) -> CircuitSpec:
    """Parse circuit text; raises CircuitSyntaxError with a line number."""
    num_qubits: int | None = None
    instructions: list[Instruction] = []
    measured_seen = False
    # open duality block state
    block_m: int | None = None
    block_weights: tuple[float, ...] | None = None
    block_slits: dict[int, list[GateInstr]] = {}
    current_slit: int | None = None
    block_line = 0

    def close_block(lineno: int):
        nonlocal block_m, block_weights, block_slits, current_slit
        if block_weights is None:
            _err(lineno, "duality block is missing its weights line")
        slit_gates = tuple(tuple(block_slits.get(i, ())) for i in range(block_m))
        instructions.append(DualityInstr(block_weights, slit_gates))
        block_m = None
        block_weights = None
        block_slits = {}
        current_slit = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        head = toks[0].lower()
        toks[0] = head

        if num_qubits is None:
            if head != "qubits":
                _err(lineno, f"expected 'qubits <n>' first, got {head!r}")
            if len(toks) != 2:
                _err(lineno, "qubits takes exactly one argument")
            num_qubits = _int_tok(toks[1], lineno, "qubit count")
            if num_qubits < 1:
                _err(lineno, f"qubit count must be >= 1, got {num_qubits}")
            continue

        if measured_seen:
            _err(lineno, "cmeasure must be the final instruction")

        if head == "qubits":
            _err(lineno, "duplicate qubits declaration")

        if head == "duality":
            if block_m is not None:
                _err(lineno, "duality blocks cannot nest")
            if len(toks) != 2:
                _err(lineno, "duality takes exactly one argument")
            m = _int_tok(toks[1], lineno, "slit count")
            if m < 2:
                _err(lineno, f"need at least 2 slits, got {m}")
            block_m = m
            block_line = lineno
            continue

        if head == "weights":
            if block_m is None:
                _err(lineno, "weights outside a duality block")
            if block_weights is not None:
                _err(lineno, "duplicate weights line")
            if current_slit is not None:
                _err(lineno, "weights must come before the slit sections")
            if len(toks) - 1 != block_m:
                _err(lineno, f"expected {block_m} weights, got {len(toks) - 1}")
            w = tuple(_float_tok(t, lineno, "weight") for t in toks[1:])
            if any(x < 0 for x in w):
                _err(lineno, "weights must be non-negative")
            if abs(sum(w) - 1.0) > WEIGHT_SUM_TOL:
                _err(lineno, f"weight-sum violation: weights sum to {sum(w)!r}, expected 1")
            block_weights = w
            continue

        if head == "slit":
            if block_m is None:
                _err(lineno, "slit outside a duality block")
            if block_weights is None:
                _err(lineno, "slit section before the weights line")
            if len(toks) != 2:
                _err(lineno, "slit takes exactly one argument")
            i = _int_tok(toks[1], lineno, "slit index")
            if not 0 <= i < block_m:
                _err(lineno, f"slit index {i} out of range for {block_m} slit(s)")
            if i in block_slits:
                _err(lineno, f"duplicate slit section {i}")
            block_slits[i] = []
            current_slit = i
            continue

        if head == "endduality":
            if block_m is None:
                _err(lineno, "endduality without an open duality block")
            close_block(lineno)
            continue

        if head == "cmeasure":
            if block_m is not None:
                _err(lineno, "cmeasure inside a duality block")
            if not instructions or not isinstance(instructions[-1], DualityInstr):
                _err(lineno, "cmeasure must directly follow endduality")
            instructions[-1] = replace(instructions[-1], measured=True)
            measured_seen = True
            continue

        if head == "init":
            if block_m is not None:
                _err(lineno, "init inside a duality block")
            if len(toks) >= 2 and toks[1] == "uniform" and len(toks) == 2:
                instructions.append(InitInstr("uniform"))
                continue
            if len(toks) == 3 and toks[1] == "basis":
                k = _int_tok(toks[2], lineno, "basis index")
                if not 0 <= k < (1 << num_qubits):
                    _err(lineno, f"basis index {k} out of range for {num_qubits} qubit(s)")
                instructions.append(InitInstr("basis", k))
                continue
            _err(lineno, "init takes 'uniform' or 'basis <k>'")

        gate = _parse_gate(toks, lineno, num_qubits)
        if block_m is not None:
            if current_slit is None:
                _err(lineno, "gate line inside a duality block but outside a slit section")
            block_slits[current_slit].append(gate)
        else:
            instructions.append(gate)

    if num_qubits is None:
        raise CircuitSyntaxError("line 1: missing qubits declaration")
    if block_m is not None:
        _err(block_line, "unterminated duality block")
    return CircuitSpec(num_qubits, tuple(instructions))


def serialize_circuit(spec: CircuitSpec) -> str:
    """Canonical text for a spec; parse_circuit(serialize_circuit(s)) == s."""
    lines = [f"qubits {spec.num_qubits}"]
    for instr in spec.instructions:
        if isinstance(instr, InitInstr):
            lines.append("init uniform" if instr.kind == "uniform" else f"init basis {instr.index}")
        elif isinstance(instr, GateInstr):
            lines.append(" ".join([instr.name, *map(str, instr.args)]))
        else:
            lines.append(f"duality {len(instr.weights)}")
            lines.append("weights " + " ".join(repr(p) for p in instr.weights))
            for i, gates in enumerate(instr.slit_gates):
                lines.append(f"slit {i}")
                for g in gates:
                    lines.append(" ".join([g.name, *map(str, g.args)]))
            lines.append("endduality")
            if instr.measured:
                lines.append("cmeasure")
    return "\n".join(lines) + "\n"


def _apply_gate(state: StateVector, instr: GateInstr) -> StateVector:
    name = instr.name
    if name in _SINGLE_QUBIT_GATES:
        return apply_operator(state, _SINGLE_QUBIT_GATES[name], [instr.args[0]])
    if name == "cx":
        c, t = instr.args
        return controlled_apply(state, _SINGLE_QUBIT_GATES["x"], [t], control=c, control_value=1)
    if name == "oracle":
        return StateVector(state.num_qubits, oracle_phases(state.dim, instr.args) * state.amplitudes)
    if name == "diffusion":
        return StateVector(state.num_qubits, invert_about_mean(state.amplitudes))
    raise ValueError(f"unknown gate {name!r}")


def _check_gate(gate: GateInstr, what: str) -> None:
    """ValueError unless ``gate`` is a known gate whose own operator is unitary.
    Its qubits are checked by the kernel, as on the plain circuit path."""
    name = gate.name
    if name in _SINGLE_QUBIT_GATES or name == "cx":
        checked_unitary(_SINGLE_QUBIT_GATES["x" if name == "cx" else name], what)
    elif name not in ("oracle", "diffusion"):  # ±1 phases and 2|s><s| - I: unitary as built
        raise ValueError(f"{what}: unknown gate {name!r}")


class GateSequence(SlitOperator):
    """A slit given by circuit gate lines, applied one gate at a time by the
    same kernel as a plain circuit; each gate is checked once, when built."""

    __slots__ = ("gates", "num_qubits")

    def __init__(self, gates, num_qubits: int):
        self.gates = tuple(gates)
        self.num_qubits = num_qubits
        self.shape = (1 << num_qubits, 1 << num_qubits)
        for i, g in enumerate(self.gates):
            _check_gate(g, f"slit gate {i} ({g.name})")

    def __matmul__(self, vector):
        state = StateVector(self.num_qubits, vector)
        for g in self.gates:
            state = _apply_gate(state, g)
        return state.amplitudes

    def dense(self) -> np.ndarray:
        """The explicit matrix, built column by column from the basis states."""
        mat = dense_operator_buffer(self.shape[0])
        for c in range(self.shape[0]):
            mat[:, c] = self @ basis_state(self.num_qubits, c).amplitudes
        return mat


def duality_gate_of(instr: DualityInstr, num_qubits: int) -> DualityGate:
    """Build the DualityGate a block stands for on the full work register:
    one ``GateSequence`` slit per slit section."""
    unitaries = tuple(GateSequence(g, num_qubits) for g in instr.slit_gates)
    return DualityGate(np.array(instr.weights), unitaries)


@dataclass(frozen=True)
class CircuitResult:
    """Final state plus the measurement outcome when the circuit ends in cmeasure.

    After a Hit the state is the post-selected work register; after a Miss
    it is the full work+auxiliary register.
    """

    state: StateVector
    outcome: MeasurementOutcome | None = None


def run_circuit(spec: CircuitSpec, rng: np.random.Generator | None = None) -> CircuitResult:
    """Execute a circuit from |0...0>; ``rng`` is consulted only by cmeasure."""
    state = basis_state(spec.num_qubits, 0)
    outcome: MeasurementOutcome | None = None
    for instr in spec.instructions:
        if isinstance(instr, InitInstr):
            state = (uniform_state(spec.num_qubits) if instr.kind == "uniform"
                     else basis_state(spec.num_qubits, instr.index))
        elif isinstance(instr, GateInstr):
            state = _apply_gate(state, instr)
        else:
            gate = duality_gate_of(instr, spec.num_qubits)
            if instr.measured:
                if rng is None:
                    raise ValueError("circuit contains cmeasure; run_circuit needs an rng")
                outcome = build_dilation(gate).readout(state).measure(rng)
                state = outcome.post_state
            else:
                state = apply_duality_gate(state, gate)
    return CircuitResult(state, outcome)
