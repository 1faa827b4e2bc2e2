"""Weighted-slit gates: direct-sum semantics, the ancilla dilation circuit,
and post-selected conditional measurement.

A duality gate is a convex combination sum_i p_i U_i of unitaries and is in
general not unitary itself.  Two execution routes are provided and must
agree: the direct route (divide -> per-slit unitaries -> combine, or
``apply_duality_gate`` in one call), whose output norm may shrink, and the
dilation route, which realizes the same map as the auxiliary=0 block of a
unitary circuit on work + auxiliary qubits.  ``conditional_measure``
performs the post-selected readout: a Hit keeps the normalized aux=0 work
state and samples one basis index from it, a Miss removes the aux=0
component and returns the normalized complement.

A slit is one of three kinds, and both routes apply each one as ``u @ v``:
a dense matrix (a plain ndarray, as given), a ``PhaseDiagonal``, or another
``SlitOperator`` subclass such as the circuit format's gate sequence.  Only
code that needs an explicit matrix asks for one, through
``DualityGate.dense_unitaries``, and a structured slit refuses to build one
above ``MAX_DENSE_BYTES``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .statevec import (
    DEFAULT_UNITARY_TOL,
    StateVector,
    _fresh_state,
    checked_unitary,
    is_normalized,
    validate_operator,
)

#: Slit weights must sum to 1 within this.
WEIGHT_SUM_TOL = 1e-12
#: Below this norm a measurement branch cannot be normalized.
DEGENERATE_BRANCH_TOL = 1e-14
#: Largest explicit N×N complex matrix a structured slit builds: 64 MiB, N = 2**11.
MAX_DENSE_BYTES = 1 << 26


class DegenerateBranchError(RuntimeError):
    """The selected measurement branch has vanishing norm."""


def as_slit_weights(weights) -> np.ndarray:
    """Validate slit weights: m >= 2 entries, all >= 0, summing to 1."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size < 2:
        raise ValueError(f"need at least 2 slit weights, got shape {w.shape}")
    if not np.isfinite(w).all() or (w < 0).any():
        raise ValueError("slit weights must be finite and non-negative")
    total = float(w.sum())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"slit weights must sum to 1, got {total!r}")
    w = w.copy()
    w.setflags(write=False)
    return w


def _weighted_sum(coefficients, operators) -> np.ndarray:
    """sum_i c_i U_i over equally sized square matrices, accumulated in order."""
    dim = operators[0].shape[0]
    out = np.zeros((dim, dim), dtype=np.complex128)
    for c, u in zip(coefficients, operators):
        out += c * u
    return out


def dense_bytes(dim: int) -> int:
    """Bytes of an explicit dim×dim complex128 matrix."""
    return 16 * dim * dim


def dense_operator_buffer(dim: int) -> np.ndarray:
    """Zeroed dim×dim complex matrix; ``ValueError`` before allocating when it
    would exceed ``MAX_DENSE_BYTES``."""
    need = dense_bytes(dim)
    if need > MAX_DENSE_BYTES:
        raise ValueError(f"an explicit {dim}x{dim} matrix needs {need} bytes, "
                         f"above the {MAX_DENSE_BYTES}-byte limit")
    return np.zeros((dim, dim), dtype=np.complex128)


class SlitOperator:
    """A unitary slit held in structured form instead of as an N×N matrix.

    A subclass checks its own unitarity when built, sets ``shape`` to
    (N, N), applies itself to a length-N vector with ``op @ vector`` (a new
    array) and builds its explicit matrix with ``dense()``, which allocates
    through ``dense_operator_buffer``.
    """

    __slots__ = ("shape",)

    def dense(self) -> np.ndarray:
        raise NotImplementedError

    def __matmul__(self, vector):
        raise NotImplementedError


class PhaseDiagonal(SlitOperator):
    """Diagonal unitary diag(phases), applied as an entrywise product: the
    search oracle and the identity slit."""

    __slots__ = ("phases",)

    def __init__(self, phases):
        d = np.array(phases, dtype=np.complex128)
        if d.ndim != 1 or not np.isfinite(d).all():
            raise ValueError(f"phases must be a finite 1-D vector, got shape {d.shape}")
        if d.size and float(np.abs(np.abs(d) ** 2 - 1.0).max()) > DEFAULT_UNITARY_TOL:
            raise ValueError(f"phase diagonal is not unitary within {DEFAULT_UNITARY_TOL}")
        d.setflags(write=False)
        self.phases = d
        self.shape = (d.size, d.size)

    def __matmul__(self, vector):
        return self.phases * vector

    def dense(self) -> np.ndarray:
        mat = dense_operator_buffer(self.phases.size)
        mat.flat[:: self.phases.size + 1] = self.phases
        return mat


def _checked_slit(u, what: str):
    """A slit as kept by a gate: structured slits as they are (they checked
    themselves when built), anything else as a ``checked_unitary`` matrix."""
    return u if isinstance(u, SlitOperator) else checked_unitary(u, what)


@dataclass(frozen=True)
class BranchState:
    """Direct-sum form: ordered (weight, normalized sub-wave) pairs."""

    branches: tuple[tuple[float, StateVector], ...]

    def __post_init__(self):
        branches = tuple((float(p), wave) for p, wave in self.branches)
        as_slit_weights([p for p, _ in branches])
        if len({wave.num_qubits for _, wave in branches}) != 1:
            raise ValueError("all sub-waves must share num_qubits")
        for i, (_, wave) in enumerate(branches):
            if not is_normalized(wave):
                raise ValueError(f"sub-wave {i} is not normalized")
        object.__setattr__(self, "branches", branches)

    @property
    def weights(self) -> np.ndarray:
        return np.array([p for p, _ in self.branches])

    @property
    def num_qubits(self) -> int:
        return self.branches[0][1].num_qubits


@dataclass(frozen=True)
class DualityGate:
    """Slit weights p_i plus one unitary per slit; stands for sum_i p_i U_i.

    A slit is a matrix (kept as a checked, frozen complex ndarray) or a
    ``SlitOperator``, kept as it is.
    """

    weights: np.ndarray
    unitaries: tuple[np.ndarray | SlitOperator, ...]

    def __post_init__(self):
        w = as_slit_weights(self.weights)
        us = tuple(u if isinstance(u, SlitOperator) else validate_operator(u)
                   for u in self.unitaries)
        if len(us) != w.size:
            raise ValueError(f"{w.size} weights but {len(us)} unitaries")
        dims = {u.shape[0] for u in us}
        if len(dims) != 1:
            raise ValueError(f"slit unitaries must share one dimension, got {sorted(dims)}")
        dim = dims.pop()
        if dim == 0 or dim & (dim - 1):
            raise ValueError(f"slit unitary dim {dim} is not a power of 2")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "unitaries",
                           tuple(_checked_slit(u, f"slit operator {i}") for i, u in enumerate(us)))

    @property
    def num_slits(self) -> int:
        return len(self.unitaries)

    @property
    def dim(self) -> int:
        return self.unitaries[0].shape[0]

    @property
    def num_qubits(self) -> int:
        return self.dim.bit_length() - 1

    def dense_unitaries(self) -> tuple[np.ndarray, ...]:
        """Every slit as an explicit matrix; a structured slit's ``dense()``
        refuses above ``MAX_DENSE_BYTES`` before allocating."""
        return tuple(u.dense() if isinstance(u, SlitOperator) else u for u in self.unitaries)

    def matrix(self) -> np.ndarray:
        """The assembled (generally non-unitary) matrix sum_i p_i U_i."""
        return _weighted_sum(self.weights, self.dense_unitaries())


def divide(state: StateVector, weights) -> BranchState:
    """Split a normalized wave into weighted copies, one per slit."""
    w = as_slit_weights(weights)
    if not is_normalized(state):
        raise ValueError("divide requires a normalized input state")
    return BranchState(tuple((float(p), state) for p in w))


def apply_per_slit(branch: BranchState, unitaries) -> BranchState:
    """Apply ``unitaries[i]`` (a matrix or a ``SlitOperator``) to sub-wave i;
    weights are untouched."""
    us = [u if isinstance(u, SlitOperator) else validate_operator(u) for u in unitaries]
    if len(us) != len(branch.branches):
        raise ValueError(f"{len(branch.branches)} branches but {len(us)} unitaries")
    dim = 1 << branch.num_qubits
    new = []
    for i, ((p, wave), u) in enumerate(zip(branch.branches, us)):
        if u.shape[0] != dim:
            raise ValueError(f"slit operator {i} has dim {u.shape[0]}, expected {dim}")
        u = _checked_slit(u, f"slit operator {i}")
        new.append((p, StateVector(wave.num_qubits, u @ wave.amplitudes)))
    return BranchState(tuple(new))


def combine(branch: BranchState) -> StateVector:
    """Weighted sum of the sub-waves.  Not renormalized; may even be zero."""
    out = np.zeros(1 << branch.num_qubits, dtype=np.complex128)
    for p, wave in branch.branches:
        out += p * wave.amplitudes
    return _fresh_state(branch.num_qubits, out)


def apply_duality_gate(state: StateVector, gate: DualityGate) -> StateVector:
    """(sum_i p_i U_i)|state> for any state, normalized or not; on a normalized
    state equal to combine(apply_per_slit(divide(...)))."""
    if state.dim != gate.dim:
        raise ValueError(f"state dim {state.dim} does not match gate dim {gate.dim}")
    out = np.zeros(state.dim, dtype=np.complex128)
    for p, u in zip(gate.weights, gate.unitaries):
        out += p * (u @ state.amplitudes)
    return _fresh_state(state.num_qubits, out)


# --- dilation ----------------------------------------------------------------


@dataclass(frozen=True)
class DilationCircuit:
    """Unitary circuit on work + auxiliary qubits embedding a duality gate:
    prepare, then slit i of ``gate`` controlled on aux value i (values past
    the slits are identity padding), then combine.

    The auxiliary register sits above the work register, so the full basis
    index is aux_value * 2**num_work_qubits + work_index and each slit block
    of the amplitude vector is contiguous.  The aux=0 block of the circuit
    applies sum_i c_i U_i with c_i = combine[0, i] * prepare[i, 0].
    """

    gate: DualityGate
    prepare: np.ndarray
    combine: np.ndarray

    def __post_init__(self):
        prepare = validate_operator(self.prepare)
        comb = validate_operator(self.combine)
        dim_aux = prepare.shape[0]
        if dim_aux & (dim_aux - 1) or dim_aux < max(2, self.gate.num_slits):
            raise ValueError(f"auxiliary dim {dim_aux} is not a power of 2 holding "
                             f"{self.gate.num_slits} slits")
        if comb.shape[0] != dim_aux:
            raise ValueError(f"combine operator has dim {comb.shape[0]}, prepare has {dim_aux}")
        object.__setattr__(self, "prepare", checked_unitary(prepare, "prepare operator"))
        object.__setattr__(self, "combine", checked_unitary(comb, "combine operator"))

    @property
    def num_work_qubits(self) -> int:
        return self.gate.num_qubits

    @property
    def num_aux_qubits(self) -> int:
        return self.prepare.shape[0].bit_length() - 1

    @property
    def total_qubits(self) -> int:
        return self.num_work_qubits + self.num_aux_qubits

    def effective_coefficients(self) -> np.ndarray:
        """Coefficient of each auxiliary value's unitary in the aux=0 block."""
        return self.combine[0, :] * self.prepare[:, 0]

    def effective_operator(self) -> np.ndarray:
        """The operator the aux=0 block applies to the work register."""
        coeffs = self.effective_coefficients()
        m = self.gate.num_slits
        out = _weighted_sum(coeffs[:m], self.gate.dense_unitaries())
        out.flat[:: out.shape[0] + 1] += coeffs[m:].sum()  # padding slots are the identity
        return out

    def readout(self, work_state: StateVector) -> Readout:
        """``Readout`` of ``run_dilation(work_state, self)``; nothing is kept."""
        return Readout(run_dilation(work_state, self), self.num_aux_qubits)


def unitary_completion(first_column) -> np.ndarray:
    """Real orthogonal matrix whose column 0 is the given real unit vector.

    Householder reflection through (e_0 - column); collapses to the identity
    when the column already is e_0.
    """
    col = np.asarray(first_column, dtype=float)
    if col.ndim != 1 or col.size < 1:
        raise ValueError("first column must be a 1-D vector")
    if abs(float(np.linalg.norm(col)) - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError("first column must be a unit vector")
    u = -col.copy()
    u[0] += 1.0
    nrm2 = float(u @ u)
    if nrm2 < 1e-30:
        return np.eye(col.size)
    return np.eye(col.size) - np.outer(u, u) * (2.0 / nrm2)


def build_dilation(gate: DualityGate) -> DilationCircuit:
    """Dilation circuit for a gate: prepare's column 0 carries sqrt(p_i).

    Combine is prepare†, which makes the aux=0 coefficients exactly the
    gate weights; for symmetric 2-slit weights both stages are the
    Hadamard.  The auxiliary register is the smallest whole register
    holding the slits; the padding slots (identity) get zero effective
    weight.  Other stages (asymmetric or phased slit readout) go through
    the constructor, ``DilationCircuit(gate, prepare, combine)`` or
    ``dataclasses.replace(build_dilation(gate), combine=C)``; the circuit
    reports the effective coefficients combine[0, i] * prepare[i, 0].
    """
    m = gate.num_slits
    col = np.zeros(1 << max(1, (m - 1).bit_length()))
    col[:m] = np.sqrt(gate.weights)
    prepare = unitary_completion(col)
    return DilationCircuit(gate, prepare, prepare.conj().T)


def run_dilation(work_state: StateVector, circuit: DilationCircuit) -> StateVector:
    """Full-register state after prepare, the controlled slits, and combine.

    The circuit as a whole is unitary, so the output stays normalized; its
    aux=0 block equals the direct duality-gate application of the same gate.
    """
    if work_state.num_qubits != circuit.num_work_qubits:
        raise ValueError(
            f"work state has {work_state.num_qubits} qubit(s), circuit expects {circuit.num_work_qubits}")
    if not is_normalized(work_state):
        raise ValueError("run_dilation requires a normalized work state")
    blocks = np.zeros((circuit.prepare.shape[0], work_state.dim), dtype=np.complex128)
    blocks[0] = work_state.amplitudes
    blocks = circuit.prepare @ blocks
    for i, u in enumerate(circuit.gate.unitaries):
        blocks[i] = u @ blocks[i]  # any slit kind; the padding blocks pass through: identity slots
    blocks = circuit.combine @ blocks
    return _fresh_state(work_state.num_qubits + circuit.num_aux_qubits,
                        np.ascontiguousarray(blocks).reshape(-1))


# --- conditional measurement ---------------------------------------------------


@dataclass(frozen=True)
class Hit:
    """Post-selection succeeded: normalized aux=0 work state plus one Born sample."""

    post_state: StateVector
    sampled_index: int


@dataclass(frozen=True)
class Miss:
    """Post-selection failed: normalized full-register complement, zero on aux=0."""

    post_state: StateVector


MeasurementOutcome = Hit | Miss


def _split_registers(full_state: StateVector, num_aux_qubits: int) -> int:
    if num_aux_qubits < 1:
        raise ValueError("need at least one auxiliary qubit")
    w = full_state.num_qubits - num_aux_qubits
    if w < 0:
        raise ValueError(
            f"state has only {full_state.num_qubits} qubit(s), cannot hold {num_aux_qubits} auxiliaries")
    return w


def aux_zero_block(full_state: StateVector, num_aux_qubits: int) -> StateVector:
    """Unnormalized work-register block where every auxiliary qubit reads 0."""
    w = _split_registers(full_state, num_aux_qubits)
    return StateVector(w, full_state.amplitudes[: 1 << w])


def hit_probability(full_state: StateVector, num_aux_qubits: int) -> float:
    """Squared norm of the aux=0 block."""
    w = _split_registers(full_state, num_aux_qubits)
    block = full_state.amplitudes[: 1 << w]
    return float(np.vdot(block, block).real)


def conditional_measure(full_state: StateVector, num_aux_qubits: int,
                        rng: np.random.Generator) -> MeasurementOutcome:
    """Measure whether the auxiliary register (top qubits) reads all zeros.

    With probability ||aux=0 block||**2 the result is a Hit: the work state
    becomes the normalized aux=0 block and ``sampled_index`` is drawn from
    its Born distribution.  Otherwise the aux=0 component is removed and
    the normalized remainder is returned as a Miss.  A Hit costs two
    ``rng.random()`` draws, a Miss one.
    """
    return Readout(full_state, num_aux_qubits).measure(rng)


class Readout:
    """Conditional measurement of one full state, reusable across draws.

    ``measure`` is ``conditional_measure``: one ``rng.random()`` against
    ``p_hit`` picks the branch, and a Hit takes one more for the sampled
    index.  Each branch (the normalized state and, for a Hit, the Born
    cumulative sum) is built on first use and kept, so a loop that keeps
    measuring the same state pays one draw per measurement.  ``sample_hit``,
    ``miss`` and ``hit_indices`` give the branches to callers that draw the
    branch themselves.  A degenerate branch raises ``DegenerateBranchError``
    every time it is drawn.
    """

    __slots__ = ("p_hit", "_full", "_num_work", "_block", "_hit", "_miss")

    def __init__(self, full_state: StateVector, num_aux_qubits: int):
        w = _split_registers(full_state, num_aux_qubits)
        if not is_normalized(full_state):
            raise ValueError("conditional_measure requires a normalized full state")
        self._full = full_state
        self._num_work = w
        self._block = block = full_state.amplitudes[: 1 << w]
        self.p_hit = float(np.vdot(block, block).real)
        self._hit: tuple[StateVector, np.ndarray] | None = None
        self._miss: Miss | None = None

    def measure(self, rng) -> MeasurementOutcome:
        return self.sample_hit(rng) if rng.random() < self.p_hit else self.miss()

    def hit_indices(self, draws):
        """The Born samples of Hits whose index draws are ``draws`` (an array
        or one double): what ``measure`` gives for each after its branch draw
        selected the Hit."""
        cum = self._hit_branch()[1]
        return np.minimum(np.searchsorted(cum, draws * cum[-1], side="right"), cum.size - 1)

    def _hit_branch(self) -> tuple[StateVector, np.ndarray]:
        if self._hit is None:
            scale = math.sqrt(self.p_hit)
            if scale < DEGENERATE_BRANCH_TOL:
                raise DegenerateBranchError("hit branch has vanishing norm; cannot normalize")
            work = self._block / scale
            self._hit = (_fresh_state(self._num_work, work), np.cumsum(np.abs(work) ** 2))
        return self._hit

    def sample_hit(self, rng) -> Hit:
        """The Hit of a measurement whose branch draw selected it: one more
        ``rng.random()`` draws the sampled index."""
        post_state = self._hit_branch()[0]
        return Hit(post_state, int(self.hit_indices(rng.random())))

    def miss(self) -> Miss:
        """The Miss outcome, built on first use."""
        if self._miss is None:
            rest = self._full.amplitudes.copy()
            rest[: self._block.size] = 0.0
            scale = math.sqrt(np.vdot(rest, rest).real)
            if scale < DEGENERATE_BRANCH_TOL:
                raise DegenerateBranchError("miss branch has vanishing norm; cannot normalize")
            rest /= scale
            self._miss = Miss(_fresh_state(self._full.num_qubits, rest))
        return self._miss

