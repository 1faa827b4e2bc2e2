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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .statevec import (
    StateVector,
    _fresh_state,
    checked_unitary,
    is_normalized,
    validate_operator,
)

#: Slit weights must sum to 1 within this.
WEIGHT_SUM_TOL = 1e-12
#: Sub-waves in a BranchState must be normalized within this.
SUBWAVE_NORM_TOL = 1e-10
#: Below this norm a measurement branch cannot be normalized.
DEGENERATE_BRANCH_TOL = 1e-14


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
            if not is_normalized(wave, SUBWAVE_NORM_TOL):
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
    """Slit weights p_i plus one unitary per slit; stands for sum_i p_i U_i."""

    weights: np.ndarray
    unitaries: tuple[np.ndarray, ...]

    def __post_init__(self):
        w = as_slit_weights(self.weights)
        us = tuple(validate_operator(u) for u in self.unitaries)
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
                           tuple(checked_unitary(u, f"slit operator {i}") for i, u in enumerate(us)))

    @property
    def num_slits(self) -> int:
        return len(self.unitaries)

    @property
    def dim(self) -> int:
        return self.unitaries[0].shape[0]

    @property
    def num_qubits(self) -> int:
        return self.dim.bit_length() - 1

    def matrix(self) -> np.ndarray:
        """The assembled (generally non-unitary) matrix sum_i p_i U_i."""
        return _weighted_sum(self.weights, self.unitaries)


def divide(state: StateVector, weights) -> BranchState:
    """Split a normalized wave into weighted copies, one per slit."""
    w = as_slit_weights(weights)
    if not is_normalized(state):
        raise ValueError("divide requires a normalized input state")
    return BranchState(tuple((float(p), state) for p in w))


def apply_per_slit(branch: BranchState, unitaries) -> BranchState:
    """Apply ``unitaries[i]`` to sub-wave i; weights are untouched."""
    us = [validate_operator(u) for u in unitaries]
    if len(us) != len(branch.branches):
        raise ValueError(f"{len(branch.branches)} branches but {len(us)} unitaries")
    dim = 1 << branch.num_qubits
    new = []
    for i, ((p, wave), u) in enumerate(zip(branch.branches, us)):
        if u.shape[0] != dim:
            raise ValueError(f"slit operator {i} has dim {u.shape[0]}, expected {dim}")
        u = checked_unitary(u, f"slit operator {i}")
        new.append((p, StateVector(wave.num_qubits, u @ wave.amplitudes)))
    return BranchState(tuple(new))


def combine(branch: BranchState) -> StateVector:
    """Weighted sum of the sub-waves.  Not renormalized; may even be zero."""
    out = np.zeros(1 << branch.num_qubits, dtype=np.complex128)
    for p, wave in branch.branches:
        out += p * wave.amplitudes
    return _fresh_state(branch.num_qubits, out)


def apply_duality_gate(state: StateVector, gate: DualityGate) -> StateVector:
    """(sum_i p_i U_i)|state>; equal to combine(apply_per_slit(divide(...)))."""
    if state.dim != gate.dim:
        raise ValueError(f"state dim {state.dim} does not match gate dim {gate.dim}")
    if not is_normalized(state):
        raise ValueError("apply_duality_gate requires a normalized input state")
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
        # (input state, its Readout) of the last ``readout`` call; not a field
        object.__setattr__(self, "_last_readout", (None, None))

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
        out = _weighted_sum(coeffs[:m], self.gate.unitaries)
        out.flat[:: out.shape[0] + 1] += coeffs[m:].sum()  # padding slots are the identity
        return out

    def readout(self, work_state: StateVector) -> Readout:
        """``Readout`` of ``run_dilation(work_state, self)``, kept for the last input.

        The kept readout is returned again when the next input is the same
        object or has bit-for-bit equal amplitudes (so -0.0 and 0.0 differ):
        a loop that keeps restarting from one state, or a Reset experiment
        that shares this circuit across its trials, runs the dilation once.
        """
        last, kept = self._last_readout
        if work_state is not last:
            if last is None or work_state.amplitudes.tobytes() != last.amplitudes.tobytes():
                kept = Readout(run_dilation(work_state, self), self.num_aux_qubits)
            object.__setattr__(self, "_last_readout", (work_state, kept))
        return kept


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


def build_dilation(gate: DualityGate, combine_unitary=None) -> DilationCircuit:
    """Dilation circuit for a gate: prepare's column 0 carries sqrt(p_i).

    The default combine is prepare†, which makes the aux=0 coefficients
    exactly the gate weights; for symmetric 2-slit weights both stages are
    the Hadamard.  The auxiliary register is the smallest whole register
    holding the slits; the padding slots (identity) get zero effective
    weight.  Passing ``combine_unitary`` (asymmetric or phased slit readout)
    changes the effective coefficients to combine[0, i] * prepare[i, 0],
    reported by the circuit object.
    """
    m = gate.num_slits
    col = np.zeros(1 << max(1, (m - 1).bit_length()))
    col[:m] = np.sqrt(gate.weights)
    prepare = unitary_completion(col)
    comb = prepare.conj().T if combine_unitary is None else combine_unitary
    return DilationCircuit(gate, prepare, comb)


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
        blocks[i] = u @ blocks[i]  # the padding blocks pass through: identity slots
    blocks = circuit.combine @ blocks
    return _fresh_state(circuit.total_qubits, np.ascontiguousarray(blocks).reshape(-1))


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
    measuring the same state pays one draw per measurement.  A degenerate
    branch raises ``DegenerateBranchError`` every time it is drawn.
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
        return self._sample_hit(rng) if rng.random() < self.p_hit else self._take_miss()

    def _sample_hit(self, rng) -> Hit:
        if self._hit is None:
            scale = math.sqrt(self.p_hit)
            if scale < DEGENERATE_BRANCH_TOL:
                raise DegenerateBranchError("hit branch has vanishing norm; cannot normalize")
            work = self._block / scale
            self._hit = (_fresh_state(self._num_work, work), np.cumsum(np.abs(work) ** 2))
        post_state, cum = self._hit
        idx = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        return Hit(post_state, min(idx, cum.size - 1))

    def _take_miss(self) -> Miss:
        if self._miss is None:
            rest = self._full.amplitudes.copy()
            rest[: self._block.size] = 0.0
            scale = math.sqrt(np.vdot(rest, rest).real)
            if scale < DEGENERATE_BRANCH_TOL:
                raise DegenerateBranchError("miss branch has vanishing norm; cannot normalize")
            rest /= scale
            self._miss = Miss(_fresh_state(self._full.num_qubits, rest))
        return self._miss
