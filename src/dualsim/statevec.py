"""Dense state-vector and operator kernel shared by the whole package.

Qubit convention: qubit 0 is the least-significant bit of a basis-state
index, so |q_{n-1} .. q_1 q_0> lives at index sum_k q_k 2**k.  Registers
appended on top of an existing one (dilation ancillas) always occupy the
highest qubit indices.

Operators are plain complex ndarrays.  ``apply_operator`` deliberately
accepts non-unitary matrices -- weighted-slit gates are contractions in
general -- and never renormalizes its output.  Dense amplitudes are
practical up to roughly 24 total qubits; explicit operator matrices cap
out much earlier.
"""
from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

#: Default tolerance for unitarity checks across the package.
DEFAULT_UNITARY_TOL = 1e-10
#: A state counts as normalized when | ||psi|| - 1 | <= this.
NORMALIZED_TOL = 1e-10


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over the 2**num_qubits computational basis states.

    The amplitude buffer is copied in and marked read-only, so instances are
    immutable and safe to share across threads.  Normalization is not
    enforced here: gate outputs may legitimately carry norm != 1.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = operator.index(self.num_qubits)
        if n < 0:
            raise ValueError(f"num_qubits must be >= 0, got {n}")
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        if amps.ndim != 1 or amps.shape[0] != 1 << n:
            raise ValueError(
                f"expected {1 << n} amplitudes for {n} qubit(s), "
                f"got shape {np.shape(self.amplitudes)}")
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "num_qubits", n)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits


def _fresh_state(num_qubits: int, amplitudes: np.ndarray) -> StateVector:
    """Internal: wrap a freshly computed complex128 array without re-validation.

    Only for arrays this package just allocated with the right length; the
    buffer is still frozen so the result behaves like any other StateVector.
    """
    sv = object.__new__(StateVector)
    amplitudes.setflags(write=False)
    object.__setattr__(sv, "num_qubits", num_qubits)
    object.__setattr__(sv, "amplitudes", amplitudes)
    return sv


def basis_state(num_qubits: int, index: int) -> StateVector:
    """Computational basis state |index> on ``num_qubits`` qubits."""
    dim = 1 << num_qubits
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubit(s)")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def uniform_state(num_qubits: int) -> StateVector:
    """Evenly distributed state: every amplitude 1/sqrt(2**num_qubits)."""
    dim = 1 << num_qubits
    return StateVector(num_qubits, np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128))


def norm(state: StateVector) -> float:
    """Euclidean norm of the amplitude vector."""
    amps = state.amplitudes
    return math.sqrt(np.vdot(amps, amps).real)


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(f"dimension mismatch: {a.num_qubits} vs {b.num_qubits} qubits")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def is_normalized(state: StateVector, tol: float = NORMALIZED_TOL) -> bool:
    return abs(norm(state) - 1.0) <= tol


def validate_operator(op) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    mat = np.asarray(op, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"operator must be a square matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("operator entries must be finite")
    return mat


#: Rows of op† op formed at a time by ``is_unitary``.
_GRAM_BLOCK_ROWS = 256


def is_unitary(op, tol: float = DEFAULT_UNITARY_TOL) -> bool:
    """True iff the max-entry magnitude of (op† op - I) is within ``tol``.

    op† op is formed 256 rows at a time, so the scratch is O(256 N) rather
    than two N×N matrices: a caller that keeps the ``checked_unitary``
    copies of the operators it checked before peaks no higher than one
    that checks every operator before copying any.
    """
    mat = validate_operator(op)
    dim = mat.shape[0]
    for start in range(0, dim, _GRAM_BLOCK_ROWS):
        gram = mat[:, start:start + _GRAM_BLOCK_ROWS].conj().T @ mat
        gram.flat[start:: dim + 1] -= 1.0  # this block's rows of the identity
        if float(np.abs(gram).max()) > tol:
            return False
    return True


def checked_unitary(op, what: str) -> np.ndarray:
    """Frozen complex128 copy of ``op``; ``ValueError`` naming ``what`` unless
    it is unitary within ``DEFAULT_UNITARY_TOL``."""
    mat = validate_operator(op)
    if not is_unitary(mat, DEFAULT_UNITARY_TOL):
        raise ValueError(f"{what} is not unitary within {DEFAULT_UNITARY_TOL}")
    mat = mat.copy()
    mat.setflags(write=False)
    return mat


def oracle_phases(dim: int, marked) -> np.ndarray:
    """Real search-oracle diagonal: +1 on the ``marked`` basis indices, -1 elsewhere."""
    diag = -np.ones(dim)
    diag[list(marked)] = 1.0
    return diag


def invert_about_mean(amps: np.ndarray) -> np.ndarray:
    """Diffusion 2|s><s| - I on raw amplitudes: 2 * mean - amps."""
    return 2.0 * amps.mean() - amps


def _check_targets(num_qubits: int, targets) -> list[int]:
    tgts = [operator.index(t) for t in targets]
    if len(set(tgts)) != len(tgts):
        raise ValueError(f"duplicate target qubits: {tgts}")
    for t in tgts:
        if not 0 <= t < num_qubits:
            raise ValueError(f"target qubit {t} out of range for {num_qubits} qubit(s)")
    return tgts


def apply_operator(state: StateVector, op, targets) -> StateVector:
    """Apply a 2**k x 2**k matrix to the listed target qubits.

    ``targets[j]`` carries bit j of the operator's own index space.  The
    matrix need not be unitary; the output norm is whatever it produces and
    is never restored.
    """
    mat = validate_operator(op)
    tgts = _check_targets(state.num_qubits, targets)
    k = len(tgts)
    if mat.shape[0] != 1 << k:
        raise ValueError(f"operator dim {mat.shape[0]} does not match {k} target qubit(s)")
    n = state.num_qubits
    if k == 0:
        return _fresh_state(n, mat[0, 0] * state.amplitudes)
    psi = state.amplitudes.reshape([2] * n)
    # axis of qubit t is n-1-t; op bit k-1 is the leading flattened axis
    src = [n - 1 - t for t in reversed(tgts)]
    psi = np.moveaxis(psi, src, range(k))
    rest = psi.shape[k:]
    out = mat @ psi.reshape(1 << k, -1)
    out = np.moveaxis(out.reshape([2] * k + list(rest)), range(k), src)
    return _fresh_state(n, np.ascontiguousarray(out).reshape(-1))


def controlled_apply(state: StateVector, op, targets, control: int,
                     control_value: int) -> StateVector:
    """Apply ``op`` on the targets only where ``control`` reads ``control_value``."""
    mat = validate_operator(op)
    tgts = _check_targets(state.num_qubits, targets)
    n = state.num_qubits
    if not 0 <= control < n:
        raise ValueError(f"control qubit {control} out of range for {n} qubit(s)")
    if control in tgts:
        raise ValueError(f"control qubit {control} overlaps the targets {tgts}")
    if control_value not in (0, 1):
        raise ValueError(f"control value must be 0 or 1, got {control_value}")
    if mat.shape[0] != 1 << len(tgts):
        raise ValueError(f"operator dim {mat.shape[0]} does not match {len(tgts)} target qubit(s)")
    psi = state.amplitudes.reshape([2] * n).copy()
    idx = [slice(None)] * n
    idx[n - 1 - control] = control_value
    sub = psi[tuple(idx)]
    # qubits above the control shift down by one inside the sub-register
    sub_targets = [t if t < control else t - 1 for t in tgts]
    out = apply_operator(StateVector(n - 1, sub.reshape(-1)), mat, sub_targets)
    psi[tuple(idx)] = out.amplitudes.reshape([2] * (n - 1))
    return _fresh_state(n, psi.reshape(-1))


# --- matrix text format -----------------------------------------------------
#
# Line 1: integer dimension d.  Then d lines of d whitespace-separated complex
# literals `a`, `a+bi` or `a-bi` (decimal, optional exponent).  Parsing is
# locale-independent; '#' comment lines and blank lines are ignored.

_FLOAT_PATTERN = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(
    rf"^(?P<re>{_FLOAT_PATTERN})"
    rf"(?:(?P<im>[+-](?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)i)?$")


def parse_complex_literal(token: str) -> complex:
    """Parse ``a``, ``a+bi`` or ``a-bi`` into a complex number."""
    m = _COMPLEX_RE.match(token)
    if m is None:
        raise ValueError(f"bad complex literal {token!r}")
    return complex(float(m.group("re")), float(m.group("im")) if m.group("im") else 0.0)


def format_complex_literal(z: complex) -> str:
    z = complex(z)
    negative = math.copysign(1.0, z.imag) < 0  # keeps the sign of an imaginary -0.0
    if z.imag == 0.0 and not negative:
        return repr(z.real)
    sign = "-" if negative else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def parse_matrix_text(text: str) -> np.ndarray:
    """Parse the matrix text format into a dense complex matrix."""
    lines = []
    for raw in text.splitlines():
        ln = raw.strip()
        if ln and not ln.startswith("#"):
            lines.append(ln)
    if not lines:
        raise ValueError("empty matrix text")
    try:
        dim = int(lines[0])
    except ValueError:
        raise ValueError(f"bad matrix dimension line {lines[0]!r}") from None
    if dim <= 0:
        raise ValueError(f"matrix dimension must be positive, got {dim}")
    if len(lines) != dim + 1:
        raise ValueError(f"expected {dim} matrix rows, found {len(lines) - 1}")
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for i, ln in enumerate(lines[1:]):
        toks = ln.split()
        if len(toks) != dim:
            raise ValueError(f"row {i}: expected {dim} entries, found {len(toks)}")
        mat[i] = [parse_complex_literal(t) for t in toks]
    return mat


#: Entries ``format_matrix_text`` renders at a time, in whole rows (one row at least).
_FORMAT_BLOCK_ENTRIES = 1 << 14


def format_matrix_text(mat) -> str:
    """Render a matrix in the text format; round-trips exactly through parse.

    Each entry reads as ``format_complex_literal`` writes it.  Whole rows of
    about ``_FORMAT_BLOCK_ENTRIES`` entries are rendered at a time: the reals
    and the imaginary magnitudes of a block by one ``repr`` of a float list
    each, the imaginary signs (``-0.0`` included) from ``np.signbit``.  So
    besides the text itself the call holds one block's strings, not one
    string per entry of the whole matrix.
    """
    m = validate_operator(mat)
    dim = m.shape[0]
    rows_per_block = max(1, _FORMAT_BLOCK_ENTRIES // dim)
    blocks = [str(dim)]
    for start in range(0, dim, rows_per_block):
        block = m[start:start + rows_per_block]
        reals = repr(block.real.ravel().tolist())[1:-1].split(", ")
        imags = repr(np.abs(block.imag).ravel().tolist())[1:-1].split(", ")
        negative = np.signbit(block.imag).ravel()
        bare = ((block.imag.ravel() == 0.0) & ~negative).tolist()
        entries = [re if plain else f"{re}{'-' if neg else '+'}{im}i"
                   for re, im, neg, plain in zip(reals, imags, negative.tolist(), bare)]
        blocks.append("\n".join(" ".join(entries[r:r + dim])
                                 for r in range(0, len(entries), dim)))
    return "\n".join(blocks) + "\n"
