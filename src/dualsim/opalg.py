"""Constructive operator algebra for duality gates.

``classify_duality_gate`` separates the unitary (norm-preserving, extreme)
gates from the strictly contractive rest.  ``lcu_decompose`` rewrites any
finite square matrix as alpha * sum_i p_i U_i with exactly four unitaries,
via a Hermitian/anti-Hermitian split and a cos + i*sin lift of each part.
``normal_decompose`` produces the two-term commuting-unitary form that
exists precisely for normal matrices.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .duality import DualityGate, _weighted_sum, as_slit_weights
from .statevec import DEFAULT_UNITARY_TOL, checked_unitary, is_unitary, validate_operator

#: Normality commutator test threshold (scaled by max(1, ||A||_2)).
DEFAULT_NORMAL_TOL = 1e-10


class NotNormalError(ValueError):
    """Input matrix fails the normality commutator test."""


class GateClass(enum.Enum):
    UNITARY = "unitary"
    STRICTLY_CONTRACTIVE = "strictly_contractive"


@dataclass(frozen=True)
class LcuDecomposition:
    """alpha * sum_i p_i U_i witness for some source matrix.

    ``residual`` records the max-entry reconstruction error against the
    source the decomposition was built from.
    """

    alpha: float
    weights: np.ndarray
    unitaries: tuple[np.ndarray, ...]
    residual: float

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        w = as_slit_weights(self.weights)
        us = tuple(checked_unitary(u, f"factor {i}") for i, u in enumerate(self.unitaries))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "unitaries", us)

    def reconstruct(self) -> np.ndarray:
        return self.alpha * _weighted_sum(self.weights, self.unitaries)


def check_normal(mat, tol: float = DEFAULT_NORMAL_TOL) -> bool:
    """Commutator test: max-entry |A A† - A† A| <= tol * max(1, ||A||_2)."""
    a = validate_operator(mat)
    comm = a @ a.conj().T - a.conj().T @ a
    scale = max(1.0, float(np.linalg.norm(a, 2)))
    return float(np.abs(comm).max()) <= tol * scale


def _unitary_lift(contraction: np.ndarray) -> np.ndarray:
    """For Hermitian B with ||B||_2 <= 1, V = B + i sqrt(I - B^2): (V + V†)/2 = B."""
    evals, vecs = np.linalg.eigh(contraction)
    evals = np.clip(evals, -1.0, 1.0)
    phases = evals + 1j * np.sqrt(1.0 - evals**2)
    return (vecs * phases) @ vecs.conj().T


def lcu_decompose(mat) -> LcuDecomposition:
    """Four-unitary form of an arbitrary square matrix.

    Split A = H1 + i H2 into Hermitian parts, scale both into the unit ball
    by s = max spectral norm, lift each H_k/s to a unitary V_k, and average
    the lift with its adjoint:

        A = 2s * (V1 + V1† + i V2 + i V2†) / 4.

    The zero matrix yields alpha = 0 with identity factors.
    """
    a = validate_operator(mat)
    dim = a.shape[0]
    weights = np.full(4, 0.25)
    herm = (a + a.conj().T) / 2.0
    skew = (a - a.conj().T) / 2.0j
    scale = max(float(np.linalg.norm(herm, 2)), float(np.linalg.norm(skew, 2)))
    if scale == 0.0:
        eye = np.eye(dim, dtype=np.complex128)
        return LcuDecomposition(0.0, weights, (eye, eye, eye, eye), 0.0)
    v1 = _unitary_lift(herm / scale)
    v2 = _unitary_lift(skew / scale)
    unitaries = (v1, v1.conj().T, 1j * v2, 1j * v2.conj().T)
    alpha = 2.0 * scale
    recon = alpha * 0.25 * (unitaries[0] + unitaries[1] + unitaries[2] + unitaries[3])
    return LcuDecomposition(alpha, weights, unitaries, float(np.abs(recon - a).max()))


def normal_decompose(mat, tol: float = DEFAULT_NORMAL_TOL) -> LcuDecomposition:
    """Two commuting unitaries averaging to a normal matrix over max |eigenvalue|.

    Diagonalize A = Q diag(lambda) Q† (complex Schur; diagonal since A is
    normal) and split each eigenvalue over the unit circle:

        lambda/alpha = (e^{i(theta+delta)} + e^{i(theta-delta)}) / 2,
        theta = arg(lambda), delta = arccos(|lambda|/alpha) in [0, pi].

    Both factors share the eigenbasis Q, hence commute.  Eigenvalues are
    sorted by (real, imag) so repeated runs produce identical output.
    Raises NotNormalError when the commutator test fails.
    """
    a = validate_operator(mat)
    if not check_normal(a, tol):
        raise NotNormalError(f"matrix is not normal within tol={tol}")
    dim = a.shape[0]
    weights = np.array([0.5, 0.5])
    tri, q = scipy.linalg.schur(a, output="complex")
    lam = np.diag(tri).copy()
    order = np.lexsort((lam.imag, lam.real))
    lam = lam[order]
    q = q[:, order]
    alpha = float(np.max(np.abs(lam)))
    if alpha == 0.0:
        eye = np.eye(dim, dtype=np.complex128)
        return LcuDecomposition(0.0, weights, (eye, eye), 0.0)
    theta = np.angle(lam)
    delta = np.arccos(np.clip(np.abs(lam) / alpha, 0.0, 1.0))
    u1 = (q * np.exp(1j * (theta + delta))) @ q.conj().T
    u2 = (q * np.exp(1j * (theta - delta))) @ q.conj().T
    recon = alpha * 0.5 * (u1 + u2)
    return LcuDecomposition(alpha, weights, (u1, u2), float(np.abs(recon - a).max()))


def classify_duality_gate(gate: DualityGate, tol: float = DEFAULT_UNITARY_TOL) -> GateClass:
    """UNITARY iff the assembled sum is unitary within tol; such gates are
    exactly the ones preserving every input norm (the extreme points)."""
    if is_unitary(gate.matrix(), tol):
        return GateClass.UNITARY
    return GateClass.STRICTLY_CONTRACTIVE
