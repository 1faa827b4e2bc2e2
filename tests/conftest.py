"""Shared test helpers: brute-force oracles, deterministic rng stand-ins and a
dilation-call counter."""
import numpy as np

from dualsim import duality, random_unitary


def count_dilations(monkeypatch):
    """Record (circuit, work state) for every run_dilation call from now on."""
    calls, real = [], duality.run_dilation

    def counting(work_state, circuit):
        calls.append((circuit, work_state))
        return real(work_state, circuit)

    monkeypatch.setattr(duality, "run_dilation", counting)
    return calls


class FixedRandom:
    """Generator stand-in whose random() yields a fixed sequence (cycled).

    Lets tests force a specific measurement branch.
    """

    def __init__(self, values):
        self._values = list(values)
        self._i = 0

    def random(self):
        v = self._values[self._i % len(self._values)]
        self._i += 1
        return v

    @property
    def draws(self) -> int:
        """Number of values handed out so far."""
        return self._i


def embed_matrix(op, targets, num_qubits):
    """Brute-force embedding of op onto the target qubits, by bit arithmetic.

    Independent of the package's tensor kernel: rows/columns are enumerated
    index by index.  targets[b] carries bit b of op's own index space.
    """
    dim = 1 << num_qubits
    k = len(targets)
    target_mask = 0
    for t in targets:
        target_mask |= 1 << t
    mat = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        j_in = 0
        for b, t in enumerate(targets):
            j_in |= ((col >> t) & 1) << b
        rest = col & ~target_mask
        for j_out in range(1 << k):
            row = rest
            for b, t in enumerate(targets):
                row |= ((j_out >> b) & 1) << t
            mat[row, col] += op[j_out, j_in]
    return mat


def controlled_block_matrix(op, targets, control, control_value, num_qubits):
    """Brute-force controlled embedding: op where control==value, identity elsewhere."""
    dim = 1 << num_qubits
    embedded = embed_matrix(op, targets, num_qubits)
    mat = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        if (col >> control) & 1 == control_value:
            mat[:, col] = embedded[:, col]
        else:
            mat[col, col] = 1.0
    return mat


def random_normal_matrix(dim, rng, scale=1.0):
    """Q diag(lambda) Q† with random complex eigenvalues: normal by construction."""
    q = random_unitary(dim, rng)
    lam = scale * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    return (q * lam) @ q.conj().T


def unit_disc_matrix(dim, rng):
    """Matrix with i.i.d. entries drawn uniformly from the unit disc."""
    r = np.sqrt(rng.random((dim, dim)))
    phase = np.exp(2j * np.pi * rng.random((dim, dim)))
    return r * phase


def global_phase_dev(a, b):
    """Max deviation between vectors after aligning the global phase of b to a."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    overlap = np.vdot(b, a)
    if abs(overlap) < 1e-300:
        return float(max(np.abs(a).max(), np.abs(b).max()))
    phase = overlap / abs(overlap)
    return float(np.abs(a - phase * b).max())
