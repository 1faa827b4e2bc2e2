"""Seeded randomness utilities: derived per-trial streams and random objects."""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .statevec import StateVector

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64's LCG
# multiplier (O'Neill 2014); the seeding tests compare against numpy itself.
_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_POOL_WORDS = 4
_BLOCK = 256


def _hash_consts(first: int, mult: int, count: int) -> np.ndarray:
    """(2, count) uint32: the hash constant before and after each of ``count``
    successive multiplications by ``mult``, starting from ``first``."""
    out = np.empty((2, count), dtype=np.uint32)
    for i in range(count):
        out[0, i] = first
        first = first * mult & _M32
        out[1, i] = first
    return out


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    values = (values ^ consts[0]) * consts[1]
    return values ^ (values >> np.uint32(16))


def _num_words(value: int) -> int:
    """Length of the uint32 little-endian word array SeedSequence makes of ``value``."""
    return max(1, -(-value.bit_length() // 32))


# generate_state(4, uint64) hashes the pool words 0, 1, 2, 3, 0, 1, 2, 3
_OUTPUT_CONSTS = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_WORDS)


def _pcg64_states(seed: int, indices: range) -> Iterator[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``SeedSequence(seed, spawn_key=(i,))`` for each
    i in ``indices``, computed ``_BLOCK`` indices at a time.

    The spawn key enters SeedSequence's entropy after the seed words, so the
    pool mixed from the seed alone is ``SeedSequence(seed).pool`` (which also
    keeps numpy's seed validation).  Each index word then mixes into the four
    pool words with the hash constant at that point of the sequence, the pool
    is hashed into four 64-bit words (``generate_state``), and PCG64 seeds
    itself from them (``pcg_setseq_128_srandom_r``).
    """
    if not indices:
        return
    if min(indices[0], indices[-1]) < 0:
        raise ValueError("trial index must be non-negative")
    seq = np.random.SeedSequence(seed)
    pool = np.asarray(seq.pool, dtype=np.uint32)
    # mixing the seed used 4 + 12 hash constants, plus 4 per seed word past the pool;
    # index word k takes the next 4
    used = 4 + 12 + _POOL_WORDS * (max(_POOL_WORDS, _num_words(seq.entropy)) - _POOL_WORDS)
    index_consts = _hash_consts(_INIT_A * pow(_MULT_A, used, 1 << 32) & _M32, _MULT_A,
                                _POOL_WORDS * _num_words(max(indices[0], indices[-1])))
    for start in range(0, len(indices), _BLOCK):
        block = indices[start:start + _BLOCK]
        top = max(block[0], block[-1])
        idx = np.array(block, dtype=np.uint64 if top >> 64 == 0 else object)
        mixer = np.tile(pool, (len(block), 1))
        for k in range(_num_words(top)):
            words = ((idx >> (32 * k)) & _M32).astype(np.uint32)
            consts = index_consts[:, _POOL_WORDS * k:_POOL_WORDS * (k + 1)]
            mixed = _MIX_L * mixer - _MIX_R * _hashmix(words[:, None], consts)
            mixed ^= mixed >> np.uint32(16)
            mixer = mixed if k == 0 else np.where((idx >> (32 * k) != 0)[:, None], mixed, mixer)
        out = _hashmix(mixer[:, [0, 1, 2, 3, 0, 1, 2, 3]], _OUTPUT_CONSTS)
        for s_hi, s_lo, i_hi, i_lo in np.ascontiguousarray(out, "<u4").view("<u8").tolist():
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
            yield ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _M128, inc


def trial_rngs(master_seed: int, indices: range) -> Iterator[np.random.Generator]:
    """The generators of ``trial_rng(master_seed, i)`` for i in ``indices``.

    One Generator is yielded again and again, each time reseeded for the next
    index, so a trial must be done with it before the next one starts.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    for state, inc in _pcg64_states(master_seed, indices):
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        yield rng


def trial_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent generator for trial ``index`` derived from (master_seed, index).

    Bit-exact to ``default_rng(SeedSequence(master_seed, spawn_key=(index,)))``:
    distinct indices give statistically independent streams, and every
    (seed, index) pair is reproducible, so trials can run in any order or in
    parallel with identical results.
    """
    return next(trial_rngs(master_seed, range(index, index + 1)))


def random_state(num_qubits: int, rng: np.random.Generator) -> StateVector:
    """Normalized state with complex-Gaussian amplitudes (Haar on the sphere)."""
    dim = 1 << num_qubits
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(num_qubits, z / np.linalg.norm(z))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))
