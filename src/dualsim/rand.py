"""Seeded randomness utilities: derived per-trial streams, their PCG64 states
and draws for many streams at once in uint64 limb arithmetic, and random
objects."""
from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np

from .statevec import StateVector

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64's LCG
# multiplier (O'Neill 2014); the seeding tests compare against numpy itself.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_POOL_WORDS = 4
_BLOCK = 1024


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


# --- PCG64 on uint64 limb arrays -------------------------------------------------
# A 128-bit value is a (hi, lo) pair of uint64 arrays; products split the low
# limbs into 32-bit halves, and uint64 arithmetic wraps mod 2**64.

_U1, _U11, _U32, _U58, _U63, _U64 = (np.uint64(b) for b in (1, 11, 32, 58, 63, 64))
_LO32 = np.uint64(_M32)
_MULT_HI, _MULT_LO = np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & 0xFFFFFFFFFFFFFFFF)


def _add128(a_hi, a_lo, b_hi, b_lo) -> None:
    """a += b mod 2**128, in place."""
    a_lo += b_lo
    a_hi += b_hi
    a_hi += a_lo < b_lo


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """(a * b) mod 2**128 as new (hi, lo) arrays, broadcasting the limb arrays;
    at most four arrays of the result's size are alive at once."""
    a0, a1 = a_lo & _LO32, a_lo >> _U32
    b0, b1 = b_lo & _LO32, b_lo >> _U32
    hi = a_lo * b_hi
    hi += a_hi * b_lo
    hi += a1 * b1
    part = a0 * b1
    mid = part & _LO32
    part >>= _U32
    hi += part
    np.multiply(a1, b0, out=part)
    mid += part & _LO32
    part >>= _U32
    hi += part
    lo = np.multiply(a0, b0, out=part)
    mid += lo >> _U32
    hi += mid >> _U32
    lo &= _LO32
    mid <<= _U32
    lo |= mid
    return hi, lo


def _pcg64_states(seed: int, indices: range) -> Iterator[tuple[np.ndarray, ...]]:
    """PCG64 ``(state, inc)`` of ``SeedSequence(seed, spawn_key=(i,))`` for each
    i in ``indices``, as uint64 limb arrays ``(state_hi, state_lo, inc_hi,
    inc_lo)`` of ``_BLOCK`` indices at a time.

    The spawn key enters SeedSequence's entropy after the seed words, so the
    pool mixed from the seed alone is ``SeedSequence(seed).pool`` (which also
    keeps numpy's seed validation).  Each index word then mixes into the four
    pool words with the hash constant at that point of the sequence, the pool
    is hashed into four 64-bit words (``generate_state``), and PCG64 seeds
    itself from them (``pcg_setseq_128_srandom_r``: inc = seq << 1 | 1,
    state = (inc + initstate) * MULT + inc mod 2**128), in limb arithmetic.
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
        s_hi, s_lo, i_hi, i_lo = np.ascontiguousarray(out, "<u4").view("<u8").T
        inc_hi, inc_lo = i_hi << _U1 | i_lo >> _U63, i_lo << _U1 | _U1
        _add128(s_hi, s_lo, inc_hi, inc_lo)
        state = _mul128(s_hi, s_lo, _MULT_HI, _MULT_LO)
        _add128(*state, inc_hi, inc_lo)
        yield (*state, inc_hi, inc_lo)


@functools.cache
def _jumps(levels: int) -> tuple[np.ndarray, ...]:
    """(MULT**k, sum_{i<k} MULT**i) for k = 1 .. 2**levels: read-only limb
    arrays (A_hi, A_lo, B_hi, B_lo), each level built by doubling the one
    below it."""
    if levels == 0:
        table = tuple(np.array([v], dtype=np.uint64) for v in (_MULT_HI, _MULT_LO, 0, 1))
    else:
        a_hi, a_lo, b_hi, b_lo = low = _jumps(levels - 1)
        a_m = a_hi[-1:], a_lo[-1:]  # A_{m+j} = A_m A_j, B_{m+j} = B_m + A_m B_j
        high_b = _mul128(b_hi, b_lo, *a_m)
        _add128(*high_b, b_hi[-1:], b_lo[-1:])
        table = tuple(np.concatenate(pair)
                      for pair in zip(low, (*_mul128(a_hi, a_lo, *a_m), *high_b)))
    for t in table:
        t.setflags(write=False)
    return table


def _pcg64_random(state_hi, state_lo, inc_hi, inc_lo, k: int):
    """The next ``k`` ``Generator.random()`` doubles of each PCG64 lane, as an
    (n, k) array, and the lanes' (hi, lo) states after each draw.

    Draw j (from 1) outputs the state A_j state + B_j inc after j steps:
    XSL-RR (the high and low words xored, rotated right by the top six
    bits), then (x >> 11) * 2**-53.
    """
    a_hi, a_lo, b_hi, b_lo = (t[:k] for t in _jumps(max(0, k - 1).bit_length()))
    hi, lo = _mul128(state_hi[:, None], state_lo[:, None], a_hi, a_lo)
    _add128(hi, lo, *_mul128(inc_hi[:, None], inc_lo[:, None], b_hi, b_lo))
    rot = hi >> _U58
    x = hi ^ lo
    low_bits = x >> rot
    np.left_shift(x, _U64 - rot & _U63, out=x)
    x |= low_bits
    x >>= _U11
    draws = x.astype(np.float64)
    draws *= 2.0**-53
    return draws, hi, lo


def _reseeded(rng: np.random.Generator, lanes) -> Iterator[np.random.Generator]:
    """``rng`` with its PCG64 put at each lane of the limb arrays ``lanes``
    (state_hi, state_lo, inc_hi, inc_lo) in turn, no half-word buffered."""
    for s_hi, s_lo, i_hi, i_lo in zip(*(a.tolist() for a in lanes)):
        rng.bit_generator.state = {"bit_generator": "PCG64",
                                   "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
                                   "has_uint32": 0, "uinteger": 0}
        yield rng


def trial_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent generator for trial ``index`` derived from (master_seed, index):
    ``default_rng(SeedSequence(master_seed, spawn_key=(index,)))``.

    Distinct indices give statistically independent streams, and every
    (seed, index) pair is reproducible, so trials can run in any order or in
    parallel with identical results.  ``_pcg64_states`` computes the same
    PCG64 states a block of indices at a time.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(index,)))


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
