"""Per-trial seeding and the lockstep PCG64 against numpy's own.

``trial_rng`` is numpy's ``default_rng(SeedSequence(seed,
spawn_key=(index,)))``.  ``rand._pcg64_states`` computes the PCG64 states of
those generators itself, a block of indices at a time, and
``rand._pcg64_random`` draws ``Generator.random`` doubles for many PCG64
states at once in uint64 limb arithmetic.  These tests compare them with
numpy directly, so a numpy release that changed SeedSequence, PCG64 seeding
or its doubles fails here instead of silently changing seeded outputs.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualsim import (Reset, SearchProblem, basis_state, build_dilation, rand, run_trials,
                     search_gate, trial_rng)

# one- to five-word seeds: SeedSequence pads seeds shorter than its 4-word
# pool and mixes longer ones in after it
WIDE_SEEDS = [2**64, 2**96 + 7, 2**128 - 1, 2**128, 2**160 + 3]


def numpy_rng(seed, index):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


@given(seed=st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(WIDE_SEEDS)),
       index=st.integers(0, 2**70))
def test_trial_streams_match_numpy_seed_sequence(seed, index):
    rng, ref = trial_rng(seed, index), numpy_rng(seed, index)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.random(4).tolist() == ref.random(4).tolist()


def test_negative_seed_or_index_is_rejected():
    # by numpy for trial_rng, and by run_trials before any trial runs
    state = basis_state(2, 0)
    circuit = build_dilation(search_gate(SearchProblem(2, frozenset({1}))))
    with pytest.raises(ValueError):
        trial_rng(-1, 0)
    with pytest.raises(ValueError):
        trial_rng(0, -1)
    with pytest.raises(ValueError):
        run_trials(state, circuit, Reset(state), 8, -1, range(3))
    with pytest.raises(ValueError):
        run_trials(state, circuit, Reset(state), 8, 0, range(-2, 2))


M64 = (1 << 64) - 1
U128 = st.integers(0, 2**128 - 1)


def limbs(values):
    """uint64 (hi, lo) arrays of 128-bit ints."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & M64 for v in values], dtype=np.uint64))


@settings(max_examples=40, deadline=None)
@given(lanes=st.lists(st.tuples(U128, U128), min_size=1, max_size=4),
       k=st.integers(1, 5000))
# all-ones low limbs: every addition and product carries out of the low limb
@example(lanes=[(M64, M64), (2**128 - 1, 2**128 - 1), (0, 0)], k=4097)
@example(lanes=[(1 << 64, M64 << 1)], k=1)
def test_limb_pcg64_matches_numpy_generator(lanes, k):
    # (state, inc) as numpy keeps them; numpy makes no inc odd when it is set
    states, incs = zip(*lanes)
    draws, hi, lo = rand._pcg64_random(*limbs(states), *limbs(incs), k)
    assert draws.shape == hi.shape == lo.shape == (len(lanes), k)
    for row, (state, inc) in enumerate(lanes):
        rng = np.random.Generator(np.random.PCG64(0))
        rng.bit_generator.state = {"bit_generator": "PCG64",
                                   "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        assert draws[row].tobytes() == rng.random(k).tobytes()
        assert int(hi[row, -1]) << 64 | int(lo[row, -1]) == rng.bit_generator.state["state"]["state"]


@settings(max_examples=20, deadline=None)
@given(seed=st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(WIDE_SEEDS)),
       start=st.integers(0, 2**40), count=st.integers(1, 1500))
@example(seed=0, start=0, count=300)
@example(seed=2**64 - 1, start=2**32 - 150, count=300)  # one- and two-word keys in a block
@example(seed=5, start=2**64 - 2, count=4)  # three-word keys
def test_limb_states_are_the_trial_streams(seed, start, count):
    # the limb arrays of _pcg64_states, blocks of rand._BLOCK, as numpy's states
    indices = range(start, start + count)
    blocks = list(rand._pcg64_states(seed, indices))
    assert [b[0].size for b in blocks] == [len(indices[i:i + rand._BLOCK])
                                           for i in range(0, count, rand._BLOCK)]
    lanes = [np.concatenate(arrays).tolist() for arrays in zip(*blocks)]
    for index, s_hi, s_lo, i_hi, i_lo in zip(indices, *lanes):
        want = numpy_rng(seed, index).bit_generator.state["state"]
        assert (s_hi << 64 | s_lo, i_hi << 64 | i_lo) == (want["state"], want["inc"])
