"""Per-trial seeding against numpy's own SeedSequence.

``trial_rngs`` and ``trial_rng`` compute the PCG64 state of
``SeedSequence(seed, spawn_key=(index,))`` themselves, a block of indices at
a time.  These tests compare them with numpy directly, so a numpy release
that changed SeedSequence or PCG64 seeding fails here instead of silently
changing seeded outputs.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualsim import trial_rng, trial_rngs

# one- to five-word seeds: SeedSequence pads seeds shorter than its 4-word
# pool and mixes longer ones in after it
WIDE_SEEDS = [2**64, 2**96 + 7, 2**128 - 1, 2**128, 2**160 + 3]


def numpy_rng(seed, index):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def assert_same_stream(rng, ref):
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.random(4).tolist() == ref.random(4).tolist()


@settings(max_examples=60, deadline=None)
@given(seed=st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(WIDE_SEEDS)),
       start=st.integers(0, 2**40), count=st.integers(1, 300))
@example(seed=0, start=0, count=300)
@example(seed=2**64 - 1, start=2**32 - 150, count=300)  # one- and two-word keys in a block
@example(seed=5, start=2**64 - 2, count=4)  # three-word keys
def test_trial_streams_match_numpy_seed_sequence(seed, start, count):
    indices = range(start, start + count)
    for index, rng in zip(indices, trial_rngs(seed, indices)):
        assert_same_stream(rng, numpy_rng(seed, index))
    assert_same_stream(trial_rng(seed, start), numpy_rng(seed, start))


def test_trial_rngs_reseeds_one_generator_lazily():
    # a huge range costs nothing until drawn: states are made a block at a time
    rngs = trial_rngs(11, range(2**40))
    first = next(rngs)
    assert_same_stream(first, numpy_rng(11, 0))
    second = next(rngs)
    assert second is first
    assert_same_stream(second, numpy_rng(11, 1))


def test_negative_seed_or_index_is_rejected():
    with pytest.raises(ValueError):
        trial_rng(-1, 0)
    with pytest.raises(ValueError):
        next(trial_rngs(-1, range(3)))
    with pytest.raises(ValueError):
        trial_rng(0, -1)
    with pytest.raises(ValueError):
        next(trial_rngs(0, range(-2, 2)))
