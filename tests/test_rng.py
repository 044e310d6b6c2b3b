"""Stream derivation: batched follower streams equal SeedSequence streams."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackmf import _rng
from stackmf._rng import SharedNoise, generator, streams

TAGS = (_rng.LEADER_INIT, _rng.LEADER_NOISE, _rng.FOLLOWER_INIT,
        _rng.FOLLOWER_NOISE, _rng.DELAY, _rng.FLOW_INIT, _rng.FLOW_NOISE,
        _rng.SUBSAMPLE, _rng.PROBE, _rng.PANEL, _rng.REPLICATION)
LAST = 2 ** 32 - 1

entropies = st.integers(min_value=0, max_value=2 ** 64 - 1)
index_lists = st.lists(
    st.one_of(st.sampled_from([0, 1, LAST]),
              st.integers(min_value=0, max_value=LAST)),
    min_size=1, max_size=8)


def seed_sequence_key(entropy, tag, i):
    return np.random.SeedSequence(entropy, spawn_key=(tag, i)).generate_state(
        2, np.uint64)


@settings(max_examples=60, deadline=None)
@given(entropy=entropies, tag=st.sampled_from(TAGS), indices=index_lists)
def test_keys_equal_seed_sequence(entropy, tag, indices):
    for i, gen in zip(indices, streams(entropy, tag, indices)):
        key = gen.bit_generator.state["state"]["key"]
        assert np.array_equal(key, seed_sequence_key(entropy, tag, i))


@settings(max_examples=30, deadline=None)
@given(entropy=entropies, tag=st.sampled_from(TAGS), indices=index_lists,
       df=st.floats(min_value=2.1, max_value=30.0))
def test_draws_equal_generator(entropy, tag, indices, df):
    for i, gen in zip(indices, streams(entropy, tag, indices)):
        ref = generator(entropy, tag, i)
        assert np.array_equal(gen.standard_normal(5), ref.standard_normal(5))
        assert gen.standard_t(df) == ref.standard_t(df)
        assert gen.random() == ref.random()


def test_large_entropy_beyond_pool():
    # more than four entropy words take the late mixing path
    entropy = 2 ** 200 + 12345
    (gen,) = streams(entropy, 3, [9])
    assert gen.random() == generator(entropy, 3, 9).random()


def test_empty_indices():
    assert list(streams(5, 3, [])) == []


@pytest.mark.parametrize("entropy, tag, indices", [
    (-1, 0, [0]),
    (0, 2 ** 32, [0]),
    (0, -1, [0]),
    (0, 0, [2 ** 32]),
    (0, 0, [0, -1]),
    (0, 0, [[0]]),
])
def test_out_of_range_rejected_at_call(entropy, tag, indices):
    with pytest.raises(ValueError):
        streams(entropy, tag, indices)


def test_guard_catches_wrong_keys(monkeypatch):
    real = _rng._philox_keys
    monkeypatch.setattr(_rng, "_philox_keys",
                        lambda *a: real(*a) + np.uint64(1))
    with pytest.raises(RuntimeError, match="SeedSequence"):
        next(streams(11, 3, [0, 1]))


def test_calls_share_no_generator():
    a = streams(1, 3, [0, 1])
    b = streams(1, 3, [0, 1])
    ga, gb = next(a), next(b)
    assert ga is not gb
    ga.random()
    assert gb.random() == generator(1, 3, 0).random()


class TestSharedNoiseFollowers:
    def test_identity_layout(self):
        noise = SharedNoise(21)
        got = [g.random() for g in noise.followers(_rng.FOLLOWER_NOISE, 4)]
        assert got == [generator(21, _rng.FOLLOWER_NOISE, i).random()
                       for i in range(4)]

    def test_permuted_view_permutes_streams(self):
        perm = [2, 0, 3, 1]
        base = [g.random() for g in SharedNoise(21).followers(_rng.DELAY, 4)]
        view = SharedNoise(21).permuted(perm)
        got = [g.random() for g in view.followers(_rng.DELAY, 4)]
        assert got == [base[p] for p in perm]
        with pytest.raises(IndexError):
            view.followers(_rng.DELAY, 5)
