"""Stream layout 2: one block per follower role, a row per follower."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackmf import _rng
from stackmf._rng import SharedNoise, generator

FOLLOWER_TAGS = (_rng.FOLLOWER_INIT, _rng.FOLLOWER_NOISE, _rng.DELAY)

entropies = st.integers(min_value=0, max_value=2 ** 64 - 1)
# (name, draw): the three samplers followers draw from, rows of shape (2, 3)
# for the normal and Student t blocks and scalars for the uniforms
SAMPLERS = (
    ("normal", lambda rng, n: rng.standard_normal((n, 2, 3))),
    ("student_t", lambda rng, n: rng.standard_t(4.5, size=(n, 2))),
    ("uniform", lambda rng, n: rng.random(n)),
)
samplers = st.sampled_from(SAMPLERS)


@settings(max_examples=40, deadline=None)
@given(entropy=entropies, tag=st.sampled_from(FOLLOWER_TAGS))
def test_keys_equal_seed_sequence(entropy, tag):
    # the block of role tag comes from the Philox keyed by
    # SeedSequence(entropy, spawn_key=(tag,))
    keys = []
    SharedNoise(entropy).rows(tag, 2, lambda rng, n: keys.append(
        rng.bit_generator.state["state"]["key"]) or rng.random(n))
    expected = np.random.SeedSequence(entropy, spawn_key=(tag,)) \
        .generate_state(2, np.uint64)
    assert np.array_equal(keys[0], expected)


@settings(max_examples=40, deadline=None)
@given(entropy=entropies, tag=st.sampled_from(FOLLOWER_TAGS),
       sampler=samplers, N=st.integers(0, 20))
def test_draws_equal_generator(entropy, tag, sampler, N):
    _, draw = sampler
    assert np.array_equal(SharedNoise(entropy).rows(tag, N, draw),
                          draw(generator(entropy, tag), N))


@settings(max_examples=40, deadline=None)
@given(entropy=entropies, tag=st.sampled_from(FOLLOWER_TAGS),
       sampler=samplers, N=st.integers(1, 40), data=st.data())
def test_nested_prefix(entropy, tag, sampler, N, data):
    # the first n rows of a block of N rows are a block of n rows
    _, draw = sampler
    n = data.draw(st.integers(1, N))
    big = SharedNoise(entropy).rows(tag, N, draw)
    small = SharedNoise(entropy).rows(tag, n, draw)
    assert np.array_equal(big[:n], small)


@settings(max_examples=40, deadline=None)
@given(entropy=entropies, tag=st.sampled_from(FOLLOWER_TAGS),
       sampler=samplers, perm=st.permutations(range(9)),
       N=st.integers(1, 9))
def test_permuted_view_gathers_rows(entropy, tag, sampler, perm, N):
    _, draw = sampler
    base = SharedNoise(entropy).rows(tag, 9, draw)
    view = SharedNoise(entropy).permuted(perm)
    assert np.array_equal(view.rows(tag, N, draw), base[perm[:N]])


def test_calls_share_no_generator():
    # each call builds its own stream, so interleaved or concurrent calls
    # on one SharedNoise see the same block
    noise = SharedNoise(1)
    seen = []

    def draw(rng, n):
        seen.append(rng)
        return rng.random(n)

    a = noise.rows(_rng.DELAY, 3, draw)
    b = noise.rows(_rng.DELAY, 3, draw)
    assert seen[0] is not seen[1]
    assert np.array_equal(a, b)


def test_empty_indices():
    block = SharedNoise(5).rows(_rng.FOLLOWER_NOISE, 0,
                                lambda rng, n: rng.standard_normal((n, 4)))
    assert block.shape == (0, 4)


def test_large_entropy_beyond_pool():
    # entropy of more than four 32-bit words still keys one block
    entropy = 2 ** 200 + 12345
    got = SharedNoise(entropy).rows(3, 5, lambda rng, n: rng.random(n))
    assert np.array_equal(got, generator(entropy, 3).random(5))


def test_subsample_streams_are_distinct():
    noise = SharedNoise(8)
    draws = {key: noise.subsample(*key).random(4)
             for key in [(0,), (1, 8), (1, 16)]}
    assert draws[(0,)].tolist() == generator(8, _rng.SUBSAMPLE, 0).random(
        4).tolist()
    assert len({tuple(v) for v in draws.values()}) == 3


class TestSharedNoiseFollowers:
    def test_identity_layout(self):
        got = SharedNoise(21).rows(_rng.FOLLOWER_NOISE, 4,
                                   lambda rng, n: rng.random(n))
        assert np.array_equal(
            got, generator(21, _rng.FOLLOWER_NOISE).random(4))

    def test_permuted_view_permutes_streams(self):
        perm = [2, 0, 3, 1]
        draw = lambda rng, n: rng.random(n)     # noqa: E731
        base = SharedNoise(21).rows(_rng.DELAY, 4, draw)
        view = SharedNoise(21).permuted(perm)
        assert np.array_equal(view.rows(_rng.DELAY, 4, draw), base[perm])
        # a view draws the block up to the largest row it maps to
        sizes = []
        SharedNoise(21).permuted([3, 0, 1]).rows(
            _rng.DELAY, 2, lambda rng, n: sizes.append(n) or rng.random(n))
        assert sizes == [4]
        with pytest.raises(IndexError):
            view.rows(_rng.DELAY, 5, draw)
