"""Deterministic stream derivation for reproducible parallel Monte Carlo.

Every random draw in the package comes from a counter-based Philox generator
keyed by (master entropy, stream tag, indices).  Streams are independent by
construction, so replications and players can be generated in any order or
concurrently and still produce bit-identical results.

``generator(entropy, *key)`` builds one stream from
``np.random.SeedSequence(entropy, spawn_key=key)``.  Per-follower streams are
built in batches by ``streams(entropy, tag, indices)``: it derives the Philox
keys of all indices at once in uint32 arithmetic and re-keys a single
generator per batch, which costs a fraction of a SeedSequence plus a Philox
per follower.  Its contract is equality, not similarity: the key of index i
is exactly ``SeedSequence(entropy, spawn_key=(tag, i)).generate_state(2,
np.uint64)`` (numpy's hashmix/mix pool of four words followed by
``generate_state``), and every draw from the i-th stream equals the same
draw from ``generator(entropy, tag, i)``.  Each batch also builds its first
row with ``generator`` and raises ``RuntimeError`` if the first draws
differ, so a change in numpy's seeding can never move streams silently.
"""
from __future__ import annotations

import numpy as np

# stream tags; values are part of the reproducibility contract
LEADER_INIT = 0
LEADER_NOISE = 1
FOLLOWER_INIT = 2
FOLLOWER_NOISE = 3
DELAY = 4
FLOW_INIT = 5
FLOW_NOISE = 6
SUBSAMPLE = 7
PROBE = 8
PANEL = 9
REPLICATION = 10

# constants of numpy's SeedSequence (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def generator(entropy: int, *key: int) -> np.random.Generator:
    """Philox generator for the stream identified by (entropy, key...)."""
    seq = np.random.SeedSequence(entropy=entropy, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(seq))


def _words(n: int) -> list:
    """Little-endian uint32 words of a nonnegative integer ([0] for 0)."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


# The hash steps below take a Python int or a uint32 array as the value and
# a Python int as the running constant; `& _MASK32` makes the Python-int
# arithmetic wrap exactly as uint32 arrays do.

def _hashmix(value, const: int):
    """SeedSequence hashmix: (hashed value, next hash constant)."""
    value = value ^ const
    const = (const * _MULT_A) & _MASK32
    value = (value * const) & _MASK32
    return value ^ (value >> _XSHIFT), const


def _mix(x, y):
    result = (((_MIX_MULT_L * x) & _MASK32)
              - ((_MIX_MULT_R * y) & _MASK32)) & _MASK32
    return result ^ (result >> _XSHIFT)


def _philox_keys(entropy: int, tag: int, indices) -> np.ndarray:
    """(n, 2) uint64 Philox keys of the streams (entropy, tag, i).

    Row r equals ``SeedSequence(entropy, spawn_key=(tag, indices[r]))
    .generate_state(2, np.uint64)``.  Only the last entropy word, the
    index, differs between rows, so the pool is mixed once in Python
    integers and the index word is mixed in for all rows at once.
    """
    entropy, tag = int(entropy), int(tag)
    idx = np.asarray(indices)
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise ValueError("indices must be a 1-D sequence of integers")
    if entropy < 0:
        raise ValueError(f"entropy must be nonnegative, got {entropy}")
    if not 0 <= tag <= _MASK32:
        raise ValueError(f"stream tag must lie in [0, 2**32), got {tag}")
    if idx.size and (int(idx.min()) < 0 or int(idx.max()) > _MASK32):
        raise ValueError("stream indices must lie in [0, 2**32)")
    # a spawn key pads the run entropy with zeros up to the pool size
    run = _words(entropy)
    run += [0] * (_POOL_SIZE - len(run))
    words = run + [tag, idx.astype(np.uint32)]
    const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    # generate_state: four uint32 words from the pool, paired little-endian
    const = _INIT_B
    state = []
    for value in pool:
        value = value ^ const
        const = (const * _MULT_B) & _MASK32
        value = (value * const) & _MASK32
        state.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    return np.stack([state[0] | (state[1] << np.uint64(32)),
                     state[2] | (state[3] << np.uint64(32))], axis=1)


def streams(entropy: int, tag: int, indices):
    """Generators of the streams (entropy, tag, i) for i in indices, in order.

    The i-th generator's draws equal those of ``generator(entropy, tag, i)``.
    One Generator is re-keyed for each index and yielded again, so finish
    drawing from it before advancing the iterator.  Each call builds its own
    Generator, so concurrent calls share nothing.  Raises ValueError for a
    negative entropy or a tag or index outside [0, 2**32), at call time.
    """
    indices = np.asarray(indices)
    keys = _philox_keys(entropy, tag, indices)
    if not len(keys):
        return iter(())
    return _rekeyed(generator(entropy, tag, int(indices[0])), keys)


def _rekeyed(gen: np.random.Generator, keys: np.ndarray):
    bitgen = gen.bit_generator
    state = bitgen.state
    zeros = np.zeros(4, dtype=np.uint64)

    def rekey(key):
        state["state"] = {"counter": zeros, "key": key}
        state["buffer_pos"] = 4
        state["has_uint32"] = 0
        state["uinteger"] = 0
        bitgen.state = state

    # guard: row 0 re-keyed here must draw what SeedSequence seeding drew
    expected = bitgen.random_raw()
    rekey(keys[0])
    if bitgen.random_raw() != expected:
        raise RuntimeError(
            "batched Philox keys disagree with numpy's SeedSequence; "
            "its seeding algorithm has changed")
    for key in keys:
        rekey(key)
        yield gen


def child_entropy(entropy: int, *key: int) -> int:
    """64-bit entropy for an independent child family, e.g. one replication.

    Children are a pure function of (entropy, key), so work units seeded this
    way can run in any order or on any number of threads and still produce
    identical numbers.
    """
    seq = np.random.SeedSequence(entropy=int(entropy),
                                 spawn_key=tuple(int(k) for k in key))
    return int(seq.generate_state(1, np.uint64)[0])


class SharedNoise:
    """Noise layout shared between an N-player run and its limit twin.

    The leader streams depend only on the master entropy, follower streams on
    the follower index, so the same object drives synchronously coupled
    simulations and relabeling followers permutes their streams exactly.
    """

    def __init__(self, entropy: int):
        self.entropy = int(entropy)
        self._table = None

    def leader_noise(self) -> np.random.Generator:
        return generator(self.entropy, LEADER_NOISE)

    def followers(self, tag: int, N: int):
        """Streams of followers 0..N-1 under one per-follower tag
        (FOLLOWER_INIT, FOLLOWER_NOISE or DELAY), as ``streams`` yields
        them."""
        return streams(self.entropy, tag, self._map(np.arange(N)))

    def flow_init(self, atom: int) -> np.random.Generator:
        return generator(self.entropy, FLOW_INIT, atom)

    def flow_noise(self, atom: int) -> np.random.Generator:
        return generator(self.entropy, FLOW_NOISE, atom)

    def subsample(self) -> np.random.Generator:
        return generator(self.entropy, SUBSAMPLE)

    def _map(self, idx: np.ndarray) -> np.ndarray:
        return idx if self._table is None else self._table[idx]

    def permuted(self, perm) -> "SharedNoise":
        """View with follower i mapped to the streams of perm[i]."""
        view = SharedNoise(self.entropy)
        view._table = np.array([int(p) for p in perm], dtype=np.int64)
        return view


def exact_sum(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Permutation-invariant float sum (sorts before pairwise summation).

    Sorting makes the summation order a function of the multiset of values
    only, so relabeling particles cannot perturb the last ulp of aggregates.
    """
    return np.sum(np.sort(values, axis=axis), axis=axis)
