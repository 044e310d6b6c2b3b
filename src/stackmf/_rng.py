"""Deterministic stream derivation for reproducible parallel Monte Carlo.

Every random draw in the package comes from a counter-based Philox generator
keyed by (master entropy, stream tag, indices), ``generator(entropy,
*key)``, seeded through ``np.random.SeedSequence``.  Streams are independent
by construction, so replications can be generated in any order or
concurrently and still produce bit-identical results.

Stream layout 2 (``STREAM_LAYOUT``, recorded in ``manifest.json``): each
follower role of a replication (initial state, Euler noise, delay) is one
stream ``generator(entropy, tag)``, and follower i owns row i of one
row-major block drawn from it.  numpy's samplers fill a block element by
element in order, so the first n rows of a block of N rows equal a block of
n rows (nested N), and a relabeled view gathers rows (equivariance).
"""
from __future__ import annotations

import numpy as np

# the layout described above, recorded in every manifest
STREAM_LAYOUT = 2

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


def generator(entropy: int, *key: int) -> np.random.Generator:
    """Philox generator for the stream identified by (entropy, key...)."""
    seq = np.random.SeedSequence(entropy=entropy, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(seq))


def child_entropy(entropy: int, *key: int) -> int:
    """64-bit entropy for an independent child family, e.g. one replication.

    Children are a pure function of (entropy, key), so work units seeded this
    way can run in any order or on any number of workers and still produce
    identical numbers.
    """
    seq = np.random.SeedSequence(entropy=int(entropy),
                                 spawn_key=tuple(int(k) for k in key))
    return int(seq.generate_state(1, np.uint64)[0])


class SharedNoise:
    """Noise layout shared between an N-player run and its limit twin.

    The leader streams depend only on the master entropy, follower draws on
    the follower index (a row of its role's block), so the same object drives
    synchronously coupled simulations and relabeling followers permutes
    their draws exactly.  Each call builds its own generator, so one object
    per replication shares nothing across threads.
    """

    def __init__(self, entropy: int):
        self.entropy = int(entropy)
        self._table = None

    def leader_noise(self) -> np.random.Generator:
        return generator(self.entropy, LEADER_NOISE)

    def rows(self, tag: int, N: int, draw) -> np.ndarray:
        """Rows of followers 0..N-1 under one follower tag (FOLLOWER_INIT,
        FOLLOWER_NOISE or DELAY).

        ``draw(rng, n)`` returns n rows drawn from rng, e.g.
        ``lambda rng, n: rng.random(n)``; it is called once with the stream
        ``generator(entropy, tag)``.  A permuted view draws max(table[:N]) + 1
        rows and gathers them through its table.
        """
        idx = np.arange(N) if self._table is None else self._table[np.arange(N)]
        block = draw(generator(self.entropy, tag), int(idx.max(initial=-1)) + 1)
        return block if self._table is None else block[idx]

    def flow_init(self, atom: int) -> np.random.Generator:
        return generator(self.entropy, FLOW_INIT, atom)

    def flow_noise(self, atom: int) -> np.random.Generator:
        return generator(self.entropy, FLOW_NOISE, atom)

    def subsample(self, *key: int) -> np.random.Generator:
        """Subsampling stream of one consumer: (0,) for the Picard
        discrepancy, (1, N) for the W2 support at population N."""
        return generator(self.entropy, SUBSAMPLE, *key)

    def permuted(self, perm) -> "SharedNoise":
        """View with follower i mapped to the rows of perm[i]."""
        view = SharedNoise(self.entropy)
        view._table = np.array([int(p) for p in perm], dtype=np.int64)
        return view


def exact_sum(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Permutation-invariant float sum (sorts before pairwise summation).

    Sorting makes the summation order a function of the multiset of values
    only, so relabeling particles cannot perturb the last ulp of aggregates.
    """
    return np.sum(np.sort(values, axis=axis), axis=axis)
