"""Path i's generator ``PCG64(SeedSequence((seed, i)))``, for a chunk of paths at once.

The PCG64 seeding words of every path are computed in one uint32 numpy
pass, a bit-exact port of numpy's ``SeedSequence`` for indices below 2**32.
The engine imports this module on its first run, as defining an
``ISeedSequence`` subclass imports ``numpy.random``.
"""

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence constants
POOL_SIZE, MASK32 = 4, 0xFFFFFFFF
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715


class _Hash:
    """numpy's ``hashmix`` with its running constant, on uint32 arrays."""

    def __init__(self, const: int, mult: int):
        self.const, self.mult = const, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ self.const
        self.const = self.const * self.mult & MASK32
        value *= self.const
        return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = MIX_MULT_L * x - MIX_MULT_R * y
    return result ^ (result >> 16)


def seeding_words(seed: int, indices) -> np.ndarray:
    """Row k: ``SeedSequence((seed, indices[k])).generate_state(4, np.uint64)``."""
    words = [seed & MASK32]  # the entropy: seed's 32-bit words, low first, then the index
    while seed := seed >> 32:
        words.append(seed & MASK32)
    entropy = np.empty((len(words) + 1, len(indices)), np.uint32)
    entropy[:-1], entropy[-1] = np.array(words)[:, None], indices

    hashmix = _Hash(INIT_A, MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros_like(entropy[0]))
            for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))

    state_hash = _Hash(INIT_B, MULT_B)
    state = np.column_stack([state_hash(pool[i % POOL_SIZE]) for i in range(2 * POOL_SIZE)])
    return state.astype("<u4").view("<u8").astype(np.uint64)  # little-endian word pairs


class _Words(ISeedSequence):
    """One path's precomputed seeding words; PCG64 reads them once, when built."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words


def path_generators(seed: int, indices) -> list[Generator]:
    """The generators of paths ``indices`` of a run with seed ``seed``."""
    return [Generator(PCG64(_Words(row))) for row in seeding_words(int(seed), indices)]
