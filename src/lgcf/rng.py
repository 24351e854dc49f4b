"""Deterministic random stream derivation.

Every stochastic component draws from its own numpy Generator derived from
(master seed, purpose tag, context ids...), so a result never depends on how
many draws some other component happened to consume.  Purpose tags keep the
streams of different components disjoint even under equal master seeds.
"""

import functools
from operator import index

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISeedSequence

from .errors import DomainError

# Purpose tags (arbitrary distinct small ints; part of the persistence story,
# so never renumber).
WALK = 1            # training-time subgraph walks, keyed (u, i, epoch)
TRAIN_NEGATIVE = 2  # negative item sampling, keyed (epoch,)
PARAM_INIT = 3      # parameter initialization
EPOCH_SHUFFLE = 4   # training edge order, keyed (epoch,)
EVAL_NEGATIVE = 5   # evaluation candidate sampling, keyed (u, i)
EVAL_WALK = 6       # evaluation-time subgraph walks, keyed (u, i)
SYNTH = 7           # synthetic graph generation
SPLIT = 8           # train/val/test splitting
LEVELS = 9          # sparsity level construction
ENSEMBLE = 10       # sub-model seed derivation for the ensemble
# 11 is retired (case-study dumps now reuse EVAL_WALK); never reuse it.
GRADCHECK = 12      # gradient check instance generation


# numpy's SeedSequence hash constants (pool of four 32-bit words), for
# stream_uniforms.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = (1 << 32) - 1


def _key_words(keys) -> list[int]:
    """The keys split into little-endian 32-bit words, as SeedSequence
    splits a list of ints; DomainError for a key that is a bool, a float, a
    str or negative."""
    words = []
    for k in keys:
        if isinstance(k, bool):  # index(True) is 1, but a flag is no key
            raise DomainError(f"seed keys must be integers, got {k!r}")
        try:
            k = index(k)
        except TypeError:
            raise DomainError(f"seed keys must be integers, got {k!r}") from None
        if k < 0:
            raise DomainError(f"seed keys must be non-negative, got {k}")
        words.append(k & _M32)
        k >>= 32
        while k:
            words.append(k & _M32)
            k >>= 32
    return words


def seed_stream(*keys: int) -> np.random.Generator:
    """Generator seeded by a tuple of non-negative integers; DomainError
    for a key that is a bool, a float, a str or negative.

    The keys' 32-bit words go in as one uint32 array: the same entropy
    without numpy's per-key conversion.  The Generator is built as
    default_rng builds it, without its argument checks.
    """
    return Generator(PCG64(SeedSequence(np.array(_key_words(keys), dtype=np.uint32))))


def stream_uniforms(keys, n: int) -> np.ndarray:
    """(len(keys), n) float64 array whose row b has the bytes of
    seed_stream(*keys[b]).random(n); DomainError for a key seed_stream
    rejects and for a negative n.

    Rows whose keys split into the same number of words are seeded
    together: SeedSequence's hashing runs on uint32 columns, its hash
    constants depending only on the word count.  numpy's own PCG64 then
    draws each row from its hashed state.
    """
    n = index(n)
    if n < 0:
        raise DomainError(f"draw count must be >= 0, got {n}")
    rows = [_key_words(key) for key in keys]
    by_len: dict[int, list[int]] = {}
    for b, words in enumerate(rows):
        by_len.setdefault(len(words), []).append(b)
    out = np.empty((len(rows), n))
    for idx in by_len.values():
        entropy = np.array([rows[b] for b in idx], dtype=np.uint32)  # (rows, words)
        for b, state in zip(idx, _seed_state(entropy)):
            Generator(PCG64(_Seeded(state))).random(out=out[b])
    return out


class _Seeded(ISeedSequence):
    """A seed sequence whose generate_state(4, np.uint64) is known: PCG64
    seeds from the four words as from SeedSequence's."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _seed_state(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(4, np.uint64) for each row of a
    (B, L) uint32 entropy array, as a C-contiguous (B, 4) uint64 array:
    PCG64 reads a row through its data pointer.

    Each hashmix takes the next two links of a fixed chain of hash
    constants, so every step for a run of pool words is one array step.
    """
    rows, length = entropy.shape
    xor, mul = _hash_chain(length)
    step = 0

    def hashmix(value, width):  # value (B, 1) or (B, width), next width steps
        nonlocal step
        value = (value ^ xor[step:step + width]) * mul[step:step + width]
        step += width
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_L - y * _MIX_R
        return result ^ (result >> 16)

    padded = np.zeros((rows, _POOL), dtype=np.uint32)
    padded[:, :min(length, _POOL)] = entropy[:, :_POOL]
    pool = hashmix(padded, _POOL)
    for src in range(_POOL):
        # mixer[src] stays fixed while it is mixed into the other words.
        dst = [d for d in range(_POOL) if d != src]
        pool[:, dst] = mix(pool[:, dst], hashmix(pool[:, src:src + 1], _POOL - 1))
    for j in range(_POOL, length):
        pool = mix(pool, hashmix(entropy[:, j:j + 1], _POOL))
    xor, mul = _STATE_CHAIN
    words = pool[:, [0, 1, 2, 3, 0, 1, 2, 3]] ^ xor
    words *= mul
    words ^= words >> 16
    words = words.astype(np.uint64)
    return np.ascontiguousarray(words[:, 0::2] | (words[:, 1::2] << 32))


def _chain(init: int, mult: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The uint32 constants that hash steps 0..steps-1 xor and multiply by:
    step t xors hc_t and multiplies by hc_(t+1), with hc_0 = init and
    hc_(t+1) = hc_t * mult mod 2^32."""
    links = [init]
    for _ in range(steps):
        links.append(links[-1] * mult & _M32)
    links = np.array(links, dtype=np.uint32)
    return links[:-1], links[1:]


@functools.lru_cache(maxsize=8)
def _hash_chain(length: int) -> tuple[np.ndarray, np.ndarray]:
    """mix_entropy's chain for length entropy words: four, twelve, then
    four per word past the pool."""
    return _chain(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * max(0, length - _POOL))


# generate_state's chain: eight 32-bit words, two per uint64.
_STATE_CHAIN = _chain(_INIT_B, _MULT_B, 2 * _POOL)
