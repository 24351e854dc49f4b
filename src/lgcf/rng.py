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


# numpy's SeedSequence hash constants (pool of four 32-bit words) and
# PCG64's 128-bit multiplier, for stream_uniforms.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64 = (1 << 32) - 1, (1 << 64) - 1


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

    Rows whose keys split into the same number of words are seeded and
    drawn together as arrays: SeedSequence's hashing on uint32 columns (its
    hash constants depend only on the word count), then each PCG64 draw by
    a jump from the seeded state, state_j = A_j * s + C_j * inc mod 2^128,
    on uint64 halves.
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
        out[idx] = _pcg64_uniforms(_seed_state(entropy), n)
    return out


def _seed_state(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(4, np.uint64) for each row of a
    (B, L) uint32 entropy array, as a (B, 4) uint64 array.

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
    return words[:, 0::2] | (words[:, 1::2] << 32)


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


@functools.lru_cache(maxsize=8)
def _jumps(n: int) -> tuple[np.ndarray, ...]:
    """Halves (A_hi, A_lo, C_hi, C_lo) of the jumps to draws 1..n from the
    seed: PCG64 seeds with s = 0, s = s * M + inc, s += initstate,
    s = s * M + inc, and each draw steps once more, so draw j reads state
    M^(j+1) * initstate + (1 + M + ... + M^(j+1)) * inc mod 2^128."""
    mod = 1 << 128
    a, c = [], []
    power, total = _PCG_MULT, 1 + _PCG_MULT
    for _ in range(n):
        power = power * _PCG_MULT % mod
        total = (total + power) % mod
        a.append(power)
        c.append(total)
    return tuple(np.array([x >> 64 if hi else x & _M64 for x in seq], dtype=np.uint64)
                 for seq in (a, c) for hi in (True, False))


def _mul128(x_hi, x_lo, c_hi, c_lo):
    """(x_hi, x_lo) * (c_hi, c_lo) mod 2^128 as uint64 halves, broadcast."""
    a0, a1 = x_lo & _M32, x_lo >> 32
    b0, b1 = c_lo & _M32, c_lo >> 32
    # The high word of x_lo * c_lo from 32-bit halves; no sum exceeds 2^64.
    t = a1 * b0 + (a0 * b0 >> 32)
    w = a0 * b1 + (t & _M32)
    hi = a1 * b1 + (t >> 32) + (w >> 32) + x_lo * c_hi + x_hi * c_lo
    return hi, x_lo * c_lo


def _pcg64_uniforms(seed: np.ndarray, n: int) -> np.ndarray:
    """Generator(PCG64).random(n) per row of generate_state's (B, 4) words
    (s0, s1, s2, s3): initstate = (s0, s1) and inc = (s2, s3) << 1 | 1 as
    (hi, lo)."""
    s0, s1, s2, s3 = (col[:, None] for col in seed.T)
    a_hi, a_lo, c_hi, c_lo = _jumps(n)
    x_hi, x_lo = _mul128(s0, s1, a_hi, a_lo)
    y_hi, y_lo = _mul128((s2 << 1) | (s3 >> 63), (s3 << 1) | 1, c_hi, c_lo)
    lo = x_lo + y_lo
    hi = x_hi + y_hi + (lo < x_lo)
    # XSL RR: the halves' xor rotated right by the state's top six bits.
    x, rot = hi ^ lo, hi >> 58
    out = (x >> rot) | (x << ((64 - rot) & 63))
    return (out >> 11) * (1.0 / 9007199254740992.0)
