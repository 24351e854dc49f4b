"""Deterministic random stream derivation.

Every stochastic component draws from its own numpy Generator derived from
(master seed, purpose tag, context ids...), so a result never depends on how
many draws some other component happened to consume.  Purpose tags keep the
streams of different components disjoint even under equal master seeds.
"""

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


def seed_stream(*keys: int) -> np.random.Generator:
    """Generator seeded by a tuple of non-negative integers.

    Each key is split into little-endian 32-bit words, as SeedSequence does
    for a list of ints, and the words go in as one uint32 array: the same
    entropy without numpy's per-key conversion.  The Generator is built as
    default_rng builds it, without its argument checks.
    """
    words = []
    for k in keys:
        k = int(k)
        if k < 0:
            raise DomainError(f"seed keys must be non-negative, got {k}")
        words.append(k & 0xFFFFFFFF)
        k >>= 32
        while k:
            words.append(k & 0xFFFFFFFF)
            k >>= 32
    return Generator(PCG64(SeedSequence(np.array(words, dtype=np.uint32))))
