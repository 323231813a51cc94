"""Deterministic random streams and the one block loop of experiment runners.

Every Monte Carlo trial in this package draws from the stream

    derive_rng(master_seed, *key)

where ``key`` identifies the trial (for example ``(cell_index, trial_index)``).
Streams for distinct keys are statistically independent and do not depend on
the order in which they are created, so parallel and serial runs of the same
experiment produce byte-identical output.  ``fan_out`` is the one loop that
cuts the runners' trials into blocks, run inline or in a process pool.

``derive_rngs`` is the block path the runners take: for a (T, L) array of
keys it yields the same streams, state for state, but runs numpy's
SeedSequence hash (O'Neill's seed_seq, 2014) once for the whole block as
uint32 arithmetic on arrays of T words, and re-seeds one PCG64 per key
instead of building a SeedSequence, a PCG64 and a Generator per trial.
``derive_rng`` stays the one-stream API and the reference it is tested
against.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from itertools import islice

import numpy as np

__all__ = ["derive_rng", "derive_rngs", "fan_out"]

# Trials per block: bounds each block's working set, never the output.
BLOCK = 256

_worker_task = None  # (fn, common), set once in each pool process


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Return a Generator for the stream identified by ``(master_seed, *key)``."""
    _require_seed(master_seed)
    seq = np.random.SeedSequence([int(master_seed), *[int(k) for k in key]])
    return np.random.default_rng(seq)


def derive_rngs(master_seed: int, keys):
    """Iterate over one Generator per row of ``keys``, a (T, L) array of
    nonnegative int64, whose state is that of derive_rng(master_seed, *row).

    The rows' streams are seeded together, and one Generator is re-seeded
    for each row: a yielded Generator is valid only until the next one is
    taken.  A negative seed or key raises derive_rng's ValueError, before
    anything is yielded.
    """
    _require_seed(master_seed)
    keys = np.asarray(keys, dtype=np.int64)
    if keys.ndim != 2:
        raise ValueError(f"keys must be a (T, L) array, got shape {keys.shape}")
    negative = np.any(keys < 0, axis=1)
    if negative.any():
        derive_rng(master_seed, *keys[negative][0].tolist())  # raises its ValueError
    return _reseeded(_seed_words(master_seed, keys))


def _reseeded(words):
    """One Generator, re-seeded as PCG64 seeds itself from each row's four
    uint64 SeedSequence words (pcg_setseq_128_srandom_r): inc = initseq << 1
    | 1, step, add initstate, step."""
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for s_hi, s_lo, i_hi, i_lo in zip(*words):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0,
        }
        yield rng


# numpy's SeedSequence at its default pool of 4 uint32 words (bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _words(n: int) -> list[int]:
    """The uint32 words SeedSequence reads from the nonnegative int n, low first."""
    out = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        out.append(n & _MASK32)
    return out


def _seed_words(master_seed: int, keys: np.ndarray) -> list[list[int]]:
    """SeedSequence([master_seed, *row]).generate_state(4, np.uint64) for
    each row, as four lists of Python ints: word j of row t is [j][t].

    SeedSequence reads each entry as its uint32 words, so rows are grouped by
    which keys take two words (2^32 or more); within a group every step of
    the hash is one elementwise uint32 op over the group's rows.
    """
    seed = _words(int(master_seed))
    low = (keys & _MASK32).astype(np.uint32)
    high = (keys >> 32).astype(np.uint32)
    wide = high != 0
    pool = [np.empty(len(keys), dtype=np.uint32) for _ in range(_POOL_SIZE)]
    todo = np.ones(len(keys), dtype=bool)
    while todo.any():
        pattern = wide[np.argmax(todo)]
        rows = np.flatnonzero(todo & np.all(wide == pattern, axis=1))
        todo[rows] = False
        entropy = [np.full(len(rows), w, dtype=np.uint32) for w in seed]
        for col, two_words in enumerate(pattern):
            entropy.append(low[rows, col])
            if two_words:
                entropy.append(high[rows, col])
        for word, mixed in zip(pool, _mix_entropy(entropy)):
            word[rows] = mixed
    # generate_state(4, np.uint64): 8 uint32 words read as 4 little-endian uint64
    hashmix = _hasher(_INIT_B, _MULT_B)
    out = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(2 * _POOL_SIZE)]
    return [(out[2 * j] | (out[2 * j + 1] << np.uint64(32))).tolist() for j in range(4)]


def _hasher(hash_const: int, mult: int):
    """SeedSequence's hash of one uint32 word, elementwise, with the running
    constant it carries from word to word, starting at ``hash_const``."""

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _mix_entropy(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence.mix_entropy on a pool of _POOL_SIZE words, for a column
    of rows at once: ``entropy`` holds each row's n-th word at index n."""
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zeros = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    return pool


def _require_seed(master_seed: int):
    if master_seed < 0:
        raise ValueError("master_seed must be a nonnegative integer")


def fan_out(fn, common, total: int, workers: int):
    """Yield ``fn(common, lo, hi)`` for the consecutive blocks [lo, hi) of BLOCK
    trials over 0..total-1: inline and in order when min(workers, block
    count, CPU count) is below 2, else from a pool of that many processes that
    each receive ``fn`` and ``common`` once, as the blocks finish.  So each
    result must say where it belongs (its ``lo``, or its cell), and ``fn``,
    ``common`` and the results must pickle."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    blocks = ((lo, min(lo + BLOCK, total)) for lo in range(0, total, BLOCK))
    pool_size = min(workers, -(-total // BLOCK), os.cpu_count() or 1)
    if pool_size < 2:
        return (fn(common, lo, hi) for lo, hi in blocks)
    return _pooled(fn, common, blocks, pool_size)


def _pooled(fn, common, blocks, pool_size):
    with ProcessPoolExecutor(pool_size, initializer=_bind, initargs=(fn, common)) as pool:
        # at most 2 blocks per worker in flight; each one taken refills its slot
        running = {pool.submit(_run_block, lo, hi) for lo, hi in islice(blocks, 2 * pool_size)}
        while running:
            done, running = wait(running, return_when=FIRST_COMPLETED)
            yield from (future.result() for future in done)
            running |= {pool.submit(_run_block, lo, hi) for lo, hi in islice(blocks, len(done))}


def _bind(fn, common):
    global _worker_task
    _worker_task = (fn, common)


def _run_block(lo, hi):
    fn, common = _worker_task
    return fn(common, lo, hi)
