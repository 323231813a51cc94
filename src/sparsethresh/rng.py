"""Deterministic random streams and the one block loop of experiment runners.

A Monte Carlo trial draws from a stream named by ``(master_seed, *key)``,
where ``key`` identifies the trial (for example ``(cell_index, trial_index)``).
Streams for distinct keys are statistically independent and do not depend on
the order in which they are created, so parallel and serial runs of the same
experiment produce byte-identical output.  ``fan_out`` is the one loop that
cuts the runners' trials into blocks, run inline or in a process pool.

``recover`` reads numpy streams: ``derive_rng(master_seed, *key)`` is one,
and ``derive_rngs`` gives a (T, L) array of keys the same streams, state for
state, but runs numpy's SeedSequence hash (O'Neill's seed_seq, 2014) once
for the whole block as uint32 arithmetic on arrays of T words, and re-seeds
one PCG64 per key instead of building a SeedSequence, a PCG64 and a
Generator per trial.

``derive_choices`` is the stream of the draws ``smin`` and ``moments`` make
(``model.draw_supports``), and this package owns its definition, as
counter-based generators do (Salmon et al. 2011, "Parallel random numbers:
as easy as 1, 2, 3"): word i of key row t is SplitMix64's finalizer (Steele,
Lea and Flood 2014) at step i + 1 from a state that hashes the seed and the
row's keys, a bounded draw on [0, j] is the high word of w * (j + 1), and
Floyd's method turns the bounded draws into a sample.  Every draw is a pure
function of (seed, key, index): no Generator is built, and neither the numpy
version nor the block split can reach it.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from itertools import islice

import numpy as np

__all__ = ["derive_rng", "derive_rngs", "derive_choices", "fan_out"]

# Trials per block: bounds each block's working set, never the output.
BLOCK = 256

_worker_task = None  # (fn, common), set once in each pool process


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Return a Generator for the stream identified by ``(master_seed, *key)``."""
    _require_seed(master_seed)
    for k in key:
        _require_key(k)
    seq = np.random.SeedSequence([int(master_seed), *[int(k) for k in key]])
    return np.random.default_rng(seq)


def derive_rngs(master_seed: int, keys):
    """Iterate over one Generator per row of ``keys``, a (T, L) array of
    nonnegative int64, whose state is that of derive_rng(master_seed, *row).

    The rows' streams are seeded together, and one Generator is re-seeded
    for each row: a yielded Generator is valid only until the next one is
    taken.  A negative seed or key raises derive_rng's ValueError, and a
    float or bool key a ValueError too, before anything is yielded.
    """
    return _reseeded(_seed_words(master_seed, _checked_keys(master_seed, keys)))


def derive_choices(master_seed: int, keys, draws) -> list[np.ndarray]:
    """Successive draws without replacement from each row's own stream, sorted.

    ``keys`` is a (T, L) array as for ``derive_rngs``, and ``draws`` a list
    of (population, size) pairs.  Draw d is a (T, size) int64 array whose row
    t is a uniform size-subset of range(population), a function of
    master_seed, keys[t] and draws[:d + 1] alone.

    Row t's state folds the words [n, seed limb 0, .., seed limb n-1,
    *keys[t]] into h = 0 by h <- mix((h + GAMMA) ^ word), with mix
    SplitMix64's finalizer and the seed cut into its n 64-bit limbs, low
    first, so seed 2^64 is not seed 0.  Its word i (from 0, over the draws
    in order) is w_i = mix(h + (i + 1) GAMMA) mod 2^64, and Floyd's draw on
    [0, j] for j = population - size .. population - 1 is the high word of
    w_i (j + 1), without rejection: each value has probability within 2^-64
    of 1 / (j + 1), so the draw is at most (j + 1) / 2^64 from uniform.
    """
    keys = _checked_keys(master_seed, keys)
    draws = [(int(population), int(size)) for population, size in draws]
    for population, size in draws:
        if not 0 <= size <= population:
            raise ValueError(f"need 0 <= size <= population, got {size} of {population}")
    seed, limbs = int(master_seed), []
    while seed or not limbs:
        limbs.append(seed & _MASK64)
        seed >>= 64
    state = np.zeros(len(keys), dtype=np.uint64)
    for word in [np.uint64(len(limbs)), *map(np.uint64, limbs), *keys.T.astype(np.uint64)]:
        state = _mix64((state + _GAMMA) ^ word)
    bounds = [j for population, size in draws for j in range(population - size, population)]
    steps = np.arange(1, len(bounds) + 1, dtype=np.uint64) * _GAMMA
    span = np.array([j + 1 for j in bounds], dtype=np.uint64)
    values = _mulhi64(_mix64(state[:, None] + steps), span).astype(np.int64)
    ends = np.cumsum([size for _, size in draws])
    return [_floyd_picks(values[:, end - size:end], population - size)
            for (population, size), end in zip(draws, ends)]


def _checked_keys(master_seed: int, keys) -> np.ndarray:
    """``keys`` as a (T, L) int64 array, for a checked seed; a negative seed
    or key raises derive_rng's own ValueError, and a float or bool key, which
    the cast would truncate to another key, a ValueError of its own."""
    _require_seed(master_seed)
    if not isinstance(keys, np.ndarray) or keys.dtype == object:
        for key in np.asarray(keys, dtype=object).flat:
            _require_key(key)
    elif keys.size and keys.dtype.kind not in "iu":
        raise ValueError(f"keys must be integers, got an array of {keys.dtype}")
    keys = np.asarray(keys, dtype=np.int64)
    if keys.ndim != 2:
        raise ValueError(f"keys must be a (T, L) array, got shape {keys.shape}")
    negative = np.any(keys < 0, axis=1)
    if negative.any():
        derive_rng(master_seed, *keys[negative][0].tolist())  # raises its ValueError
    return keys


def _reseeded(words):
    """One Generator, re-seeded to each row's ``_seeded`` PCG64 state."""
    (s_hi, s_lo), (i_hi, i_lo) = _seeded(words)
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for sh, sl, ih, il in zip(s_hi.tolist(), s_lo.tolist(), i_hi.tolist(), i_lo.tolist()):
        bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": sh << 64 | sl, "inc": ih << 64 | il},
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
_MASK64 = (1 << 64) - 1
_MULT = (np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64))
_LOW32 = np.uint64(_MASK32)
_U32, _U63 = np.uint64(32), np.uint64(63)
# SplitMix64 (Steele, Lea and Flood 2014): the golden-ratio step and the
# finalizer's multipliers (Stafford's Mix13)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_U27, _U30, _U31 = np.uint64(27), np.uint64(30), np.uint64(31)


def _words(n: int) -> list[int]:
    """The uint32 words SeedSequence reads from the nonnegative int n, low first."""
    out = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        out.append(n & _MASK32)
    return out


def _seed_words(master_seed: int, keys: np.ndarray) -> list[np.ndarray]:
    """SeedSequence([master_seed, *row]).generate_state(4, np.uint64) for
    each row, as four uint64 arrays: word j of row t is [j][t].

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
    return [out[2 * j] | (out[2 * j + 1] << np.uint64(32)) for j in range(4)]


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


# ============================================================
# uint64 array arithmetic: PCG64's seeding and the owned stream
# ============================================================


def _mix64(z):
    """SplitMix64's finalizer, elementwise on a uint64 array (products wrap)."""
    z = (z ^ (z >> _U30)) * _MIX[0]
    z = (z ^ (z >> _U27)) * _MIX[1]
    return z ^ (z >> _U31)


def _mulhi64(x, y):
    """The high uint64 word of x * y, from 32-bit limbs."""
    x0, x1 = x & _LOW32, x >> _U32
    y0, y1 = y & _LOW32, y >> _U32
    p01, p10 = x0 * y1, x1 * y0
    mid = (x0 * y0 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    return x1 * y1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)


def _mul128(x, y):
    """x * y mod 2^128 on (hi, lo) uint64 pairs; uint64 products wrap mod 2^64."""
    (x_hi, x_lo), (y_hi, y_lo) = x, y
    return _mulhi64(x_lo, y_lo) + x_hi * y_lo + x_lo * y_hi, x_lo * y_lo


def _add128(x, y):
    """x + y mod 2^128 on (hi, lo) uint64 pairs."""
    lo = x[1] + y[1]
    return x[0] + y[0] + (lo < y[1]), lo


def _seeded(words):
    """PCG64's (state, inc) once it has seeded itself from each row's four
    uint64 SeedSequence words (pcg_setseq_128_srandom_r): inc = initseq << 1
    | 1, step, add initstate, step.  Each is a (hi, lo) pair of uint64 arrays."""
    s_hi, s_lo, i_hi, i_lo = words
    inc = (i_hi << np.uint64(1) | i_lo >> _U63, i_lo << np.uint64(1) | np.uint64(1))
    return _add128(_mul128(_add128(inc, (s_hi, s_lo)), _MULT), inc), inc


def _floyd_picks(v: np.ndarray, base: int) -> np.ndarray:
    """Floyd's sample from the bounded draws v[:, c] on [0, base + c], sorted
    per row: column c adds v_c, or base + c when v_c is in the sample already.

    v_c is in the sample already exactly when it repeats an earlier v_i, or
    when it is base + i for an earlier column i whose own v_i was in the
    sample already, so that base + i went in instead.  The second case links
    column c to an earlier column; following the links by pointer doubling
    settles every column in log2(size) passes.
    """
    order = np.argsort(v, axis=1, kind="stable")
    ranked = np.take_along_axis(v, order, axis=1)
    taken = np.zeros(v.shape, dtype=bool)
    np.put_along_axis(taken, order[:, 1:], ranked[:, 1:] == ranked[:, :-1], axis=1)
    column = np.arange(v.shape[1])
    link = np.where((v >= base) & (v - base < column), v - base, -1)
    while (link >= 0).any():
        linked = link >= 0
        to = np.maximum(link, 0)
        taken |= linked & np.take_along_axis(taken, to, axis=1)
        link = np.where(linked, np.take_along_axis(link, to, axis=1), -1)
    return np.sort(np.where(taken, base + column, v), axis=1)


def _require_seed(master_seed: int):
    """Refuse a seed that is not a nonnegative int or numpy integer: a float
    or bool would be truncated to another seed, a string misread."""
    if (isinstance(master_seed, bool) or not isinstance(master_seed, (int, np.integer))
            or master_seed < 0):
        raise ValueError(f"master_seed must be a nonnegative integer, got {master_seed!r}")


def _require_key(key):
    """Refuse a key that is not an int or numpy integer: a float or bool
    would be truncated to another key."""
    if isinstance(key, bool) or not isinstance(key, (int, np.integer)):
        raise ValueError(f"keys must be integers, got {key!r}")


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
