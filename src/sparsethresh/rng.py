"""Deterministic random streams and the one block loop of experiment runners.

Every Monte Carlo trial in this package draws from the stream

    derive_rng(master_seed, *key)

where ``key`` identifies the trial (for example ``(cell_index, trial_index)``).
Streams for distinct keys are statistically independent and do not depend on
the order in which they are created, so parallel and serial runs of the same
experiment produce byte-identical output.  ``fan_out`` is the one loop that
cuts the runners' trials into blocks, run inline or in a process pool.

``derive_rngs`` is the block path ``recover`` takes: for a (T, L) array of
keys it yields the same streams, state for state, but runs numpy's
SeedSequence hash (O'Neill's seed_seq, 2014) once for the whole block as
uint32 arithmetic on arrays of T words, and re-seeds one PCG64 per key
instead of building a SeedSequence, a PCG64 and a Generator per trial.
``derive_rng`` stays the one-stream API and the reference it is tested
against.

``derive_choices`` goes one step further for the draws ``smin`` and
``moments`` make (``model.draw_supports``): each row's sorted Generator.choice(population, size,
replace=False) calls, for a whole block, from uint64 array arithmetic that
mirrors numpy's internals bit for bit and builds no Generator:

  - PCG64 as seeded (pcg_setseq_128_srandom_r), stepped by its 128-bit LCG
    and read through XSL-RR; ``next_uint32`` returns an output's low half
    and buffers its high half for the next call (has_uint32, uinteger);
  - Lemire's bounded integers on [0, j] (Lemire 2019), redrawn while the
    low word falls below 2^32 mod (j + 1);
  - Floyd's sampling (Bentley and Floyd 1987) for j = population - size ..
    population - 1, then the size - 1 draws of choice's Fisher-Yates
    shuffle, which move the stream though the sorted result ignores them.

numpy draws without Floyd's method when population > 10,000 and size >
population // 50 (it shuffles a tail of arange(population)) and takes
64-bit bounded integers past a population of 2^32; a list with such a draw
runs row by row on ``derive_rngs``.
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
    return _reseeded(_key_words(master_seed, keys))


def derive_choices(master_seed: int, keys, draws) -> list[np.ndarray]:
    """Successive draws without replacement from each row's stream, sorted.

    ``keys`` is a (T, L) array as for ``derive_rngs``, and ``draws`` a list
    of (population, size) pairs.  Draw d is a (T, size) int64 array whose
    row t is np.sort of the d-th of the calls

        rng = derive_rng(master_seed, *keys[t])
        rng.choice(population, size, replace=False)   # for each draw, in order

    Draws that numpy makes by Floyd's method from 32-bit bounded integers
    are made for all rows at once in uint64 arrays, with no Generator; any
    other draw in the list sends the whole list through ``derive_rngs``,
    row by row.
    """
    words = _key_words(master_seed, keys)
    draws = [(int(population), int(size)) for population, size in draws]
    for population, size in draws:
        if not 0 <= size <= population:
            raise ValueError(f"need 0 <= size <= population, got {size} of {population}")
    if all(_by_floyd(population, size) for population, size in draws):
        return _floyd_choices(*_seeded(words), draws)[0]
    out = [np.empty((len(words[0]), size), dtype=np.int64) for _, size in draws]
    for row, rng in enumerate(_reseeded(words)):
        for cols, (population, size) in zip(out, draws):
            cols[row] = np.sort(rng.choice(population, size, replace=False))
    return out


def _key_words(master_seed: int, keys) -> list[np.ndarray]:
    """``_seed_words`` of a checked seed and (T, L) key array; a negative
    seed or key raises derive_rng's own ValueError."""
    _require_seed(master_seed)
    keys = np.asarray(keys, dtype=np.int64)
    if keys.ndim != 2:
        raise ValueError(f"keys must be a (T, L) array, got shape {keys.shape}")
    negative = np.any(keys < 0, axis=1)
    if negative.any():
        derive_rng(master_seed, *keys[negative][0].tolist())  # raises its ValueError
    return _seed_words(master_seed, keys)


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
_MASK128 = (1 << 128) - 1
_MASK64 = (1 << 64) - 1
_MULT = (np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64))
_LOW32 = np.uint64(_MASK32)
_U32, _U58, _U63, _U64 = (np.uint64(n) for n in (32, 58, 63, 64))
# Generator.choice(population, size, replace=False) shuffles a tail of
# arange(population) instead of running Floyd's method past these sizes
_FLOYD_TAIL_POPULATION = 10_000
_FLOYD_TAIL_FRACTION = 50


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
# PCG64 and Generator.choice as uint64 array arithmetic
# ============================================================


def _split128(values) -> tuple[np.ndarray, np.ndarray]:
    """128-bit ints as (hi, lo) uint64 arrays."""
    return (
        np.array([v >> 64 for v in values], dtype=np.uint64),
        np.array([v & _MASK64 for v in values], dtype=np.uint64),
    )


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


def _jumps(steps: int):
    """(a^k, 1 + a + ... + a^(k-1)) mod 2^128 for k = 1..steps, with a the
    LCG multiplier, each as a (hi, lo) pair of uint64 arrays: k steps take a
    state s to a^k s + (1 + ... + a^(k-1)) inc."""
    mult, add = [], []
    a_k, g_k = 1, 0
    for _ in range(steps):
        a_k, g_k = a_k * _PCG_MULT & _MASK128, g_k + a_k & _MASK128
        mult.append(a_k)
        add.append(g_k)
    return _split128(mult), _split128(add)


def _stream_words(state, inc, start: int, stop: int) -> np.ndarray:
    """The uint32 words that next_uint32 reads from outputs start+1..stop of
    each row's stream, as a (T, 2 (stop - start)) uint64 array.

    Each output steps the LCG and applies XSL-RR to the new state; PCG64's
    next_uint32 returns its low half and keeps the high half (has_uint32,
    uinteger) for the next call.
    """
    (m_hi, m_lo), (g_hi, g_lo) = _jumps(stop)
    k = slice(start, stop)
    hi, lo = _add128(
        _mul128((state[0][:, None], state[1][:, None]), (m_hi[k], m_lo[k])),
        _mul128((inc[0][:, None], inc[1][:, None]), (g_hi[k], g_lo[k])),
    )
    v = hi ^ lo
    rot = hi >> _U58
    out = v >> rot | v << ((_U64 - rot) & _U63)
    return np.stack((out & _LOW32, out >> _U32), axis=-1).reshape(len(out), 2 * (stop - start))


def _by_floyd(population: int, size: int) -> bool:
    """Whether Generator.choice(population, size, replace=False) draws by
    Floyd's method from 32-bit bounded integers, as ``_floyd_choices`` does."""
    tail = population > _FLOYD_TAIL_POPULATION and size > population // _FLOYD_TAIL_FRACTION
    return size == 0 or (population <= 2**32 and not tail)


def _floyd_choices(state, inc, draws):
    """``derive_choices`` for the rows' PCG64 (state, inc) just after seeding,
    with every draw ``_by_floyd``; also each row's count of uint32 words
    read after each draw.

    choice(population, size, replace=False) makes Floyd's draws on [0, j]
    for j = population - size .. population - 1 (none for j = 0), then
    size - 1 draws for its Fisher-Yates shuffle on [0, i], i = size - 1 .. 1,
    which leave the sorted result alone but move the stream.  Each draw is
    Lemire's: the high word of next_uint32() * (j + 1), redrawn while the
    low word is below 2^32 mod (j + 1).  All draws of all rows are made at
    once from a table of words; a rejection shifts the rest of its row's
    draws one word on, and the shifts are found a rejection per row per pass.
    """
    bounds, floyd_at, ends = [], [], []
    for population, size in draws:
        start = len(bounds)
        bounds += range(max(population - size, 1), population)
        floyd_at.append(slice(start, len(bounds)))
        bounds += range(size - 1, 0, -1)
        ends.append(len(bounds))
    rows, n = len(state[0]), len(bounds)
    span = np.array([j + 1 for j in bounds], dtype=np.uint64)
    threshold = np.array([2**32 % (j + 1) for j in bounds], dtype=np.uint64)
    at = np.arange(n)
    skipped = np.zeros((rows, n), dtype=np.intp)  # rejected words before each draw
    steps = (n + 1) // 2
    words = _stream_words(state, inc, 0, steps)
    m = words[:, :n] * span
    while True:
        rejected = (m & _LOW32) < threshold
        if not rejected.any():
            break
        again = np.flatnonzero(rejected.any(axis=1))
        skipped[again] += at >= rejected[again].argmax(axis=1)[:, None]
        need = (int(skipped[:, -1].max()) + n + 1) // 2
        if need > steps:
            words = np.concatenate((words, _stream_words(state, inc, steps, need)), axis=1)
            steps = need
        m = np.take_along_axis(words, at + skipped, axis=1) * span
    values = (m >> _U32).astype(np.int64)
    out, read = [], []
    for (population, size), at_floyd, end in zip(draws, floyd_at, ends):
        floyd = values[:, at_floyd]
        if floyd.shape[1] < size:  # the draw on [0, 0]
            floyd = np.concatenate((np.zeros((rows, 1), dtype=np.int64), floyd), axis=1)
        out.append(_floyd_picks(floyd, population - size))
        read.append(end + skipped[:, end - 1] if end else np.zeros(rows, dtype=np.intp))
    return out, read


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
