"""Deterministic random streams and the one block loop of experiment runners.

A Monte Carlo trial draws from a stream named by ``(master_seed, *key)``,
where ``key`` identifies the trial (for example ``(cell_index, trial_index)``).
Streams for distinct keys are statistically independent and do not depend on
the order in which they are created, so parallel and serial runs of the same
experiment produce byte-identical output.  ``fan_out`` is the one loop that
cuts the runners' trials into blocks, run inline or in a process pool.

``derive_rng(master_seed, *key)`` is a numpy stream: a Generator on the
PCG64 that numpy's SeedSequence seeds from [master_seed, *key].  ``recover``
reads one per trial, and the bootstrap of ``moments`` one per run.

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

import ctypes
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from itertools import islice

import numpy as np

__all__ = ["derive_rng", "derive_choices", "fan_out"]

# Trials per block: bounds each block's working set, never the output.
BLOCK = 256

_worker_task = None  # (fn, common), set once in each pool process

# OpenBLAS's thread-count calls, by the names its builds export
_OPENBLAS_CALLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                   "openblas_{}_num_threads")


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Return a Generator for the stream identified by ``(master_seed, *key)``."""
    _require_seed(master_seed)
    for k in key:
        _require_key(k)
    seq = np.random.SeedSequence([int(master_seed), *[int(k) for k in key]])
    return np.random.default_rng(seq)


def derive_choices(master_seed: int, keys, draws) -> list[np.ndarray]:
    """Successive draws without replacement from each row's own stream, sorted.

    ``keys`` is a (T, L) array of nonnegative integers, one stream per row,
    and ``draws`` a list of (population, size) pairs.  Draw d is a (T, size)
    int64 array whose row t is a uniform size-subset of range(population), a
    function of master_seed, keys[t] and draws[:d + 1] alone.

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


# ============================================================
# uint64 array arithmetic of the owned stream
# ============================================================


_MASK64 = (1 << 64) - 1
_LOW32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)
# SplitMix64 (Steele, Lea and Flood 2014): the golden-ratio step and the
# finalizer's multipliers (Stafford's Mix13)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_U27, _U30, _U31 = np.uint64(27), np.uint64(30), np.uint64(31)


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


def _floyd_picks(v: np.ndarray, base: int) -> np.ndarray:
    """Floyd's sample from the bounded draws v[:, c] on [0, base + c], sorted
    per row: column c adds v_c, or base + c when v_c is in the sample already,
    all rows at once, one column after another."""
    picks = np.empty_like(v)
    for c in range(v.shape[1]):
        taken = (picks[:, :c] == v[:, c, None]).any(axis=1)
        picks[:, c] = np.where(taken, base + c, v[:, c])
    return np.sort(picks, axis=1)


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
    each receive ``fn`` and ``common`` once and run one OpenBLAS thread, as
    the blocks finish.  So each result must say where it belongs (its ``lo``,
    or its cell), and ``fn``, ``common`` and the results must pickle."""
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
    set_threads = _openblas_call("set", [ctypes.c_int], None)
    if set_threads is not None:
        set_threads(1)


def _openblas_call(verb: str, argtypes, restype):
    """OpenBLAS's ``{verb}_num_threads`` call, typed, from a library that
    /proc/self/maps lists under an OpenBLAS name, or None: numpy offers none."""
    try:
        with open("/proc/self/maps") as maps:
            paths = dict.fromkeys(line.split(maxsplit=5)[5].strip()
                                  for line in maps if "openblas" in line)
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return None
    calls = (getattr(lib, name.format(verb), None) for lib in libs for name in _OPENBLAS_CALLS)
    call = next((call for call in calls if call is not None), None)
    if call is not None:
        call.argtypes, call.restype = argtypes, restype
    return call


def _run_block(lo, hi):
    fn, common = _worker_task
    return fn(common, lo, hi)
