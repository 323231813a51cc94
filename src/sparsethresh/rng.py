"""Deterministic random streams and the one block loop of experiment runners.

Every Monte Carlo loop in this package draws from a generator derived as

    derive_rng(master_seed, *key)

where ``key`` identifies the trial (for example ``(cell_index, trial_index)``).
Streams for distinct keys are statistically independent and do not depend on
the order in which they are created, so parallel and serial runs of the same
experiment produce byte-identical output.  ``fan_out`` is the one loop that
cuts the runners' trials into blocks, run inline or in a process pool.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from itertools import islice

import numpy as np

__all__ = ["derive_rng", "fan_out"]

# Trials per block: bounds each block's working set, never the output.
BLOCK = 256

_worker_task = None  # (fn, common), set once in each pool process


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Return a Generator for the stream identified by ``(master_seed, *key)``."""
    _require_seed(master_seed)
    seq = np.random.SeedSequence([int(master_seed), *[int(k) for k in key]])
    return np.random.default_rng(seq)


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
