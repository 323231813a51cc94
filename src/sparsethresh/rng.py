"""Deterministic random streams and the process fan-out of experiment runners.

Every Monte Carlo loop in this package draws from a generator derived as

    derive_rng(master_seed, *key)

where ``key`` identifies the trial (for example ``(cell_index, trial_index)``).
Streams for distinct keys are statistically independent and do not depend on
the order in which they are created, so parallel and serial runs of the same
experiment produce byte-identical output.  ``fan_out`` is the one process
pool of the runners; it returns results in payload order.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

__all__ = ["derive_rng", "fan_out"]


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Return a Generator for the stream identified by ``(master_seed, *key)``."""
    if master_seed < 0:
        raise ValueError("master_seed must be a nonnegative integer")
    seq = np.random.SeedSequence([int(master_seed), *[int(k) for k in key]])
    return np.random.default_rng(seq)


def fan_out(fn, payloads, workers: int) -> list:
    """``[fn(p) for p in payloads]``, run in min(workers, len(payloads), CPU
    count) processes when that is at least 2; ``fn`` and payloads must pickle."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    pool_size = min(workers, len(payloads), os.cpu_count() or 1)
    if pool_size < 2:
        return [fn(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        return list(pool.map(fn, payloads))
