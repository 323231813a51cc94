import numpy as np
import pytest

from sparsethresh import (
    PartitionedDictionary,
    analyze,
    build_mub,
    build_two_onb,
    rng,
)


@pytest.fixture(scope="session")
def mub3():
    return build_mub(3)


@pytest.fixture(scope="session")
def mub5():
    return build_mub(5)


@pytest.fixture(scope="session")
def mub7():
    return build_mub(7)


@pytest.fixture(scope="session")
def mub7_stats(mub7):
    return analyze(mub7)


@pytest.fixture(scope="session")
def two_onb4():
    return build_two_onb(4)


@pytest.fixture(scope="session")
def two_onb8():
    return build_two_onb(8)


@pytest.fixture(scope="session")
def identity110():
    # orthonormal columns, split 10 + 100: the zero-coherence reference profile
    return PartitionedDictionary(np.eye(110), 10)


@pytest.fixture
def pool_starts(monkeypatch):
    """The size of each process pool ``rng.fan_out`` starts, appended as the
    pool's first block is asked for.  The CPU count reads 2, so that a
    two-worker run fans out on any host."""
    starts = []
    pooled = rng._pooled

    def counted(fn, common, blocks, pool_size):
        starts.append(pool_size)
        yield from pooled(fn, common, blocks, pool_size)

    monkeypatch.setattr(rng, "_pooled", counted)
    monkeypatch.setattr(rng.os, "cpu_count", lambda: 2)
    return starts
