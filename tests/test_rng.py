"""Tests for the block loop shared by the Monte Carlo runners."""

import time
from concurrent.futures import Future

import pytest

from sparsethresh import rng


def _span(common, lo, hi):
    return common, lo, hi


def _slow_first(common, lo, hi):
    if lo == 0:
        time.sleep(1.0)
    return lo


def _blocks(total):
    return [(lo, min(lo + rng.BLOCK, total)) for lo in range(0, total, rng.BLOCK)]


@pytest.fixture
def fake_pool(monkeypatch):
    """Replace the process pool by one that runs each block when submitted
    and records its size and the number of blocks submitted so far."""
    record = {"sizes": [], "submitted": 0}

    class FakeExecutor:
        def __init__(self, max_workers, initializer, initargs):
            record["sizes"].append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            record["submitted"] += 1
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(rng, "ProcessPoolExecutor", FakeExecutor)
    return record


class TestFanOut:
    @pytest.mark.parametrize("total", [1, rng.BLOCK - 1, rng.BLOCK, rng.BLOCK + 1, 3 * rng.BLOCK])
    def test_inline_blocks_arrive_in_order(self, total):
        out = list(rng.fan_out(_span, "common", total, 1))
        assert out == [("common", lo, hi) for lo, hi in _blocks(total)]

    @pytest.mark.parametrize("total", [rng.BLOCK + 1, 3 * rng.BLOCK])
    def test_pooled_blocks_each_arrive_once(self, total):
        # at 2 workers and 2 or more blocks, a real pool receives ``common``
        common = {"payload": list(range(5))}
        out = list(rng.fan_out(_span, common, total, 2))
        assert sorted(out, key=lambda r: r[1]) == [(common, lo, hi) for lo, hi in _blocks(total)]

    def test_pooled_blocks_arrive_as_they_finish(self, monkeypatch):
        # a slow first block does not hold back the blocks after it
        monkeypatch.setattr(rng.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(rng, "BLOCK", 1)
        out = list(rng.fan_out(_slow_first, None, 4, 2))
        assert sorted(out) == [0, 1, 2, 3] and out[0] != 0

    def test_no_trials_no_blocks(self, fake_pool):
        assert list(rng.fan_out(_span, None, 0, 4)) == []
        assert fake_pool["sizes"] == []

    def test_pool_is_capped_at_the_cpu_count(self, fake_pool, monkeypatch):
        monkeypatch.setattr(rng.os, "cpu_count", lambda: 2)
        total = 5 * rng.BLOCK
        out = sorted(rng.fan_out(_span, 0, total, 10**6))
        assert out == [(0, *b) for b in _blocks(total)]
        assert fake_pool["sizes"] == [2]

    def test_pool_is_capped_at_the_block_count(self, fake_pool, monkeypatch):
        monkeypatch.setattr(rng.os, "cpu_count", lambda: 8)
        assert len(list(rng.fan_out(_span, 0, 3 * rng.BLOCK, 4))) == 3
        assert len(list(rng.fan_out(_span, 0, rng.BLOCK, 4))) == 1  # inline
        assert fake_pool["sizes"] == [3]

    def test_unknown_cpu_count_runs_inline(self, fake_pool, monkeypatch):
        monkeypatch.setattr(rng.os, "cpu_count", lambda: None)
        assert len(list(rng.fan_out(_span, 0, 2 * rng.BLOCK, 2))) == 2
        assert fake_pool["sizes"] == []

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_workers_below_one_before_any_block(self, workers):
        def no_work(common, lo, hi):
            raise AssertionError("a block ran")

        with pytest.raises(ValueError, match="workers"):
            rng.fan_out(no_work, None, 10, workers)

    def test_at_most_two_blocks_per_worker_in_flight(self, fake_pool, monkeypatch):
        monkeypatch.setattr(rng.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(rng, "BLOCK", 2)
        ahead = []
        for i, _ in enumerate(rng.fan_out(_span, 0, 41, 3)):
            ahead.append(fake_pool["submitted"] - i)
        assert fake_pool["sizes"] == [3]
        assert len(ahead) == 21 and fake_pool["submitted"] == 21
        assert max(ahead) == 2 * 3
