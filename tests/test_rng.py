"""Tests for the process fan-out shared by the Monte Carlo runners."""

import pytest

from sparsethresh import rng


def _square(x):
    return x * x


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the process pool by one that records its size and runs inline."""
    sizes = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    monkeypatch.setattr(rng, "ProcessPoolExecutor", RecordingExecutor)
    return sizes


class TestFanOut:
    def test_serial_results_keep_payload_order(self, pool_sizes):
        assert rng.fan_out(_square, [3, 1, 2], 1) == [9, 1, 4]
        assert pool_sizes == []

    def test_pool_is_capped_at_the_cpu_count(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(rng.os, "cpu_count", lambda: 2)
        assert rng.fan_out(_square, range(5), 10**6) == [0, 1, 4, 9, 16]
        assert pool_sizes == [2]

    def test_pool_is_capped_at_the_payload_count(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(rng.os, "cpu_count", lambda: 8)
        assert rng.fan_out(_square, [5, 6, 7], 4) == [25, 36, 49]
        assert rng.fan_out(_square, [5], 4) == [25]
        assert pool_sizes == [3]

    def test_unknown_cpu_count_runs_serially(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(rng.os, "cpu_count", lambda: None)
        assert rng.fan_out(_square, [1, 2], 2) == [1, 4]
        assert pool_sizes == []

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_workers_below_one(self, workers):
        with pytest.raises(ValueError, match="workers"):
            rng.fan_out(_square, [1], workers)
