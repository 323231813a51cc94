"""Tests for the per-trial streams and the block loop shared by the Monte
Carlo runners."""

import time
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsethresh import rng
from sparsethresh.rng import derive_rng, derive_rngs


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


# keys at and past the one-word boundary, where SeedSequence reads two words
_KEY = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**40]), st.integers(0, 2**63 - 1))


@st.composite
def _key_blocks(draw):
    width = draw(st.integers(0, 5))
    return draw(st.lists(st.lists(_KEY, min_size=width, max_size=width), max_size=6)), width


class TestDeriveRngs:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**96 - 1), block=_key_blocks())
    @example(seed=0, block=([[0], [2**32 - 1], [2**32], [2**40]], 1))
    @example(seed=2**32, block=([[0, 0, 0, 0], [2**32, 1, 2**40, 2**32 - 1]], 4))
    @example(seed=2**64 - 1, block=([[5, 2**32, 0, 2**40, 7]] * 2, 5))
    def test_each_stream_is_derive_rng_state_for_state(self, seed, block):
        keys, width = block
        streams = derive_rngs(seed, np.array(keys, dtype=np.int64).reshape(len(keys), width))
        count = 0
        for key, ours in zip(keys, streams):
            theirs = derive_rng(seed, *key)
            assert ours.bit_generator.state == theirs.bit_generator.state
            assert ours.integers(0, 2**63, 3).tolist() == theirs.integers(0, 2**63, 3).tolist()
            assert ours.choice(49, 3, replace=False).tolist() == theirs.choice(
                49, 3, replace=False
            ).tolist()
            assert ours.standard_normal(2).tobytes() == theirs.standard_normal(2).tobytes()
            count += 1
        assert count == len(keys) and next(streams, None) is None

    def test_a_stream_read_ahead_does_not_move_the_next(self):
        # each key re-seeds the generator, whatever the last key read from it
        keys = np.arange(4)[:, None]
        for t, ours in enumerate(derive_rngs(3, keys)):
            ours.random(t * 100)
        expected = [derive_rng(3, t).random() for t in range(4)]
        assert [ours.random() for ours in derive_rngs(3, keys)] == expected

    @pytest.mark.parametrize("seed, keys", [(-1, [[0]]), (0, [[1, 2], [3, -4]]), (-1, [[-1]])])
    def test_a_negative_seed_or_key_raises_the_derive_rng_error_at_once(self, seed, keys):
        with pytest.raises(ValueError) as theirs:
            for key in keys:
                derive_rng(seed, *key)
        with pytest.raises(ValueError) as ours:
            derive_rngs(seed, np.array(keys))  # before any stream is taken
        assert str(ours.value) == str(theirs.value)

    @pytest.mark.parametrize("keys", [np.arange(3), np.zeros((2, 2, 1), dtype=np.int64)])
    def test_keys_must_be_one_row_per_stream(self, keys):
        with pytest.raises(ValueError, match="keys must be a"):
            derive_rngs(0, keys)
