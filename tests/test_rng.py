"""Tests for the per-trial streams and the block loop shared by the Monte
Carlo runners."""

import time
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsethresh import rng
from sparsethresh.rng import derive_choices, derive_rng, derive_rngs


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


def _state_after(seed, key, words_read):
    """derive_rng(seed, *key)'s bit_generator state once next_uint32 has read
    ``words_read`` words: the low, then the high half of each output."""
    bit_generator = derive_rng(seed, *key).bit_generator
    steps = -(-words_read // 2)
    last = bit_generator.random_raw(steps)[-1] if steps else 0
    state = bit_generator.state
    # uinteger keeps the last high half, read or not
    state["has_uint32"], state["uinteger"] = words_read % 2, int(last) >> 32
    return state


def _assert_draws_are_choice(seed, keys, draws):
    """Each row of each block draw against derive_rng(seed, *row).choice; a
    draw after the first starts where the row's stream stands after the one
    before it, so a wrong stream position shows in its picks."""
    keys = np.asarray(keys, dtype=np.int64)
    assert all(rng._by_floyd(population, size) for population, size in draws)
    ours = derive_choices(seed, keys, draws)
    assert [o.shape for o in ours] == [(len(keys), size) for _, size in draws]
    for t, key in enumerate(keys.tolist()):
        theirs = derive_rng(seed, *key)
        for d, (population, size) in enumerate(draws):
            expected = np.sort(theirs.choice(population, size, replace=False))
            assert ours[d][t].tolist() == expected.tolist()


# populations where Lemire's rejection is likely (2^32 mod (j + 1) near
# (j + 1) / 3 and / 2), where j + 1 is close to 2^32, and j = 2^32 - 1,
# which numpy serves from next_uint32 unbounded
_WIDE_POPULATIONS = [3 * 2**30, 2**31 + 1, 2**32 - 5, 2**32]


@st.composite
def _floyd_draws(draw):
    out = []
    for _ in range(draw(st.integers(1, 3))):
        population = draw(st.one_of(st.integers(0, 60), st.sampled_from([10_001, *_WIDE_POPULATIONS])))
        cap = population if population <= 10_000 else population // 50
        out.append((population, draw(st.integers(0, min(cap, 12 if population > 60 else 60)))))
    return out


@pytest.fixture
def no_generators(monkeypatch):
    """Make building any SeedSequence, PCG64 or Generator fail."""

    def refuse(*args, **kwargs):
        raise AssertionError("a numpy generator was built")

    for name in ("SeedSequence", "PCG64", "Generator"):
        monkeypatch.setattr(np.random, name, refuse)


class TestDeriveChoices:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**96 - 1), block=_key_blocks(), draws=_floyd_draws())
    @example(seed=4294967296, block=([[0], [2**32 - 1], [2**32], [2**40]], 1),
             draws=[(7, 2), (49, 3)])
    @example(seed=0, block=([[5, 2**32]] * 3, 2), draws=[(60, 60), (1, 1), (0, 0)])
    def test_each_row_is_choice_on_its_stream(self, seed, block, draws):
        keys, width = block
        _assert_draws_are_choice(seed, np.array(keys, dtype=np.int64).reshape(len(keys), width),
                                 draws)

    @pytest.mark.parametrize("population", _WIDE_POPULATIONS)
    def test_rejections_shift_the_rest_of_the_row(self, population):
        draws = [(population, 6), (population, 3)]
        _assert_draws_are_choice(4294967296, np.arange(64)[:, None], draws)
        # without a rejection a row reads 6 + 5 + 3 + 2 words; numpy's own
        # streams show which rows rejected one, so the draws above cover them
        rejected = 0
        for t in range(64):
            theirs = derive_rng(4294967296, t)
            for population_d, size in draws:
                theirs.choice(population_d, size, replace=False)
            rejected += theirs.bit_generator.state != _state_after(4294967296, (t,), 16)
        if population in (3 * 2**30, 2**31 + 1):
            assert rejected >= 16
        else:
            assert rejected == 0

    @pytest.mark.parametrize("draws", [[(7, 7)], [(49, 0)], [(1, 1), (0, 0)], [(7, 0), (49, 49)]])
    def test_full_and_empty_draws_on_a_ragged_block(self, draws):
        # size = population starts at j = 0, which reads nothing
        _assert_draws_are_choice(7, np.arange(512, 549)[:, None], draws)

    def test_no_rows(self):
        out = derive_choices(7, np.empty((0, 1), dtype=np.int64), [(49, 3), (7, 0)])
        assert [o.shape for o in out] == [(0, 3), (0, 0)]

    def test_floyd_draws_build_no_generator(self, no_generators):
        keys = np.arange(40)[:, None]
        for draws in ([(7, 2), (49, 3)], [(10_001, 200)], [(2**32, 2)]):
            derive_choices(7, keys, draws)

    @pytest.mark.parametrize("population, size", [(10_001, 201), (20_000, 401), (2**32 + 1, 1)])
    def test_other_draws_go_row_by_row(self, population, size, no_generators):
        # numpy shuffles a tail of arange(population) past population // 50,
        # and takes 64-bit bounded integers past 2^32
        assert not rng._by_floyd(population, size)
        keys = np.arange(3)[:, None]
        with pytest.raises(AssertionError, match="generator was built"):
            derive_choices(5, keys, [(7, 2), (population, size)])

    @pytest.mark.parametrize("population, size", [(10_001, 200), (10_001, 201)])
    def test_the_tail_shuffle_boundary(self, population, size):
        keys = np.arange(5)[:, None]
        ours = derive_choices(5, keys, [(7, 2), (population, size)])
        for t in range(5):
            theirs = derive_rng(5, t)
            for cols, (pop, k) in zip(ours, [(7, 2), (population, size)]):
                assert cols[t].tolist() == np.sort(theirs.choice(pop, k, replace=False)).tolist()

    def test_a_draw_larger_than_its_population_is_refused(self):
        with pytest.raises(ValueError, match="size <= population"):
            derive_choices(0, [[0]], [(3, 4)])

    @pytest.mark.parametrize("seed, keys", [(-1, [[0]]), (0, [[1, 2], [3, -4]])])
    def test_a_negative_seed_or_key_raises_the_derive_rng_error(self, seed, keys):
        with pytest.raises(ValueError) as theirs:
            for key in keys:
                derive_rng(seed, *key)
        with pytest.raises(ValueError) as ours:
            derive_choices(seed, np.array(keys), [(7, 2)])
        assert str(ours.value) == str(theirs.value)
