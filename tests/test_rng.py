"""Tests for the per-trial streams and the block loop shared by the Monte
Carlo runners."""

import ctypes
import json
import math
import re
import time
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsethresh import concentration, recovery, rng
from sparsethresh.rng import derive_choices, derive_rng


def _span(common, lo, hi):
    return common, lo, hi


def _slow_first(common, lo, hi):
    if lo == 0:
        time.sleep(1.0)
    return lo


def _blas_threads(common=None, lo=0, hi=0):
    """The thread count of the OpenBLAS this process has loaded, or None."""
    get_threads = rng._openblas_call("get", [], ctypes.c_int)
    return None if get_threads is None else get_threads()


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
    # the initializer runs in this process, whose BLAS threads stay as they are
    monkeypatch.setattr(rng, "_openblas_call", lambda verb, argtypes, restype: None)
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

    @pytest.mark.skipif(_blas_threads() is None, reason="no OpenBLAS thread call")
    def test_a_pooled_block_runs_one_blas_thread(self, pool_starts):
        own = _blas_threads()
        assert list(rng.fan_out(_blas_threads, None, 2 * rng.BLOCK, 2)) == [1, 1]
        assert pool_starts == [2]
        assert _blas_threads() == own  # this process keeps its own

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


# keys at and past 2^32, up to the largest int64
_KEY = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**40]), st.integers(0, 2**63 - 1))


@st.composite
def _key_blocks(draw):
    width = draw(st.integers(0, 5))
    return draw(st.lists(st.lists(_KEY, min_size=width, max_size=width), max_size=6)), width


# SplitMix64 (Steele, Lea and Flood 2014), written out here apart from rng's
_M64 = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _M64
    return z ^ (z >> 31)


def _reference_choices(seed, key, draws):
    """One row of derive_choices in Python ints, one word at a time: the
    state folds [limb count, seed limbs low first, *key], word i is
    mix(state + (i + 1) GAMMA), and Floyd's draw on [0, j] is the high word
    of word * (j + 1), a repeat taking j instead."""
    limbs = []
    while seed or not limbs:
        limbs.append(seed & _M64)
        seed >>= 64
    state = 0
    for word in [len(limbs), *limbs, *key]:
        state = _mix((state + _GAMMA & _M64) ^ word)
    i, out = 0, []
    for population, size in draws:
        sample = set()
        for j in range(population - size, population):
            i += 1
            v = _mix(state + i * _GAMMA & _M64) * (j + 1) >> 64
            sample.add(j if v in sample else v)
        out.append(sorted(sample))
    return out


_WIDE_POPULATIONS = [2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1]


@st.composite
def _draws(draw):
    out = []
    for _ in range(draw(st.integers(1, 3))):
        population = draw(st.one_of(st.integers(0, 60), st.sampled_from(_WIDE_POPULATIONS)))
        full = population if population <= 60 else 12
        size = draw(st.one_of(st.sampled_from([0, full]), st.integers(0, min(population, 12))))
        out.append((population, size))
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
    @given(seed=st.integers(0, 2**96), block=_key_blocks(), draws=_draws())
    @example(seed=2**64, block=([[0], [2**32 - 1], [2**32], [2**63 - 1]], 1),
             draws=[(7, 2), (49, 3)])
    @example(seed=0, block=([[5, 2**32]] * 3, 2), draws=[(60, 60), (1, 1), (0, 0)])
    @example(seed=2**96, block=([[]] * 2, 0), draws=[(2**32 + 1, 12), (16129, 7)])
    def test_each_row_is_the_reference(self, seed, block, draws):
        keys, width = block
        ours = derive_choices(seed, np.array(keys, dtype=np.int64).reshape(len(keys), width), draws)
        assert [(o.shape, o.dtype) for o in ours] == [((len(keys), size), np.int64)
                                                      for _, size in draws]
        for t, key in enumerate(keys):
            assert [o[t].tolist() for o in ours] == _reference_choices(seed, key, draws)

    @pytest.mark.parametrize("draws", [[(7, 7)], [(49, 0)], [(1, 1), (0, 0)], [(7, 0), (49, 49)]])
    def test_full_and_empty_draws_on_a_ragged_block(self, draws):
        # size = population starts at the draw on [0, 0], which still takes a word
        ours = derive_choices(7, np.arange(512, 549)[:, None], draws)
        for t in range(37):
            assert [o[t].tolist() for o in ours] == _reference_choices(7, [512 + t], draws)

    def test_no_rows(self):
        out = derive_choices(7, np.empty((0, 1), dtype=np.int64), [(49, 3), (7, 0)])
        assert [o.shape for o in out] == [(0, 3), (0, 0)]

    def test_builds_no_generator(self, no_generators):
        # numpy's own choice changes algorithm past population 10,000 and 2^32
        keys = np.arange(40)[:, None]
        for draws in ([(7, 2), (49, 3)], [(10_001, 201)], [(2**32 + 1, 2)], [(7, 7)]):
            derive_choices(7, keys, draws)

    @pytest.mark.parametrize("lo, hi", [(0, 256), (255, 512), (257, 259)])
    def test_a_row_never_depends_on_its_block(self, lo, hi):
        draws = [(7, 2), (49, 3)]
        block = derive_choices(9, np.arange(lo, hi)[:, None], draws)
        backwards = derive_choices(9, np.arange(hi - 1, lo - 1, -1)[:, None], draws)
        for t in range(lo, hi):
            alone = derive_choices(9, [[t]], draws)
            for cols, reversed_cols, one in zip(block, backwards, alone):
                assert cols[t - lo].tolist() == one[0].tolist()
                assert reversed_cols[hi - 1 - t].tolist() == one[0].tolist()

    @pytest.mark.parametrize("seed, other", [(2**64, 0), (2**64 + 5, 5), (2**128, 2**64)])
    def test_seed_limbs_do_not_wrap(self, seed, other):
        keys = np.arange(64)[:, None]
        (ours,), (theirs,) = (derive_choices(s, keys, [(49, 3)]) for s in (seed, other))
        assert np.count_nonzero(np.any(ours != theirs, axis=1)) >= 60

    def test_a_seed_limb_is_not_a_key(self):
        # the limb count leads the state, so (2^64, t) is not (0, 1, t)
        t = np.arange(64)
        (ours,) = derive_choices(2**64, t[:, None], [(49, 3)])
        (theirs,) = derive_choices(0, np.stack([np.ones_like(t), t], axis=1), [(49, 3)])
        assert np.count_nonzero(np.any(ours != theirs, axis=1)) >= 60

    def test_a_numpy_integer_seed_is_its_int(self):
        keys = np.arange(8)[:, None]
        for seed in (np.int64(5), np.uint64(5), np.uint32(5)):
            assert derive_choices(seed, keys, [(49, 3)])[0].tolist() == derive_choices(
                5, keys, [(49, 3)]
            )[0].tolist()

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

    @pytest.mark.parametrize("keys", [np.arange(3), np.zeros((2, 2, 1), dtype=np.int64)])
    def test_keys_must_be_one_row_per_stream(self, keys):
        with pytest.raises(ValueError, match="keys must be a"):
            derive_choices(0, keys, [(7, 2)])


# ============================================================
# statistical gates, at seeds and thresholds fixed in advance
# ============================================================

_TRIALS = 100_000
_SEED = 11


def _falling(x, r):
    return math.perm(x, r) if x >= r else 0


def _chi2(observed, expected):
    return float(np.sum((observed - expected) ** 2 / expected))


def _within(chi2, mean):
    """chi2 lies within 6 standard deviations, sqrt(2 mean), of its mean."""
    return abs(chi2 - mean) <= 6.0 * math.sqrt(2.0 * mean)


def _pair_chi2_mean(population, size, width):
    """E[chi^2] of the unordered bin-pair counts of a uniform size-subset,
    bins of ``width`` columns: each row gives C(size, 2) pairs, which share
    picks, so the mean is sum_c E[X_c^2] / E[X_c] - C(size, 2) over cells c,
    from the factorial moments of the bin counts (multivariate
    hypergeometric): E[prod_b n_b^(r_b)] = size^(r) prod_b width^(r_b) / population^(r)."""

    def moment(*orders):
        out = _falling(size, sum(orders)) / _falling(population, sum(orders))
        return out * math.prod(_falling(width, r) for r in orders)

    bins = population // width
    # X = n_a n_b across two bins, C(n_a, 2) inside one: n^2 = n^(2) + n and
    # (n^(2))^2 = n^(4) + 4 n^(3) + 2 n^(2)
    total = math.comb(bins, 2) * sum(moment(r, s) for r in (1, 2) for s in (1, 2)) / moment(1, 1)
    if width > 1:
        total += bins * (moment(4) + 4 * moment(3) + 2 * moment(2)) / 2 / moment(2)
    return total - math.comb(size, 2)


@pytest.mark.parametrize("population, size, width", [
    (7, 2, 1), (49, 3, 1), (961, 4, 31), (16129, 7, 127),
])
def test_marginals_and_pairs_are_uniform(population, size, width):
    # the draw shapes of mub7's A and B, and of mub31's and mub127's B; pairs
    # are counted over bins of ``width`` columns
    (cols,) = derive_choices(_SEED, np.arange(_TRIALS)[:, None], [(population, size)])
    assert np.all(np.diff(cols, axis=1) > 0) and cols.min() >= 0 and cols.max() < population
    # a column is in a row with probability p = size / population, so
    # E[chi^2] = sum (1 - p) = population - size
    counts = np.bincount(cols.ravel(), minlength=population)
    assert _within(_chi2(counts, _TRIALS * size / population), population - size)
    bins = population // width
    i, j = np.triu_indices(size, 1)
    cells = (cols[:, i] // width * bins + cols[:, j] // width).ravel()
    pairs = np.bincount(cells, minlength=bins * bins).reshape(bins, bins)
    per_pair = _TRIALS * math.comb(size, 2) / math.comb(population, 2)
    expected = np.full((bins, bins), width * width * per_pair)
    np.fill_diagonal(expected, math.comb(width, 2) * per_pair)
    upper = np.triu(np.ones((bins, bins), dtype=bool)) & (expected > 0)
    assert pairs[~upper].sum() == 0
    assert _within(_chi2(pairs[upper], expected[upper]),
                   _pair_chi2_mean(population, size, width))


@pytest.mark.parametrize("layout", ["t", "3, t", "t, 3"])
def test_adjacent_keys_are_independent(layout):
    # rows 2s and 2s + 1 differ by one in one key: their (7, 2) draws, one of
    # 21 pairs each, fall on the 441 cells of the product uniformly
    t = np.arange(_TRIALS)
    three = np.full_like(t, 3)
    keys = {"t": t[:, None], "3, t": np.stack([three, t], axis=1),
            "t, 3": np.stack([t, three], axis=1)}[layout]
    (cols,) = derive_choices(_SEED, keys, [(7, 2)])
    pair = cols[:, 0] * 7 + cols[:, 1]
    index = np.full(49, -1)
    index[[a * 7 + b for a in range(7) for b in range(a + 1, 7)]] = np.arange(21)
    cell = index[pair[0::2]] * 21 + index[pair[1::2]]
    counts = np.bincount(cell, minlength=441)
    assert _within(_chi2(counts, _TRIALS / 2 / 441), 440)


# ============================================================
# seeds
# ============================================================


@pytest.mark.parametrize("seed", [1.5, 2.0, np.float64(1.0), True, False, np.True_, "3", None])
@pytest.mark.parametrize("runner", ["derive_rng", "derive_choices", "smin", "moments",
                                    "recover"])
def test_a_seed_that_is_not_an_integer_is_refused_before_any_draw(
    runner, seed, mub5, monkeypatch
):
    # a float or bool seed was truncated to another seed, and recover wrote
    # the float into its summary
    def no_work(*args, **kwargs):
        raise AssertionError("a draw ran before the seed was checked")

    for module in (concentration, recovery):
        monkeypatch.setattr(module, "fan_out", no_work)
    call = {
        "derive_rng": lambda: derive_rng(seed, 1),
        "derive_choices": lambda: derive_choices(seed, [[1]], [(7, 2)]),
        "smin": lambda: concentration.run_smin_trials(mub5, "first-n", 1, 2, trials=10,
                                                      master_seed=seed),
        "moments": lambda: concentration.estimate_moment(mub5, 1, 2, q=8.0, trials=1000,
                                                         master_seed=seed),
        "recover": lambda: recovery.run_recovery_sweep(mub5, (0,), (1,), 2, master_seed=seed),
    }[runner]
    message = f"master_seed must be a nonnegative integer, got {seed!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("key", [1.5, 1.0, np.float64(1.0), True, np.True_])
@pytest.mark.parametrize("function", ["derive_rng", "derive_choices"])
def test_a_key_that_is_not_an_integer_is_refused(function, key, no_generators):
    # a float or bool key was truncated to another key: 1.5 drew the stream of 1
    call = {
        "derive_rng": lambda: derive_rng(1, key),
        "derive_choices": lambda: derive_choices(1, [[0], [key]], [(7, 2)]),
    }[function]
    with pytest.raises(ValueError, match="keys must be integers"):
        call()


@pytest.mark.parametrize("keys", [np.array([[0.0], [1.5]]), np.array([[False], [True]])])
def test_an_array_of_keys_that_are_not_integers_is_refused(keys, no_generators):
    with pytest.raises(ValueError, match="keys must be integers"):
        derive_choices(1, keys, [(7, 2)])


def test_numpy_integer_seeds_are_accepted(mub5):
    assert derive_rng(np.int64(4), 1).random() == derive_rng(4, 1).random()
    assert derive_rng(np.uint64(4), 1).random() == derive_rng(4, 1).random()
    # and the runners write them into their summaries as the int
    for run in (
        lambda seed: concentration.run_smin_trials(mub5, "first-n", 1, 2, trials=10,
                                                   master_seed=seed),
        lambda seed: recovery.run_recovery_sweep(mub5, (0,), (1,), 2, master_seed=seed),
    ):
        ours, theirs = run(np.int64(4)).summary_dict(), run(4).summary_dict()
        assert json.dumps(ours) == json.dumps(theirs)
