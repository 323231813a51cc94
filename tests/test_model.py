"""Tests for the hybrid support model and instance sampling."""

import itertools
import math

import numpy as np
import pytest

import sparsethresh
from sparsethresh import (
    PartitionedDictionary,
    build_random_dictionary,
    chain_batch,
    choose_support_a,
    derive_rng,
    draw_instances,
    draw_supports,
    sample_instance,
    sample_support_b,
)
from sparsethresh import concentration, model, recovery
from sparsethresh.rng import BLOCK

TOL = 1e-12
EYE20 = PartitionedDictionary(np.eye(20), 20)


# ==============================
# spec objects
# ==============================


def _values(rng, k):
    """The k nonzero values ``sample_instance`` reads after the support."""
    magnitudes = np.hypot(rng.standard_normal(k), rng.standard_normal(k)) / np.sqrt(2.0)
    return magnitudes * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=k))


class TestHybridSupportSpec:
    """The hybrid support's specification as ``choose_support_a`` resolves
    its A-part and ``sample_instance`` draws its B-part."""

    def test_n_a_counts_indices(self, mub7):
        support_a = choose_support_a("prescribed", mub7.Na, 3, (0, 3, 5))
        x, _ = sample_instance(mub7, support_a, 2, derive_rng(0))
        support = np.flatnonzero(x)
        assert support[:3].tolist() == [0, 3, 5]
        assert support.size == 5 and all(i >= mub7.Na for i in support[3:])

    def test_rejects_duplicates(self, mub7):
        with pytest.raises(ValueError, match="duplicate"):
            choose_support_a("prescribed", mub7.Na, 2, (1, 1))

    def test_rejects_negative_index(self, mub7):
        with pytest.raises(ValueError, match="out of range"):
            choose_support_a("prescribed", mub7.Na, 1, (-1,))

    @pytest.mark.parametrize("strategy", ["first-n", "spread", "random-baseline"])
    @pytest.mark.parametrize("n_pick", [2.5, 2.0, True])
    def test_refuses_a_count_that_is_not_an_integer(self, mub7, strategy, n_pick):
        # random-baseline resolved 2.5 to 2
        with pytest.raises(ValueError, match=f"n_pick must be an integer, got {n_pick!r}"):
            choose_support_a(strategy, mub7.Na, n_pick)

    def test_rejects_negative_count(self, mub7):
        with pytest.raises(ValueError, match="n_pick"):
            sample_instance(mub7, (), -2, derive_rng(0))
        with pytest.raises(ValueError, match="n_pick"):
            choose_support_a("first-n", mub7.Na, -1)


# ==============================
# support sampling
# ==============================


class TestSampleSupportB:
    def test_trivial_sizes(self):
        rng = derive_rng(0)
        assert sample_support_b(5, 0, rng) == ()
        assert sample_support_b(5, 5, rng) == (0, 1, 2, 3, 4)

    def test_sorted_and_distinct(self):
        rng = derive_rng(3)
        for _ in range(200):
            sup = sample_support_b(9, 4, rng)
            assert list(sup) == sorted(set(sup))
            assert all(0 <= i < 9 for i in sup)

    def test_rejects_oversized_pick(self):
        with pytest.raises(ValueError):
            sample_support_b(3, 4, derive_rng(0))

    def test_subsets_are_uniform(self):
        # all 6 two-element subsets of {0..3} appear with frequency 1/6 +- 0.01
        rng = derive_rng(17)
        draws = 100_000
        counts = {sub: 0 for sub in itertools.combinations(range(4), 2)}
        for _ in range(draws):
            counts[sample_support_b(4, 2, rng)] += 1
        for sub, count in counts.items():
            assert abs(count / draws - 1.0 / 6.0) < 0.01, sub


class TestChooseSupportA:
    def test_first_n(self):
        assert choose_support_a("first-n", 10, 3) == (0, 1, 2)

    def test_spread(self):
        assert choose_support_a("spread", 10, 2) == (0, 5)
        assert choose_support_a("spread", 7, 3) == (0, 2, 4)
        assert choose_support_a("spread", 5, 5) == (0, 1, 2, 3, 4)

    def test_empty_pick(self):
        assert choose_support_a("first-n", 10, 0) == ()
        assert choose_support_a("spread", 10, 0) == ()

    def test_prescribed_passthrough(self):
        assert choose_support_a("prescribed", 10, 2, indices=[7, 2]) == (7, 2)

    def test_prescribed_requires_indices(self):
        with pytest.raises(ValueError, match="explicit"):
            choose_support_a("prescribed", 10, 2)

    def test_prescribed_validates(self):
        with pytest.raises(ValueError, match="duplicates"):
            choose_support_a("prescribed", 10, 2, indices=[1, 1])
        with pytest.raises(ValueError, match="out of range"):
            choose_support_a("prescribed", 10, 2, indices=[1, 10])
        with pytest.raises(ValueError, match="expected 2"):
            choose_support_a("prescribed", 10, 2, indices=[1])
        with pytest.raises(ValueError, match="expected 2 indices, got more"):
            choose_support_a("prescribed", 10, 2, indices=range(10**18))  # read lazily

    @pytest.mark.parametrize(
        "indices",
        [np.array([0.7, 3.2]), [True], [1.5], (3, 1.0), np.array([True, False]), [0, True],
         (np.True_, 3)],
    )
    def test_prescribed_refuses_float_and_bool_indices(self, indices):
        # int() once read 0.7 as 0 and True as 1; numpy reads [0, True] as
        # int64, which once resolved it to (0, 1)
        with pytest.raises(ValueError, match="A-column indices are .*, not integers"):
            choose_support_a("prescribed", 7, len(indices), indices=indices)

    @pytest.mark.parametrize(
        "indices", [np.array([5, 2]), np.array([5, 2], dtype=np.uint8), (np.int64(5), 2)]
    )
    def test_prescribed_takes_numpy_integers(self, indices):
        chosen = choose_support_a("prescribed", 7, 2, indices=indices)
        assert chosen == (5, 2) and all(type(i) is int for i in chosen)
        assert choose_support_a("prescribed", 7, 3, indices=range(2, 5)) == (2, 3, 4)

    def test_random_baseline_deterministic_in_seed(self):
        # all 20 columns in block A, none in B
        support_a = choose_support_a("random-baseline", 20, 5)
        first, _ = sample_instance(EYE20, support_a, 0, derive_rng(7))
        second, _ = sample_instance(EYE20, support_a, 0, derive_rng(7))
        np.testing.assert_array_equal(first, second)
        assert np.count_nonzero(first) == 5

    def test_random_baseline_draws_what_sample_support_b_draws(self):
        ours, theirs = derive_rng(3, 1), derive_rng(3, 1)
        support_a = choose_support_a("random-baseline", 20, 5)
        x, _ = sample_instance(EYE20, support_a, 0, ours)
        cols_a = sample_support_b(20, 5, theirs)
        assert tuple(np.flatnonzero(x)) == cols_a
        np.testing.assert_array_equal(x[list(cols_a)], _values(theirs, 5))
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize(
        "strategy, indices", [("first-n", None), ("spread", None), ("prescribed", [7, 2])]
    )
    def test_fixed_strategies_draw_nothing(self, strategy, indices):
        # the stream's first reads are the values: the A-support took none
        rng, by_hand = derive_rng(3, 1), derive_rng(3, 1)
        support_a = choose_support_a(strategy, 20, 2, indices=indices)
        x, _ = sample_instance(EYE20, support_a, 0, rng)
        assert np.flatnonzero(x).tolist() == sorted(support_a)
        np.testing.assert_array_equal(x[sorted(support_a)], _values(by_hand, 2))
        assert rng.random() == by_hand.random()

    @pytest.mark.parametrize("strategy", ["first-n", "spread", "random-baseline"])
    def test_indices_need_prescribed(self, strategy):
        with pytest.raises(ValueError, match="only to the prescribed strategy"):
            choose_support_a(strategy, 10, 2, indices=[7, 2])

    def test_random_baseline_resolves_to_its_count(self):
        # each trial draws its own A-support: the count is all there is to fix
        assert choose_support_a("random-baseline", 20, 5) == 5
        assert choose_support_a("random-baseline", 20, 0) == 0

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            choose_support_a("greedy", 10, 2)


# ==============================
# instance sampling
# ==============================


def _nonzeros(seed, draws):
    """The nonzero values of ``draws`` instances with 8 of 16 B-columns."""
    D = PartitionedDictionary(np.eye(16), 0)
    rng = derive_rng(seed)
    xs = [sample_instance(D, (), 8, rng)[0] for _ in range(draws)]
    return np.concatenate([x[np.flatnonzero(x)] for x in xs])


class TestSampleInstance:
    def test_zero_budget_gives_zero_signal(self, two_onb4):
        x, y = sample_instance(two_onb4, (), 0, derive_rng(0))
        assert x.shape == (8,) and y.shape == (4,)
        assert np.all(x == 0) and np.all(y == 0)

    def test_support_layout(self, mub7):
        x, _ = sample_instance(mub7, (4, 1), 3, derive_rng(5))
        support = np.flatnonzero(x)
        assert support.size == 5
        assert support[:2].tolist() == [1, 4]
        assert all(7 <= i < 56 for i in support[2:])

    def test_values_align_with_support(self, mub7):
        x, _ = sample_instance(mub7, (2, 0), 4, derive_rng(9))
        by_hand = derive_rng(9)
        support = [0, 2, *(mub7.Na + j for j in sample_support_b(mub7.Nb, 4, by_hand))]
        assert np.flatnonzero(x).tolist() == support
        np.testing.assert_array_equal(x[support], _values(by_hand, 6))
        assert np.min(np.abs(x[support])) > 1e-12

    def test_measurement_is_consistent(self, mub7):
        x, y = sample_instance(mub7, (0, 3), 5, derive_rng(2))
        assert np.max(np.abs(y - mub7.matrix @ x)) <= TOL

    def test_deterministic_in_spec_seed(self, mub5):
        support_a = choose_support_a("random-baseline", mub5.Na, 1)
        a = sample_instance(mub5, support_a, 3, derive_rng(42))
        b = sample_instance(mub5, support_a, 3, derive_rng(42))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_explicit_rng_matches_seed_derivation(self, mub5):
        # the instance is the stream of seed 42 read in the documented order:
        # A-support, B-support, then magnitudes (all real parts, then all
        # imaginary parts), then phases
        support_a = choose_support_a("random-baseline", mub5.Na, 1)
        x, y = sample_instance(mub5, support_a, 3, derive_rng(42))
        by_hand = derive_rng(42)
        support_a = sample_support_b(mub5.Na, 1, by_hand)
        support_b = sample_support_b(mub5.Nb, 3, by_hand)
        re, im = by_hand.standard_normal(4), by_hand.standard_normal(4)
        phases = by_hand.uniform(0.0, 2.0 * np.pi, size=4)
        expected = np.zeros(mub5.N, dtype=complex)
        expected[[*support_a, *(mub5.Na + j for j in support_b)]] = (
            np.hypot(re, im) / np.sqrt(2.0) * np.exp(1j * phases)
        )
        np.testing.assert_array_equal(x, expected)
        np.testing.assert_array_equal(y, mub5.matrix @ expected)

    def test_rejects_support_outside_block_a(self, mub3):
        # a fixed A-support is checked once, when it is resolved; a count
        # for every trial, when its A-support is drawn
        with pytest.raises(ValueError, match="out of range"):
            choose_support_a("prescribed", mub3.Na, 1, (3,))
        with pytest.raises(ValueError, match="n_pick <= n_total"):
            choose_support_a("first-n", mub3.Na, 4)
        with pytest.raises(ValueError, match="n_pick <= n_total"):
            sample_instance(mub3, 4, 0, derive_rng(0))

    @pytest.mark.parametrize(
        "support_a, message",
        [((-1,), "out of range"), ((7,), "out of range"), ((5, 9), "out of range"),
         ((0, 0), "duplicate-free"), ((3, 1, 3), "duplicate-free"),
         ((1.5,), "not integers"), ((True,), "not integers"),
         ((2, 0.5), "not integers"), ((0, True), "not integers"),
         ((np.True_, 3), "not integers")],
    )
    def test_refuses_what_chain_batch_refuses(self, mub7, support_a, message):
        # unchecked, (-1,) put the A-value on B's last column, (0, 0) gave
        # one nonzero fewer than k, (1.5,) raised a bare IndexError and (True,)
        # measured column 1; numpy reads (0, True) as int64, which once put
        # values on columns 0 and 1
        with pytest.raises(ValueError, match=message) as sampled:
            sample_instance(mub7, support_a, 2, derive_rng(0))
        with pytest.raises(ValueError) as measured:
            chain_batch(mub7, [support_a], [(0, 1)])
        assert str(sampled.value) == str(measured.value)

    def test_rejects_oversized_b_budget(self, mub3):
        with pytest.raises(ValueError, match="n_pick <= n_total"):
            sample_instance(mub3, (), 10, derive_rng(0))

    def test_b_column_inclusion_is_uniform(self):
        # marginal inclusion of each B column is n_b/Nb within 3 sigma
        D = PartitionedDictionary(np.eye(16), 0)
        rng = derive_rng(23)
        draws = 100_000
        hits = np.zeros(16)
        for _ in range(draws):
            support = sample_support_b(16, 4, rng)
            hits[list(support)] += 1
        p = 4.0 / 16.0
        three_sigma = 3.0 * math.sqrt(p * (1 - p) / draws)
        assert np.max(np.abs(hits / draws - p)) <= three_sigma

    def test_half_normal_law_has_unit_second_moment(self):
        # the modulus of a standard complex Gaussian: 1e5 magnitudes, every
        # one of them > 0 (a zero would drop out of the nonzeros)
        mags = np.abs(_nonzeros(2, 12_500))
        assert mags.size == 100_000
        assert abs(np.mean(mags**2) - 1.0) < 0.02

    def test_phases_are_uniform(self):
        # Kolmogorov-Smirnov distance of 1e5 sampled phases against U[0, 2 pi)
        phases = np.angle(_nonzeros(31, 12_500))
        u = np.sort(phases % (2.0 * np.pi)) / (2.0 * np.pi)
        n = u.size
        assert n == 100_000
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(grid - u), np.max(u - (grid - 1.0 / n)))
        assert ks < 0.01


# a random dictionary whose blocks are neither orthonormal nor equal in size
RANDOM6X20 = build_random_dictionary(6, 20, 3, split=8)


class TestDrawInstances:
    """``draw_instances`` draws a cell's trials in one pass; row t is
    ``sample_instance`` on stream t, bit for bit."""

    @pytest.mark.parametrize("dict_name", ["two_onb8", "mub7", "random6x20"])
    @pytest.mark.parametrize("strategy, n_a, indices, n_b", [
        ("first-n", 2, None, 3),
        ("prescribed", 3, (4, 0, 2), 2),  # unsorted: every row sorts it
        ("random-baseline", 3, None, 2),
        ("first-n", 0, None, 4),
        ("random-baseline", 2, None, 0),
        ("spread", 0, None, 0),
    ])
    def test_rows_are_the_one_row_draws(self, request, dict_name, strategy, n_a, indices, n_b):
        D = RANDOM6X20 if dict_name == "random6x20" else request.getfixturevalue(dict_name)
        support_a = choose_support_a(strategy, D.Na, n_a, indices)
        X, Y = draw_instances(D, support_a, n_b, [derive_rng(11, t) for t in range(256)])
        assert X.shape == (256, D.N) and Y.shape == (256, D.m)
        for t in range(256):
            x, y = sample_instance(D, support_a, n_b, derive_rng(11, t))
            assert X[t].tobytes() == x.tobytes() and Y[t].tobytes() == y.tobytes()
            assert np.count_nonzero(x) == n_a + n_b

    def test_no_streams_no_rows(self, mub7):
        X, Y = draw_instances(mub7, (1, 0), 2, [])
        assert X.shape == (0, mub7.N) and Y.shape == (0, mub7.m)

    @pytest.mark.parametrize("support_a, message", [
        ((7,), "out of range"), ((-1, 2), "out of range"),
        ((3, 1, 3), "duplicate-free"), ((0, 0), "duplicate-free"),
    ])
    def test_refuses_a_fixed_support_outside_block_a_or_repeated(
        self, mub7, support_a, message
    ):
        with pytest.raises(ValueError, match=message):
            draw_instances(mub7, support_a, 2, [derive_rng(0, t) for t in range(4)])

    def test_refuses_counts_beyond_the_blocks(self, mub7):
        rngs = [derive_rng(0, t) for t in range(4)]
        with pytest.raises(ValueError, match="n_pick <= n_total"):
            draw_instances(mub7, mub7.Na + 1, 0, rngs)
        with pytest.raises(ValueError, match="n_pick <= n_total"):
            draw_instances(mub7, (0,), mub7.Nb + 1, rngs)


class TestResolvedOnce:
    """A runner turns its strategy into an A-support once, before any trial:
    ``smin`` and ``moments`` once per run, ``recover`` once per (strategy, n_a)."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        seen = []

        def counting(*args, **kwargs):
            seen.append(args[0])
            return choose_support_a(*args, **kwargs)

        for module in (model, concentration, recovery):
            monkeypatch.setattr(module, "choose_support_a", counting)
        return seen

    @pytest.mark.parametrize("trials", [1, 300])
    @pytest.mark.parametrize("strategy", ["first-n", "random-baseline"])
    def test_smin(self, mub7, calls, strategy, trials):
        concentration.run_smin_trials(mub7, strategy, 2, 3, trials=trials)
        assert calls == [strategy]

    @pytest.mark.parametrize("trials", [1000, 1300])
    def test_moments(self, mub7, calls, trials):
        concentration.estimate_moment(mub7, 2, 3, q=8.0, trials=trials, n_boot=1)
        assert calls == ["first-n"]

    @pytest.mark.parametrize("trials", [1, 3])
    def test_recover(self, two_onb4, calls, trials):
        recovery.run_recovery_sweep(
            two_onb4, (0, 1, 2), (1,), trials, strategies=("spread", "random-baseline"),
            cfg=recovery.BpSolverConfig(max_iterations=2),
        )
        assert calls == ["spread"] * 3 + ["random-baseline"] * 3


class TestBlocksDrawnByModel:
    """``smin`` and ``moments`` take every block's supports through
    ``model.draw_supports``, each trial once and in order."""

    @pytest.fixture()
    def blocks(self, monkeypatch):
        seen = []

        def counting(D, support_a, n_b, master_seed, lo, hi):
            seen.append((lo, hi))
            return draw_supports(D, support_a, n_b, master_seed, lo, hi)

        for module in (model, concentration):
            monkeypatch.setattr(module, "draw_supports", counting)
        return seen

    @staticmethod
    def _blocks(trials):
        return [(lo, min(lo + BLOCK, trials)) for lo in range(0, trials, BLOCK)]

    @pytest.mark.parametrize("trials", [1, 300])
    @pytest.mark.parametrize("strategy", ["first-n", "random-baseline"])
    def test_smin(self, mub7, blocks, strategy, trials):
        concentration.run_smin_trials(mub7, strategy, 2, 3, trials=trials)
        assert blocks == self._blocks(trials)

    @pytest.mark.parametrize("trials", [1000, 1300])
    def test_moments(self, mub7, blocks, trials):
        concentration.estimate_moment(mub7, 2, 3, q=8.0, trials=trials, n_boot=1)
        assert blocks == self._blocks(trials)

    def test_model_is_the_one_home(self):
        assert sparsethresh.draw_supports is model.draw_supports
        assert not hasattr(model, "draw_support")
        assert not hasattr(sparsethresh, "draw_support")
        assert not hasattr(concentration, "derive_choices")
