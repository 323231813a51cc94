"""Tests for the hybrid support model and instance sampling."""

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
)
from sparsethresh import concentration, model, recovery
from sparsethresh.rng import BLOCK

TOL = 1e-12
EYE20 = PartitionedDictionary(np.eye(20), 20)


# ==============================
# spec objects
# ==============================


def _one(D, support_a, n_b, seed, *key):
    """The instance (x, y) of key row ``key``: ``draw_instances``' one-row draw."""
    X, Y = draw_instances(D, support_a, n_b, seed, [key])
    return X[0], Y[0]


def _subset(rng, n_total, n_pick):
    """The sorted n_pick of range(n_total) that ``draw_instances`` reads from ``rng``."""
    return np.sort(rng.choice(n_total, size=n_pick, replace=False)).tolist()


def _values(rng, k):
    """The k nonzero values ``draw_instances`` reads after the support."""
    magnitudes = np.hypot(rng.standard_normal(k), rng.standard_normal(k)) / np.sqrt(2.0)
    return magnitudes * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=k))


class TestHybridSupportSpec:
    """The hybrid support's specification as ``choose_support_a`` resolves
    its A-part and ``draw_instances`` draws its B-part."""

    def test_n_a_counts_indices(self, mub7):
        support_a = choose_support_a("prescribed", mub7.Na, 3, (0, 3, 5))
        x, _ = _one(mub7, support_a, 2, 0)
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
            _one(mub7, (), -2, 0)
        with pytest.raises(ValueError, match="n_pick"):
            choose_support_a("first-n", mub7.Na, -1)


# ==============================
# support sampling
# ==============================


# 100,000 one-row draws of 4 of 16 B-columns, each on its own key row (t,)
UNIFORM_DRAWS = 100_000


@pytest.fixture(scope="module")
def b_hits():
    """The (UNIFORM_DRAWS, 16) inclusion table of the B-columns drawn."""
    X, _ = draw_instances(
        PartitionedDictionary(np.eye(16), 0), (), 4, 23, np.arange(UNIFORM_DRAWS)[:, None]
    )
    return (X != 0).astype(np.int64)


class TestUniformBSubsets:
    """``draw_instances`` draws n_b distinct B-columns, uniform over the
    subsets; ``draw_supports`` draws them sorted and distinct."""

    @pytest.mark.parametrize("n_b", [0, 5])
    def test_trivial_sizes(self, n_b):
        D = PartitionedDictionary(np.eye(5), 0)
        keys = np.arange(20)[:, None]
        X, _ = draw_instances(D, (), n_b, 0, keys)
        assert (X != 0).tolist() == [[n_b == 5] * 5] * 20
        _, cols_b = draw_supports(D, (), n_b, 0, keys)
        assert cols_b.tolist() == [list(range(n_b))] * 20

    def test_distinct_columns_in_block_b(self, mub7):
        keys = np.arange(200)[:, None]
        X, _ = draw_instances(mub7, (), 4, 3, keys)
        assert np.count_nonzero(X, axis=1).tolist() == [4] * 200
        assert not X[:, :mub7.Na].any()
        _, cols_b = draw_supports(mub7, (), 4, 3, keys)
        assert np.all(np.diff(cols_b, axis=1) > 0) and cols_b.max() < mub7.Nb

    def test_b_column_inclusion_is_uniform(self, b_hits):
        # marginal inclusion of each B column is n_b/Nb within 3 sigma
        p = 4.0 / 16.0
        three_sigma = 3.0 * math.sqrt(p * (1 - p) / UNIFORM_DRAWS)
        assert np.max(np.abs(b_hits.mean(axis=0) - p)) <= three_sigma

    def test_subsets_are_uniform(self, b_hits):
        # all 1,820 four-element subsets of {0..15} appear, and their counts'
        # chi-squared statistic lies within 4 sigma of its mean, the 1,819
        # degrees of freedom
        _, counts = np.unique(b_hits @ (1 << np.arange(16)), return_counts=True)
        expected, dof = UNIFORM_DRAWS / math.comb(16, 4), math.comb(16, 4) - 1
        assert counts.size == dof + 1
        assert np.sum((counts - expected) ** 2 / expected) <= dof + 4.0 * math.sqrt(2 * dof)


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
        first, _ = _one(EYE20, support_a, 0, 7)
        second, _ = _one(EYE20, support_a, 0, 7)
        np.testing.assert_array_equal(first, second)
        assert np.count_nonzero(first) == 5

    def test_random_baseline_reads_its_a_support_first(self):
        by_hand = derive_rng(3, 1)
        x, _ = _one(EYE20, choose_support_a("random-baseline", 20, 5), 0, 3, 1)
        cols_a = _subset(by_hand, 20, 5)
        assert np.flatnonzero(x).tolist() == cols_a
        np.testing.assert_array_equal(x[cols_a], _values(by_hand, 5))

    @pytest.mark.parametrize(
        "strategy, indices", [("first-n", None), ("spread", None), ("prescribed", [7, 2])]
    )
    def test_fixed_strategies_draw_nothing(self, strategy, indices):
        # the stream's first reads are the values: the A-support took none
        support_a = choose_support_a(strategy, 20, 2, indices=indices)
        x, _ = _one(EYE20, support_a, 0, 3, 1)
        assert np.flatnonzero(x).tolist() == sorted(support_a)
        np.testing.assert_array_equal(x[sorted(support_a)], _values(derive_rng(3, 1), 2))

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
    X, _ = draw_instances(PartitionedDictionary(np.eye(16), 0), (), 8, seed,
                          np.arange(draws)[:, None])
    return X[X != 0]


class TestInstance:
    def test_zero_budget_gives_zero_signal(self, two_onb4):
        x, y = _one(two_onb4, (), 0, 0)
        assert x.shape == (8,) and y.shape == (4,)
        assert np.all(x == 0) and np.all(y == 0)

    def test_support_layout(self, mub7):
        x, _ = _one(mub7, (4, 1), 3, 5)
        support = np.flatnonzero(x)
        assert support.size == 5
        assert support[:2].tolist() == [1, 4]
        assert all(7 <= i < 56 for i in support[2:])

    def test_values_align_with_support(self, mub7):
        x, _ = _one(mub7, (2, 0), 4, 9)
        by_hand = derive_rng(9)
        support = [0, 2, *(mub7.Na + j for j in _subset(by_hand, mub7.Nb, 4))]
        assert np.flatnonzero(x).tolist() == support
        np.testing.assert_array_equal(x[support], _values(by_hand, 6))
        assert np.min(np.abs(x[support])) > 1e-12

    def test_measurement_is_consistent(self, mub7):
        x, y = _one(mub7, (0, 3), 5, 2)
        assert np.max(np.abs(y - mub7.matrix @ x)) <= TOL

    def test_deterministic_in_spec_seed(self, mub5):
        support_a = choose_support_a("random-baseline", mub5.Na, 1)
        a = _one(mub5, support_a, 3, 42)
        b = _one(mub5, support_a, 3, 42)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_key_row_names_the_stream(self, mub5):
        # the instance of key row (2, 5) is the stream derive_rng(42, 2, 5)
        # read in the documented order: A-support, B-support, then magnitudes
        # (all real parts, then all imaginary parts), then phases
        support_a = choose_support_a("random-baseline", mub5.Na, 1)
        x, y = _one(mub5, support_a, 3, 42, 2, 5)
        by_hand = derive_rng(42, 2, 5)
        support_a = _subset(by_hand, mub5.Na, 1)
        support_b = _subset(by_hand, mub5.Nb, 3)
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
            _one(mub3, 4, 0, 0)

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
            _one(mub7, support_a, 2, 0)
        with pytest.raises(ValueError) as measured:
            chain_batch(mub7, [support_a], [(0, 1)])
        assert str(sampled.value) == str(measured.value)

    def test_rejects_oversized_b_budget(self, mub3):
        with pytest.raises(ValueError, match="n_pick <= n_total"):
            _one(mub3, (), 10, 0)

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


# key rows of two columns, neither in order nor from 0
KEYS = np.array([(t % 5, 3 * (255 - t)) for t in range(256)])


class TestDrawInstances:
    """``draw_instances`` draws a cell's trials in one pass; row t is the
    one-row draw on key row t, bit for bit."""

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
        X, Y = draw_instances(D, support_a, n_b, 11, KEYS)
        assert X.shape == (256, D.N) and Y.shape == (256, D.m)
        for t in range(256):
            x, y = draw_instances(D, support_a, n_b, 11, KEYS[t : t + 1])
            assert X[t].tobytes() == x.tobytes() and Y[t].tobytes() == y.tobytes()
            assert np.count_nonzero(x) == n_a + n_b

    def test_no_keys_no_rows(self, mub7):
        X, Y = draw_instances(mub7, (1, 0), 2, 0, np.empty((0, 1), dtype=np.int64))
        assert X.shape == (0, mub7.N) and Y.shape == (0, mub7.m)

    @pytest.mark.parametrize("support_a, message", [
        ((7,), "out of range"), ((-1, 2), "out of range"),
        ((3, 1, 3), "duplicate-free"), ((0, 0), "duplicate-free"),
    ])
    def test_refuses_a_fixed_support_outside_block_a_or_repeated(
        self, mub7, support_a, message
    ):
        with pytest.raises(ValueError, match=message):
            draw_instances(mub7, support_a, 2, 0, KEYS[:4])

    def test_refuses_counts_beyond_the_blocks(self, mub7):
        with pytest.raises(ValueError, match="n_pick <= n_total"):
            draw_instances(mub7, mub7.Na + 1, 0, 0, KEYS[:4])
        with pytest.raises(ValueError, match="n_pick <= n_total"):
            draw_instances(mub7, (0,), mub7.Nb + 1, 0, KEYS[:4])


@pytest.mark.parametrize("draw", [draw_instances, draw_supports])
class TestKeyRows:
    """Both draws take the same (master_seed, keys) and refuse the same."""

    @pytest.mark.parametrize("keys, message", [
        (np.arange(4), "must be a \\(T, L\\) array"),
        ([[1], [-2]], "non-negative"),
        (np.array([[0.5], [1.0]]), "must be integers"),
        ([(1, True)], "must be integers"),
    ])
    def test_refuses_bad_keys(self, mub7, draw, keys, message):
        with pytest.raises(ValueError, match=message):
            draw(mub7, (0,), 2, 0, keys)

    @pytest.mark.parametrize("seed", [-1, 1.0, True])
    def test_refuses_a_bad_seed(self, mub7, draw, seed):
        with pytest.raises(ValueError, match="master_seed must be a nonnegative integer"):
            draw(mub7, (0,), 2, seed, KEYS[:4])

    def test_a_list_of_tuples_is_its_array(self, mub7, draw):
        ours = draw(mub7, 2, 3, 8, [tuple(row) for row in KEYS.tolist()])
        for cols, expected in zip(ours, draw(mub7, 2, 3, 8, KEYS)):
            assert cols.tobytes() == expected.tobytes()


class TestResolvedOnce:
    """A runner turns its strategy into an A-support once, before any trial:
    ``smin`` and ``estimate_moment`` once per run, ``recover`` once per
    (strategy, n_a)."""

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
    """``smin`` and ``estimate_moment`` take every block's supports through
    ``model.draw_supports``, each trial once and in order."""

    @pytest.fixture()
    def blocks(self, monkeypatch):
        seen = []

        def counting(D, support_a, n_b, master_seed, keys):
            seen.append((int(keys[0, 0]), int(keys[-1, 0]) + 1))
            assert keys.tolist() == [[t] for t in range(*seen[-1])]
            return draw_supports(D, support_a, n_b, master_seed, keys)

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
        assert not hasattr(recovery, "derive_rng")  # the model builds every trial's stream
