"""Tests for the hollow Gram chain, the tail's block terms, and Monte Carlo experiments."""

import dataclasses
import hashlib
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sparsethresh
from sparsethresh import (
    SUPPORT_A_STRATEGIES,
    DictionaryStats,
    HollowGramRecord,
    PartitionedDictionary,
    analyze,
    build_mub,
    choose_support_a,
    default_u,
    derive_rng,
    draw_supports,
    estimate_moment,
    run_smin_trials,
)
from sparsethresh import cli, concentration, dictionary
from sparsethresh.concentration import (
    MOMENT_CSV_HEADER,
    TRIAL_CSV_HEADER,
    chain_batch,
    moment_floor_b,
    moment_floor_x,
)
from sparsethresh.recovery import SWEEP_STRATEGIES
from sparsethresh.threshold import (
    TheoremParams, block_a_terms, block_b_terms, evaluate_conditions,
)

# Hand-computed reference values, frozen.
SIGMA_PAIR = 0.541196100146197         # sqrt(1 - 1/sqrt(2))
BETA_EXAMPLE = 4.23606797749979        # 2 + sqrt(5)
U_S2_N10 = 4.291932052578694           # sqrt(8 log 10)
FLOOR_B_20 = 9.591581091193483         # 4 log 11
FLOOR_X_9 = 8.788898309344878          # 4 log 9
SQRT3 = 1.7320508075688772

TOL = 1e-12
# chain_batch reads eigenvalues of S^H S where _reference_chain takes SVDs of S
# and of its blocks, so the two round differently: by at most 3.4e-15 over 400
# draws of every CHAIN_SHAPES shape and strategy on mub5, mub7 and mub13,
# singular S included.  row_norm_ab sums the entries of one product over the
# union of a block's A-supports, which BLAS rounds as the per-draw product.
ORACLE_ATOL = 1e-13


def _stats(N=100, Nb=50, mu=0.0, mu_a=0.0, mu_b=0.0, spec_a=1.0, spec_b=1.0) -> DictionaryStats:
    return DictionaryStats(
        m=1, N=N, Na=N - Nb, mu=mu, mu_a=mu_a, mu_b=mu_b, spec_a=spec_a, spec_b=spec_b,
        spec_d=spec_a + spec_b,
    )


def _pair_dictionary() -> PartitionedDictionary:
    """[e1, (e1 + e2)/sqrt(2)] split 1 + 1; every chain quantity is closed-form."""
    col = np.array([1.0, 1.0]) / math.sqrt(2.0)
    return PartitionedDictionary(np.column_stack([np.eye(2)[:, 0], col]), 1)


@pytest.fixture(scope="module")
def mub13():
    return build_mub(13)


def _reference_chain(D, cols_a, cols_b) -> tuple[float, ...]:
    """One draw's (sigma_min, xi_s, xi_a, xi_b, xi_x, row_norm_ab), one LAPACK
    call per matrix as the per-draw runner measured them."""
    S = np.hstack([D.A[:, list(cols_a)], D.B[:, list(cols_b)]])
    a_part, b_part = S[:, : len(cols_a)], S[:, len(cols_a) :]

    def hollow(block):
        k = block.shape[1]
        return float(np.linalg.norm(block.conj().T @ block - np.eye(k), ord=2)) if k else 0.0

    xi_x = row_norm = 0.0
    if len(cols_a) and len(cols_b):
        xi_x = float(np.linalg.norm(a_part.conj().T @ b_part, ord=2))
    if len(cols_a) and D.Nb:
        row_norm = float(np.linalg.norm(a_part.conj().T @ D.B, axis=0).max())
    smin = 0.0 if S.shape[1] > S.shape[0] else float(np.linalg.svd(S, compute_uv=False)[-1])
    return smin, hollow(S), hollow(a_part), hollow(b_part), xi_x, row_norm


# the shapes the kernel is pinned on: mixed, one-sided, single columns and k > m
CHAIN_SHAPES = [(2, 3), (0, 3), (3, 0), (1, 1), (4, 5), (1, 3), (3, 1)]


def _support_a(D, strategy, n_a):
    # a descending prescribed list, so column order inside A' is exercised
    return tuple(range(D.Na - 1, D.Na - 1 - n_a, -1)) if strategy == "prescribed" else None


def _keys(lo, hi) -> np.ndarray:
    """The key rows (t,) of trials lo..hi-1, as ``smin`` keys them."""
    return np.arange(lo, hi)[:, None]


def _chain(D, cols_a, cols_b) -> HollowGramRecord:
    """``chain_batch`` of the one draw (cols_a, cols_b)."""
    return chain_batch(D, [cols_a], [cols_b])


def _patch_profile(monkeypatch, getter):
    """Make reading any dictionary's ``stats`` call ``getter``: a property is
    a data descriptor, so it shadows a profile a session fixture has already
    cached, which a spy on ``analyze`` would never see."""
    monkeypatch.setattr(PartitionedDictionary, "stats", property(getter))


def _count_svd_calls(monkeypatch) -> list:
    """Record each ``np.linalg.svd`` call from here on; returns the record."""
    calls, svd = [], np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def _broken(rec: HollowGramRecord, t: int = 0):
    """Names of the inequalities that draw t of ``rec`` breaks."""
    return [name for name, mask in rec.breaks().items() if mask[t]]


# ==============================
# sub-dictionary extraction
# ==============================


class TestExtractSubdictionary:
    """``chain_batch`` selects draw t's columns [A' B'] and checks them."""

    def test_full_identity(self):
        D = PartitionedDictionary(np.eye(4), 2)
        rec = _chain(D, (0, 1), (0, 1))
        assert rec.sigma_min[0] == 1.0
        assert rec.xi_s[0] == rec.xi_a[0] == rec.xi_b[0] == rec.xi_x[0] == 0.0

    def test_column_layout(self, mub3):
        # every quantity matches the reference built on np.hstack([A[:, ca], B[:, cb]])
        rec = _chain(mub3, (0, 2), (1, 5, 7))
        measured = [float(getattr(rec, f)[0]) for f in (
            "sigma_min", "xi_s", "xi_a", "xi_b", "xi_x", "row_norm_ab"
        )]
        expected = _reference_chain(mub3, (0, 2), (1, 5, 7))
        np.testing.assert_allclose(measured[:5], expected[:5], rtol=0, atol=ORACLE_ATOL)
        assert measured[5] == expected[5]

    def test_rejects_empty_selection(self, mub3):
        with pytest.raises(ValueError, match="empty"):
            _chain(mub3, (), ())

    def test_rejects_duplicates(self, mub3):
        with pytest.raises(ValueError, match="duplicate"):
            _chain(mub3, (0, 0), (1,))
        with pytest.raises(ValueError, match="duplicate"):
            _chain(mub3, (0,), (1, 1))
        # one bad row among clean ones is enough
        with pytest.raises(ValueError, match="duplicate"):
            chain_batch(mub3, [(0, 1), (2, 2)], [(1,), (2,)])

    @pytest.mark.parametrize(
        "cols_a, cols_b, block",
        [([[1.5]], [[0.9]], "A"), ([[1]], [[0.9]], "B"), ([[True]], [[0]], "A"),
         (np.ones((2, 1), dtype=bool), np.zeros((2, 1), dtype=int), "A"),
         (np.zeros((2, 1), dtype=int), np.ones((2, 1)), "B")],
    )
    def test_rejects_float_and_bool_indices(self, mub7, cols_a, cols_b, block):
        # a cast to intp once measured A-column 1 and B-column 0 for [[1.5]], [[0.9]]
        with pytest.raises(ValueError, match=f"{block}-column indices are .*, not integers"):
            chain_batch(mub7, cols_a, cols_b)

    def test_takes_any_integer_dtype(self, mub7):
        rec = chain_batch(mub7, [[3, 0]], [[5, 9, 40]])
        for dtype in (np.int32, np.uint16):
            again = chain_batch(mub7, np.array([[3, 0]], dtype), np.array([[5, 9, 40]], dtype))
            assert again.sigma_min.tolist() == rec.sigma_min.tolist()

    def test_rejects_out_of_range(self, mub3):
        with pytest.raises(ValueError, match="out of range"):
            _chain(mub3, (3,), ())
        with pytest.raises(ValueError, match="out of range"):
            _chain(mub3, (), (9,))
        # negative indices are refused, never wrapped around
        with pytest.raises(ValueError, match="out of range"):
            _chain(mub3, (-1,), ())
        with pytest.raises(ValueError, match="out of range"):
            _chain(mub3, (0,), (-9,))


class TestSigmaMin:
    def test_orthonormal_columns(self):
        D = PartitionedDictionary(np.eye(5), 2)
        assert abs(_chain(D, (0, 1), (0, 1, 2)).sigma_min[0] - 1.0) <= TOL

    def test_known_pair(self):
        D = _pair_dictionary()
        assert abs(_chain(D, (0,), (0,)).sigma_min[0] - SIGMA_PAIR) <= TOL

    def test_wide_matrix_is_exactly_zero(self, two_onb4):
        # 5 columns in 4 rows have a nontrivial null space
        assert _chain(two_onb4, (0, 1, 2), (0, 1)).sigma_min[0] == 0.0

    def test_more_columns_than_rows_is_exactly_zero_without_an_svd(self, mub7, monkeypatch):
        support_a = choose_support_a("first-n", 7, 4)
        cols_a, cols_b = draw_supports(mub7, support_a, 4, 5, _keys(0, 100))
        calls = _count_svd_calls(monkeypatch)
        rec = chain_batch(mub7, cols_a, cols_b)
        assert rec.sigma_min.tolist() == [0.0] * 100
        assert calls == []

    @pytest.mark.parametrize("strategy", ["first-n", "random-baseline"])
    @pytest.mark.parametrize("n_a, n_b", [(2, 3), (1, 3)])
    def test_rank_deficient_draws_match_the_svd_reference(self, mub5, n_a, n_b, strategy):
        # sqrt(lambda_min) would read about 2e-8 on these exactly singular S
        support_a = choose_support_a(strategy, 5, n_a)
        cols_a, cols_b = draw_supports(mub5, support_a, n_b, 5, _keys(0, 400))
        rec = chain_batch(mub5, cols_a, cols_b)
        expected = np.array([_reference_chain(mub5, a, b)[0] for a, b in zip(cols_a, cols_b)])
        assert np.count_nonzero(expected < 1e-12) >= 5
        np.testing.assert_allclose(rec.sigma_min, expected, rtol=0, atol=ORACLE_ATOL)

    @pytest.mark.parametrize("side, svd_calls", [(0.99, 1), (1.01, 0)])
    def test_each_side_of_the_svd_cutoff(self, monkeypatch, side, svd_calls):
        # [e1, c e1 + sqrt(1 - c^2) e2] has Gram eigenvalues 1 -+ c: lambda_min = 1 - c
        lambda_min = side * concentration.SVD_BELOW_LAMBDA_MIN
        c = 1.0 - lambda_min
        D = PartitionedDictionary(np.array([[1.0, c], [0.0, math.sqrt(1.0 - c * c)]]), 1)
        expected = _reference_chain(D, (0,), (0,))[0]
        calls = _count_svd_calls(monkeypatch)
        sigma_min = _chain(D, (0,), (0,)).sigma_min[0]
        assert len(calls) == svd_calls
        assert abs(sigma_min - expected) <= ORACLE_ATOL
        assert abs(sigma_min - math.sqrt(lambda_min)) <= 1e-12

    def test_rejects_empty(self, mub3):
        with pytest.raises(ValueError, match="empty"):
            _chain(mub3, (), ())


# ==============================
# hollow Gram chain
# ==============================


class TestHollowGramChain:
    def test_orthonormal_subblock_is_clean(self, two_onb4):
        rec = _chain(two_onb4, (0, 1, 2), ())
        assert rec.xi_s[0] <= TOL and rec.xi_a[0] <= TOL
        assert rec.xi_b[0] == 0.0 and rec.xi_x[0] == 0.0
        assert abs(rec.sigma_min[0] - 1.0) <= TOL
        assert _broken(rec) == []

    def test_row_norm_bound_is_tight_for_two_onb(self, two_onb4):
        # |<e_i, f_j>| = 1/2 for every pair, so the coherence bound is met
        # with equality by the full-B row norm
        rec = _chain(two_onb4, (0, 1, 2), ())
        assert abs(rec.row_norm_ab[0] - math.sqrt(3.0) / 2.0) <= TOL
        assert abs(rec.row_norm_bound - math.sqrt(3.0) / 2.0) <= TOL

    def test_pair_dictionary_closed_forms(self):
        D = _pair_dictionary()
        rec = _chain(D, (0,), (0,))
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        assert abs(rec.sigma_min[0] - SIGMA_PAIR) <= TOL
        assert abs(rec.xi_s[0] - inv_sqrt2) <= TOL
        assert rec.xi_a[0] == 0.0 and rec.xi_b[0] <= TOL
        assert abs(rec.xi_x[0] - inv_sqrt2) <= TOL
        assert rec.gersgorin_rhs == 0.0
        assert abs(rec.xi_max_path[0] - rec.xi_sum_path[0]) <= TOL
        assert _broken(rec) == []

    def test_mub_draws_never_violate_the_chain(self, mub7):
        rec = chain_batch(mub7, *draw_supports(mub7, 2, 3, 7, _keys(0, 100)))
        assert [_broken(rec, t) for t in range(100)] == [[]] * 100
        assert rec.xi_a.tolist() == [0.0] * 100  # identity sub-blocks are exact

    def test_violation_reporting(self):
        # fabricated record breaking the first chain inequality only
        rec = HollowGramRecord(
            sigma_min=np.array([0.1]), xi_s=np.array([0.2]), xi_a=np.array([0.05]),
            xi_b=np.array([0.05]), xi_x=np.array([0.15]), row_norm_ab=np.zeros(1),
            gersgorin_rhs=1.0, row_norm_bound=1.0, cross_bound=1.0,
        )
        assert _broken(rec) == ["sigma_min^2 >= 1 - xi_s"]

    def test_slack_silences_small_breaches(self, monkeypatch):
        rec = HollowGramRecord(
            sigma_min=np.ones(1), xi_s=np.array([0.5]), xi_a=np.array([0.5 - 1e-12]),
            xi_b=np.zeros(1), xi_x=np.zeros(1), row_norm_ab=np.zeros(1),
            gersgorin_rhs=1.0, row_norm_bound=1.0, cross_bound=1.0,
        )
        assert _broken(rec) == []
        monkeypatch.setattr(concentration, "CHAIN_SLACK", 1e-15)
        assert _broken(rec) != []


class TestChainBatch:
    def test_ceilings_read_the_dictionarys_own_profile(self, mub7):
        # with mub13's profile beside it, all three draws broke
        # row_norm_ab <= sqrt(mu^2 n_a); a dictionary has one profile now
        rec = chain_batch(mub7, [[0, 1]] * 3, [[0, 5, 9], [1, 2, 3], [4, 8, 30]])
        assert not any(mask.any() for mask in rec.breaks().values())
        stats = analyze(mub7)
        slope_a, gersgorin = block_a_terms(stats, 2)
        assert rec.gersgorin_rhs == gersgorin
        assert rec.row_norm_bound == slope_a * math.sqrt(2.0) / 3.0
        assert rec.cross_bound == stats.spec_a * stats.spec_b

    @pytest.mark.parametrize("strategy", SUPPORT_A_STRATEGIES)
    @pytest.mark.parametrize("n_a, n_b", CHAIN_SHAPES)
    @pytest.mark.parametrize("dict_name", ["mub7", "mub13"])
    def test_matches_the_per_draw_svd_reference(
        self, request, dict_name, n_a, n_b, strategy
    ):
        D = request.getfixturevalue(dict_name)
        support_a = choose_support_a(strategy, D.Na, n_a, _support_a(D, strategy, n_a))
        cols_a, cols_b = draw_supports(D, support_a, n_b, 5, _keys(0, 60))
        rec = chain_batch(D, cols_a, cols_b)
        expected = np.array([_reference_chain(D, a, b) for a, b in zip(cols_a, cols_b)])
        measured = np.column_stack([rec.sigma_min, rec.xi_s, rec.xi_a, rec.xi_b, rec.xi_x])
        np.testing.assert_allclose(measured, expected[:, :5], rtol=0, atol=ORACLE_ATOL)
        np.testing.assert_array_equal(rec.row_norm_ab, expected[:, 5])

    @pytest.mark.parametrize("lo, hi", [(0, 255), (0, 256), (0, 257), (255, 512), (257, 259)])
    @pytest.mark.parametrize("strategy", SWEEP_STRATEGIES)
    @pytest.mark.parametrize("dict_name", ["mub7", "two_onb8"])
    def test_block_rows_are_one_trial_blocks(self, request, dict_name, strategy, lo, hi):
        D = request.getfixturevalue(dict_name)
        support_a = choose_support_a(strategy, D.Na, 3)
        for seed in (41, 2**64 + 41):  # a seed of one 64-bit limb and of two
            ours = draw_supports(D, support_a, 4, seed, _keys(lo, hi))
            for row, t in enumerate(range(lo, hi)):
                alone = draw_supports(D, support_a, 4, seed, _keys(t, t + 1))
                for cols, expected in zip(ours, alone):
                    assert cols[row].tolist() == expected[0].tolist()

    @pytest.mark.parametrize("strategy", SUPPORT_A_STRATEGIES)
    def test_block_draws_build_no_generator(self, mub7, strategy, monkeypatch):
        # the A-then-B draws of random-baseline and the fixed A-supports
        support_a = choose_support_a(strategy, mub7.Na, 2, _support_a(mub7, strategy, 2))
        theirs = draw_supports(mub7, support_a, 3, 2**32, _keys(0, 40))

        def refuse(*args, **kwargs):
            raise AssertionError("a numpy generator was built")

        for name in ("SeedSequence", "PCG64", "Generator"):
            monkeypatch.setattr(np.random, name, refuse)
        ours = draw_supports(mub7, support_a, 3, 2**32, _keys(0, 40))
        for cols, expected in zip(ours, theirs):
            assert cols.tolist() == expected.tolist()
        cols_a, cols_b = ours
        # a fixed A-support is every row, in its given order; a drawn one is sorted
        if isinstance(support_a, int):
            assert np.all(np.diff(cols_a, axis=1) > 0) and cols_a.max() < mub7.Na
        else:
            assert cols_a.tolist() == [list(support_a)] * 40
        assert np.all(np.diff(cols_b, axis=1) > 0) and cols_b.max() < mub7.Nb

    def test_block_draws_match_a_frozen_digest(self, mub7):
        # frozen from the pure-Python reference of the stream in test_rng, as
        # little-endian int64: the A-columns of rows 256..511, then the B-columns
        support_a = choose_support_a("random-baseline", mub7.Na, 2)
        digest = hashlib.sha256()
        for cols in draw_supports(mub7, support_a, 3, 12345, _keys(256, 512)):
            digest.update(np.ascontiguousarray(cols, dtype="<i8").tobytes())
        assert digest.hexdigest() == (
            "1a7a1c630b1f7703c60b1e890480848bf22fa5ca05f1ae3de4c4cf475c657c1e"
        )

    @staticmethod
    def _per_support_row_norms(D, supports):
        """row_norm_ab as chain_batch measured it one A-support at a time."""
        return np.array([np.linalg.norm(D.A[:, a].conj().T @ D.B, axis=0).max() for a in supports])

    # 2^14 bytes: B-column chunks of about 4 columns for about 256 distinct supports
    @pytest.mark.parametrize("chunk_bytes", [None, 2**14], ids=["default", "4-columns"])
    def test_union_row_norms_match_the_per_support_formula(
        self, mub13, monkeypatch, chunk_bytes
    ):
        # random-baseline draws each trial's A-support: one product over their
        # union serves them all
        if chunk_bytes is not None:
            monkeypatch.setattr(dictionary, "GRAM_CHUNK_BYTES", chunk_bytes)
        support_a = choose_support_a("random-baseline", mub13.Na, 4)
        cols_a, cols_b = draw_supports(mub13, support_a, 5, 9, _keys(0, 256))
        rec = chain_batch(mub13, cols_a, cols_b)
        expected = self._per_support_row_norms(mub13, cols_a)
        np.testing.assert_allclose(rec.row_norm_ab, expected, rtol=1e-13, atol=0)

    def test_union_row_norms_change_no_violation_count(self, mub13, monkeypatch):
        run = lambda: run_smin_trials(  # noqa: E731
            mub13, "random-baseline", 4, 5, trials=600, master_seed=3
        ).violations_by_inequality
        ours = run()
        monkeypatch.setattr(concentration, "_row_norms_ab", self._per_support_row_norms)
        assert ours == run()

    def test_one_draw_is_a_batch_of_one(self, mub7):
        # a draw measured alone equals the same draw inside a larger batch
        alone = _chain(mub7, (3, 0), (5, 9, 40))
        batch = chain_batch(mub7, [(1, 2), (3, 0), (6, 4)], [(0, 1, 2), (5, 9, 40), (48, 7, 3)])
        for field in ("sigma_min", "xi_s", "xi_a", "xi_b", "xi_x", "row_norm_ab"):
            assert getattr(alone, field).shape == (1,)
            assert getattr(alone, field)[0] == getattr(batch, field)[1]
        assert alone.breaks().keys() == batch.breaks().keys()

    def test_breaks_masks_each_draw(self):
        # draw 0 is clean, draw 1 breaks sigma_min^2 >= 1 - xi_s, draw 2 the cross bound
        rec = HollowGramRecord(
            sigma_min=np.array([1.0, 0.1, 1.0]), xi_s=np.array([0.0, 0.2, 0.0]),
            xi_a=np.array([0.0, 0.05, 0.0]), xi_b=np.array([0.0, 0.05, 0.0]),
            xi_x=np.array([0.0, 0.15, 2.0]), row_norm_ab=np.zeros(3),
            gersgorin_rhs=1.0, row_norm_bound=1.0, cross_bound=1.0,
        )
        masks = rec.breaks()
        assert [int(np.count_nonzero(m)) for m in masks.values()] == [1, 0, 0, 0, 0, 1]
        assert [_broken(rec, t) for t in range(3)] == [
            [], ["sigma_min^2 >= 1 - xi_s"], ["xi_x <= ||A|| ||B||"]
        ]

    def test_rejects_empty_selection(self, mub3):
        with pytest.raises(ValueError, match="empty"):
            chain_batch(mub3, np.empty((4, 0), int), np.empty((4, 0), int))

    @pytest.mark.parametrize("dict_name", ["mub7", "mub13", "two_onb8"])
    def test_permuting_columns_inside_a_block_permutes_nothing_measured(
        self, request, dict_name
    ):
        # relabel the columns of A and of B; the same draws, read through the
        # inverse permutations, must measure bit for bit the same
        D = request.getfixturevalue(dict_name)
        rng = np.random.default_rng(11)
        shapes = [(2, 3, "random-baseline"), (1, 1, "first-n"), (3, 0, "spread"),
                  (0, 4, "first-n")]
        for _ in range(3):
            perm_a, perm_b = rng.permutation(D.Na), rng.permutation(D.Nb)
            permuted = PartitionedDictionary(
                np.hstack([D.A[:, perm_a], D.B[:, perm_b]]), D.Na
            )
            inv_a, inv_b = np.argsort(perm_a), np.argsort(perm_b)
            for n_a, n_b, strategy in shapes:
                support_a = choose_support_a(strategy, D.Na, n_a)
                cols_a, cols_b = draw_supports(D, support_a, n_b, 6, _keys(0, 40))
                rec = chain_batch(D, cols_a, cols_b)
                moved = chain_batch(permuted, inv_a[cols_a], inv_b[cols_b])
                for field in ("sigma_min", "xi_s", "xi_a", "xi_b", "xi_x", "row_norm_ab"):
                    np.testing.assert_array_equal(
                        getattr(moved, field), getattr(rec, field), err_msg=field
                    )


# ==============================
# block terms of the tail
# ==============================


class TestBlockTerms:
    def test_reference_frame_and_cross(self):
        # mu_b = 0, ||A|| = ||B|| = sqrt(5), N_b = 25, n_b = 5:
        # 2 n_b ||B||^2 / N_b + sqrt(n_b / N_b) ||A|| ||B|| = 2 + sqrt(5)
        stats = _stats(Nb=25, spec_a=math.sqrt(5.0), spec_b=math.sqrt(5.0))
        slope, frame, cross = block_b_terms(stats, 5)
        assert slope == 0.0
        assert abs(frame + cross - BETA_EXAMPLE) <= TOL

    def test_reference_block_a(self):
        slope, gersgorin = block_a_terms(_stats(mu=0.2, mu_a=0.15), 2)
        assert abs(slope - 3.0 * math.sqrt(0.04 * 2 / 2.0)) <= TOL
        assert abs(gersgorin - 0.15) <= TOL

    def test_empty_budget_b_has_no_terms(self):
        assert block_b_terms(_stats(Nb=50, mu_b=0.2), 0) == (0.0, 0.0, 0.0)

    def test_reference_u(self):
        assert abs(default_u(_stats(N=10, Nb=5), 2.0) - U_S2_N10) <= TOL

    def test_threshold_is_half_the_condition_lhs_sum(self):
        # (slope_a + slope_b) u + gersgorin + frame + cross at u = sqrt(4 s log N)
        # equals (lhs3 + lhs4) / 2
        rng = np.random.default_rng(29)
        for _ in range(50):
            profile = dict(
                mu=float(rng.uniform(0.0, 0.5)),
                mu_a=float(rng.uniform(0.0, 0.5)),
                mu_b=float(rng.uniform(0.0, 0.5)),
                spec_a=float(rng.uniform(0.1, 2.0)),
                spec_b=float(rng.uniform(0.1, 2.0)),
            )
            N = int(rng.integers(5, 3000))
            Nb = int(rng.integers(1, N))
            stats = _stats(N, Nb, **profile)
            s = float(rng.uniform(1.0, 3.0))
            n_a = int(rng.integers(0, 30))
            n_b = int(rng.integers(0, 30))
            params = TheoremParams(s=s, gamma=0.5, n_a=n_a, n_b=n_b)
            report = evaluate_conditions(stats, params)
            lhs_sum = report.get("eq3").lhs + report.get("eq4").lhs
            slope_a, gersgorin = block_a_terms(stats, n_a)
            slope_b, frame, cross = block_b_terms(stats, n_b)
            u = default_u(stats, s)
            expected = 2.0 * ((slope_a + slope_b) * u + gersgorin + frame + cross)
            assert abs(lhs_sum - expected) <= 1e-12 * max(1.0, expected)


# ==============================
# sigma_min Monte Carlo
# ==============================


class TestRunSminTrials:
    def test_refuses_a_float_prescribed_index(self, mub7):
        # int() once read 1.5 as column 1
        with pytest.raises(ValueError, match="A-column indices are .*, not integers"):
            run_smin_trials(mub7, "prescribed", 1, 1, 3, support_a=[1.5])

    def test_rank_deficient_budget_always_fails(self, mub3):
        res = run_smin_trials(mub3, "first-n", 2, 2, trials=50, master_seed=1)
        assert res.failure_count == 50
        assert res.empirical_failure_rate == 1.0
        assert np.all(res.sigma_min == 0.0)
        assert res.gamma_feasible is None
        assert res.bound_respected is None

    def test_orthonormal_profile_never_fails(self, identity110):
        res = run_smin_trials(identity110, "first-n", 10, 6, trials=200, master_seed=3)
        assert res.failure_count == 0
        assert np.max(np.abs(res.sigma_min - 1.0)) <= 1e-9
        assert res.gamma_feasible == 0.95
        assert res.bound_respected is True
        assert res.lemma_bound == 110.0 ** (-1.0)

    def test_chain_holds_on_every_trial(self, mub7):
        res = run_smin_trials(mub7, "first-n", 1, 1, trials=300, master_seed=5)
        assert res.violation_count == 0
        assert np.all(res.sigma_min**2 >= 1.0 - res.xi_s - 1e-9)

    @pytest.mark.parametrize("strategy", SUPPORT_A_STRATEGIES)
    def test_workers_do_not_change_the_stream(self, mub5, monkeypatch, pool_starts, strategy):
        monkeypatch.setattr("sparsethresh.rng.BLOCK", 16)  # five blocks, so two workers fan out
        support_a = (4, 1) if strategy == "prescribed" else None
        kwargs = dict(trials=80, master_seed=2, support_a=support_a)
        serial = run_smin_trials(mub5, strategy, 2, 3, **kwargs)
        parallel = run_smin_trials(mub5, strategy, 2, 3, workers=2, **kwargs)
        for field in ("sigma_min", "xi_s", "xi_a", "xi_b", "xi_x"):
            np.testing.assert_array_equal(getattr(serial, field), getattr(parallel, field))
        assert serial.summary_dict() == parallel.summary_dict()
        assert pool_starts == [2]

    def test_prescribed_support_is_recorded(self, mub5):
        res = run_smin_trials(
            mub5, "prescribed", 2, 1, trials=10, master_seed=0, support_a=(3, 1)
        )
        assert res.support_a == (3, 1)

    def test_random_baseline_redraws_support(self, mub5):
        res = run_smin_trials(mub5, "random-baseline", 2, 2, trials=50, master_seed=9)
        assert res.support_a is None
        assert res.trials == 50

    def test_histogram_counts_trials(self, mub5):
        res = run_smin_trials(mub5, "first-n", 1, 2, trials=64, master_seed=4)
        assert int(res.histogram_counts.sum()) == 64
        assert len(res.histogram_edges) == 51

    def test_csv_rows_round_trip(self, mub5):
        res = run_smin_trials(mub5, "first-n", 1, 2, trials=5, master_seed=4)
        rows = res.csv_rows()
        assert rows[0] == TRIAL_CSV_HEADER
        assert len(rows) == 6
        parts = rows[1].split(",")
        assert parts[0] == "0"
        assert float(parts[1]) == res.sigma_min[0]
        assert float(parts[2]) == res.xi_s[0]

    def test_summary_contains_the_bound(self, mub5):
        res = run_smin_trials(mub5, "first-n", 1, 1, trials=10, master_seed=0)
        summary = res.summary_dict()
        assert summary["lemma1_bound"] == 30.0 ** (-1.0)
        assert summary["conditions_hold"] == (res.gamma_feasible is not None)

    def test_rejects_zero_trials(self, mub5):
        with pytest.raises(ValueError, match="trials"):
            run_smin_trials(mub5, "first-n", 1, 1, trials=0)

    @pytest.mark.parametrize("trials", [1, 15, 16, 17, 41])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_block_boundaries_keep_the_prefix(self, mub5, monkeypatch, trials, workers):
        monkeypatch.setattr("sparsethresh.rng.BLOCK", 16)
        longer = run_smin_trials(mub5, "random-baseline", 2, 3, trials=50, master_seed=8)
        res = run_smin_trials(
            mub5, "random-baseline", 2, 3, trials=trials, master_seed=8, workers=workers
        )
        assert res.csv_rows() == longer.csv_rows()[: trials + 1]

    def test_summary_counts_breaks_per_inequality(self, mub7, monkeypatch):
        # a cross ceiling ||A|| ||B|| shrunk to 0.8 is broken by every draw with xi_x > 0.8
        shrunk = dataclasses.replace(analyze(mub7), spec_a=0.8, spec_b=1.0)
        _patch_profile(monkeypatch, lambda D: shrunk)
        res = run_smin_trials(mub7, "first-n", 2, 3, trials=300, master_seed=1)
        summary = res.summary_dict()
        by_name = summary["violations_by_inequality"]
        assert list(by_name) == list(_chain(mub7, (0,), (0,)).breaks())
        expected = int(np.count_nonzero(res.xi_x > 0.8 + concentration.CHAIN_SLACK))
        assert 0 < expected < 300
        assert by_name["xi_x <= ||A|| ||B||"] == expected
        assert sum(by_name.values()) == expected == summary["violation_count"]
        assert list(summary).index("violations_by_inequality") == (
            list(summary).index("violation_count") + 1
        )

    @pytest.mark.parametrize("strategy", ["first-n", "random-baseline"])
    @pytest.mark.parametrize(
        "n_a, n_b, message",
        [(0, 0, "empty sub-dictionary"), (6, 1, "budgets"), (1, 26, "budgets"),
         (-1, 2, "budgets"), (1, 1.0, "n_b must be an integer"),
         (True, 1, "n_a must be an integer")],
    )
    def test_bad_budgets_fail_before_any_work(
        self, mub5, monkeypatch, strategy, n_a, n_b, message
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the budgets were checked")

        _patch_profile(monkeypatch, no_work)
        monkeypatch.setattr(concentration, "fan_out", no_work)
        with pytest.raises(ValueError, match=message):
            run_smin_trials(mub5, strategy, n_a, n_b, trials=10)

    @pytest.mark.parametrize(
        "D, kwargs, message",
        [
            (None, {"s": 0.5}, "s must be a finite number >= 1"),
            (None, {"s": math.nan}, "s must be a finite number >= 1"),
            (None, {"workers": 0}, "workers must be >= 1"),
            (None, {"workers": 1.5}, "workers must be an integer, got 1.5"),
            (None, {"trials": 10.0}, "trials must be an integer, got 10.0"),
            (PartitionedDictionary(np.eye(2), 1), {}, "N > 2"),
            (None, {"master_seed": -1}, "master_seed must be a nonnegative integer"),
        ],
        ids=["s-below-1", "s-nan", "no-workers", "float-workers", "float-trials", "N-2",
             "negative-seed"],
    )
    def test_bad_settings_fail_before_any_work(self, mub5, monkeypatch, D, kwargs, message):
        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the settings were checked")

        _patch_profile(monkeypatch, no_work)
        for name in ("_per_trial", "fan_out"):
            monkeypatch.setattr(concentration, name, no_work)
        with pytest.raises(ValueError, match=message):
            run_smin_trials(D or mub5, "first-n", 1, 1, **{"trials": 10, **kwargs})

    def test_random_baseline_with_support_a_fails_before_any_work(self, mub5, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the A-support was checked")

        _patch_profile(monkeypatch, no_work)
        monkeypatch.setattr(concentration, "fan_out", no_work)
        with pytest.raises(ValueError, match="apply only to the prescribed strategy"):
            run_smin_trials(mub5, "random-baseline", 1, 1, trials=10, support_a=[2])


class TestCsvLines:
    """_csv_lines against the per-cell reference "t," + ",".join(map(repr, row))."""

    # -0.0 beside 0.0, the infinities, NaN (also with a payload and its sign
    # set), the smallest subnormal, 0.1 + 0.2, and where repr switches notation
    SPECIAL = [
        -0.0, 0.0, math.inf, -math.inf, math.nan, -math.nan,
        float(np.uint64(0x7FF8000000000001).view(float)), 5e-324, 0.1 + 0.2,
        1e16, 9999999999999998.0, 1e-5, 0.0001,
    ]
    CHUNKS = pytest.mark.parametrize("chunk", [1, 2, 7])
    TRIALS = pytest.mark.parametrize("trials", [
        lambda c: 1, lambda c: c, lambda c: c + 1, lambda c: 3 * c + 7,
    ], ids=["1", "chunk", "chunk+1", "3chunks+7"])

    def _check(self, rows, chunk):
        columns = [np.array(col, dtype=float) for col in zip(*rows)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(concentration, "CSV_CHUNK_ROWS", chunk)
            lines = concentration._csv_lines("h", columns)
        assert lines == ["h"] + [f"{t}," + ",".join(map(repr, row)) for t, row in enumerate(rows)]
        # every value but NaN reads back bit for bit, -0.0 included
        back = np.array([line.split(",")[1:] for line in lines[1:]], dtype=float)
        table = np.column_stack(columns)
        keep = ~np.isnan(table)
        assert np.array_equal(back.view(np.uint64)[keep], table.view(np.uint64)[keep])
        assert np.isnan(back[~keep]).all()

    @CHUNKS
    @TRIALS
    @pytest.mark.parametrize("width", [2, 5])
    def test_special_values(self, chunk, trials, width):
        # the values cycle row by row, so each repeats within and across chunks
        cells = np.resize(np.arange(len(self.SPECIAL)), (trials(chunk), width))
        self._check([[self.SPECIAL[i] for i in row] for row in cells.tolist()], chunk)

    @CHUNKS
    @TRIALS
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_per_cell_reference(self, chunk, trials, data):
        # a small pool of values, so they repeat within a chunk and across chunks
        pool = data.draw(st.lists(st.sampled_from(self.SPECIAL) | st.floats(), min_size=1,
                                  max_size=6))
        width = data.draw(st.sampled_from([2, 5]))
        row = st.lists(st.sampled_from(pool), min_size=width, max_size=width)
        n = trials(chunk)
        self._check(data.draw(st.lists(row, min_size=n, max_size=n)), chunk)


# ==============================
# moment estimation
# ==============================


class TestMomentFloors:
    def test_small_counts_hit_the_constant_floor(self):
        assert moment_floor_b(0) == 4.0
        assert moment_floor_b(1) == 4.0
        assert moment_floor_x(1) == 4.0

    def test_log_terms_take_over(self):
        assert abs(moment_floor_b(20) - FLOOR_B_20) <= TOL
        assert abs(moment_floor_x(9) - FLOOR_X_9) <= TOL

    def test_x_floor_dominates(self):
        for n_b in (1, 2, 5, 9, 50):
            assert moment_floor_x(n_b) >= moment_floor_b(n_b) - TOL

    @given(
        N_nb=st.integers(3, 10**9).flatmap(
            lambda N: st.tuples(st.just(N), st.integers(0, N - 1))
        ),
        s=st.floats(1.0, 1e6),
    )
    @example(N_nb=(3, 2), s=1.0)
    @settings(max_examples=300, deadline=None)
    def test_the_theorems_u_clears_both_floors(self, N_nb, s):
        # smin compares its failure rate with the tail bound N^{-s}, which
        # holds only for u^2 at or above both floors
        N, n_b = N_nb
        assert default_u(_stats(N, Nb=1), s) ** 2 >= moment_floor_x(n_b) >= moment_floor_b(n_b)


class TestMomentRoots:
    """[mean of x^q]^{1/q}, the estimate's and every bootstrap resample's."""

    X = np.random.default_rng(5).uniform(0.0, 0.8, size=(3, 1000))

    def test_plain_formula_where_the_powers_stay_normal(self):
        roots = concentration._moment_roots(self.X, 8.0)
        np.testing.assert_array_equal(roots, np.mean(self.X**8.0, axis=1) ** (1.0 / 8.0))
        row = self.X[0]
        assert concentration._moment_roots(row, 8.0) == np.mean(row**8.0) ** (1.0 / 8.0)

    @pytest.mark.parametrize("q", [8.0, 5000.0])
    def test_a_power_of_two_scales_the_root_exactly(self, q):
        base = concentration._moment_roots(self.X, q)
        up, down = (concentration._moment_roots(np.ldexp(self.X, e), q) for e in (600, -600))
        assert np.all(np.isfinite(up)) and np.all(down > 0.0)
        np.testing.assert_array_equal(up, np.ldexp(down, 1200))
        if q == 5000.0:  # 0.8^5000 underflows, so base is scale-free too
            np.testing.assert_array_equal(up, np.ldexp(base, 600))
        else:
            np.testing.assert_allclose(up, np.ldexp(base, 600), rtol=1e-14)

    @pytest.mark.parametrize(
        "dict_name, n_a, n_b, q", [("mub7", 2, 3, 5000.0), ("mub5", 1, 20, 3000.0)]
    )
    def test_large_q_lies_between_the_max_and_its_trials_root(
        self, request, dict_name, n_a, n_b, q
    ):
        # at q = 5000 on mub7 Xi_B^q underflows; at n_b = 20, q = 3000 it overflows
        D = request.getfixturevalue(dict_name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_moment(D, n_a, n_b, q=q, trials=1000, master_seed=0)
        for xi, estimate, upper in (
            (est.xi_b, est.estimate_b, est.upper95_b),
            (est.xi_x, est.estimate_x, est.upper95_x),
        ):
            top = float(xi.max())
            floor = top * 1000.0 ** (-1.0 / q)
            assert floor * (1.0 - 1e-12) <= estimate <= top
            assert 0.0 < upper <= top


class TestEstimateMoment:
    def test_full_block_b_is_deterministic(self, mub3):
        # n_b = Nb = 9: the sub-block is all of B, a tight frame with
        # ||B^H B - I|| = 2 on every trial, and Xi_X = sqrt(3) for one A column
        est = estimate_moment(mub3, n_a=1, n_b=9, q=9.0, trials=1000, master_seed=1)
        assert np.max(np.abs(est.xi_b - 2.0)) <= TOL
        assert abs(est.estimate_b - 2.0) <= TOL
        assert est.upper95_b == est.estimate_b
        assert est.estimate_x is not None
        assert abs(est.estimate_x - SQRT3) <= TOL
        assert est.estimate_b <= est.bound_b
        assert est.estimate_x <= est.bound_x

    def test_orthonormal_subsets_give_zero(self, two_onb8):
        est = estimate_moment(two_onb8, n_a=0, n_b=3, q=4.8, trials=1000, master_seed=2)
        assert np.max(est.xi_b) <= 1e-10
        assert est.estimate_b <= 1e-10
        assert abs(est.bound_b - 0.75) <= TOL      # 2 n_b ||B||^2 / N_b only
        assert est.estimate_x is not None          # floor_x(3) < 4.8
        assert est.estimate_x == 0.0

    def test_x_side_suppressed_below_its_floor(self, mub7):
        est = estimate_moment(mub7, n_a=2, n_b=3, q=4.0, trials=1000, master_seed=3)
        assert est.estimate_x is None
        assert est.upper95_x is None and est.bound_x is None
        assert est.xi_x.shape == (1000,)           # raw samples still recorded

    def test_bootstrap_brackets_the_estimate(self, mub7):
        est = estimate_moment(mub7, n_a=2, n_b=3, q=8.0, trials=1000, master_seed=3)
        assert est.upper95_b >= est.estimate_b - 1e-3
        assert est.upper95_b <= est.bound_b
        assert est.estimate_x is not None
        assert est.upper95_x <= est.bound_x

    def test_bootstrap_chunks_do_not_move_the_bounds(self, mub7, monkeypatch):
        # one resample per chunk reads the same index stream as 100 per chunk
        default = estimate_moment(mub7, 2, 3, q=8.0, trials=1001, master_seed=4)
        shapes, derive_rng = [], concentration.derive_rng

        class Spy:
            def __init__(self, rng):
                self.rng = rng

            def integers(self, *args, size=None):
                shapes.append(size)
                return self.rng.integers(*args, size=size)

        def spy_on_bootstrap(*key):  # the bootstrap's stream is (master_seed, trials, 1)
            return Spy(derive_rng(*key)) if key == (4, 1001, 1) else derive_rng(*key)

        monkeypatch.setattr(concentration, "derive_rng", spy_on_bootstrap)
        monkeypatch.setattr(concentration, "BOOT_CHUNK_BYTES", 1)
        single = estimate_moment(mub7, 2, 3, q=8.0, trials=1001, master_seed=4)
        assert shapes == [(1, 1001)] * 1000
        assert (single.upper95_b, single.upper95_x) == (default.upper95_b, default.upper95_x)
        assert single.upper95_x is not None

    @pytest.mark.parametrize("strategy, support_a", [("first-n", None), ("prescribed", (5, 1))])
    def test_is_the_smin_runs_moments(self, mub7, strategy, support_a):
        # the same trials on one worker or two, and the same bootstrap
        est = estimate_moment(mub7, 2, 3, q=8.0, trials=1001, master_seed=4,
                              strategy=strategy, support_a=support_a)
        run = run_smin_trials(mub7, strategy, 2, 3, trials=1001, master_seed=4,
                              support_a=support_a, workers=2, q=8.0)
        assert run.summary_dict()["moments"] == est.summary_dict()
        assert run.moments.csv_rows() == est.csv_rows()

    def test_csv_rows(self, mub5):
        est = estimate_moment(mub5, 1, 4, q=7.2, trials=1000, master_seed=6)
        rows = est.csv_rows()
        assert rows[0] == MOMENT_CSV_HEADER
        assert len(rows) == 1001
        parts = rows[1].split(",")
        assert float(parts[1]) == est.xi_b[0]

    def test_bounds_sum_to_the_tail_coefficients(self, mub5):
        # the Xi_B and Xi_X bounds are the tail's block terms at sqrt(q) in
        # place of u, less the Gersgorin term (n_a - 1) mu_a
        n_a, n_b, q = 2, 3, 5.0
        est = estimate_moment(mub5, n_a, n_b, q=q, trials=1000, master_seed=8)
        assert q >= est.floor_x
        stats = analyze(mub5)
        slope_a, _ = block_a_terms(stats, n_a)
        slope_b, frame, cross = block_b_terms(stats, n_b)
        assert abs(est.bound_b - (slope_b * math.sqrt(q) + frame)) <= 1e-12
        assert abs(est.bound_x - (slope_a * math.sqrt(q) + cross)) <= 1e-12

    def test_rejects_underpowered_runs(self, mub5):
        with pytest.raises(ValueError, match="1000"):
            estimate_moment(mub5, 1, 4, q=8.0, trials=999)

    def test_rejects_q_below_floor(self, mub5):
        with pytest.raises(ValueError, match="floor"):
            estimate_moment(mub5, 1, 20, q=4.0, trials=1000)

    @pytest.mark.parametrize("q", [math.nan, math.inf])
    def test_rejects_non_finite_q(self, mub5, q):
        with pytest.raises(ValueError, match="q must be a finite number"):
            estimate_moment(mub5, 1, 4, q=q, trials=1000)

    @pytest.mark.parametrize("dict_name, n_a, n_b", [
        ("mub7", 2, 3), ("mub7", 0, 3), ("mub13", 1, 1), ("mub13", 3, 1), ("mub13", 4, 5),
    ])
    def test_matches_the_per_draw_svd_reference(self, request, dict_name, n_a, n_b):
        D = request.getfixturevalue(dict_name)
        est = estimate_moment(
            D, n_a, n_b, q=9.0, trials=1000, master_seed=3, strategy="spread", n_boot=1
        )
        support_a = choose_support_a("spread", D.Na, n_a)
        cols_a, cols_b = draw_supports(D, support_a, n_b, 3, _keys(0, 1000))
        expected = np.array([_reference_chain(D, a, b)[3:5] for a, b in zip(cols_a, cols_b)])
        np.testing.assert_allclose(
            np.column_stack([est.xi_b, est.xi_x]), expected, rtol=0, atol=ORACLE_ATOL
        )

    def test_rejects_an_empty_sub_dictionary(self, mub5):
        with pytest.raises(ValueError, match="empty sub-dictionary"):
            estimate_moment(mub5, 0, 0, q=8.0, trials=1000)

    def test_rejects_a_redrawn_a_support(self, mub5):
        with pytest.raises(ValueError, match="moments need a fixed A-support"):
            estimate_moment(mub5, 1, 4, q=8.0, trials=1000, strategy="random-baseline")

    @pytest.mark.parametrize("n_boot", [0, -3])
    def test_rejects_no_bootstrap_resample_before_any_work(self, mub5, monkeypatch, n_boot):
        # 0 raised a bare IndexError from np.quantile, -3 numpy's negative dimensions
        def no_work(*args, **kwargs):
            raise AssertionError("work ran before n_boot was checked")

        _patch_profile(monkeypatch, no_work)
        for name in ("_per_trial", "fan_out"):
            monkeypatch.setattr(concentration, name, no_work)
        with pytest.raises(ValueError, match=f"n_boot must be >= 1, got {n_boot}"):
            estimate_moment(mub5, 1, 4, q=8.0, trials=1000, n_boot=n_boot)

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_boot": 2.5}, "n_boot must be an integer, got 2.5"),
        ({"n_boot": True}, "n_boot must be an integer, got True"),
        ({"trials": 1000.0}, "trials must be an integer, got 1000.0"),
        ({"n_b": 4.0}, "n_b must be an integer, got 4.0"),
    ])
    def test_refuses_a_count_that_is_not_an_integer_before_any_work(
        self, mub5, monkeypatch, kwargs, message
    ):
        # an n_boot of 2.5 ended in a TypeError
        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the counts were checked")

        _patch_profile(monkeypatch, no_work)
        for name in ("_per_trial", "fan_out"):
            monkeypatch.setattr(concentration, name, no_work)
        with pytest.raises(ValueError, match=message):
            estimate_moment(mub5, **{"n_a": 1, "n_b": 4, "q": 8.0, "trials": 1000, **kwargs})

    def test_a_negative_seed_fails_before_any_work(self, mub5, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the seed was checked")

        _patch_profile(monkeypatch, no_work)
        for name in ("_per_trial", "fan_out"):
            monkeypatch.setattr(concentration, name, no_work)
        with pytest.raises(ValueError, match="master_seed must be a nonnegative integer"):
            estimate_moment(mub5, 1, 4, q=8.0, trials=1000, master_seed=-1)


def test_one_dictionary_is_analyzed_once(monkeypatch):
    # every module attribute that holds analyze is counted, wherever a
    # runner would find it
    calls = []

    def counted(D):
        calls.append(D)
        return analyze(D)

    for module in (sparsethresh, dictionary, concentration, cli):
        if getattr(module, "analyze", None) is analyze:
            monkeypatch.setattr(module, "analyze", counted)
    D = build_mub(7)
    for n_a, n_b in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        run_smin_trials(D, "first-n", n_a, n_b, trials=20, master_seed=3)
    estimate_moment(D, 2, 3, q=8.0, trials=1000, n_boot=10)
    assert calls == [D]


def test_pool_workers_receive_the_profile(monkeypatch):
    # more than one block on two workers: the parent reads the profile before
    # they start, so a worker that analyzed would raise
    parent = os.getpid()

    def analyze_in_the_parent(D):
        if os.getpid() != parent:
            raise AssertionError("a pool worker analyzed the dictionary")
        return analyze(D)

    monkeypatch.setattr(dictionary, "analyze", analyze_in_the_parent)
    D = build_mub(5)
    pooled = run_smin_trials(D, "first-n", 1, 2, trials=600, master_seed=4, workers=2)
    inline = run_smin_trials(D, "first-n", 1, 2, trials=600, master_seed=4)
    assert pooled.csv_rows() == inline.csv_rows()


@pytest.mark.parametrize(
    "run",
    [
        lambda D: run_smin_trials(D, "first-n", 1, 1, trials=10**17),
        lambda D: run_smin_trials(D, "first-n", 1, 1, trials=10**17, q=8.0),
        lambda D: estimate_moment(D, 1, 1, q=8.0, trials=10**17),
    ],
    ids=["smin", "smin-q", "moments"],
)
def test_an_impossible_trial_count_fails_before_any_work(mub5, monkeypatch, run):
    # the per-trial arrays (10^17 rows) exceed any address space
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the per-trial arrays were allocated")

    _patch_profile(monkeypatch, no_work)
    monkeypatch.setattr(concentration, "fan_out", no_work)
    with pytest.raises(ValueError, match="too many trials to hold one row each"):
        run(mub5)


@pytest.mark.parametrize("budget", ["1", None])
@pytest.mark.parametrize("name", ["n_a", "n_b"])
def test_runners_name_a_budget_that_is_no_integer(mub5, name, budget):
    # n_a + n_b == 0 and moment_floor_b(n_b) ran first, and raised a bare TypeError
    budgets = {"n_a": 1, "n_b": 1, name: budget}
    message = f"{name} must be an integer, got {budget!r}"
    with pytest.raises(ValueError, match=message):
        run_smin_trials(mub5, "first-n", budgets["n_a"], budgets["n_b"], 10)
    with pytest.raises(ValueError, match=message):
        estimate_moment(mub5, budgets["n_a"], budgets["n_b"], 8.0, 1000)


# ==============================
# the README runs, frozen
# ==============================


class TestReadmeRunsAreFrozen:
    """The README ``smin`` runs on the package's own support stream: the
    counts exactly, the moment roots to 1e-12."""

    def test_smin_counts(self, mub7):
        # sparsethresh smin --dict mub7.dict.npy --na 2 --nb 3 --trials 10000 --seed 7
        result = run_smin_trials(mub7, "first-n", 2, 3, trials=10_000, master_seed=7)
        assert result.failure_count == 10_000
        assert result.violations_by_inequality == {
            "sigma_min^2 >= 1 - xi_s": 0,
            "xi_s <= max(xi_a, xi_b) + xi_x": 0,
            "xi_s <= xi_a + xi_b + xi_x": 0,
            "xi_a <= (n_a - 1) mu_a": 0,
            "row_norm_ab <= sqrt(mu^2 n_a)": 0,
            "xi_x <= ||A|| ||B||": 0,
        }
        assert result.histogram_counts.tolist() == [
            0, 0, 0, 0, 0, 30, 0, 0, 0, 0, 147, 159, 277, 325, 880, 162, 132, 433, 882,
            748, 1140, 1024, 1349, 326, 593, 751, 47, 328, 106, 0, 102, 59,
        ] + [0] * 18

    def test_moment_roots(self, mub7):
        # sparsethresh smin --dict mub7.dict.npy --na 2 --nb 3 --q 8 --trials 10000
        est = run_smin_trials(mub7, "first-n", 2, 3, trials=10_000, q=8.0).moments
        assert abs(est.estimate_b - 0.692685748961161) <= TOL
        assert abs(est.upper95_b - 0.6938396420708774) <= TOL
        assert abs(est.upper95_x - 0.8213494813327692) <= TOL


# ==============================
# LAPACK calls per trial
# ==============================


class TestLapackCalls:
    """Trials are evaluated in stacked blocks: LAPACK calls grow per block, not per draw."""

    EXTRA = 1000
    BLOCK = 100
    ALLOWED = 5 * -(-EXTRA // BLOCK)

    @pytest.fixture()
    def lapack_calls(self, monkeypatch):
        monkeypatch.setattr("sparsethresh.rng.BLOCK", self.BLOCK)
        calls = [0]

        def counted(fn, reaches_lapack):
            def wrapper(*args, **kwargs):
                calls[0] += reaches_lapack(*args, **kwargs)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("svd", "svdvals", "eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(
                np.linalg, name, counted(getattr(np.linalg, name), lambda *a, **k: True)
            )

        def norm_reaches_lapack(x, ord=None, axis=None, *args, **kwargs):
            return np.ndim(x) == 2 and axis is None and ord in (2, -2, "nuc")

        monkeypatch.setattr(np.linalg, "norm", counted(np.linalg.norm, norm_reaches_lapack))

        def count(fn):
            before = calls[0]
            fn()
            return calls[0] - before

        return count

    def test_smin_trials(self, mub7, lapack_calls):
        def run(trials):
            return lapack_calls(
                lambda: run_smin_trials(mub7, "first-n", 2, 3, trials=trials, master_seed=1)
            )

        assert run(1 + self.EXTRA) - run(1) <= self.ALLOWED

    def test_estimate_moment(self, mub7, lapack_calls):
        def run(trials):
            return lapack_calls(
                lambda: estimate_moment(mub7, 2, 3, q=8.0, trials=trials, n_boot=1)
            )

        assert run(1000 + self.EXTRA) - run(1000) <= self.ALLOWED

    def test_a_moment_order_adds_no_call(self, mub7, lapack_calls):
        # the estimate reads the chain's own Xi_B and Xi_X columns
        def run(q):
            return lapack_calls(
                lambda: run_smin_trials(mub7, "first-n", 2, 3, trials=1000, master_seed=1, q=q)
            )

        assert run(8.0) == run(None)
