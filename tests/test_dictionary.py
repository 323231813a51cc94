"""Tests for partitioned dictionaries, coherence statistics, and file I/O."""

import dataclasses
import io
import json
import math
import os
import pickle
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsethresh import dictionary
from sparsethresh import (
    DictionaryFormatError,
    DictionaryStats,
    PartitionedDictionary,
    analyze,
    build_mub,
    build_random_dictionary,
    build_two_onb,
    load_dictionary,
    save_dictionary,
    welch_bound,
)

# Hand-computed reference values, frozen.
INV_SQRT2 = 0.7071067811865476
INV_SQRT3 = 0.5773502691896258
INV_SQRT7 = 0.3779644730092272
WELCH_4_8 = 0.3779644730092272
WELCH_3_12 = 0.5222329678670935
SQRT6 = 2.449489742783178

TOL = 1e-12
NOT_PAIRS = r"entries must be \[re, im\] pairs of numbers"


def _replace_pair(text: str, where: str, pair: str = "[1, 0, 0]") -> str:
    """A dictionary file's text with its first or last pair ``pair``."""
    lo = text.index("[", text.index("[", text.index('"entries"')) + 1)
    if where == "last":
        lo = text.rindex("[")
    return text[:lo] + pair + text[text.index("]", lo) + 1 :]


def _no_pair_brackets(text: str) -> str:
    """A dictionary file's text with the brackets of every pair removed:
    ``entries`` a flat list of numbers."""
    lo, hi = text.index("[", text.index('"entries"')) + 1, text.rindex("]")
    return text[:lo] + text[lo:hi].replace("[", "").replace("]", "") + text[hi:]


def _unit(v):
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


# ==============================
# coherence and related measures
# ==============================


class TestCoherence:
    def test_orthonormal_columns_have_zero_coherence(self):
        assert analyze(PartitionedDictionary(np.eye(4), 0)).mu == 0.0

    def test_known_pair(self):
        D = PartitionedDictionary(np.column_stack([_unit([1, 0]), _unit([1, 1])]), 0)
        assert abs(analyze(D).mu - INV_SQRT2) <= TOL

    def test_mub_value(self, mub3):
        assert abs(analyze(mub3).mu - INV_SQRT3) <= TOL

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            PartitionedDictionary(np.zeros((3, 0)), 0)


class TestSpectralNorm:
    # analyze's spec_a, spec_b and spec_d: the norms of the two blocks and of D
    @staticmethod
    def _norms(D):
        stats = analyze(D)
        return stats.spec_a, stats.spec_b, stats.spec_d

    def test_identity(self):
        for got in self._norms(PartitionedDictionary(np.eye(5), 2)):
            assert abs(got - 1.0) <= TOL

    def test_rank_one(self):
        # one unit column twice: each block reads 1, the whole matrix sqrt(2)
        spec_a, spec_b, spec_d = self._norms(PartitionedDictionary(np.full((2, 2), INV_SQRT2), 1))
        assert abs(spec_a - 1.0) <= TOL and abs(spec_b - 1.0) <= TOL
        assert abs(spec_d - math.sqrt(2.0)) <= TOL

    # shape = (Na, Nb), the widths of the two blocks, one of them empty
    @pytest.mark.parametrize("shape", [(4, 0), (0, 3), (0, 1)])
    def test_empty_block(self, shape):
        na, nb = shape
        spec_a, spec_b, spec_d = self._norms(PartitionedDictionary(np.eye(na + nb), na))
        empty = spec_a if na == 0 else spec_b
        assert empty == 0.0 and math.copysign(1.0, empty) == 1.0
        assert abs(spec_d - 1.0) <= TOL

    def test_mub_full_matrix(self, mub5):
        # six bases of C^5 make a tight frame: ||D||^2 = N/m = 6
        assert abs(analyze(mub5).spec_d - SQRT6) <= TOL

    def test_two_onb_full_matrix(self):
        spec_a, spec_b, spec_d = self._norms(build_two_onb(8))
        assert abs(spec_a - 1.0) <= TOL and abs(spec_b - 1.0) <= TOL
        assert abs(spec_d - math.sqrt(2.0)) <= TOL

    @staticmethod
    def _dictionaries():
        return {
            "mub5": build_mub(5),
            "mub7": build_mub(7),
            "mub13": build_mub(13),
            "two_onb8": build_two_onb(8),
            "random5x30": build_random_dictionary(5, 30, seed=2),
            "random16x40": build_random_dictionary(16, 40, seed=7),
        }

    def test_agrees_with_the_svd(self):
        self._check_every_split_against_the_svd()

    def test_agrees_with_the_svd_over_tiny_spans(self, monkeypatch):
        # 64 bytes: frame operators summed over spans of a few columns
        monkeypatch.setattr(dictionary, "_BLOCK_BYTES", 64)
        self._check_every_split_against_the_svd()

    def _check_every_split_against_the_svd(self):
        eps = np.finfo(float).eps
        for name, built in self._dictionaries().items():
            n = built.N
            for split in sorted({0, 1, 2, n // 3, n - 1, n}):
                D = PartitionedDictionary(built.matrix, split)
                stats = analyze(D)
                for got, block in ((stats.spec_a, D.A), (stats.spec_b, D.B),
                                   (stats.spec_d, D.matrix)):
                    if block.shape[1] == 0:
                        assert got == 0.0 and math.copysign(1.0, got) == 1.0, (name, split)
                    else:
                        expected = np.linalg.svd(block, compute_uv=False)[0]
                        assert abs(got - expected) <= 8 * eps * expected, (name, split)


class TestWelchBound:
    def test_reference_values(self):
        assert abs(welch_bound(4, 8) - WELCH_4_8) <= TOL
        assert abs(welch_bound(3, 12) - WELCH_3_12) <= TOL

    def test_square_case_vanishes(self):
        assert welch_bound(6, 6) == 0.0

    def test_rejects_undercomplete(self):
        with pytest.raises(ValueError):
            welch_bound(8, 4)

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            welch_bound(0, 4)
        with pytest.raises(ValueError):
            welch_bound(1, 1)


# ==============================
# constructors
# ==============================


class TestPartitionedDictionary:
    def test_basic_properties(self, mub3):
        assert mub3.m == 3
        assert mub3.N == 12
        assert mub3.Na == 3
        assert mub3.Nb == 9
        assert mub3.A.shape == (3, 3)
        assert mub3.B.shape == (3, 9)

    def test_matrix_is_read_only(self, mub3):
        with pytest.raises(ValueError):
            mub3.matrix[0, 0] = 0.0

    def test_blocks_cover_matrix(self, mub5):
        np.testing.assert_array_equal(
            np.hstack([mub5.A, mub5.B]), mub5.matrix
        )

    def test_rejects_non_unit_column(self):
        D = np.eye(3)
        D[0, 1] = 0.5
        with pytest.raises(ValueError, match="column 1"):
            PartitionedDictionary(D, 1)

    def test_rejects_bad_split(self):
        with pytest.raises(ValueError):
            PartitionedDictionary(np.eye(3), 4)
        with pytest.raises(ValueError):
            PartitionedDictionary(np.eye(3), -1)

    @pytest.mark.parametrize("split", [1.5, 1.0, np.float64(1.0), True, np.True_, "1"])
    @pytest.mark.parametrize("make", [
        lambda split: PartitionedDictionary(np.eye(3), split),
        lambda split: dictionary._adopt(np.eye(3, dtype=complex), split),
        lambda split: build_random_dictionary(3, 5, 0, split=split),
    ], ids=["constructor", "adopt", "random"])
    def test_rejects_a_split_that_is_not_an_integer(self, make, split):
        # a float or bool split was truncated: 1.5 and True both read as 1
        with pytest.raises(ValueError, match="split must be an integer"):
            make(split)

    @pytest.mark.parametrize("n_a, n_b, message", [
        (1.5, 0, "n_a must be an integer, got 1.5"),
        (0, 1.0, "n_b must be an integer, got 1.0"),
        (True, 0, "n_a must be an integer, got True"),
        (0, np.float64(2.0), "n_b must be an integer"),
    ])
    def test_check_budgets_refuses_a_float_or_bool(self, mub3, n_a, n_b, message):
        # 1.5 passed as a budget of 1.5 columns, True as 1
        with pytest.raises(ValueError, match=message):
            mub3.check_budgets(n_a, n_b)
        mub3.check_budgets(np.int64(1), 2)

    def test_a_numpy_integer_split_is_its_int(self):
        D = PartitionedDictionary(np.eye(3), np.int64(2))
        assert D.split == 2 and type(D.split) is int

    def test_rejects_undercomplete_matrix(self):
        with pytest.raises(ValueError):
            PartitionedDictionary(np.eye(4)[:, :2], 1)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            PartitionedDictionary(np.ones(4), 0)


class TestBuildersRefuseNonIntegers:
    @pytest.mark.parametrize("build, message", [
        (lambda: build_two_onb(8.0), "two-basis dictionary needs an integer m"),
        (lambda: build_two_onb(np.float64(8.0)), "two-basis dictionary needs an integer m"),
        (lambda: build_two_onb("8"), "two-basis dictionary needs an integer m"),
        (lambda: build_mub(7.0), "p must be an odd prime"),
        (lambda: build_mub(np.float64(7.0)), "p must be an odd prime"),
        (lambda: build_mub("7"), "p must be an odd prime"),
        (lambda: build_random_dictionary(3.0, 5, 0), "need integers N >= m >= 1"),
        (lambda: build_random_dictionary(3, 5.0, 0), "need integers N >= m >= 1"),
        (lambda: build_random_dictionary(True, 5, 0), "need integers N >= m >= 1"),
        (lambda: build_random_dictionary(3, 5, 1.5), "seed must be a nonnegative integer"),
        (lambda: build_random_dictionary(3, 5, True), "seed must be a nonnegative integer"),
        (lambda: build_random_dictionary(3, 5, np.float64(1.0)),
         "seed must be a nonnegative integer"),
        (lambda: build_random_dictionary(3, 5, "1"), "seed must be a nonnegative integer"),
        (lambda: build_random_dictionary(3, 5, 0, split=-1), r"split must lie in \[0, 5\]"),
        (lambda: build_random_dictionary(3, 5, 0, split=99), r"split must lie in \[0, 5\]"),
        (lambda: build_random_dictionary(3, 5, 0, split=1.5), "split must be an integer"),
    ])
    def test_before_any_allocation(self, build, message, monkeypatch):
        # 1.5 and True both ran as seed 1; 7.0 and 8.0 raised a TypeError; a
        # bad split was refused only after the whole matrix was drawn
        def no_allocation(m, n):
            raise AssertionError("the builder allocated before checking its arguments")

        monkeypatch.setattr(dictionary, "_allocate", no_allocation)
        with pytest.raises(ValueError, match=message):
            build()

    def test_numpy_integers_build_as_their_ints(self):
        pairs = [
            (build_two_onb(np.int64(4)), build_two_onb(4)),
            (build_mub(np.int32(5)), build_mub(5)),
            (build_random_dictionary(np.int64(3), np.uint8(5), np.uint64(2), np.int16(1)),
             build_random_dictionary(3, 5, 2, 1)),
        ]
        for ours, theirs in pairs:
            assert ours.matrix.tobytes() == theirs.matrix.tobytes() and ours.split == theirs.split


class TestTwoOnb:
    def test_shape_and_split(self, two_onb4):
        assert two_onb4.m == 4
        assert two_onb4.N == 8
        assert two_onb4.Na == 4

    def test_coherence_is_inverse_root_m(self, two_onb8):
        assert abs(analyze(two_onb8).mu - 1.0 / math.sqrt(8.0)) <= TOL

    def test_blocks_are_orthonormal(self, two_onb4):
        for block in (two_onb4.A, two_onb4.B):
            gram = block.conj().T @ block
            assert np.max(np.abs(gram - np.eye(4))) <= TOL

    def test_tight_frame(self, two_onb8):
        frame = two_onb8.matrix @ two_onb8.matrix.conj().T
        assert np.max(np.abs(frame - 2.0 * np.eye(8))) <= TOL

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            build_two_onb(0)


class TestMub:
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_coherence_and_sizes(self, p):
        D = build_mub(p)
        assert D.m == p
        assert D.N == p * (p + 1)
        assert D.Na == p
        assert abs(analyze(D).mu - 1.0 / math.sqrt(p)) <= TOL

    def test_identity_block_is_exact(self, mub7):
        np.testing.assert_array_equal(mub7.A, np.eye(7))

    def test_chirp_bases_are_unbiased(self, mub5):
        # any two columns from distinct bases meet at modulus exactly 1/sqrt(p)
        gram = np.abs(mub5.matrix.conj().T @ mub5.matrix)
        np.fill_diagonal(gram, 0.0)
        off = gram[gram > 1e-8]
        assert np.max(np.abs(off - 1.0 / math.sqrt(5.0))) <= 1e-10

    def test_tight_frame(self, mub7):
        frame = mub7.matrix @ mub7.matrix.conj().T
        assert np.max(np.abs(frame - 8.0 * np.eye(7))) <= 1e-10

    @pytest.mark.parametrize("p", [1, 2, 4, 9, 15])
    def test_rejects_non_odd_prime(self, p):
        with pytest.raises(ValueError, match="odd prime"):
            build_mub(p)


class TestRandomDictionary:
    def test_unit_columns_and_shape(self):
        D = build_random_dictionary(5, 20, seed=3)
        assert D.matrix.shape == (5, 20)
        norms = np.linalg.norm(D.matrix, axis=0)
        assert np.max(np.abs(norms - 1.0)) <= TOL

    def test_deterministic_in_seed(self):
        D1 = build_random_dictionary(4, 10, seed=11)
        D2 = build_random_dictionary(4, 10, seed=11)
        np.testing.assert_array_equal(D1.matrix, D2.matrix)

    def test_different_seeds_differ(self):
        D1 = build_random_dictionary(4, 10, seed=1)
        D2 = build_random_dictionary(4, 10, seed=2)
        assert np.max(np.abs(D1.matrix - D2.matrix)) > 1e-6

    def test_split_is_honoured(self):
        D = build_random_dictionary(4, 10, seed=0, split=3)
        assert D.Na == 3

    @given(m=st.integers(2, 8), extra=st.integers(0, 16), seed=st.integers(0, 50))
    @settings(max_examples=50, deadline=None)
    def test_coherence_respects_welch(self, m, extra, seed):
        N = m + extra
        if N < 2:
            return
        D = build_random_dictionary(m, N, seed=seed)
        assert analyze(D).mu >= welch_bound(m, N) - TOL


# ==============================
# analyze
# ==============================


class TestAnalyze:
    def test_mub7_values(self, mub7_stats):
        st7 = mub7_stats
        assert abs(st7.mu - INV_SQRT7) <= TOL
        assert st7.mu_a == 0.0
        assert abs(st7.mu_b - INV_SQRT7) <= TOL
        assert abs(st7.spec_a - 1.0) <= TOL
        assert abs(st7.spec_b - math.sqrt(7.0)) <= TOL
        assert abs(st7.spec_d - math.sqrt(8.0)) <= TOL
        assert st7.mu_a_defined and st7.mu_b_defined

    @pytest.mark.parametrize("p", [5, 7, 13, 31])
    def test_mub_blocks_are_tight_frames(self, p):
        # A is the identity, B is p ONBs of C^p and D is p + 1 of them:
        # mu_A = 0, ||B||^2 = p and ||D||^2 = p + 1
        stats = analyze(build_mub(p))
        assert abs(stats.spec_a - 1.0) <= 1e-12 and abs(stats.mu_a) <= 1e-12
        assert abs(stats.spec_b**2 - p) <= 1e-12
        assert abs(stats.spec_d**2 - (p + 1)) <= 1e-12

    def test_tight_frame_deviations(self, mub7_stats):
        # blocks are 7x7 and 7x49 tight frames, so both deviations vanish
        assert mub7_stats.tight_dev_a <= 1e-10
        assert mub7_stats.tight_dev_b <= 1e-10

    def test_welch_matches_direct_call(self, mub7_stats):
        assert mub7_stats.welch == welch_bound(7, 56)

    def test_profile_stores_the_shape_and_six_measured_numbers(self, mub7_stats):
        # Nb, welch, the tight-frame gaps and the *_defined flags derive from these
        names = tuple(field.name for field in dataclasses.fields(DictionaryStats))
        assert names == ("m", "N", "Na", "mu", "mu_a", "mu_b", "spec_a", "spec_b", "spec_d")
        assert (mub7_stats.m, mub7_stats.N, mub7_stats.Na, mub7_stats.Nb) == (7, 56, 7, 49)

    def test_single_block_flags(self):
        stats = analyze(PartitionedDictionary(np.eye(4), 4))
        assert stats.mu_b_defined is False
        assert stats.mu_b == 0.0
        assert stats.spec_b == 0.0
        assert stats.mu_a_defined is True

    def test_ordering_invariants(self, mub5):
        stats = analyze(mub5)
        assert stats.mu >= max(stats.mu_a, stats.mu_b) - TOL
        assert stats.mu >= stats.welch - TOL
        assert stats.spec_d <= stats.spec_a + stats.spec_b + TOL

    def test_is_pure(self, two_onb4):
        first = analyze(two_onb4)
        second = analyze(two_onb4)
        assert first == second

    def test_to_dict_keys(self, mub7_stats):
        d = mub7_stats.to_dict()
        for key in ("mu", "muA", "muB", "specA", "specB", "specD", "welch"):
            assert key in d


class TestStatsProperty:
    """``D.stats``: ``analyze(D)``, measured once and kept on D."""

    def test_is_analyze_measured_once(self, monkeypatch):
        # the property calls the module's own ``analyze``, the name a tracer patches
        D = build_mub(5)
        calls = []
        monkeypatch.setattr(dictionary, "analyze", lambda D: calls.append(D) or analyze(D))
        assert D.stats == analyze(D)
        assert D.stats is D.stats
        assert calls == [D]

    def test_pickled_dictionary_carries_its_profile(self, monkeypatch):
        D = build_mub(5)
        profile = D.stats

        def no_work(D):
            raise AssertionError("the unpickled dictionary was analyzed again")

        monkeypatch.setattr(dictionary, "analyze", no_work)
        again = pickle.loads(pickle.dumps(D))
        assert again.stats == profile
        assert again.matrix.tobytes() == D.matrix.tobytes() and again.Na == D.Na
        # so the kept profile cannot go stale in the copy either
        assert not again.matrix.flags.writeable

    def test_matrix_stays_read_only(self, mub5):
        # what keeps the kept profile from going stale
        with pytest.raises(ValueError, match="read-only"):
            mub5.matrix[0, 0] = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            mub5.split = 1


# ==============================
# one pass over a chunked Gram
# ==============================


def _dense_gram(mat):
    gram = np.abs(mat.conj().T @ mat)
    np.fill_diagonal(gram, 0.0)
    return gram


def _dense_block_coherence(block):
    """Reference: mu_a or mu_b from the block's own dense Gram, as analyze
    read them before it walked one chunked Gram."""
    if block.shape[1] < 2:
        return 0.0, False
    return float(_dense_gram(block).max()), True


def _dense_blocks_of_one_gram(mat, split):
    """mu_a and mu_b read off the diagonal blocks of the dense N x N Gram."""
    gram = _dense_gram(mat)
    a, b = gram[:split, :split], gram[split:, split:]
    return (float(a.max()) if a.size else 0.0), (float(b.max()) if b.size else 0.0)


def _analyze_in_chunks(monkeypatch, D, rows):
    """analyze with GRAM_CHUNK_BYTES set to hold ``rows`` Gram rows."""
    monkeypatch.setattr(dictionary, "GRAM_CHUNK_BYTES", rows * 16 * D.N)
    return analyze(D)


_GRAM_CASES = {
    "mub7": lambda: build_mub(7),
    "mub13": lambda: build_mub(13),
    "two_onb8": lambda: build_two_onb(8),
    "random12x300": lambda: build_random_dictionary(12, 300, seed=8),
}


class TestOnePassGram:
    # the reference's ragged-column rounding differs from the one-pass Gram's
    # by at most this much; measured: 5.6e-17 (random12x300, split 2) and
    # 5.7e-18 (two_onb8, split 13 and 14, on a rounding-noise mu_b of 8e-17)
    BLOCK_ROUNDING = np.finfo(float).eps

    @pytest.mark.parametrize("rows", [1, 3, 7])
    @pytest.mark.parametrize("name", sorted(_GRAM_CASES))
    def test_chunks_straddling_the_split_match_the_dense_reference(
        self, monkeypatch, name, rows
    ):
        D = _GRAM_CASES[name]()
        mu = float(_dense_gram(D.matrix).max())
        edge = 2 * rows
        for split in sorted({0, 1, 2, edge - 1, edge, edge + 1, D.N - 1, D.N}):
            Ds = PartitionedDictionary(D.matrix, split)
            whole = _analyze_in_chunks(monkeypatch, Ds, D.N)
            stats = _analyze_in_chunks(monkeypatch, Ds, rows)
            assert stats == whole, split
            assert stats.mu == mu, split
            assert (stats.mu_a, stats.mu_b) == _dense_blocks_of_one_gram(D.matrix, split)
            mu_a, a_defined = _dense_block_coherence(Ds.A)
            mu_b, b_defined = _dense_block_coherence(Ds.B)
            assert (stats.mu_a_defined, stats.mu_b_defined) == (a_defined, b_defined)
            # BLAS rounds the ragged last columns of a product on their own,
            # and a block's own Gram ends in other columns than D's
            assert abs(stats.mu_a - mu_a) <= self.BLOCK_ROUNDING, split
            assert abs(stats.mu_b - mu_b) <= self.BLOCK_ROUNDING, split

    @pytest.mark.parametrize("name", ["mub7", "mub13", "two_onb8"])
    def test_built_split_is_bit_identical_to_separate_block_grams(self, monkeypatch, name):
        D = _GRAM_CASES[name]()
        for rows in (1, 3, 7, D.N):
            stats = _analyze_in_chunks(monkeypatch, D, rows)
            assert stats.mu_a == _dense_block_coherence(D.A)[0]
            assert stats.mu_b == _dense_block_coherence(D.B)[0]

    @given(
        m=st.integers(1, 9),
        extra=st.integers(0, 140),
        seed=st.integers(0, 10**6),
        split_share=st.floats(0, 1),
        rows=st.integers(1, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_chunk_size_changes_no_bit(self, m, extra, seed, split_share, rows):
        D = build_random_dictionary(m, m + extra, seed=seed)
        Ds = PartitionedDictionary(D.matrix, round(split_share * D.N))
        with pytest.MonkeyPatch.context() as mp:
            whole = _analyze_in_chunks(mp, Ds, D.N)
            stats = _analyze_in_chunks(mp, Ds, rows)
        assert stats == whole
        if D.N >= 2:
            assert stats.mu == float(_dense_gram(D.matrix).max())
        assert stats.mu >= max(stats.mu_a, stats.mu_b)

    @pytest.mark.parametrize("rows", [2, 3])
    def test_rows_past_the_last_aligned_column_span_every_column(self, monkeypatch, rows):
        # the dense Gram's max is |G[69, 15]|, one ulp above |G[15, 69]|:
        # column 69 is one of the product's ragged last columns
        D = build_random_dictionary(3, 70, seed=22)
        gram = _dense_gram(D.matrix)
        assert gram[69, 15] == gram.max() > gram[15, 69]
        assert _analyze_in_chunks(monkeypatch, D, rows).mu == gram.max()

    def test_coherence_reads_the_same_pass(self, monkeypatch, two_onb8):
        monkeypatch.setattr(dictionary, "GRAM_CHUNK_BYTES", 3 * 16 * two_onb8.N)
        assert analyze(two_onb8).mu == float(_dense_gram(two_onb8.matrix).max())


def _reference_two_onb(m):
    """The full-size formula the blocked builder must reproduce bit for bit."""
    j, k = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    fourier = np.exp(-2j * np.pi * ((j * k) % m) / m) / math.sqrt(m)
    return np.hstack([np.eye(m), fourier])


def _reference_random(m, N, seed):
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    mat = np.empty((m, N), dtype=complex)
    mat.real = rng.standard_normal((m, N))
    mat.imag = rng.standard_normal((m, N))
    return mat / np.linalg.norm(mat, axis=0)


class TestBlockedBuilders:
    # 64 bytes: blocks of a few rows or columns, with a ragged last one
    @pytest.mark.parametrize("block_bytes", [64, 2**20], ids=["tiny-blocks", "default"])
    def test_two_onb_is_the_full_size_formula(self, monkeypatch, block_bytes):
        monkeypatch.setattr(dictionary, "_BLOCK_BYTES", block_bytes)
        for m in (2, 3, 5, 8, 13):
            assert build_two_onb(m).matrix.tobytes() == _reference_two_onb(m).tobytes()

    @pytest.mark.parametrize("block_bytes", [64, 2**20], ids=["tiny-blocks", "default"])
    def test_random_is_the_full_size_formula(self, monkeypatch, block_bytes):
        monkeypatch.setattr(dictionary, "_BLOCK_BYTES", block_bytes)
        for m, N, seed in ((1, 1, 0), (1, 6, 2), (3, 7, 1), (4, 9, 5), (6, 17, 4), (9, 31, 3)):
            D = build_random_dictionary(m, N, seed)
            assert D.matrix.tobytes() == _reference_random(m, N, seed).tobytes()

    @given(m=st.integers(1, 12), n=st.integers(1, 40), block_bytes=st.integers(1, 800))
    @settings(max_examples=60, deadline=None)
    def test_column_norms_match_numpy_bit_for_bit(self, m, n, block_bytes):
        mat = np.random.default_rng(m * 100 + n).standard_normal((m, 2 * n)).view(complex)
        with mock.patch.object(dictionary, "_BLOCK_BYTES", block_bytes):
            norms = dictionary._column_norms(mat)
        assert norms.tobytes() == np.linalg.norm(mat, axis=0).tobytes()


class TestBoundedMemory:
    # the dense N x N Gram of mub61 and its modulus alone take 343 MB

    @pytest.fixture(scope="class")
    def mub61(self):
        return build_mub(61)

    @pytest.fixture(scope="class")
    def mub61_file(self, mub61, tmp_path_factory):
        path = tmp_path_factory.mktemp("mub61") / "mub61.dict.json"
        save_dictionary(mub61, path)
        return path

    @staticmethod
    def _traced_peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def _analyze_limit(D):
        # one Gram chunk and its modulus, a column span and its conjugate,
        # and three m x m frame operators: nothing that grows with N
        return (2 * dictionary.GRAM_CHUNK_BYTES + 2 * dictionary._BLOCK_BYTES
                + 3 * 16 * D.m * D.m)

    def test_analyze_mub61(self, mub61):
        assert self._traced_peak(analyze, mub61) <= self._analyze_limit(mub61)

    def test_analyze_random_256x4096(self):
        # a 16 MiB matrix: a full-size copy of it alone would break the limit
        D = build_random_dictionary(256, 4096, seed=3, split=1000)
        assert self._traced_peak(analyze, D) <= self._analyze_limit(D)

    def test_stats_mub61(self, mub61):
        # a fresh instance over the same matrix, so that its profile is measured
        fresh = dictionary._adopt(mub61.matrix, mub61.Na, norm_tol=None)
        assert self._traced_peak(lambda D: D.stats, fresh) <= self._analyze_limit(mub61)

    def test_load_mub61_within_twice_the_matrix(self, mub61, mub61_file):
        # the 3.7 MB matrix and a few 1 MiB pieces: the 12 MB text, held
        # whole, would take more than three times the matrix
        limit = 2 * mub61.matrix.nbytes + 4 * dictionary.ENTRIES_CHUNK_CHARS
        assert self._traced_peak(load_dictionary, mub61_file) <= limit

    def test_whitespace_between_tokens_costs_no_memory(self, mub61_file, tmp_path):
        # 4 MiB of whitespace, a piece each before the object, after "m":,
        # before "entries" and after the object, is skipped a piece at a
        # time; whole pieces keep entries on the same piece boundaries
        pad = " " * dictionary.ENTRIES_CHUNK_CHARS
        text = mub61_file.read_text(encoding="utf-8")
        text = text.replace('"m":', '"m":' + pad, 1).replace('"entries"', pad + '"entries"', 1)
        padded = tmp_path / "padded.dict.json"
        padded.write_text(pad + text + pad, encoding="utf-8")
        assert padded.stat().st_size == mub61_file.stat().st_size + 4 * 2**20
        peaks = [self._traced_peak(load_dictionary, path) for path in (mub61_file, padded)]
        assert abs(peaks[1] - peaks[0]) <= dictionary.ENTRIES_CHUNK_CHARS

    @pytest.mark.parametrize("where", ["first", "last"])
    def test_a_malformed_pair_is_refused_within_the_same_bound(
        self, mub61, mub61_file, tmp_path, where
    ):
        # the chunk that holds the pair is refused, never read whole or twice
        bad = tmp_path / "bad.dict.json"
        bad.write_text(_replace_pair(mub61_file.read_text(encoding="utf-8"), where))
        assert bad.stat().st_size > 2 * dictionary.ENTRIES_CHUNK_CHARS

        def refused(path):
            with pytest.raises(DictionaryFormatError, match=NOT_PAIRS):
                load_dictionary(path)

        limit = 2 * mub61.matrix.nbytes + 4 * dictionary.ENTRIES_CHUNK_CHARS
        assert self._traced_peak(refused, bad) <= limit

    def test_a_flat_list_of_numbers_is_refused_within_the_same_bound(
        self, monkeypatch, tmp_path
    ):
        # with no '[' after the first number the first chunk is the last
        # one; its search for the array's end stops at text that cannot be
        # pairs, which read on held the rest of the file
        monkeypatch.setattr(dictionary, "ENTRIES_CHUNK_CHARS", 2**16)
        D = build_mub(37)
        source = tmp_path / "mub37.dict.json"
        save_dictionary(D, source)
        flat = tmp_path / "flat.dict.json"
        flat.write_text(_no_pair_brackets(source.read_text(encoding="utf-8")))

        def refused(path):
            with pytest.raises(DictionaryFormatError, match=NOT_PAIRS):
                load_dictionary(path)

        limit = 2 * D.matrix.nbytes + 4 * dictionary.ENTRIES_CHUNK_CHARS
        assert self._traced_peak(refused, flat) <= limit

    @staticmethod
    def _recorded_reads(monkeypatch) -> list:
        """The size of every ``read`` that ``load_dictionary`` makes from here on."""
        sizes = []

        class Recorded(io.FileIO):
            def read(self, size=-1):
                sizes.append(size)
                return super().read(size)

        monkeypatch.setattr(dictionary, "open", lambda path, mode: Recorded(path, mode),
                            raising=False)
        return sizes

    def test_load_reads_the_file_a_piece_at_a_time(self, mub61_file, monkeypatch):
        sizes = self._recorded_reads(monkeypatch)
        load_dictionary(mub61_file)
        assert len(sizes) > 12 and 0 < min(sizes) <= max(sizes) <= dictionary.ENTRIES_CHUNK_CHARS

    @pytest.mark.parametrize("malformed", [
        lambda text: _replace_pair(text, "first", "[0x1, 0]"),
        lambda text: _replace_pair(text, "first"),
        _no_pair_brackets,
    ], ids=["hex-first-pair", "three-number-first-pair", "flat"])
    def test_a_malformed_entries_is_refused_at_its_first_chunk(
        self, mub61, mub61_file, tmp_path, monkeypatch, malformed
    ):
        # the first piece holds m, N and Na, the second the first chunk of
        # entries; the 12 MB file is never read on, nor its JSON retried
        bad = tmp_path / "bad.dict.json"
        bad.write_text(malformed(mub61_file.read_text(encoding="utf-8")))
        sizes = self._recorded_reads(monkeypatch)

        def refused(path):
            with pytest.raises(DictionaryFormatError, match=NOT_PAIRS):
                load_dictionary(path)

        peak = self._traced_peak(refused, bad)
        assert len(sizes) <= 2
        assert peak <= 2 * mub61.matrix.nbytes + 4 * dictionary.ENTRIES_CHUNK_CHARS

    def test_build_two_onb_1024_holds_no_second_matrix(self):
        # the 1024 x 2048 matrix takes 32 MiB; a full-size copy or temporary
        # would take 16 MiB or more beside it
        assert self._traced_peak(build_two_onb, 1024) <= 48 * 2**20

    def test_save_mub61_never_holds_the_text(self, mub61, tmp_path):
        # the file is 12 MB of text; the writer holds one matrix row of values
        path = tmp_path / "mub61.dict.json"
        assert self._traced_peak(save_dictionary, mub61, path) <= 4 * 2**20
        assert path.stat().st_size > 12 * 10**6


# ==============================
# save / load round trip
# ==============================


class TestSaveLoad:
    def test_round_trip_is_bit_exact(self, mub5, tmp_path):
        path = tmp_path / "d.dict.json"
        save_dictionary(mub5, path)
        loaded = load_dictionary(path)
        np.testing.assert_array_equal(loaded.matrix, mub5.matrix)
        assert loaded.Na == mub5.Na

    @pytest.mark.parametrize(
        "build",
        [lambda: build_two_onb(8), lambda: PartitionedDictionary(build_two_onb(8).matrix.conj(), 8)],
        ids=["two_onb8", "conj-two_onb8"],
    )
    def test_save_load_save_keeps_signed_zeros(self, tmp_path, build):
        # the conjugate's identity block has a -0.0 imaginary part in every entry
        D = build()
        first, second = tmp_path / "first.dict.json", tmp_path / "second.dict.json"
        save_dictionary(D, first)
        loaded = load_dictionary(first)
        save_dictionary(loaded, second)
        np.testing.assert_array_equal(loaded.matrix.view(np.uint64), D.matrix.view(np.uint64))
        assert second.read_bytes() == first.read_bytes()

    def test_round_trip_random(self, tmp_path):
        D = build_random_dictionary(6, 17, seed=4, split=5)
        path = tmp_path / "r.dict.json"
        save_dictionary(D, path)
        loaded = load_dictionary(path)
        np.testing.assert_array_equal(loaded.matrix, D.matrix)
        assert analyze(loaded) == analyze(D)

    @staticmethod
    def _one_string_text(D):
        """The writer's text as one joined string: the reference layout."""
        lines = ["{", f' "m": {D.m},', f' "N": {D.N},', f' "Na": {D.Na},', ' "entries": [']
        body = [f"  [{z.real:.16e}, {z.imag:.16e}]" for z in D.matrix.reshape(-1)]
        lines.append(",\n".join(body))
        lines.extend([" ]", "}", ""])
        return "\n".join(lines)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_mub(7),
            lambda: build_two_onb(8),
            lambda: build_random_dictionary(5, 23, seed=9, split=7),
        ],
        ids=["mub7", "two_onb8", "random5x23"],
    )
    def test_streamed_text_matches_the_one_string_layout(self, build, tmp_path):
        D = build()
        path = tmp_path / "d.dict.json"
        save_dictionary(D, path)
        assert path.read_bytes() == self._one_string_text(D).encode("utf-8")
        assert not list(tmp_path.glob("*.tmp*"))

    def test_a_write_that_fails_midway_leaves_no_file(self, mub3, tmp_path):
        # the disk fills (or the file size limit is hit) after the first row
        rows = iter(mub3.matrix)

        def one_row_then_full():
            yield next(rows)
            raise OSError(27, "File too large")

        D = mock.Mock(m=3, N=12, Na=3, matrix=one_row_then_full())
        with pytest.raises(OSError, match="File too large"):
            save_dictionary(D, tmp_path / "d.dict.json")
        assert list(tmp_path.iterdir()) == []

    def test_written_file_lists_flat_entry_pairs(self, mub3, tmp_path):
        path = tmp_path / "d.dict.json"
        save_dictionary(mub3, path)
        doc = json.loads(path.read_text())
        assert doc["m"] == 3 and doc["N"] == 12 and doc["Na"] == 3
        assert len(doc["entries"]) == 36
        assert len(doc["entries"][0]) == 2

    def _write(self, tmp_path, doc):
        path = tmp_path / "bad.dict.json"
        path.write_text(json.dumps(doc))
        return path

    # row-major [re, im] pairs for the 2x2 identity
    _EYE2 = [[1, 0], [0, 0], [0, 0], [1, 0]]

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.dict.json"
        path.write_text("{not json")
        with pytest.raises(DictionaryFormatError):
            load_dictionary(path)

    def test_rejects_missing_field(self, tmp_path):
        path = self._write(tmp_path, {"m": 2, "N": 2, "entries": self._EYE2})
        with pytest.raises(DictionaryFormatError, match="Na"):
            load_dictionary(path)

    def test_rejects_bad_entry_count(self, tmp_path):
        path = self._write(tmp_path, {"m": 2, "N": 3, "Na": 1, "entries": self._EYE2})
        with pytest.raises(DictionaryFormatError, match="entries"):
            load_dictionary(path)

    def test_rejects_non_unit_column_and_names_it(self, tmp_path):
        entries = [[1, 0], [0, 0], [0, 0], [0.5, 0]]
        path = self._write(tmp_path, {"m": 2, "N": 2, "Na": 1, "entries": entries})
        with pytest.raises(DictionaryFormatError, match="column 1"):
            load_dictionary(path)

    def test_renormalize_recovers_scaled_columns(self, tmp_path):
        entries = [[1, 0], [0, 0], [0, 0], [0.5, 0]]
        path = self._write(tmp_path, {"m": 2, "N": 2, "Na": 1, "entries": entries})
        loaded = load_dictionary(path, renormalize=True)
        np.testing.assert_allclose(loaded.matrix, np.eye(2), atol=TOL)

    def test_renormalize_rejects_zero_column(self, tmp_path):
        entries = [[1, 0], [0, 0], [0, 0], [0, 0]]
        path = self._write(tmp_path, {"m": 2, "N": 2, "Na": 1, "entries": entries})
        with pytest.raises(DictionaryFormatError, match="zero"):
            load_dictionary(path, renormalize=True)

    @pytest.mark.parametrize("column_1, expected", [
        ((1.3407807929942597e154,) * 2, (math.sqrt(0.5),) * 2),  # its square sum overflows
        ((0.0, 1e-160), (0.0, 1.0)),  # its square is subnormal
        ((1.7976931348623157e308, -1.7976931348623157e308), (math.sqrt(0.5), -math.sqrt(0.5))),
        ((5e-324, 0.0), (1.0, 0.0)),
    ])
    def test_renormalize_checks_the_rescaled_norms(self, tmp_path, column_1, expected):
        # a norm whose squares overflow or underflow, taken plainly, is off;
        # measured on the column scaled to a largest part near 1 it is not
        entries = [[1, 0], [column_1[0], 0], [0, 0], [column_1[1], 0]]
        path = self._write(tmp_path, {"m": 2, "N": 2, "Na": 1, "entries": entries})
        with np.errstate(all="raise"):
            loaded = load_dictionary(path, renormalize=True)
        np.testing.assert_allclose(loaded.matrix[:, 1], expected, rtol=1e-15, atol=1e-300)
        assert loaded.matrix[:, 0].tolist() == [1, 0]

    def test_renormalize_keeps_the_bytes_of_columns_it_can_measure_plainly(self, tmp_path):
        D = build_random_dictionary(5, 23, seed=9, split=7)
        path = tmp_path / "d.dict.json"
        save_dictionary(PartitionedDictionary(3.0 * D.matrix, D.split, norm_tol=np.inf), path)
        with open(path, encoding="utf-8") as fh:
            entries = np.array(json.load(fh)["entries"], dtype=float)
        mat = (entries[:, 0] + 1j * entries[:, 1]).reshape(5, 23)
        expected = mat / np.linalg.norm(mat, axis=0)
        assert load_dictionary(path, renormalize=True).matrix.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("entries, message", [
        ([[1, 0], [0, 0], [0, 0], [0, 0]], "column 1 is zero"),
        ([[1, 0], [0, 0], [0, 0], [1e400, 0]], "pairs of numbers"),  # written as Infinity
    ])
    def test_renormalize_refusals_name_the_file(self, tmp_path, entries, message):
        path = self._write(tmp_path, {"m": 2, "N": 2, "Na": 1, "entries": entries})
        with pytest.raises(DictionaryFormatError, match=message) as refused:
            load_dictionary(path, renormalize=True)
        assert str(refused.value).startswith(f"{path}: ")

    def test_rejects_undercomplete_description(self, tmp_path):
        entries = [[1, 0], [0, 0], [0, 0]]
        path = self._write(tmp_path, {"m": 3, "N": 1, "Na": 0, "entries": entries})
        with pytest.raises(DictionaryFormatError, match="N >= m"):
            load_dictionary(path)

    @pytest.mark.parametrize(
        "entries",
        [
            [["1", 0], [0, 0], [0, 0], [1, 0]],
            [[1, 0], [0, 0], [0, 0], [True, False]],
            [[1.0, 0.0], [0.0, 0.0], [0.0, False], [1.0, 0.0]],
            [[True, False], [False, False], [False, False], [True, False]],
            [[1, 0], [0, 0], [0, 0], [None, 0]],
            [[1, 0], [0, 0], [0, 0], [1]],
        ],
        ids=["string", "bool-among-ints", "bool-among-floats", "all-bool", "null", "ragged"],
    )
    def test_rejects_entries_that_are_not_numbers(self, tmp_path, entries):
        path = self._write(tmp_path, {"m": 2, "N": 2, "Na": 1, "entries": entries})
        with pytest.raises(DictionaryFormatError, match="pairs of numbers"):
            load_dictionary(path)

    def test_integer_entries_load(self, tmp_path):
        path = self._write(tmp_path, {"m": 2, "N": 2, "Na": 1, "entries": self._EYE2})
        np.testing.assert_array_equal(load_dictionary(path).matrix, np.eye(2))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DictionaryFormatError, match="cannot read"):
            load_dictionary(tmp_path / "absent.dict.json")


# ==============================
# the chunked entries reader against the json.load reader it replaced
# ==============================


def _reference_load(path, renormalize=False):
    """The json.load reader that load_dictionary replaced, kept as the
    reference: it accepts exactly the files load_dictionary must accept."""
    LoadError = DictionaryFormatError
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=tuple)
    except OSError as exc:
        raise LoadError(f"cannot read dictionary file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise LoadError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, tuple):
        raise LoadError(f"{path}: top-level value must be an object")
    keys = [key for key, _ in doc]
    if len(set(keys)) < len(keys):
        raise LoadError(f"{path}: a key appears more than once")
    doc = dict(doc)
    for key in ("m", "N", "Na", "entries"):
        if key not in doc:
            raise LoadError(f"{path}: missing field {key!r}")
    m, n, na = doc["m"], doc["N"], doc["Na"]
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (m, n, na)):
        raise LoadError(f"{path}: m, N, Na must be integers")
    if m < 1 or n < m:
        raise LoadError(f"{path}: need N >= m >= 1, got m={m}, N={n}")
    if not 0 <= na <= n:
        raise LoadError(f"{path}: Na={na} outside [0, N={n}]")
    entries = doc["entries"]
    if not isinstance(entries, list):
        raise LoadError(f"{path}: entries must be a list of [re, im] pairs")
    if len(entries) != m * n:
        raise LoadError(f"{path}: expected {m * n} entries, found {len(entries)}")
    not_numbers = f"{path}: entries must be [re, im] pairs of numbers"
    try:
        pairs = np.asarray(entries)
    except ValueError as exc:
        raise LoadError(not_numbers) from exc
    if pairs.dtype.kind not in "fi" or pairs.shape != (m * n, 2):
        raise LoadError(not_numbers)
    rows, cols = np.nonzero((pairs == 0) | (pairs == 1))
    if any(type(entries[i][j]) is bool for i, j in zip(rows.tolist(), cols.tolist())):
        raise LoadError(not_numbers)
    # each pair's two floats as read, a -0.0 included
    mat = np.ascontiguousarray(pairs, dtype=float).view(complex).reshape(m, n)
    if not np.all(np.isfinite(pairs)):
        raise LoadError(f"{path}: entries must be finite")
    if renormalize:  # each column scaled exactly to a largest part in [1/2, 1) first
        parts = mat.view(float).reshape(m, n, 2).copy()
        np.ldexp(parts, -np.frexp(np.abs(parts).max(axis=(0, 2)))[1][:, None], out=parts)
        mat = parts.view(complex).reshape(m, n)
    norms = np.linalg.norm(mat, axis=0)
    zero = np.where(norms <= 1e-300)[0]
    if zero.size:
        raise LoadError(f"{path}: column {int(zero[0])} is zero")
    if renormalize:
        mat = mat / norms
    else:
        bad = np.where(np.abs(norms - 1.0) > dictionary.LOAD_NORM_TOL)[0]
        if bad.size:
            raise LoadError(f"{path}: column {int(bad[0])} is not unit norm")
    tol = max(dictionary.COLUMN_NORM_TOL, 2 * dictionary.LOAD_NORM_TOL)
    return PartitionedDictionary(mat, na, norm_tol=tol)


def _outcome(reader, path, renormalize):
    """The bytes and split a reader loads from ``path``, or None if it refuses."""
    try:
        D = reader(path, renormalize)
    except ValueError:  # DictionaryFormatError is one
        return None
    return D.matrix.tobytes(), D.split


_WHITESPACE = st.sampled_from(["", "", " ", "\n", "\n  ", "\t", "\r\n "])
# numbers that read back exactly: a unit matrix written in them stays unit
_EXACT_FORMS = [repr, "{:.17g}".format, "{:.16e}".format, "{:.17E}".format]
# JSON number forms; a document draws its numbers from a few of them
_NUMBER_FORMS = {
    "ints": st.integers(-9, 9).map(str),
    "floats": st.floats(allow_nan=False, allow_infinity=False).map(repr),
    "spellings": st.sampled_from(["-0", "0.0", "-0.0", "1E0", "0.5e1", "1e-400", "2.5E+3"]),
    "past-int64": st.sampled_from(
        [2**53 + 1, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64, 10**400]
    ).map(str),
    # alone these make numpy's uint64, which the reference refuses
    "uint64": st.sampled_from([2**63, 2**63 + 1, 2**64 - 1]).map(str),
}
_NOT_NUMBERS = st.sampled_from([
    "+1", "01", "1.", ".5", "1e", "--1", "0x1", "1e400", "NaN", "Infinity", "-Infinity",
    "true", "false", "null", '"1"', "[]",
])
_EXTRAS = st.sampled_from([
    ("note", "]]"),
    ("copy", '"entries": [[1,0]]'),
    ("téxt", "über ∑ 日本"),
    ("list", [[1, 0], [0, 1]]),
    ("nested", {"entries": [[1, 0]], "m": 1}),
    ("n", None),
])


@st.composite
def _documents(draw):
    """The text of a dictionary file, the text of its entries array, and its
    pair count: exact unit matrices in any number form, or arbitrary numbers
    and malformed pairs; compact or indented; keys in any order, extra keys
    and a duplicate entries."""
    ws = lambda: draw(_WHITESPACE)  # noqa: E731
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m, 4))
    if draw(st.booleans()):  # an exact unit matrix: one chirp of C^m per column
        t = np.arange(m)
        mat = np.exp(2j * np.pi * np.outer(t, np.arange(n)) * t[:, None] / 7) / math.sqrt(m)
        form = draw(st.sampled_from(_EXACT_FORMS))
        values = [(form(z.real), form(z.imag)) for z in mat.reshape(-1)]
    else:
        forms = draw(st.sets(st.sampled_from(sorted(_NUMBER_FORMS)), min_size=1))
        number = st.one_of(*(_NUMBER_FORMS[f] for f in sorted(forms)))
        values = [(draw(number), draw(number)) for _ in range(m * n)]
    pairs = [f"[{ws()}{re}{ws()},{ws()}{im}{ws()}]" for re, im in values]
    count = len(pairs) + draw(st.sampled_from([0] * 8 + [-1, 1]))
    pairs = pairs[:count] if count <= len(pairs) else pairs + ["[1, 0]"]
    corrupt = draw(st.sampled_from([None] * 12 + ["trailing", "no-comma", "junk", "empty",
                                                  "nested", "one", "three", "token", "ff",
                                                  "ff-key"]))
    i = draw(st.integers(0, max(0, len(pairs) - 1)))
    if pairs and corrupt == "token":
        pairs[i] = f"[{draw(_NOT_NUMBERS)}, 0]"
    elif pairs and corrupt == "ff":  # a form feed is not JSON whitespace
        pairs[i] = pairs[i].replace(",", "\f,")
    elif pairs and corrupt == "junk":
        pairs[i] += "3"
    elif pairs and corrupt in ("empty", "nested", "one", "three"):
        pairs[i] = {"empty": "[]", "nested": f"[{pairs[i]}]", "one": "[1]",
                    "three": "[1, 0, 0]"}[corrupt]
    sep = "," + ws() if corrupt != "no-comma" else ws()
    body = sep.join(pairs) + ("," if corrupt == "trailing" else "")
    entries = f"[{ws()}{body}{ws()}]"
    fields = [("m", str(m)), ("N", str(n)), ("Na", str(draw(st.integers(0, n)))),
              ("entries", entries)]
    for key, value in draw(st.lists(_EXTRAS, max_size=2)):
        fields.append((key, json.dumps(value, ensure_ascii=draw(st.booleans()))))
    duplicate = draw(st.sampled_from([None] * 6 + ["[[1, 0]]", '"x"', "[1, [2]]", "[[1,0],]"]))
    if duplicate is not None:
        fields.append(("entries", duplicate))
    fields = draw(st.permutations(fields))
    colon = "\f:" if corrupt == "ff-key" else ":"
    text = "{" + ",".join(f'{ws()}"{k}"{ws()}{colon}{ws()}{v}{ws()}' for k, v in fields) + "}"
    return text + ws(), entries, max(1, len(pairs))


class TestChunkedReader:
    @pytest.mark.parametrize("pairs_per_chunk", [None, 1, 3], ids=["default", "1-pair", "3-pairs"])
    @settings(max_examples=150, deadline=None)
    @given(doc=_documents(), renormalize=st.booleans())
    def test_accepts_exactly_what_json_load_accepts(self, pairs_per_chunk, doc, renormalize):
        text, entries, count = doc
        chunk = dictionary.ENTRIES_CHUNK_CHARS
        if pairs_per_chunk is not None:  # characters of about that many pairs
            chunk = max(1, pairs_per_chunk * len(entries) // count)
        with tempfile.TemporaryDirectory() as tmp, np.errstate(over="ignore", invalid="ignore"):
            path = Path(tmp) / "d.dict.json"
            path.write_bytes(text.encode("utf-8"))
            expected = _outcome(_reference_load, path, renormalize)
            with mock.patch.object(dictionary, "ENTRIES_CHUNK_CHARS", chunk):
                assert _outcome(load_dictionary, path, renormalize) == expected

    @pytest.mark.parametrize("chunk", [1, 100, 2**20])
    def test_written_files_load_bit_exact_in_any_chunking(self, monkeypatch, tmp_path, chunk):
        monkeypatch.setattr(dictionary, "ENTRIES_CHUNK_CHARS", chunk)
        for D in (build_mub(7), build_random_dictionary(5, 23, seed=9, split=7)):
            path = tmp_path / "d.dict.json"
            save_dictionary(D, path)
            loaded = load_dictionary(path)
            assert loaded.matrix.tobytes() == D.matrix.tobytes()
            assert loaded.matrix.tobytes() == _reference_load(path).matrix.tobytes()

    @pytest.mark.parametrize(
        "entries",
        [
            "[[1,0],[0,0],[0,0],[1,0],]",
            "[[1,0][0,0],[0,0],[1,0]]",
            "[[1,0]3,[0,0],[0,0],[1,0]]",
            "[[]]",
            "[[1,0],[0,0],[0,0],[[1,0]]]",
            "[[NaN,0],[0,0],[0,0],[1,0]]",
            "[[Infinity,0],[0,0],[0,0],[1,0]]",
            "[[1e400,0],[0,0],[0,0],[1,0]]",
            f"[[{2**64},0],[0,0],[0,0],[1,0]]",
            f"[[1{'0' * 5000},0],[0,0],[0,0],[1,0]]",
        ],
        ids=["trailing-comma", "missing-comma", "junk-after-pair", "empty-pair", "nested",
             "nan", "infinity", "1e400", "past-uint64", "past-int-digit-limit"],
    )
    def test_rejects(self, tmp_path, entries):
        path = tmp_path / "bad.dict.json"
        path.write_text(f'{{"m": 2, "N": 2, "Na": 1, "entries": {entries}}}')
        for reader in (_reference_load, load_dictionary):
            with pytest.raises(ValueError):
                reader(path)
        with pytest.raises(DictionaryFormatError, match="entries"):
            load_dictionary(path)

    @pytest.mark.parametrize("chunk", [1, 100, 2**20])
    @pytest.mark.parametrize("key", ["m", "entries", "note"])
    def test_a_repeated_key_is_refused(self, monkeypatch, tmp_path, key, chunk):
        # the repeat has the same value, so json.load's last-one-wins would
        # have read the same dictionary
        monkeypatch.setattr(dictionary, "ENTRIES_CHUNK_CHARS", chunk)
        path = tmp_path / "d.dict.json"
        save_dictionary(build_mub(3), path)
        fields = list(json.loads(path.read_text()).items()) + [("note", "x")]
        fields.append((key, dict(fields)[key]))
        path.write_text("{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in fields) + "}")
        with pytest.raises(ValueError):
            _reference_load(path)
        with pytest.raises(DictionaryFormatError, match=f"key '{key}' appears more than once"):
            load_dictionary(path)

    @pytest.mark.parametrize("chunk", [1, 2**20])
    def test_a_pair_past_m_n_is_refused(self, monkeypatch, tmp_path, chunk):
        monkeypatch.setattr(dictionary, "ENTRIES_CHUNK_CHARS", chunk)
        path = tmp_path / "d.dict.json"
        path.write_text('{"m": 2, "N": 2, "Na": 1, "entries": [[1,0],[0,0],[0,0],[1,0],[0,0]]}')
        with pytest.raises(DictionaryFormatError, match="expected 4 entries, found more"):
            load_dictionary(path)

    def test_a_matrix_past_the_address_space_is_refused_at_entries(self, tmp_path):
        path = tmp_path / "d.dict.json"
        path.write_text('{"m": 10000000000, "N": 10000000000, "Na": 0, "entries": [[1, 0]]}')
        with pytest.raises(DictionaryFormatError, match="does not fit in memory"):
            load_dictionary(path)

    @pytest.mark.parametrize("chunk", [1, 2**20])
    def test_integers_past_int64_promote_as_in_one_array(self, monkeypatch, tmp_path, chunk):
        # numpy reads ints in [2**63, 2**64) alone as uint64, which is refused,
        # but beside a negative int as float64, also across chunks
        monkeypatch.setattr(dictionary, "ENTRIES_CHUNK_CHARS", chunk)
        path = tmp_path / "d.dict.json"
        big = 2**63
        for entries, loads in [(f"[[{big},{big}],[{big},{big}]]", False),
                               (f"[[{big},{big}],[-1,0]]", True)]:
            path.write_text(f'{{"m": 1, "N": 2, "Na": 1, "entries": {entries}}}')
            expected = _outcome(_reference_load, path, True)
            assert (expected is not None) == loads
            assert _outcome(load_dictionary, path, True) == expected

    @pytest.mark.parametrize("key", ["entries", "extra"])
    def test_deep_nesting_is_a_format_error(self, tmp_path, key):
        # json.load raised RecursionError, which the CLI printed as a traceback
        path = tmp_path / "d.dict.json"
        deep = "[" * 100_000 + "]" * 100_000
        path.write_text(f'{{"m": 1, "N": 1, "Na": 0, "entries": [[1, 0]], "{key}": {deep}}}')
        with pytest.raises(DictionaryFormatError):
            load_dictionary(path)

    def test_not_utf8_is_a_format_error(self, tmp_path):
        path = tmp_path / "d.dict.json"
        path.write_bytes(b'{"m": 1, "N": 1, "Na": 0, "entries": [[1, 0]], "x": "\xff"}')
        with pytest.raises(DictionaryFormatError, match="UTF-8"):
            load_dictionary(path)


def _read_doc(path) -> dict:
    """The top-level object of ``path`` as the streamed reader walks it."""
    with open(path, "rb") as fh:
        return dictionary._read_object(dictionary._Window(fh, path))


class TestStreamedReader:
    """The file is read in pieces of ENTRIES_CHUNK_CHARS bytes: every token,
    character and value may span pieces."""

    _TEXT = "über ∑ 日本"

    @pytest.mark.parametrize("piece", [1, 2, 3, 4])
    def test_a_character_split_across_pieces_reads_whole(self, monkeypatch, tmp_path, piece):
        monkeypatch.setattr(dictionary, "ENTRIES_CHUNK_CHARS", piece)
        D = build_random_dictionary(2, 3, seed=1, split=1)
        path = tmp_path / "d.dict.json"
        save_dictionary(D, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc = {self._TEXT: self._TEXT, **doc, "tail": [self._TEXT]}
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        assert path.stat().st_size > len(path.read_text(encoding="utf-8"))  # multi-byte
        read = _read_doc(path)
        assert (read[self._TEXT], read["tail"]) == (self._TEXT, [self._TEXT])
        assert load_dictionary(path).matrix.tobytes() == D.matrix.tobytes()

    @pytest.mark.parametrize("piece", [64, 2**20], ids=["64-bytes", "default"])
    @pytest.mark.parametrize("where", ["before", "inside", "after"])
    def test_a_byte_that_is_not_utf8_is_a_format_error(self, monkeypatch, tmp_path, where, piece):
        monkeypatch.setattr(dictionary, "ENTRIES_CHUNK_CHARS", piece)
        path = tmp_path / "d.dict.json"
        save_dictionary(build_mub(3), path)
        raw = path.read_bytes()
        if where == "before":
            raw = raw.replace(b'"m"', b'"x\xff": 0, "m"', 1)
        elif where == "inside":  # between two pairs in the middle of entries
            middle = raw.index(b",\n", len(raw) // 2)
            raw = raw[: middle + 1] + b"\xff" + raw[middle + 1 :]
        else:  # a key after entries
            raw = raw[: raw.rindex(b"}")] + b', "x": "\xff"}\n'
        path.write_bytes(raw)
        with pytest.raises(DictionaryFormatError, match="UTF-8") as refused:
            load_dictionary(path)
        assert str(refused.value).endswith(f" at byte {raw.index(bytes([0xFF]))}")

    def test_values_longer_than_three_pieces(self, monkeypatch, tmp_path):
        # 64-byte pieces: the string, the list and the number each span more
        # than three, and json reads each of them as from the whole text
        monkeypatch.setattr(dictionary, "ENTRIES_CHUNK_CHARS", 64)
        listed = json.dumps([1.5, -2, [3e-5, {"k": "v"}]] * 20)
        extras = (f'"note": "{"x" * 300}", "list": {listed}, '
                  f'"number": -0.{"1" * 300}e-2, "count": {"7" * 300}')
        path = tmp_path / "d.dict.json"
        path.write_text(f'{{"m": 1, "N": 1, {extras}, "Na": 10, "entries": [[1, 0]]}}')
        doc = _read_doc(path)
        expected = json.loads(path.read_text())
        assert doc.keys() == expected.keys()
        assert all(doc[key] == expected[key] for key in expected if key != "entries")
        with pytest.raises(DictionaryFormatError, match="Na=10 outside"):
            load_dictionary(path)

    @pytest.mark.parametrize("piece", [64, 2**20], ids=["64-bytes", "default"])
    @pytest.mark.parametrize("entries_at", ["first", "last"])
    def test_entries_first_or_last(self, monkeypatch, tmp_path, entries_at, piece):
        monkeypatch.setattr(dictionary, "ENTRIES_CHUNK_CHARS", piece)
        D = build_random_dictionary(5, 23, seed=9, split=7)
        path = tmp_path / "d.dict.json"
        save_dictionary(D, path)
        doc = json.loads(path.read_text())
        entries = doc.pop("entries")
        doc = {"entries": entries, **doc} if entries_at == "first" else {**doc, "entries": entries}
        path.write_text(json.dumps(doc, indent=1))
        loaded = load_dictionary(path)
        assert loaded.matrix.tobytes() == D.matrix.tobytes()
        assert loaded.matrix.tobytes() == _reference_load(path).matrix.tobytes()
        assert loaded.split == D.split

    @staticmethod
    def _texts(D):
        """D's file text, and the same with its first pair [1, 0, 0]."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.dict.json"
            save_dictionary(D, path)
            good = path.read_text(encoding="utf-8")
        return {"good": good, "first-pair-bad": _replace_pair(good, "first")}

    @pytest.mark.parametrize("text", ["good", "first-pair-bad"])
    def test_a_pipe_reads_as_a_file(self, monkeypatch, tmp_path, text):
        # 64-byte pieces: a malformed entries is decided in one pass too
        monkeypatch.setattr(dictionary, "ENTRIES_CHUNK_CHARS", 64)
        D = build_mub(7)
        raw = self._texts(D)[text].encode("utf-8")
        fifo = tmp_path / "d.dict.json"
        os.mkfifo(fifo)

        def write():
            try:
                with open(fifo, "wb") as fh:
                    fh.write(raw)
            except BrokenPipeError:  # the reader stopped early
                pass

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            if text == "good":
                assert load_dictionary(fifo).matrix.tobytes() == D.matrix.tobytes()
            else:
                with pytest.raises(DictionaryFormatError, match=NOT_PAIRS):
                    load_dictionary(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

    @pytest.mark.parametrize("text", ["good", "first-pair-bad"])
    def test_the_file_is_never_asked_to_seek(self, monkeypatch, tmp_path, text):
        seeks = []

        class Recorded(io.FileIO):
            def seek(self, *args):
                seeks.append(args)
                return super().seek(*args)

        path = tmp_path / "d.dict.json"
        path.write_text(self._texts(build_mub(7))[text], encoding="utf-8")
        monkeypatch.setattr(dictionary, "ENTRIES_CHUNK_CHARS", 64)
        monkeypatch.setattr(dictionary, "open", lambda path, mode: Recorded(path, mode),
                            raising=False)
        try:
            load_dictionary(path)
        except DictionaryFormatError:
            assert text != "good"
        assert seeks == []

    @pytest.mark.parametrize("key", ["entries", "extra"])
    def test_deep_nesting_across_pieces_is_a_format_error(self, monkeypatch, tmp_path, key):
        # the 200,000 brackets span 49 pieces of 4096 bytes
        monkeypatch.setattr(dictionary, "ENTRIES_CHUNK_CHARS", 4096)
        path = tmp_path / "d.dict.json"
        deep = "[" * 100_000 + "]" * 100_000
        path.write_text(f'{{"m": 1, "N": 1, "Na": 0, "entries": [[1, 0]], "{key}": {deep}}}')
        with pytest.raises(DictionaryFormatError):
            load_dictionary(path)
