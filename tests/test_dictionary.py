"""Tests for partitioned dictionaries, coherence statistics, and file I/O."""

import dataclasses
import io
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
from sparsethresh.cli import main

# Hand-computed reference values, frozen.
INV_SQRT2 = 0.7071067811865476
INV_SQRT3 = 0.5773502691896258
INV_SQRT7 = 0.3779644730092272
WELCH_4_8 = 0.3779644730092272
WELCH_3_12 = 0.5222329678670935
SQRT6 = 2.449489742783178

TOL = 1e-12


def _npy(*arrays, version=(1, 0)) -> bytes:
    """The .npy records of ``arrays``, back to back: a dictionary file when
    they are a complex matrix and a 0-d Na.  Object arrays are pickled."""
    fh = io.BytesIO()
    for array in arrays:
        np.lib.format.write_array(fh, np.asanyarray(array), version=version)
    return fh.getvalue()


def _header(descr: str, shape: tuple, fortran_order: bool = False) -> bytes:
    """A .npy 1.0 header alone, of any shape."""
    fh = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        fh, {"descr": descr, "fortran_order": fortran_order, "shape": shape}
    )
    return fh.getvalue()


def _raw_header(text: bytes) -> bytes:
    """A .npy 1.0 header whose text is ``text``, however malformed."""
    return b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little") + text


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


def _analyze_in_tiles(monkeypatch, D, rows, cols):
    """analyze with Gram tiles of ``rows`` x ``cols`` entries."""
    monkeypatch.setattr(dictionary, "_gram_tile", lambda: (rows, cols))
    return analyze(D)


def _analyze_in_one_tile(monkeypatch, D):
    """analyze with one tile that holds the whole Gram."""
    return _analyze_in_tiles(monkeypatch, D, D.N, -(-D.N // 64) * 64)


def _tile_edge_splits(n, rows, cols):
    """0, 1, N - 1, N and each side of the first two tile edges in each
    direction, of the last aligned column and of the last band."""
    last_band = (n - 2) // rows * rows
    edges = {rows, 2 * rows, cols, 2 * cols, n - n % 64, last_band}
    splits = {0, 1, n - 1, n} | {e + d for e in edges for d in (-1, 0, 1)}
    return sorted(s for s in splits if 0 <= s <= n)


_GRAM_CASES = {
    "mub7": lambda: build_mub(7),  # N = 56, less than one column tile
    "mub13": lambda: build_mub(13),
    "two_onb8": lambda: build_two_onb(8),
    "random12x300": lambda: build_random_dictionary(12, 300, seed=8),
    "random5x128": lambda: build_random_dictionary(5, 128, seed=9),  # N a multiple of 64
    "random3x129": lambda: build_random_dictionary(3, 129, seed=10),  # N = 64k + 1
}
_TILE_ROWS = [2, 3, 7, 64]
_TILE_COLS = [64, 128, 1024]


class TestOnePassGram:
    # the reference's ragged-column rounding differs from the one-pass Gram's
    # by at most this much; measured: 5.6e-17 (random12x300, split 2) and
    # 5.7e-18 (two_onb8, split 13 and 14, on a rounding-noise mu_b of 8e-17)
    BLOCK_ROUNDING = np.finfo(float).eps

    @staticmethod
    def _check_against_the_dense_gram(stats, whole, gram, split):
        """``stats`` equal the one-tile pass and the maxima of the dense ``gram``."""
        a, b = gram[:split, :split], gram[split:, split:]
        assert stats == whole, split
        assert stats.mu == float(gram.max()), split
        assert stats.mu_a == (float(a.max()) if a.size else 0.0), split
        assert stats.mu_b == (float(b.max()) if b.size else 0.0), split

    @pytest.mark.parametrize("cols", _TILE_COLS)
    @pytest.mark.parametrize("rows", _TILE_ROWS)
    @pytest.mark.parametrize("name", sorted(_GRAM_CASES))
    def test_tiles_straddling_the_split_match_the_dense_reference(
        self, monkeypatch, name, rows, cols
    ):
        D = _GRAM_CASES[name]()
        gram = _dense_gram(D.matrix)
        for split in _tile_edge_splits(D.N, rows, cols):
            Ds = PartitionedDictionary(D.matrix, split)
            whole = _analyze_in_one_tile(monkeypatch, Ds)
            stats = _analyze_in_tiles(monkeypatch, Ds, rows, cols)
            self._check_against_the_dense_gram(stats, whole, gram, split)
            mu_a, a_defined = _dense_block_coherence(Ds.A)
            mu_b, b_defined = _dense_block_coherence(Ds.B)
            assert (stats.mu_a_defined, stats.mu_b_defined) == (a_defined, b_defined)
            # BLAS rounds the ragged last columns of a product on their own,
            # and a block's own Gram ends in other columns than D's
            assert abs(stats.mu_a - mu_a) <= self.BLOCK_ROUNDING, split
            assert abs(stats.mu_b - mu_b) <= self.BLOCK_ROUNDING, split

    @pytest.mark.parametrize("rows", _TILE_ROWS)
    def test_column_tile_edges_of_a_wide_gram(self, monkeypatch, rows):
        # N = 64 * 33 + 1: two 1,024-column tiles and a ragged last one per band
        D = build_random_dictionary(3, 2113, seed=11)
        gram = _dense_gram(D.matrix)
        for split in _tile_edge_splits(D.N, rows, 1024):
            Ds = PartitionedDictionary(D.matrix, split)
            whole = _analyze_in_one_tile(monkeypatch, Ds)
            stats = _analyze_in_tiles(monkeypatch, Ds, rows, 1024)
            self._check_against_the_dense_gram(stats, whole, gram, split)

    @pytest.mark.parametrize("name", ["mub7", "mub13", "two_onb8"])
    def test_built_split_is_bit_identical_to_separate_block_grams(self, monkeypatch, name):
        D = _GRAM_CASES[name]()
        for rows, cols in ((2, 64), (3, 128), (7, 64), (D.N, 1024)):
            stats = _analyze_in_tiles(monkeypatch, D, rows, cols)
            assert stats.mu_a == _dense_block_coherence(D.A)[0]
            assert stats.mu_b == _dense_block_coherence(D.B)[0]

    @given(
        m=st.integers(1, 9),
        extra=st.integers(0, 1200),
        seed=st.integers(0, 10**6),
        split_share=st.floats(0, 1),
        rows=st.sampled_from(_TILE_ROWS),
        cols=st.sampled_from(_TILE_COLS),
    )
    @settings(max_examples=60, deadline=None)
    def test_tile_shape_changes_no_bit(self, m, extra, seed, split_share, rows, cols):
        D = build_random_dictionary(m, m + extra, seed=seed)
        split = round(split_share * D.N)
        Ds = PartitionedDictionary(D.matrix, split)
        with pytest.MonkeyPatch.context() as mp:
            whole = _analyze_in_one_tile(mp, Ds)
            stats = _analyze_in_tiles(mp, Ds, rows, cols)
        self._check_against_the_dense_gram(stats, whole, _dense_gram(D.matrix), split)
        assert stats.mu >= max(stats.mu_a, stats.mu_b)

    @pytest.mark.parametrize("rows", [2, 3])
    def test_rows_past_the_last_aligned_column_span_every_column(self, monkeypatch, rows):
        # the dense Gram's max is |G[69, 15]|, one ulp above |G[15, 69]|:
        # column 69 is one of the product's ragged last columns
        D = build_random_dictionary(3, 70, seed=22)
        gram = _dense_gram(D.matrix)
        assert gram[69, 15] == gram.max() > gram[15, 69]
        assert _analyze_in_tiles(monkeypatch, D, rows, 64).mu == gram.max()

    def test_coherence_reads_the_same_pass(self, monkeypatch, two_onb8):
        monkeypatch.setattr(dictionary, "_gram_tile", lambda: (3, 64))
        assert analyze(two_onb8).mu == float(_dense_gram(two_onb8.matrix).max())

    @pytest.mark.parametrize("budget, tile", [(2**14, (16, 64)), (2**16, (64, 64)),
                                              (2**17, (64, 128)), (2**20, (64, 1024)),
                                              (2**22, (64, 4096))])
    def test_tile_shape_comes_from_the_budget(self, monkeypatch, budget, tile):
        monkeypatch.setattr(dictionary, "GRAM_CHUNK_BYTES", budget)
        assert dictionary._gram_tile() == tile


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
        path = tmp_path_factory.mktemp("mub61") / "mub61.dict.npy"
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
    def _tile_bytes():
        # the product and modulus buffers of the largest tile: a band of at
        # most rows + 1 rows, a tile of fewer than cols + _GRAM_ALIGN columns
        rows, cols = dictionary._gram_tile()
        return 24 * (rows + 1) * (cols + dictionary._GRAM_ALIGN)

    @classmethod
    def _analyze_limit(cls, D):
        # one Gram tile and its modulus, a column span and its conjugate,
        # and three m x m frame operators: nothing that grows with N
        return cls._tile_bytes() + 2 * dictionary._BLOCK_BYTES + 3 * 16 * D.m * D.m

    @staticmethod
    def _load_limit(D):
        # the 3.5 MiB matrix, read into in place, and the column norms' spans
        return D.matrix.nbytes + 2 * dictionary._BLOCK_BYTES

    def test_analyze_mub61(self, mub61):
        assert self._traced_peak(analyze, mub61) <= self._analyze_limit(mub61)

    def test_analyze_random_256x4096(self):
        # a 16 MiB matrix: a full-size copy of it alone would break the limit
        D = build_random_dictionary(256, 4096, seed=3, split=1000)
        assert self._traced_peak(analyze, D) <= self._analyze_limit(D)

    def test_a_wide_gram_stays_within_one_tile(self, monkeypatch):
        # at 16 KiB a tile is 16 x 64 entries, where a band of two rows of
        # all 2,000 columns would take nearly three times the tile's buffers
        monkeypatch.setattr(dictionary, "GRAM_CHUNK_BYTES", 2**14)
        D = build_random_dictionary(4, 2000, seed=3, split=700)
        peak = self._traced_peak(dictionary._coherences, D.matrix, D.Na)
        # beside the tile: a band's 1 KiB adjoint, and a few KiB that
        # fill_diagonal and the views take whatever the tile's size
        assert peak <= self._tile_bytes() + 2**14

    def test_stats_mub61(self, mub61):
        # a fresh instance over the same matrix, so that its profile is measured
        fresh = dictionary._adopt(mub61.matrix, mub61.Na, norm_tol=None)
        assert self._traced_peak(lambda D: D.stats, fresh) <= self._analyze_limit(mub61)

    def test_load_mub61_within_the_matrix_and_two_blocks(self, mub61, mub61_file):
        assert self._traced_peak(load_dictionary, mub61_file) <= self._load_limit(mub61)

    @pytest.mark.parametrize("where", [0, -1], ids=["first", "last"])
    def test_a_non_finite_entry_is_refused_within_the_same_bound(
        self, mub61, mub61_file, tmp_path, where
    ):
        mat = mub61.matrix.copy()
        mat.reshape(-1)[where] = np.nan
        bad = tmp_path / "bad.dict.npy"
        bad.write_bytes(_npy(mat, np.int64(mub61.Na)))

        def refused(path):
            with pytest.raises(DictionaryFormatError, match="entries must be finite"):
                load_dictionary(path)

        del mat
        assert self._traced_peak(refused, bad) <= self._load_limit(mub61)

    def test_a_bad_header_is_refused_before_the_matrix_is_read(
        self, mub61, mub61_file, tmp_path, monkeypatch
    ):
        # a big-endian matrix: its header is read, none of its data
        raw = mub61_file.read_bytes()
        header = len(raw) - len(_npy(np.int64(0))) - mub61.matrix.nbytes
        bad = tmp_path / "bad.dict.npy"
        bad.write_bytes(raw.replace(b"'<c16'", b"'>c16'", 1))
        read = []

        class Recorded(io.FileIO):
            def read(self, size=-1):
                data = super().read(size)
                read.append(len(data))
                return data

            def readinto(self, buffer):
                read.append(super().readinto(buffer))
                return read[-1]

        monkeypatch.setattr(dictionary, "open", lambda path, mode: Recorded(path, mode),
                            raising=False)

        def refused(path):
            with pytest.raises(DictionaryFormatError, match="matrix is >c16"):
                load_dictionary(path)

        assert self._traced_peak(refused, bad) <= 2**16
        assert sum(read) == header

    def test_build_two_onb_1024_holds_no_second_matrix(self):
        # the 1024 x 2048 matrix takes 32 MiB; a full-size copy or temporary
        # would take 16 MiB or more beside it
        assert self._traced_peak(build_two_onb, 1024) <= 48 * 2**20

    def test_save_mub61_holds_no_copy_of_the_matrix(self, mub61, tmp_path):
        path = tmp_path / "mub61.dict.npy"
        assert self._traced_peak(save_dictionary, mub61, path) <= 2**16
        assert path.stat().st_size > mub61.matrix.nbytes


# ==============================
# save / load round trip
# ==============================


class TestSaveLoad:
    def test_round_trip_is_bit_exact(self, mub5, tmp_path):
        path = tmp_path / "d.dict.npy"
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
        first, second = tmp_path / "first.dict.npy", tmp_path / "second.dict.npy"
        save_dictionary(D, first)
        loaded = load_dictionary(first)
        save_dictionary(loaded, second)
        np.testing.assert_array_equal(loaded.matrix.view(np.uint64), D.matrix.view(np.uint64))
        assert second.read_bytes() == first.read_bytes()

    def test_round_trip_random(self, tmp_path):
        D = build_random_dictionary(6, 17, seed=4, split=5)
        path = tmp_path / "r.dict.npy"
        save_dictionary(D, path)
        loaded = load_dictionary(path)
        np.testing.assert_array_equal(loaded.matrix, D.matrix)
        assert analyze(loaded) == analyze(D)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_mub(7),
            lambda: build_two_onb(8),
            lambda: build_random_dictionary(5, 23, seed=9, split=7),
        ],
        ids=["mub7", "two_onb8", "random5x23"],
    )
    def test_file_is_the_matrix_then_na_as_npy_arrays(self, build, tmp_path):
        D = build()
        path = tmp_path / "d.dict.npy"
        save_dictionary(D, path)
        assert path.read_bytes() == _npy(D.matrix, np.int64(D.Na))
        assert not list(tmp_path.glob("*.tmp*"))

    def test_np_load_reads_the_matrix_then_na(self, mub5, tmp_path):
        path = tmp_path / "d.dict.npy"
        save_dictionary(mub5, path)
        assert np.load(path).tobytes() == mub5.matrix.tobytes()
        with open(path, "rb") as fh:
            matrix, na = np.load(fh), np.load(fh)
        assert matrix.dtype == np.dtype("<c16") and matrix.tobytes() == mub5.matrix.tobytes()
        assert na.dtype == np.dtype("<i8") and na.shape == () and na == mub5.Na

    def test_format_version_2_loads(self, mub5, tmp_path):
        path = tmp_path / "d.dict.npy"
        path.write_bytes(_npy(mub5.matrix, np.int64(mub5.Na), version=(2, 0)))
        assert load_dictionary(path).matrix.tobytes() == mub5.matrix.tobytes()

    def test_a_write_that_fails_midway_leaves_no_file(self, mub3, tmp_path, monkeypatch):
        # the disk fills (or the file size limit is hit) after the matrix
        write_array = np.lib.format.write_array
        written = []

        def matrix_then_full(fh, array, **kwargs):
            if written:
                raise OSError(27, "File too large")
            written.append(write_array(fh, array, **kwargs))

        monkeypatch.setattr(np.lib.format, "write_array", matrix_then_full)
        with pytest.raises(OSError, match="File too large"):
            save_dictionary(mub3, tmp_path / "d.dict.npy")
        assert written and list(tmp_path.iterdir()) == []

    def _write(self, tmp_path, entries, na=1):
        """A 2 x 2 dictionary file of row-major ``entries`` and split ``na``."""
        path = tmp_path / "d.dict.npy"
        path.write_bytes(_npy(np.array(entries, dtype=complex).reshape(2, 2), np.int64(na)))
        return path

    def test_rejects_non_unit_column_and_names_it(self, tmp_path):
        path = self._write(tmp_path, [1, 0, 0, 0.5])
        with pytest.raises(DictionaryFormatError, match="column 1"):
            load_dictionary(path)

    def test_renormalize_recovers_scaled_columns(self, tmp_path):
        path = self._write(tmp_path, [1, 0, 0, 0.5])
        loaded = load_dictionary(path, renormalize=True)
        np.testing.assert_allclose(loaded.matrix, np.eye(2), atol=TOL)

    def test_renormalize_rejects_zero_column(self, tmp_path):
        path = self._write(tmp_path, [1, 0, 0, 0])
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
        path = self._write(tmp_path, [1, column_1[0], 0, column_1[1]])
        with np.errstate(all="raise"):
            loaded = load_dictionary(path, renormalize=True)
        np.testing.assert_allclose(loaded.matrix[:, 1], expected, rtol=1e-15, atol=1e-300)
        assert loaded.matrix[:, 0].tolist() == [1, 0]

    def test_renormalize_keeps_the_bytes_of_columns_it_can_measure_plainly(self, tmp_path):
        D = build_random_dictionary(5, 23, seed=9, split=7)
        path = tmp_path / "d.dict.npy"
        scaled = 3.0 * D.matrix
        path.write_bytes(_npy(scaled, np.int64(D.split)))
        expected = scaled / np.linalg.norm(scaled, axis=0)
        assert load_dictionary(path, renormalize=True).matrix.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("entries, message", [
        ([1, 0, 0, 0], "column 1 is zero"),
        ([1, 0, 0, np.inf], "entries must be finite"),
    ])
    def test_renormalize_refusals_name_the_file(self, tmp_path, entries, message):
        path = self._write(tmp_path, entries)
        with pytest.raises(DictionaryFormatError, match=message) as refused:
            load_dictionary(path, renormalize=True)
        assert str(refused.value).startswith(f"{path}: ")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DictionaryFormatError, match="cannot read"):
            load_dictionary(tmp_path / "absent.dict.npy")


# ==============================
# the file format's refusals
# ==============================

_EYE2 = np.eye(2, dtype=complex)
_GOOD = _npy(_EYE2, np.int64(1))
_MATRIX_END = len(_npy(_EYE2))  # its header and 64 bytes
_LEGACY_JSON = b'{\n "m": 1,\n "N": 1,\n "Na": 0,\n "entries": [\n  [1.0, 0.0]\n ]\n}\n'
_NA = np.int64(1)

# case -> (file bytes, what the refusal says)
_REFUSALS = {
    "empty": (b"", "is not a .npy dictionary: matrix: EOF"),
    "bad-magic": (b"\x93NUMPX" + _GOOD[6:], "magic string is not correct"),
    "legacy-json": (_LEGACY_JSON, "is not a .npy dictionary: .*got b'{\\\\n \"m\"'"),
    "version-3": (_npy(_EYE2, _NA, version=(3, 0)), "format version 3.0, expected 1.0 or 2.0"),
    "object": (_npy(np.eye(2).astype(object), _NA), r"matrix is \|O, expected <c16"),
    "c8": (_npy(_EYE2.astype("<c8"), _NA),
           r"matrix is <c8, expected <c16; convert it with \.astype\(complex\)"),
    "big-endian": (_npy(_EYE2.astype(">c16"), _NA), r"matrix is >c16, expected <c16"),
    "f8": (_npy(np.eye(2), _NA), r"matrix is <f8, expected <c16; convert it with \.astype"),
    "fortran": (_npy(np.asfortranarray(np.eye(2, 3, dtype=complex)), _NA),
                "matrix is in Fortran order"),
    "ndim-1": (_npy(np.ones(2, dtype=complex), _NA), r"matrix has shape \(2,\), expected 2-d"),
    "ndim-3": (_npy(np.ones((1, 1, 1), dtype=complex), _NA), "expected 2-d"),
    "n-below-m": (_npy(np.ones((3, 2), dtype=complex), _NA), "need N >= m >= 1, got m=3, N=2"),
    "past-the-address-space": (_header("<c16", (2**31, 2**31)),
                               "a 2147483648 x 2147483648 matrix does not fit in memory"),
    "truncated-matrix": (_GOOD[:_MATRIX_END - 24], "the file ends after 40 of the 64 bytes of matrix"),
    "missing-na": (_GOOD[:_MATRIX_END], "is not a .npy dictionary: Na: EOF"),
    "na-float": (_npy(_EYE2, np.float64(1)), "Na is <f8, expected <i8$"),
    "na-int32": (_npy(_EYE2, np.int32(1)), "Na is <i4, expected <i8$"),
    "na-not-0-d": (_npy(_EYE2, np.array([1])), r"Na has shape \(1,\), expected 0-d"),
    "truncated-na": (_GOOD[:-1], "the file ends after 7 of the 8 bytes of Na"),
    "na-negative": (_npy(_EYE2, np.int64(-1)), r"Na=-1 outside \[0, N=2\]"),
    "na-past-n": (_npy(_EYE2, np.int64(3)), r"Na=3 outside \[0, N=2\]"),
    "trailing-bytes": (_GOOD + b"\0", "the file goes on after Na"),
    "non-finite": (_npy(np.array([[1, 0], [0, np.nan]], dtype=complex), _NA),
                   "matrix entries must be finite"),
    "zero-column": (_npy(np.array([[1, 0], [0, 0]], dtype=complex), _NA), "column 1 is zero"),
    "magic-only": (_GOOD[:8], "is not a .npy dictionary: matrix: EOF: reading array header length"),
    "truncated-header": (_GOOD[:20], "is not a .npy dictionary: matrix: EOF: reading array header"),
    "version-1-1": (b"\x93NUMPY\x01\x01" + _GOOD[8:], "format version 1.1, expected 1.0 or 2.0"),
    "header-not-a-dict": (_raw_header(b"[1, 2]\n"), "matrix: Header is not a dictionary"),
    "header-missing-shape": (_raw_header(b"{'descr': '<c16', 'fortran_order': False}\n"),
                             "matrix: Header does not contain the correct keys"),
    "header-not-python": (_raw_header(b"{'descr': \n"), "is not a .npy dictionary: matrix: "),
    "shape-of-bools": (_header("<c16", (True, 2)), r"matrix has shape \(True, 2\), expected 2-d"),
    "m-zero": (_header("<c16", (0, 2)), "need N >= m >= 1, got m=0, N=2"),
    "m-negative": (_header("<c16", (-1, 2)), "need N >= m >= 1, got m=-1, N=2"),
    "past-the-memory": (_header("<c16", (2**20, 2**30)),
                        "a 1048576 x 1073741824 matrix does not fit in memory"),
    "i8": (_npy(np.eye(2, dtype="<i8"), _NA),
           r"matrix is <i8, expected <c16; convert it with \.astype\(complex\)"),
    "structured": (_npy(np.zeros((2, 2), dtype=[("re", "<f8"), ("im", "<f8")]), _NA),
                   r"matrix is \|V16, expected <c16"),
    "na-unsigned": (_npy(_EYE2, np.uint64(1)), "Na is <u8, expected <i8$"),
    "na-bool": (_npy(_EYE2, np.bool_(True)), r"Na is \|b1, expected <i8$"),
    "na-big-endian": (_npy(_EYE2, np.array(1, dtype=">i8")), "Na is >i8, expected <i8$"),
    "na-object": (_npy(_EYE2, np.array(1, dtype=object)), r"Na is \|O, expected <i8$"),
    "na-fortran": (_GOOD[:_MATRIX_END] + _header("<i8", (), fortran_order=True) + bytes(8),
                   "Na is in Fortran order"),
    "na-bad-magic": (_GOOD[:_MATRIX_END] + b"\x93NUMPX" + _GOOD[_MATRIX_END + 6:],
                     "is not a .npy dictionary: Na: .*magic string is not correct"),
    "na-version-3": (_npy(_EYE2) + _npy(_NA, version=(3, 0)),
                     "Na: format version 3.0, expected 1.0 or 2.0"),
    "truncated-na-header": (_GOOD[:_MATRIX_END + 12], "is not a .npy dictionary: Na: EOF"),
    "third-array": (_GOOD + _npy(_NA), "the file goes on after Na"),
    "inf-imaginary": (_npy(np.array([[1, 0], [complex(0, np.inf), 1]]), _NA),
                      "matrix entries must be finite"),
    "zero-first-column": (_npy(np.array([[0, 1], [0, 0]], dtype=complex), _NA),
                          "column 0 is zero"),
}


class TestFileFormat:
    @pytest.mark.parametrize("case", _REFUSALS)
    def test_refuses(self, tmp_path, case, monkeypatch):
        raw, message = _REFUSALS[case]
        path = tmp_path / "d.dict.npy"
        path.write_bytes(raw)
        # an object array's bytes are a pickle: none of them is ever read as one
        monkeypatch.setattr(pickle, "load", mock.Mock(side_effect=AssertionError))
        monkeypatch.setattr(pickle, "loads", mock.Mock(side_effect=AssertionError))
        for renormalize in (False, True):
            with pytest.raises(DictionaryFormatError, match=message) as refused:
                load_dictionary(path, renormalize=renormalize)
            assert str(refused.value).startswith(str(path))

    @pytest.mark.parametrize("case", _REFUSALS)
    def test_the_cli_exits_2_with_one_line_and_no_traceback(self, tmp_path, case, capsys):
        path = tmp_path / "d.dict.npy"
        path.write_bytes(_REFUSALS[case][0])
        assert main(["analyze", "--dict", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_the_good_base_loads(self, tmp_path):
        path = tmp_path / "d.dict.npy"
        path.write_bytes(_GOOD)
        assert load_dictionary(path).matrix.tobytes() == _EYE2.tobytes()

    @staticmethod
    def _short_reads(monkeypatch, most: int, log: list):
        """Open dictionary files so that each read returns at most ``most``
        bytes, as a pipe may, and any seek or tell fails."""

        class Short(io.FileIO):
            def read(self, size=-1):
                data = super().read(most if size < 0 else min(size, most))
                log.append(len(data))
                return data

            def readinto(self, buffer):
                log.append(super().readinto(memoryview(buffer)[:most]))
                return log[-1]

            def seekable(self):
                return False

            def seek(self, *args):
                raise AssertionError("the reader seeks")

            def tell(self):
                raise AssertionError("the reader tells")

        monkeypatch.setattr(dictionary, "open", lambda path, mode: Short(path, mode),
                            raising=False)

    @pytest.mark.parametrize("most", [1, 7, 4096])
    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_mub(7),
            lambda: build_two_onb(8),
            lambda: build_random_dictionary(5, 23, seed=9, split=7),
        ],
        ids=["mub7", "two_onb8", "random5x23"],
    )
    def test_short_reads_load_bit_exact(self, tmp_path, monkeypatch, build, most):
        D = build()
        path = tmp_path / "d.dict.npy"
        save_dictionary(D, path)
        log = []
        self._short_reads(monkeypatch, most, log)
        loaded = load_dictionary(path)
        assert loaded.matrix.tobytes() == D.matrix.tobytes() and loaded.Na == D.Na
        assert sum(log) == path.stat().st_size and max(log) <= most

    @pytest.mark.parametrize("cut", [None, -3], ids=["good", "truncated"])
    def test_the_file_is_never_asked_to_seek(self, tmp_path, monkeypatch, cut):
        path = tmp_path / "d.dict.npy"
        path.write_bytes(_GOOD[:cut])
        self._short_reads(monkeypatch, 5, [])
        if cut is None:
            assert load_dictionary(path).matrix.tobytes() == _EYE2.tobytes()
        else:
            with pytest.raises(DictionaryFormatError, match="ends after 5 of the 8 bytes of Na"):
                load_dictionary(path)

    @pytest.fixture(scope="class")
    def mub5_file(self, mub5, tmp_path_factory):
        path = tmp_path_factory.mktemp("mub5") / "mub5.dict.npy"
        save_dictionary(mub5, path)
        return path

    @staticmethod
    def _loads_or_is_refused(raw: bytes, where: Path) -> bool:
        """Whether ``raw`` loads; a refusal other than DictionaryFormatError fails."""
        where.write_bytes(raw)
        try:
            with np.errstate(all="ignore"):
                load_dictionary(where)
        except DictionaryFormatError:
            return False
        return True

    def test_every_prefix_is_refused(self, mub5_file, tmp_path):
        raw = mub5_file.read_bytes()
        where = tmp_path / "prefix.dict.npy"
        assert not any(self._loads_or_is_refused(raw[:k], where) for k in range(len(raw)))

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_any_single_byte_change_loads_or_is_refused(self, mub5, mub5_file, data):
        # a position in one of the two headers comes up two times in three
        raw = bytearray(mub5_file.read_bytes())
        na_header = len(raw) - len(_npy(np.int64(0)))
        matrix_header = na_header - mub5.matrix.nbytes
        at = data.draw(st.one_of(st.integers(0, matrix_header - 1),
                                 st.integers(na_header, len(raw) - 9),
                                 st.integers(0, len(raw) - 1)))
        raw[at] = data.draw(st.integers(0, 255).filter(lambda b: b != raw[at]))
        with tempfile.TemporaryDirectory() as tmp:
            self._loads_or_is_refused(bytes(raw), Path(tmp) / "changed.dict.npy")

    @pytest.mark.parametrize("cut", [None, 1000], ids=["good", "truncated"])
    def test_a_pipe_reads_as_a_file(self, tmp_path, cut):
        D = build_mub(7)
        raw = _npy(D.matrix, np.int64(D.Na))[:cut]
        fifo = tmp_path / "d.dict.npy"
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
            if cut is None:
                assert load_dictionary(fifo).matrix.tobytes() == D.matrix.tobytes()
            else:
                with pytest.raises(DictionaryFormatError, match=r"ends after \d+ of the 6272 bytes"):
                    load_dictionary(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
