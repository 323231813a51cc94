"""Tests for partitioned dictionaries, coherence statistics, and file I/O."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsethresh import dictionary
from sparsethresh import (
    DictionaryFormatError,
    PartitionedDictionary,
    analyze,
    build_mub,
    build_random_dictionary,
    build_two_onb,
    coherence,
    cross_coherence,
    load_dictionary,
    save_dictionary,
    spectral_norm,
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


def _unit(v):
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


# ==============================
# coherence and related measures
# ==============================


class TestCoherence:
    def test_orthonormal_columns_have_zero_coherence(self):
        assert coherence(np.eye(4)) == 0.0

    def test_known_pair(self):
        D = np.column_stack([_unit([1, 0]), _unit([1, 1])])
        assert abs(coherence(D) - INV_SQRT2) <= TOL

    def test_mub_value(self, mub3):
        assert abs(coherence(mub3.matrix) - INV_SQRT3) <= TOL

    def test_single_column_rejected(self):
        with pytest.raises(ValueError, match="two columns"):
            coherence(np.ones((3, 1)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            coherence(np.zeros((3, 0)))


class TestCrossCoherence:
    def test_identical_blocks(self):
        A = np.eye(3)
        assert abs(cross_coherence(A, A) - 1.0) <= TOL

    def test_orthogonal_blocks(self):
        A = np.eye(4)[:, :2]
        B = np.eye(4)[:, 2:]
        assert cross_coherence(A, B) == 0.0

    def test_empty_block_gives_zero(self):
        A = np.eye(3)
        assert cross_coherence(A, np.zeros((3, 0))) == 0.0

    def test_mub_blocks(self, mub5):
        val = cross_coherence(mub5.A, mub5.B)
        assert abs(val - 1.0 / math.sqrt(5.0)) <= TOL

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError, match="row"):
            cross_coherence(np.eye(3), np.eye(4))


class TestSpectralNorm:
    def test_identity(self):
        assert abs(spectral_norm(np.eye(5)) - 1.0) <= TOL

    def test_rank_one(self):
        assert abs(spectral_norm(np.ones((2, 2))) - 2.0) <= TOL

    def test_empty_block(self):
        assert spectral_norm(np.zeros((4, 0))) == 0.0

    def test_mub_full_matrix(self, mub5):
        assert abs(spectral_norm(mub5.matrix) - SQRT6) <= TOL


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

    def test_rejects_undercomplete_matrix(self):
        with pytest.raises(ValueError):
            PartitionedDictionary(np.eye(4)[:, :2], 1)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            PartitionedDictionary(np.ones(4), 0)


class TestTwoOnb:
    def test_shape_and_split(self, two_onb4):
        assert two_onb4.m == 4
        assert two_onb4.N == 8
        assert two_onb4.Na == 4

    def test_coherence_is_inverse_root_m(self, two_onb8):
        assert abs(coherence(two_onb8.matrix) - 1.0 / math.sqrt(8.0)) <= TOL

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
        assert abs(coherence(D.matrix) - 1.0 / math.sqrt(p)) <= TOL

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
        assert coherence(D.matrix) >= welch_bound(m, N) - TOL


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

    def test_tight_frame_deviations(self, mub7_stats):
        # blocks are 7x7 and 7x49 tight frames, so both deviations vanish
        assert mub7_stats.tight_dev_a <= 1e-10
        assert mub7_stats.tight_dev_b <= 1e-10

    def test_welch_matches_direct_call(self, mub7_stats):
        assert mub7_stats.welch == welch_bound(7, 56)

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
        assert coherence(two_onb8.matrix) == float(_dense_gram(two_onb8.matrix).max())


class TestBoundedMemory:
    # the dense N x N Gram of mub61 and its modulus alone take 343 MB
    LIMIT = 64 * 2**20

    @pytest.fixture(scope="class")
    def mub61(self):
        return build_mub(61)

    @staticmethod
    def _traced_peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_analyze_mub61(self, mub61):
        assert self._traced_peak(analyze, mub61) <= self.LIMIT

    def test_coherence_mub61(self, mub61):
        assert self._traced_peak(coherence, mub61.matrix) <= self.LIMIT

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
