"""Tests for the hollow Gram chain, the tail's block terms, and Monte Carlo experiments."""

import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    sample_instance,
    sample_support_b,
)
from sparsethresh import concentration
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


def _stats(mu=0.0, mu_a=0.0, mu_b=0.0, spec_a=1.0, spec_b=1.0) -> DictionaryStats:
    return DictionaryStats(
        mu=mu, mu_a=mu_a, mu_b=mu_b, spec_a=spec_a, spec_b=spec_b,
        spec_d=spec_a + spec_b, welch=0.0, tight_dev_a=0.0, tight_dev_b=0.0,
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


def _per_trial_supports(D, support_a, n_b, master_seed, lo, hi):
    """``draw_supports`` as a loop over the instances ``sample_instance`` draws
    on each trial's own stream, the exact stream ``recover`` reads.  The A-row
    is a fixed support in its given order, or the sorted A-part of the
    instance's support for ``random-baseline``."""
    n_a = support_a if isinstance(support_a, int) else len(support_a)
    cols_a = np.empty((hi - lo, n_a), dtype=np.intp)
    cols_b = np.empty((hi - lo, n_b), dtype=np.intp)
    for row, t in enumerate(range(lo, hi)):
        x, _ = sample_instance(D, support_a, n_b, derive_rng(master_seed, t))
        support = np.flatnonzero(x)
        cols_a[row] = support[:n_a] if isinstance(support_a, int) else support_a
        cols_b[row] = support[n_a:] - D.Na
    return cols_a, cols_b


def _chain(D, cols_a, cols_b, stats=None) -> HollowGramRecord:
    """``chain_batch`` of the one draw (cols_a, cols_b)."""
    return chain_batch(D, stats or analyze(D), [cols_a], [cols_b])


def _broken(rec: HollowGramRecord, t: int = 0, slack: float = concentration.CHAIN_SLACK):
    """Names of the inequalities that draw t of ``rec`` breaks."""
    return [name for name, mask in rec.breaks(slack).items() if mask[t]]


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
        # every quantity equals the reference built on np.hstack([A[:, ca], B[:, cb]])
        rec = _chain(mub3, (0, 2), (1, 5, 7))
        measured = [float(getattr(rec, f)[0]) for f in (
            "sigma_min", "xi_s", "xi_a", "xi_b", "xi_x", "row_norm_ab"
        )]
        assert measured == list(_reference_chain(mub3, (0, 2), (1, 5, 7)))

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
            chain_batch(mub3, analyze(mub3), [(0, 1), (2, 2)], [(1,), (2,)])

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

    def test_mub_draws_never_violate_the_chain(self, mub7, mub7_stats):
        rng = derive_rng(7)
        for _ in range(100):
            cols_a = sample_support_b(7, 2, rng)
            cols_b = sample_support_b(49, 3, rng)
            rec = _chain(mub7, cols_a, cols_b, mub7_stats)
            assert _broken(rec) == []
            assert rec.xi_a[0] == 0.0            # identity sub-blocks are exact

    def test_violation_reporting(self):
        # fabricated record breaking the first chain inequality only
        rec = HollowGramRecord(
            sigma_min=np.array([0.1]), xi_s=np.array([0.2]), xi_a=np.array([0.05]),
            xi_b=np.array([0.05]), xi_x=np.array([0.15]), row_norm_ab=np.zeros(1),
            gersgorin_rhs=1.0, row_norm_bound=1.0, cross_bound=1.0,
        )
        assert _broken(rec) == ["sigma_min^2 >= 1 - xi_s"]

    def test_slack_silences_small_breaches(self):
        rec = HollowGramRecord(
            sigma_min=np.ones(1), xi_s=np.array([0.5]), xi_a=np.array([0.5 - 1e-12]),
            xi_b=np.zeros(1), xi_x=np.zeros(1), row_norm_ab=np.zeros(1),
            gersgorin_rhs=1.0, row_norm_bound=1.0, cross_bound=1.0,
        )
        assert _broken(rec) == []
        assert _broken(rec, slack=1e-15) != []


class TestChainBatch:
    @pytest.mark.parametrize("strategy", SUPPORT_A_STRATEGIES)
    @pytest.mark.parametrize("n_a, n_b", CHAIN_SHAPES)
    @pytest.mark.parametrize("dict_name", ["mub7", "mub13"])
    def test_matches_the_per_draw_reference_bit_for_bit(
        self, request, dict_name, n_a, n_b, strategy
    ):
        D = request.getfixturevalue(dict_name)
        support_a = choose_support_a(strategy, D.Na, n_a, _support_a(D, strategy, n_a))
        cols_a, cols_b = draw_supports(D, support_a, n_b, 5, 0, 60)
        rec = chain_batch(D, analyze(D), cols_a, cols_b)
        expected = np.array([_reference_chain(D, a, b) for a, b in zip(cols_a, cols_b)])
        measured = np.column_stack(
            [rec.sigma_min, rec.xi_s, rec.xi_a, rec.xi_b, rec.xi_x, rec.row_norm_ab]
        )
        np.testing.assert_array_equal(measured, expected)

    def test_supports_follow_the_per_trial_streams(self, mub7):
        support_a = choose_support_a("random-baseline", mub7.Na, 2)
        cols_a, cols_b = draw_supports(mub7, support_a, 3, 4, 10, 13)
        for row, t in enumerate(range(10, 13)):
            rng = derive_rng(4, t)
            assert tuple(cols_a[row]) == sample_support_b(7, 2, rng)
            assert tuple(cols_b[row]) == sample_support_b(49, 3, rng)

    @pytest.mark.parametrize("lo, hi", [(0, 255), (0, 256), (0, 257), (255, 512), (257, 259)])
    @pytest.mark.parametrize("strategy", SWEEP_STRATEGIES)
    @pytest.mark.parametrize("dict_name", ["mub7", "two_onb8"])
    def test_block_draws_are_the_per_trial_draws(self, request, dict_name, strategy, lo, hi):
        D = request.getfixturevalue(dict_name)
        support_a = choose_support_a(strategy, D.Na, 3)
        for seed in (41, 2**32 + 41):  # a seed of one word and of two
            ours = draw_supports(D, support_a, 4, seed, lo, hi)
            theirs = _per_trial_supports(D, support_a, 4, seed, lo, hi)
            for cols, expected in zip(ours, theirs):
                assert cols.tolist() == expected.tolist()

    @pytest.mark.parametrize("strategy", SUPPORT_A_STRATEGIES)
    def test_block_draws_build_no_generator(self, mub7, strategy, monkeypatch):
        # the A-then-B draws of random-baseline and the fixed A-supports
        support_a = choose_support_a(strategy, mub7.Na, 2, _support_a(mub7, strategy, 2))
        theirs = _per_trial_supports(mub7, support_a, 3, 2**32, 0, 40)

        def refuse(*args, **kwargs):
            raise AssertionError("a numpy generator was built")

        for name in ("SeedSequence", "PCG64", "Generator"):
            monkeypatch.setattr(np.random, name, refuse)
        ours = draw_supports(mub7, support_a, 3, 2**32, 0, 40)
        for cols, expected in zip(ours, theirs):
            assert cols.tolist() == expected.tolist()

    def test_block_draws_match_a_frozen_digest(self, mub7):
        # frozen from the per-trial loop, as little-endian int64: a numpy change
        # that moved both paths together would show here
        support_a = choose_support_a("random-baseline", mub7.Na, 2)
        digest = hashlib.sha256()
        for cols in draw_supports(mub7, support_a, 3, 12345, 256, 512):
            digest.update(np.ascontiguousarray(cols, dtype="<i8").tobytes())
        assert digest.hexdigest() == (
            "566749a30422c0b15d47c7817930d79104d8cddb2bff6ed1a21e71f1e68267f9"
        )

    def test_one_draw_is_a_batch_of_one(self, mub7, mub7_stats):
        # a draw measured alone equals the same draw inside a larger batch
        alone = _chain(mub7, (3, 0), (5, 9, 40), mub7_stats)
        batch = chain_batch(
            mub7, mub7_stats, [(1, 2), (3, 0), (6, 4)], [(0, 1, 2), (5, 9, 40), (48, 7, 3)]
        )
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
            chain_batch(mub3, analyze(mub3), np.empty((4, 0), int), np.empty((4, 0), int))

    @pytest.mark.parametrize("dict_name", ["mub7", "mub13", "two_onb8"])
    def test_permuting_columns_inside_a_block_permutes_nothing_measured(
        self, request, dict_name
    ):
        # relabel the columns of A and of B; the same draws, read through the
        # inverse permutations, must measure bit for bit the same
        D = request.getfixturevalue(dict_name)
        stats = analyze(D)
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
                cols_a, cols_b = draw_supports(D, support_a, n_b, 6, 0, 40)
                rec = chain_batch(D, stats, cols_a, cols_b)
                moved = chain_batch(permuted, stats, inv_a[cols_a], inv_b[cols_b])
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
        slope, frame, cross = block_b_terms(0.0, math.sqrt(5.0), math.sqrt(5.0), 5, 25)
        assert slope == 0.0
        assert abs(frame + cross - BETA_EXAMPLE) <= TOL

    def test_reference_block_a(self):
        slope, gersgorin = block_a_terms(0.2, 0.15, 2)
        assert abs(slope - 3.0 * math.sqrt(0.04 * 2 / 2.0)) <= TOL
        assert abs(gersgorin - 0.15) <= TOL

    def test_empty_budget_b_has_no_terms(self):
        assert block_b_terms(0.2, 1.0, 1.0, 0, 50) == (0.0, 0.0, 0.0)

    def test_reference_u(self):
        assert abs(default_u(2.0, 10) - U_S2_N10) <= TOL

    def test_threshold_is_half_the_condition_lhs_sum(self):
        # (slope_a + slope_b) u + gersgorin + frame + cross at u = sqrt(4 s log N)
        # equals (lhs3 + lhs4) / 2
        rng = np.random.default_rng(29)
        for _ in range(50):
            stats = _stats(
                mu=float(rng.uniform(0.0, 0.5)),
                mu_a=float(rng.uniform(0.0, 0.5)),
                mu_b=float(rng.uniform(0.0, 0.5)),
                spec_a=float(rng.uniform(0.1, 2.0)),
                spec_b=float(rng.uniform(0.1, 2.0)),
            )
            N = int(rng.integers(5, 3000))
            Nb = int(rng.integers(1, N))
            s = float(rng.uniform(1.0, 3.0))
            n_a = int(rng.integers(0, 30))
            n_b = int(rng.integers(0, 30))
            params = TheoremParams(s=s, gamma=0.5, n_a=n_a, n_b=n_b)
            report = evaluate_conditions(stats, N, Nb, params)
            lhs_sum = report.get("eq3").lhs + report.get("eq4").lhs
            slope_a, gersgorin = block_a_terms(stats.mu, stats.mu_a, n_a)
            slope_b, frame, cross = block_b_terms(
                stats.mu_b, stats.spec_a, stats.spec_b, n_b, Nb
            )
            u = default_u(s, N)
            expected = 2.0 * ((slope_a + slope_b) * u + gersgorin + frame + cross)
            assert abs(lhs_sum - expected) <= 1e-12 * max(1.0, expected)


# ==============================
# sigma_min Monte Carlo
# ==============================


class TestRunSminTrials:
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

    def test_deterministic_rerun(self, mub5):
        a = run_smin_trials(mub5, "spread", 2, 3, trials=120, master_seed=11)
        b = run_smin_trials(mub5, "spread", 2, 3, trials=120, master_seed=11)
        for field in ("sigma_min", "xi_s", "xi_a", "xi_b", "xi_x"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
        assert a.summary_dict() == b.summary_dict()

    @pytest.mark.parametrize("strategy", SUPPORT_A_STRATEGIES)
    def test_workers_do_not_change_the_stream(self, mub5, strategy):
        support_a = (4, 1) if strategy == "prescribed" else None
        kwargs = dict(trials=80, master_seed=2, support_a=support_a)
        serial = run_smin_trials(mub5, strategy, 2, 3, **kwargs)
        parallel = run_smin_trials(mub5, strategy, 2, 3, workers=2, **kwargs)
        for field in ("sigma_min", "xi_s", "xi_a", "xi_b", "xi_x"):
            np.testing.assert_array_equal(getattr(serial, field), getattr(parallel, field))
        assert serial.summary_dict() == parallel.summary_dict()

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
        stats = analyze(mub7)
        shrunk = dataclasses.replace(stats, spec_a=0.8, spec_b=1.0)
        monkeypatch.setattr(concentration, "analyze", lambda D: shrunk)
        res = run_smin_trials(mub7, "first-n", 2, 3, trials=300, master_seed=1)
        summary = res.summary_dict()
        by_name = summary["violations_by_inequality"]
        assert list(by_name) == list(_chain(mub7, (0,), (0,), stats).breaks())
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
         (-1, 2, "budgets")],
    )
    def test_bad_budgets_fail_before_any_work(
        self, mub5, monkeypatch, strategy, n_a, n_b, message
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the budgets were checked")

        monkeypatch.setattr(concentration, "analyze", no_work)
        monkeypatch.setattr(concentration, "fan_out", no_work)
        with pytest.raises(ValueError, match=message):
            run_smin_trials(mub5, strategy, n_a, n_b, trials=10)

    @pytest.mark.parametrize(
        "D, kwargs, message",
        [
            (None, {"s": 0.5}, "s must be a finite number >= 1"),
            (None, {"s": math.nan}, "s must be a finite number >= 1"),
            (None, {"workers": 0}, "workers must be >= 1"),
            (PartitionedDictionary(np.eye(2), 1), {}, "N > 2"),
            (None, {"master_seed": -1}, "master_seed must be a nonnegative integer"),
        ],
        ids=["s-below-1", "s-nan", "no-workers", "N-2", "negative-seed"],
    )
    def test_bad_settings_fail_before_any_work(self, mub5, monkeypatch, D, kwargs, message):
        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the settings were checked")

        for name in ("_per_trial", "analyze", "fan_out"):
            monkeypatch.setattr(concentration, name, no_work)
        with pytest.raises(ValueError, match=message):
            run_smin_trials(D or mub5, "first-n", 1, 1, trials=10, **kwargs)

    def test_random_baseline_with_support_a_fails_before_any_work(self, mub5, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the A-support was checked")

        monkeypatch.setattr(concentration, "analyze", no_work)
        monkeypatch.setattr(concentration, "fan_out", no_work)
        with pytest.raises(ValueError, match="apply only to the prescribed strategy"):
            run_smin_trials(mub5, "random-baseline", 1, 1, trials=10, support_a=[2])


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
        assert default_u(s, N) ** 2 >= moment_floor_x(n_b) >= moment_floor_b(n_b)


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

    def test_deterministic_rerun(self, mub5):
        a = estimate_moment(mub5, 1, 4, q=7.2, trials=1000, master_seed=6)
        b = estimate_moment(mub5, 1, 4, q=7.2, trials=1000, master_seed=6)
        np.testing.assert_array_equal(a.xi_b, b.xi_b)
        assert a.upper95_b == b.upper95_b
        assert a.summary_dict() == b.summary_dict()

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
        slope_a, _ = block_a_terms(stats.mu, stats.mu_a, n_a)
        slope_b, frame, cross = block_b_terms(
            stats.mu_b, stats.spec_a, stats.spec_b, n_b, mub5.Nb
        )
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
    def test_matches_the_per_draw_reference_bit_for_bit(self, request, dict_name, n_a, n_b):
        D = request.getfixturevalue(dict_name)
        est = estimate_moment(
            D, n_a, n_b, q=9.0, trials=1000, master_seed=3, strategy="spread", n_boot=1
        )
        cols_a = tuple(i * D.Na // n_a for i in range(n_a))
        expected = np.array([
            _reference_chain(D, cols_a, sample_support_b(D.Nb, n_b, derive_rng(3, t)))[3:5]
            for t in range(1000)
        ])
        np.testing.assert_array_equal(np.column_stack([est.xi_b, est.xi_x]), expected)

    def test_rejects_an_empty_sub_dictionary(self, mub5):
        with pytest.raises(ValueError, match="empty sub-dictionary"):
            estimate_moment(mub5, 0, 0, q=8.0, trials=1000)

    def test_rejects_a_redrawn_a_support(self, mub5):
        with pytest.raises(ValueError, match="moments need a fixed A-support"):
            estimate_moment(mub5, 1, 4, q=8.0, trials=1000, strategy="random-baseline")

    def test_a_negative_seed_fails_before_any_work(self, mub5, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the seed was checked")

        for name in ("_per_trial", "analyze", "fan_out"):
            monkeypatch.setattr(concentration, name, no_work)
        with pytest.raises(ValueError, match="master_seed must be a nonnegative integer"):
            estimate_moment(mub5, 1, 4, q=8.0, trials=1000, master_seed=-1)


@pytest.mark.parametrize(
    "run",
    [
        lambda D: run_smin_trials(D, "first-n", 1, 1, trials=10**17),
        lambda D: estimate_moment(D, 1, 1, q=8.0, trials=10**17),
    ],
    ids=["smin", "moments"],
)
def test_an_impossible_trial_count_fails_before_any_work(mub5, monkeypatch, run):
    # the per-trial arrays (10^17 rows) exceed any address space
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the per-trial arrays were allocated")

    monkeypatch.setattr(concentration, "analyze", no_work)
    monkeypatch.setattr(concentration, "fan_out", no_work)
    with pytest.raises(ValueError, match="too many trials to hold one row each"):
        run(mub5)


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

        # Xi_B and Xi_X only: two stacked SVDs per block, not the chain's five
        assert run(1000 + self.EXTRA) - run(1000) <= 2 * -(-self.EXTRA // self.BLOCK)
