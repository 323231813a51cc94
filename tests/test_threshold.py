"""Tests for the closed-form conditions and the budget search."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsethresh import (
    GAMMA_GRID_DEFAULT,
    DictionaryStats,
    PartitionedDictionary,
    TheoremParams,
    analyze,
    classical_threshold,
    evaluate_conditions,
    max_sparsity_search,
    scaling_report,
)
from sparsethresh.threshold import first_feasible_gamma

# Hand-computed reference values, frozen.
QUARTER_DECAY = 0.7788007830714049
CLASSICAL_THIRD = 1.3660254037844386
EQ1_RHS_001_200 = 7.949693664243833
EQ3_LHS_MU001 = 0.18209125552621758
EQ3_LHS_MU01 = 1.8209125552621759
EQ4_LHS_MUB0 = 0.24
EQ4_LHS_MUB01 = 5.390318463094434
EQ6_RHS_EIGHTH_1000 = 0.5790593092043358

TOL = 1e-12


def _stats(N=100, Nb=50, mu=0.0, mu_a=0.0, mu_b=0.0, spec_a=1.0, spec_b=1.0) -> DictionaryStats:
    """Synthetic coherence profile of N columns, Nb of them in block B; m and
    spec_d are irrelevant to the checks."""
    return DictionaryStats(
        m=1, N=N, Na=N - Nb, mu=mu, mu_a=mu_a, mu_b=mu_b, spec_a=spec_a, spec_b=spec_b,
        spec_d=spec_a + spec_b,
    )


def _check(cid, params=TheoremParams(), N=100, Nb=50, **profile):
    """One evaluated condition for the synthetic profile ``_stats(**profile)``."""
    return evaluate_conditions(_stats(N, Nb, **profile), params).get(cid)


# ==============================
# individual conditions
# ==============================


class TestClassicalThreshold:
    def test_reference_values(self):
        assert classical_threshold(1.0) == 1.0
        assert classical_threshold(0.5) == 1.5
        assert abs(classical_threshold(1.0 / math.sqrt(3.0)) - CLASSICAL_THIRD) <= TOL

    def test_orthonormal_sentinel(self):
        assert classical_threshold(0.0) == math.inf

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            classical_threshold(-0.1)


class TestRandomSupportThreshold:
    def test_reference_rhs(self):
        eq1 = _check("eq1", TheoremParams(s=1.0, n_a=3, n_b=4), N=200, mu=0.01)
        assert abs(eq1.rhs - EQ1_RHS_001_200) <= TOL
        assert eq1.satisfied        # 7 < 7.9497

    def test_boundary_budget_fails(self):
        eq1 = _check("eq1", TheoremParams(s=1.0, n_a=4, n_b=4), N=200, mu=0.01)
        assert not eq1.satisfied    # 8 > 7.9497

    def test_zero_budget_always_passes(self):
        report = evaluate_conditions(_stats(1000, 500, mu=0.9), TheoremParams())
        assert report.get("eq1").satisfied and report.get("eq2").satisfied

    def test_orthonormal_case_is_unbounded(self):
        for mu in (0.0, 1e-200):        # 1e-200 squared underflows to 0
            report = evaluate_conditions(_stats(50, 10, mu=mu), TheoremParams(n_a=40))
            eq1, eq2 = report.get("eq1"), report.get("eq2")
            assert eq1.rhs == math.inf and eq2.rhs == math.inf
            assert eq1.satisfied and eq2.satisfied

    def test_requires_n_above_2(self):
        with pytest.raises(ValueError, match="N > 2"):
            evaluate_conditions(_stats(2, 1, mu=0.5), TheoremParams())


class TestArbitraryBlock:
    def test_reference_values(self):
        params = TheoremParams(s=1.0, gamma=0.0, n_a=1)
        low = _check("eq3", params, mu=0.01)
        assert abs(low.lhs - EQ3_LHS_MU001) <= TOL
        assert low.satisfied
        high = _check("eq3", params, mu=0.1)
        assert abs(high.lhs - EQ3_LHS_MU01) <= TOL
        assert not high.satisfied

    def test_rhs_is_budget_share(self):
        check = _check("eq3", TheoremParams(gamma=0.25, n_a=1))
        assert abs(check.rhs - 0.75 * QUARTER_DECAY) <= TOL

    def test_zero_coherence_single_atom(self):
        check = _check("eq3", TheoremParams(gamma=0.0, n_a=1))
        assert check.lhs == 0.0 and check.satisfied

    def test_vacuous_without_budget(self):
        check = _check("eq3", TheoremParams(n_a=0), mu=0.9, mu_a=0.9)
        assert check.lhs == 0.0 and check.satisfied
        assert "vacuous" in check.note

    def test_sub_coherence_term(self):
        # second term is 2 (n_a - 1) mu_a exactly
        base = _check("eq3", TheoremParams(n_a=3), mu_a=0.25).lhs
        assert abs(base - 2.0 * 2 * 0.25) <= TOL


class TestRandomBlock:
    def test_reference_values(self):
        params = TheoremParams(s=1.0, gamma=1.0, n_b=1)
        clean = _check("eq4", params, Nb=100)
        assert abs(clean.lhs - EQ4_LHS_MUB0) <= TOL
        assert clean.satisfied
        coherent = _check("eq4", params, Nb=100, mu_b=0.1)
        assert abs(coherent.lhs - EQ4_LHS_MUB01) <= TOL
        assert not coherent.satisfied

    def test_zero_budget_passes_any_gamma(self):
        check = _check("eq4", TheoremParams(gamma=0.0), Nb=10, mu_b=0.9, spec_a=9.0, spec_b=9.0)
        assert check.lhs == 0.0 and check.satisfied

    def test_requires_nonempty_block_for_budget(self):
        with pytest.raises(ValueError, match="empty"):
            _check("eq4", TheoremParams(n_b=1), Nb=0, mu_b=0.1)
        with pytest.raises(ValueError, match="nonempty"):  # even where eq3 fails
            first_feasible_gamma(_stats(100, 0, mu=0.9, mu_a=0.9), 1.0, 5, 2)


class TestUniquenessThreshold:
    def test_reference_rhs(self):
        report = evaluate_conditions(_stats(1000, 500, mu=0.125), TheoremParams(s=1.0))
        eq5, eq6 = report.get("eq5"), report.get("eq6")
        assert eq5.rhs == 32.0
        assert abs(eq6.rhs - EQ6_RHS_EIGHTH_1000) <= TOL

    def test_strictness_at_boundary(self):
        # eq5 is strict: total exactly at the threshold fails
        assert not _check("eq5", TheoremParams(n_a=32), N=1000, mu=0.125).satisfied
        assert _check("eq5", TheoremParams(n_a=31), N=1000, mu=0.125).satisfied

    def test_eq6_is_non_strict(self):
        # rhs = 1/(16 log N) mu^-2; pick mu so rhs is an exact integer
        params = TheoremParams(s=1.0, n_a=2)
        mu = 1.0 / math.sqrt(32.0 * math.log(100.0))
        eq6 = _check("eq6", params, mu=mu)
        assert abs(eq6.rhs - 2.0) <= 1e-9
        if eq6.rhs >= 2.0:
            assert eq6.satisfied


class TestTheoremParams:
    def test_total(self):
        assert TheoremParams(n_a=2, n_b=5).total == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            TheoremParams(s=0.5)
        with pytest.raises(ValueError):
            TheoremParams(gamma=1.5)
        with pytest.raises(ValueError):
            TheoremParams(n_a=-1)
        with pytest.raises(ValueError, match="n_a must be an integer, got 1.5"):
            TheoremParams(n_a=1.5)
        with pytest.raises(ValueError, match="n_b must be an integer, got True"):
            TheoremParams(n_b=True)

    @pytest.mark.parametrize("s", [math.nan, math.inf])
    def test_non_finite_s_is_rejected(self, s):
        with pytest.raises(ValueError, match="finite number >= 1"):
            TheoremParams(s=s)
        with pytest.raises(ValueError, match="finite number >= 1"):
            max_sparsity_search(_stats(100, 50, mu=0.1), s=s)


# ==============================
# combined report
# ==============================


class TestEvaluateConditions:
    IDS = ("eq1", "eq2", "eq3", "eq4", "eq5", "eq6", "classical")

    def test_report_lists_all_conditions_in_order(self):
        report = evaluate_conditions(_stats(100, 50, mu=0.1), TheoremParams())
        assert tuple(c.id for c in report.conditions) == self.IDS

    def test_get_unknown_id(self):
        report = evaluate_conditions(_stats(100, 50, mu=0.1), TheoremParams())
        with pytest.raises(KeyError):
            report.get("eq7")

    def test_combined_flags_when_premises_hold(self):
        stats = _stats(100, 100, mu=0.01, mu_b=0.0, spec_a=1.0, spec_b=1.0)
        params = TheoremParams(s=1.0, gamma=1.0, n_a=0, n_b=1)
        report = evaluate_conditions(stats, params)
        assert report.l0_uniqueness and report.l0_l1_equivalence
        assert report.all_satisfied

    def test_combined_flags_when_totals_fail(self):
        # concentration passes but the coherence budget caps at zero
        stats = _stats(100, 100, mu=1.0, mu_b=0.0, spec_a=1.0, spec_b=1.0)
        params = TheoremParams(s=1.0, gamma=1.0, n_a=0, n_b=1)
        report = evaluate_conditions(stats, params)
        assert report.get("eq3").satisfied and report.get("eq4").satisfied
        assert not report.get("eq5").satisfied
        assert not report.l0_uniqueness
        assert not report.l0_l1_equivalence

    def test_empty_budget_is_vacuous_even_where_u_overflows(self):
        # u = sqrt(4 s log N) is inf at s = 1e308, and 0 * inf would make the lhs nan
        stats = _stats(100, 50, mu=0.1, mu_a=0.1, mu_b=0.1)
        report = evaluate_conditions(stats, TheoremParams(s=1e308))
        for cid in ("eq3", "eq4"):
            assert report.get(cid).lhs == 0.0 and report.get(cid).satisfied, cid
        assert first_feasible_gamma(stats, 1e308, 0, 0) == 0.0

    def test_zero_budget_holds_every_condition_where_eq1_underflows(self, mub7):
        # c mu^-2 / (s log N) is 0 at s = 1e308, yet the true rhs is positive
        report = evaluate_conditions(analyze(mub7), TheoremParams(s=1e308))
        assert report.get("eq1").rhs == 0.0
        assert report.all_satisfied
        assert report.l0_uniqueness and report.l0_l1_equivalence

    @pytest.mark.parametrize("s", [1.0, 1e300, 1e308])
    def test_orthonormal_caps_are_inf_at_any_s(self, s):
        D = PartitionedDictionary(np.eye(24), 4)
        report = evaluate_conditions(analyze(D), TheoremParams(s=s, n_a=2))
        for cid in ("eq1", "eq2", "eq5", "eq6", "classical"):
            assert report.get(cid).rhs == math.inf, cid
        assert report.all_satisfied
        assert report.l0_uniqueness and report.l0_l1_equivalence

    def test_classical_entry(self):
        report = evaluate_conditions(_stats(100, 50, mu=0.5), TheoremParams(n_a=1))
        classical = report.get("classical")
        assert classical.strict
        assert classical.rhs == 1.5
        assert classical.satisfied      # 1 < 1.5

    def test_serialization_round_trip_keys(self):
        report = evaluate_conditions(_stats(100, 50, mu=0.1), TheoremParams())
        doc = report.to_dict()
        assert {c["id"] for c in doc["conditions"]} == set(self.IDS)
        assert doc["all_satisfied"] is True


# ==============================
# invariants
# ==============================


class TestInvariants:
    def test_gamma_tradeoff_partitions_budget(self):
        for gamma in GAMMA_GRID_DEFAULT:
            report = evaluate_conditions(_stats(100, 10), TheoremParams(gamma=gamma, n_a=1))
            rhs3, rhs4 = report.get("eq3").rhs, report.get("eq4").rhs
            assert abs(rhs3 + rhs4 - QUARTER_DECAY) <= 1e-15

    def test_eq2_and_eq6_share_the_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            mu = float(rng.uniform(0.01, 1.0))
            s = float(rng.uniform(1.0, 3.0))
            N = int(rng.integers(3, 5000))
            params = TheoremParams(s=s, n_a=int(rng.integers(0, 5)), n_b=int(rng.integers(0, 5)))
            report = evaluate_conditions(_stats(N, N // 2, mu=mu), params)
            eq2, eq6 = report.get("eq2"), report.get("eq6")
            assert eq2.rhs == eq6.rhs
            assert eq2.satisfied == eq6.satisfied

    @given(
        mu=st.floats(0.0, 1.0),
        N=st.integers(3, 10**6),
        s=st.floats(1.0, 1e6),
        total=st.integers(0, 2000),
    )
    @settings(max_examples=200, deadline=None)
    def test_eq6_implies_eq5(self, mu, N, s, total):
        # 8 (s + 1) log N > 2 for N > 2 and s >= 1, so eq6's rhs lies below eq5's
        report = evaluate_conditions(_stats(N, N // 2, mu=mu), TheoremParams(s=s, n_a=total))
        eq5, eq6 = report.get("eq5"), report.get("eq6")
        assert eq6.rhs < eq5.rhs or eq6.rhs == eq5.rhs == math.inf
        if eq6.satisfied:
            assert eq5.satisfied

    @given(
        mu=st.floats(0.0, 0.5),
        mu_a=st.floats(0.0, 0.5),
        n_a=st.integers(0, 30),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_a_lhs_monotone_in_budget(self, mu, mu_a, n_a):
        lo = _check("eq3", TheoremParams(n_a=n_a), mu=mu, mu_a=mu_a)
        hi = _check("eq3", TheoremParams(n_a=n_a + 1), mu=mu, mu_a=mu_a)
        assert hi.lhs >= lo.lhs - TOL
        if not lo.satisfied:
            assert not hi.satisfied

    @given(mu_b=st.floats(0.0, 0.5), n_b=st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_block_b_lhs_monotone_in_budget(self, mu_b, n_b):
        lo = _check("eq4", TheoremParams(n_b=n_b), mu_b=mu_b)
        hi = _check("eq4", TheoremParams(n_b=n_b + 1), mu_b=mu_b)
        assert hi.lhs >= lo.lhs - TOL
        if not lo.satisfied:
            assert not hi.satisfied

    @given(
        mu=st.floats(0.0, 0.02),
        mu_a=st.floats(0.0, 0.05),
        mu_b=st.floats(0.0, 0.02),
        spec_b=st.floats(0.1, 1.5),
        N=st.integers(3, 5000),
        nb_frac=st.floats(0.0, 1.0),
        s=st.floats(1.0, 3.0),
        n_a=st.integers(0, 7),
        n_b=st.integers(0, 7),
    )
    @settings(max_examples=200, deadline=None)
    def test_first_feasible_gamma_is_the_first_grid_gamma_passing_eq3_and_eq4(
        self, mu, mu_a, mu_b, spec_b, N, nb_frac, s, n_a, n_b
    ):
        Nb = 1 + int(nb_frac * (N - 2))
        stats = _stats(N, Nb, mu=mu, mu_a=mu_a, mu_b=mu_b, spec_b=spec_b)
        passing = [
            gamma for gamma in GAMMA_GRID_DEFAULT
            if all(
                evaluate_conditions(stats, TheoremParams(s, gamma, n_a, n_b))
                .get(cid).satisfied
                for cid in ("eq3", "eq4")
            )
        ]
        expected = passing[0] if passing else None
        assert first_feasible_gamma(stats, s, n_a, n_b) == expected

    def test_margin_sign_matches_satisfied(self):
        report = evaluate_conditions(_stats(100, 50, mu=0.2), TheoremParams(n_a=2, n_b=2))
        for check in report.conditions:
            if check.satisfied:
                assert check.margin >= 0.0
            else:
                assert check.margin <= 0.0


# ==============================
# budget search
# ==============================


def _brute_force_best(stats, s, gamma, na_hi, nb_hi):
    """Reference scan: lexicographically largest feasible (total, n_a)."""
    def ok(cids, n_a=0, n_b=0):
        report = evaluate_conditions(stats, TheoremParams(s, gamma, n_a, n_b))
        return all(report.get(cid).satisfied for cid in cids)

    na_ok = [ok(("eq3",), n_a=n) for n in range(na_hi + 1)]
    nb_ok = [ok(("eq4",), n_b=n) for n in range(nb_hi + 1)]
    tot_ok = [ok(("eq5", "eq6"), n_a=t) for t in range(na_hi + nb_hi + 1)]
    best = (0, 0)
    for na in range(na_hi + 1):
        for nb in range(nb_hi + 1):
            if na_ok[na] and nb_ok[nb] and tot_ok[na + nb]:
                if (na + nb, na) > (best[0] + best[1], best[0]):
                    best = (na, nb)
    return best


class TestMaxSparsitySearch:
    def test_default_gamma_grid(self):
        assert len(GAMMA_GRID_DEFAULT) == 21
        assert GAMMA_GRID_DEFAULT[0] == 0.0
        assert GAMMA_GRID_DEFAULT[1] == 0.05
        assert GAMMA_GRID_DEFAULT[-1] == 1.0

    def test_orthonormal_reference_profile(self, identity110):
        stats = analyze(identity110)
        res = max_sparsity_search(stats)
        assert (res.best_n_a, res.best_n_b) == (10, 6)
        assert res.best_gamma == 0.95
        assert res.best_total == 16
        assert len(res.per_gamma) == 21

    def test_result_revalidates(self, identity110):
        stats = analyze(identity110)
        res = max_sparsity_search(stats)
        for cid in ("eq3", "eq4", "eq5", "eq6"):
            assert res.report.get(cid).satisfied, cid
        assert res.report.l0_uniqueness and res.report.l0_l1_equivalence

    def test_infeasible_profile_returns_zero(self):
        stats = _stats(100, 50, mu=0.9, mu_a=0.9, mu_b=0.9)
        res = max_sparsity_search(stats)
        assert (res.best_n_a, res.best_n_b) == (0, 0)
        assert res.best_gamma == 0.0

    def test_total_cap_can_dominate_concentration(self):
        # both concentration conditions allow large budgets, the eq6 cap does not
        stats = _stats(1000, 500, mu=0.125, mu_b=0.0, spec_a=0.1, spec_b=0.1)
        res = max_sparsity_search(stats, s=1.0)
        assert res.best_total == 0

    def test_trim_keeps_block_a_first(self):
        # concentration allows (3, 335) at gamma 0.5 but the eq6 cap is 90;
        # trimming shrinks n_b, never n_a
        stats = _stats(1000, 500, mu=0.01, mu_a=0.0, mu_b=0.0, spec_a=0.3, spec_b=0.3)
        res = max_sparsity_search(stats)
        at_half = next(g for g in res.per_gamma if g.gamma == 0.5)
        assert (at_half.n_a, at_half.n_b) == (3, 87)

    def test_caps_restrict_blocks(self, identity110):
        stats = analyze(identity110)
        res = max_sparsity_search(stats, na_cap=3, nb_cap=2)
        assert res.best_n_a <= 3 and res.best_n_b <= 2

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(11)
        nontrivial = 0
        for _ in range(5):
            profile = dict(
                mu=float(rng.uniform(0.0, 0.03)),
                mu_a=float(rng.uniform(0.0, 0.03)),
                mu_b=float(rng.uniform(0.0, 0.03)),
                spec_a=float(rng.uniform(0.2, 1.2)),
                spec_b=float(rng.uniform(0.2, 1.2)),
            )
            N = int(rng.integers(10, 2000))
            Nb = int(rng.integers(1, N))
            stats = _stats(N, Nb, **profile)
            s = float(rng.uniform(1.0, 2.0))
            na_hi = min(20, N - Nb)
            nb_hi = min(20, Nb)
            res = max_sparsity_search(stats, s=s, na_cap=na_hi, nb_cap=nb_hi)
            for entry in res.per_gamma:
                expected = _brute_force_best(stats, s, entry.gamma, na_hi, nb_hi)
                assert (entry.n_a, entry.n_b) == expected, (entry.gamma, stats)
            nontrivial += res.best_total > 0
        assert nontrivial >= 1

    def test_rejects_tiny_dictionary(self):
        with pytest.raises(ValueError, match="N > 2"):
            max_sparsity_search(_stats(2, 1, mu=0.5))

    @pytest.mark.parametrize("cap", ["na_cap", "nb_cap"])
    def test_rejects_a_cap_that_is_not_an_integer(self, cap):
        with pytest.raises(ValueError, match=f"{cap} must be an integer, got 2.5"):
            max_sparsity_search(_stats(100, 50, mu=0.1), **{cap: 2.5})


# ==============================
# scaling ratios
# ==============================


class TestScalingReport:
    def test_mub7_ratios(self, mub7, mub7_stats):
        rep = scaling_report(mub7_stats)
        assert abs(rep.r1 - 1.0) <= TOL
        assert rep.r2 == 0.0
        assert abs(rep.r4 - 0.24842549839846914) <= TOL

    def test_two_onb4_ratios(self, two_onb4):
        rep = scaling_report(analyze(two_onb4))
        assert abs(rep.r3 - math.log(8.0)) <= TOL
        assert abs(rep.r1 - 0.5 * 2.0) <= TOL

    def test_ratios_are_finite_and_nonnegative(self, mub5):
        rep = scaling_report(analyze(mub5))
        for value in rep.to_dict().values():
            assert math.isfinite(value) and value >= 0.0
