"""Release gate: one test per acceptance criterion, run at full scale.

Each test prints a single PASS line with its wall-clock time and enforces the
stated budget, so ``pytest tests/test_acceptance.py -s`` reads as a checklist.
Scales (trial counts, tolerances, budgets) are fixed here and must not be
reduced to make a failing criterion pass.
"""

import json
import math
import time

import numpy as np
import pytest

from sparsethresh import (
    DictionaryStats,
    TheoremParams,
    analyze,
    brute_force_l0,
    build_mub,
    build_random_dictionary,
    default_u,
    estimate_moment,
    evaluate_conditions,
    max_sparsity_search,
    run_smin_trials,
    solve_bp,
    GAMMA_GRID_DEFAULT,
)
from sparsethresh.cli import main
from sparsethresh.concentration import chain_batch
from sparsethresh.recovery import SUPPORT_FLOOR_FACTOR


def _gate(name: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"PASS {name}: {elapsed:.2f}s (budget {budget:.0f}s)")
    assert elapsed < budget, f"{name}: {elapsed:.2f}s exceeded the {budget:.0f}s budget"


def _stats(N, Nb, mu=0.0, mu_a=0.0, mu_b=0.0, spec_a=1.0, spec_b=1.0):
    return DictionaryStats(
        m=1, N=N, Na=N - Nb, mu=mu, mu_a=mu_a, mu_b=mu_b, spec_a=spec_a, spec_b=spec_b,
        spec_d=max(spec_a, spec_b),
    )


# ==============================
# 1. chirp dictionary exactness
# ==============================


def test_mub_family_exactness():
    started = time.perf_counter()
    for p in (3, 5, 7, 11):
        D = build_mub(p)
        stats = analyze(D)
        root = 1.0 / math.sqrt(p)
        assert abs(stats.mu - root) <= 1e-12
        assert stats.mu_a == 0.0
        assert abs(stats.spec_d**2 - (p + 1)) <= 1e-9
        gram = np.abs(D.matrix.conj().T @ D.matrix)
        off = gram[~np.eye(D.N, dtype=bool)]
        assert float(np.max(np.minimum(off, np.abs(off - root)))) <= 1e-10
    _gate("mub family exactness", started, 5.0)


# ==============================
# 2. coherence floor audit
# ==============================


def test_random_dictionaries_respect_welch_floor():
    started = time.perf_counter()
    rng = np.random.default_rng(2025)
    for i in range(100):
        m = int(rng.integers(4, 33))
        N = int(rng.integers(m, 4 * m + 1))
        stats = analyze(build_random_dictionary(m, N, seed=1000 + i))
        assert stats.mu >= stats.welch - 1e-12, (m, N, stats.mu, stats.welch)
    _gate("welch floor audit (100 dictionaries)", started, 10.0)


# ==============================
# 3. hollow Gram inequality chain
# ==============================


def test_hollow_gram_chain_has_zero_violations():
    started = time.perf_counter()
    D = build_mub(7)
    rng = np.random.default_rng(33)
    violations = 0
    for _ in range(10_000):
        n_a = int(rng.integers(1, 5))
        n_b = int(rng.integers(1, 5))
        cols_a = tuple(int(i) for i in rng.choice(D.Na, n_a, replace=False))
        cols_b = tuple(int(i) for i in rng.choice(D.Nb, n_b, replace=False))
        rec = chain_batch(D, [cols_a], [cols_b])
        violations += bool(any(mask[0] for mask in rec.breaks().values()))
    assert violations == 0
    _gate("hollow Gram chain, 1e4 sub-dictionaries", started, 120.0)


# ==============================
# 4. tail bound at the theorem's u
# ==============================


def test_tail_bound_identity_and_half_threshold():
    # P{Xi_S >= e^{1/4} (lhs3 + lhs4) / 2} <= e^{-u^2/4} at u = default_u(stats, s)
    started = time.perf_counter()
    for s in (1.0, 1.5, 2.0):
        for N in (10, 56, 100, 4160):
            bound = math.exp(-default_u(_stats(N, 1), s) ** 2 / 4.0)
            target = float(N) ** (-s)
            assert abs(bound - target) <= 1e-14 * target

    # whenever both block conditions pass, the scaled threshold is <= 1/2
    rng = np.random.default_rng(77)
    passing = 0
    for _ in range(500):
        mu = float(rng.uniform(0.0005, 0.02))
        mu_a = float(rng.uniform(0.0, mu))
        mu_b = float(rng.uniform(0.0, mu))
        spec_a = float(rng.uniform(1.0, 2.0))
        spec_b = float(rng.uniform(1.0, 2.0))
        N = int(rng.integers(100, 5001))
        Nb = int(rng.integers(50, N - 49))
        params = TheoremParams(
            s=1.0,
            gamma=float(rng.uniform(0.0, 1.0)),
            n_a=int(rng.integers(0, 7)),
            n_b=int(rng.integers(0, 5)),
        )
        stats = _stats(N, Nb, mu, mu_a, mu_b, spec_a, spec_b)
        report = evaluate_conditions(stats, params)
        eq3, eq4 = report.get("eq3"), report.get("eq4")
        if not (eq3.satisfied and eq4.satisfied):
            continue
        passing += 1
        threshold = math.exp(0.25) * (eq3.lhs + eq4.lhs) / 2.0
        assert threshold <= 0.5 + 1e-12
    assert passing >= 50, f"only {passing} profiles passed both block conditions"
    _gate("tail bound identity + 1/2 threshold", started, 1.0)


# ==============================
# 5. search plus singular-value experiment
# ==============================


def test_search_budget_survives_smin_trials(identity110):
    started = time.perf_counter()
    stats = analyze(identity110)
    found = max_sparsity_search(stats)
    assert (found.best_n_a, found.best_n_b) == (10, 6)
    result = run_smin_trials(
        identity110, "first-n", found.best_n_a, found.best_n_b,
        trials=10_000, master_seed=11,
    )
    assert result.gamma_feasible is not None
    assert result.violation_count == 0
    assert result.empirical_failure_rate <= result.lemma_bound
    assert result.failure_count == 0  # conservative bound: expect no failures at all
    _gate("smin failure rate under searched budget", started, 120.0)


# ==============================
# 6. moment bound versus bootstrap
# ==============================


def test_moment_bootstrap_stays_below_bound():
    started = time.perf_counter()
    D = build_mub(7)
    stats = analyze(D)
    for q in (4.0, 8.0):
        est = estimate_moment(D, 2, 3, q=q, trials=10_000, master_seed=1)
        closed_form = 6.0 * math.sqrt(stats.mu_b**2 * 3) * math.sqrt(q) \
            + 2.0 * 3 * stats.spec_b**2 / D.Nb
        assert est.bound_b == pytest.approx(closed_form, rel=1e-12)
        assert est.upper95_b <= est.bound_b
    _gate("moment bootstrap below bound, q in {4, 8}", started, 120.0)


# ==============================
# 7. search equals exhaustive scan
# ==============================


def _scan_best_total(st: DictionaryStats, N: int, Nb: int, s: float,
                     gamma: float, cap: int) -> int:
    """Feasibility scan over the full (n_a, n_b) square, mirroring the
    checker formulas op for op so boundary cells round identically."""
    na = np.arange(cap + 1, dtype=float)[:, None]
    nb = np.arange(cap + 1, dtype=float)[None, :]
    log_n = math.log(N)
    decay = math.exp(-0.25)
    lhs3 = 6.0 * math.sqrt(2.0) * np.sqrt(na * st.mu * st.mu * s * log_n) \
        + 2.0 * (na - 1) * st.mu_a
    lhs3 = np.where(na == 0, 0.0, lhs3)
    lhs4 = 24.0 * np.sqrt(nb * st.mu_b * st.mu_b * s * log_n) \
        + 4.0 * nb * st.spec_b * st.spec_b / Nb \
        + 2.0 * np.sqrt(nb / Nb) * st.spec_a * st.spec_b
    lhs4 = np.where(nb == 0, 0.0, lhs4)
    total = na + nb
    inv = math.inf if st.mu == 0.0 else 1.0 / (st.mu * st.mu)
    mask = (lhs3 <= (1.0 - gamma) * decay) & (lhs4 <= gamma * decay) \
        & (total < inv / 2.0) & (total <= inv / (8.0 * (s + 1.0) * log_n))
    return int(total[mask].max()) if mask.any() else 0


def test_search_matches_exhaustive_scan():
    started = time.perf_counter()
    rng = np.random.default_rng(4242)
    nontrivial = 0
    for i in range(20):
        lo, hi = (0.002, 0.03) if i % 2 == 0 else (0.03, 0.2)
        mu = float(rng.uniform(lo, hi))
        profile = (
            mu, float(rng.uniform(0, mu)), float(rng.uniform(0, mu)),
            float(rng.uniform(1.0, 3.0)), float(rng.uniform(1.0, 3.0)),
        )
        N = int(rng.integers(200, 5001))
        Nb = int(rng.integers(100, N - 99))
        st = _stats(N, Nb, *profile)
        found = max_sparsity_search(st, na_cap=50, nb_cap=50)
        per_gamma = {g.gamma: g.total for g in found.per_gamma}
        best = 0
        for gamma in GAMMA_GRID_DEFAULT:
            want = _scan_best_total(st, N, Nb, 1.0, gamma, 50)
            assert per_gamma[gamma] == want, (i, gamma, per_gamma[gamma], want)
            best = max(best, want)
        assert found.best_total == best
        nontrivial += best > 0
    assert nontrivial >= 10  # the gate must exercise feasible profiles too
    _gate("search vs exhaustive scan, 20 profiles", started, 30.0)


# ==============================
# 8. solver soundness and l0 agreement
# ==============================


def test_bp_soundness_and_l0_agreement(two_onb8):
    started = time.perf_counter()
    mat = two_onb8.matrix
    rng = np.random.default_rng(808)
    agreements = 0
    for _ in range(200):
        k = int(rng.integers(1, 3))
        support = np.sort(rng.choice(two_onb8.N, size=k, replace=False))
        coeffs = rng.uniform(0.5, 1.5, size=k) * np.exp(2j * np.pi * rng.uniform(size=k))
        x_true = np.zeros(two_onb8.N, dtype=complex)
        x_true[support] = coeffs
        y = mat @ x_true
        outcome = solve_bp(two_onb8, y, x_true=x_true)
        assert outcome.converged
        assert outcome.feasibility_residual <= 1e-8
        assert outcome.l1_value <= float(np.abs(x_true).sum()) + 1e-6
        oracle = brute_force_l0(two_onb8, y, k_max=2)
        if oracle.unique and outcome.support_match[0]:
            x_hat = outcome.x_hat[0]
            floor = SUPPORT_FLOOR_FACTOR * float(np.abs(x_hat).max())
            bp_support = tuple(int(i) for i in np.where(np.abs(x_hat) > floor)[0])
            assert bp_support == oracle.supports[0]
            agreements += 1
    assert agreements >= 150, f"only {agreements}/200 trials reached the l0 comparison"
    _gate("bp soundness + l0 agreement, 200 instances", started, 120.0)


# ==============================
# 9. command-line determinism
# ==============================


def test_cli_experiments_rerun_byte_identical(tmp_path):
    started = time.perf_counter()
    dict_path = str(tmp_path / "mub5.dict.json")
    assert main(["build-dict", "--mub", "5", "--out", dict_path]) == 0
    commands = {
        "smin": ["smin", "--dict", dict_path, "--na", "1", "--nb", "2",
                 "--trials", "200", "--seed", "5"],
        "moments": ["moments", "--dict", dict_path, "--na", "1", "--nb", "2",
                    "--q", "8", "--trials", "1000", "--seed", "6"],
        "recover": ["recover", "--dict", dict_path, "--na-range", "0:1",
                    "--nb-range", "0:1", "--trials", "3", "--seed", "7"],
        "report": ["report", "--dict", dict_path, "--na", "1", "--nb", "1"],
    }
    for tag, argv in commands.items():
        outputs = []
        for run in ("one", "two"):
            out_dir = tmp_path / tag / run
            out_dir.mkdir(parents=True)
            if tag == "report":
                rc = main(argv + ["--out", str(out_dir / "report.json")])
            else:
                rc = main(argv + ["--out", str(out_dir)])
            assert rc == 0
            blobs = {
                p.name: p.read_bytes()
                for p in sorted(out_dir.iterdir())
                if p.suffix in (".csv", ".json")
            }
            assert blobs, f"{tag} wrote no CSV/JSON artifacts"
            outputs.append(blobs)
        assert outputs[0] == outputs[1], f"{tag} rerun changed bytes"
        for name, blob in outputs[0].items():
            if name.endswith(".json"):
                json.loads(blob)  # summaries must remain parseable
    _gate("cli rerun byte-identical", started, 120.0)
