"""Closed-form sparsity conditions for partitioned dictionaries.

All conditions bound the support sizes n_a (arbitrary block A) and n_b
(random block B) through the coherence profile of the dictionary; logs are
natural throughout.  With L = s log N, u = sqrt(4 s log N) (``default_u``) and
budget split gamma in [0, 1]:

  eq1  n_a + n_b <  min{ c mu^-2 / L, mu^-2 / 2 }          (strict), c = 0.004212
  eq2  n_a + n_b <= mu^-2 / (8 (s + 1) log N)
  eq3  2 (slope_a u + gersgorin)           <=  (1 - gamma) e^{-1/4}
  eq4  2 (slope_b u + frame + cross)       <=  gamma e^{-1/4}
  eq5  n_a + n_b <  mu^-2 / 2                               (strict)
  eq6  n_a + n_b <= mu^-2 / (8 (s + 1) log N)
  classical  n_a + n_b <  (1 + 1/mu) / 2                    (strict)

where ``block_a_terms`` and ``block_b_terms`` define the block terms.  eq3 and
eq4 are the two halves of the singular-value concentration premise: the same
terms build ``concentration``'s alpha = slope_a + slope_b and beta = gersgorin
+ frame + cross, with eq3 + eq4 = 2 (alpha u + beta), and its moment bounds
slope_b sqrt(q) + frame on Xi_B and slope_a sqrt(q) + cross on Xi_X.  eq5
gives l0 uniqueness and eq6 adds l1 equivalence on top of eq3/eq4.
An orthonormal dictionary has mu = 0 and every mu^-2 threshold becomes +inf;
the report then carries rhs = inf and the condition holds for any budget.

``max_sparsity_search`` maximizes n_a + n_b subject to eq3..eq6 over a gamma
grid; ``scaling_report`` reduces the asymptotic design targets to five
dimensionless ratios with no pass/fail attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dictionary import DictionaryStats, PartitionedDictionary, analyze

__all__ = [
    "SPARSITY_CONSTANT",
    "GAMMA_GRID_DEFAULT",
    "TheoremParams",
    "ConditionCheck",
    "ConditionReport",
    "SparsitySearchResult",
    "ScalingReport",
    "classical_threshold",
    "check_random_support_threshold",
    "check_arbitrary_block",
    "check_random_block",
    "check_uniqueness_threshold",
    "block_a_terms",
    "block_b_terms",
    "default_u",
    "evaluate_conditions",
    "first_feasible_gamma",
    "max_sparsity_search",
    "scaling_report",
]

# best known admissible value of the constant in the eq1 threshold
SPARSITY_CONSTANT = 0.004212

GAMMA_GRID_DEFAULT = tuple(round(0.05 * i, 2) for i in range(21))

_QUARTER_DECAY = math.exp(-0.25)


def _require_n_gt_2(N: int):
    if N <= 2:
        raise ValueError(f"condition checks require N > 2 columns, got N={N}")


def _require_s(s: float):
    if not (math.isfinite(s) and s >= 1):
        raise ValueError(f"s must be a finite number >= 1, got {s}")


def _inv_mu_sq(mu: float) -> float:
    """mu^-2 with the orthonormal case mapped to +inf."""
    if mu < 0:
        raise ValueError(f"coherence must be nonnegative, got {mu}")
    if mu * mu == 0.0:  # also a mu so small that its square underflows
        return math.inf
    return 1.0 / (mu * mu)


@dataclass(frozen=True)
class TheoremParams:
    """Model parameters shared by every condition: s >= 1, gamma in [0, 1], budgets."""

    s: float = 1.0
    gamma: float = 0.5
    n_a: int = 0
    n_b: int = 0

    def __post_init__(self):
        _require_s(self.s)
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.n_a < 0 or self.n_b < 0:
            raise ValueError(f"budgets must be nonnegative, got {self.n_a}, {self.n_b}")

    @property
    def total(self) -> int:
        return self.n_a + self.n_b


@dataclass(frozen=True)
class ConditionCheck:
    """One evaluated inequality: lhs vs rhs, strict or not."""

    id: str
    lhs: float
    rhs: float
    strict: bool
    satisfied: bool
    note: str = ""

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "strict": self.strict,
            "satisfied": self.satisfied,
            "note": self.note,
        }


def _make_check(cid: str, lhs: float, rhs: float, strict: bool, note: str = "") -> ConditionCheck:
    ok = (lhs < rhs) if strict else (lhs <= rhs)
    return ConditionCheck(id=cid, lhs=lhs, rhs=rhs, strict=strict, satisfied=bool(ok), note=note)


@dataclass(frozen=True)
class ConditionReport:
    """All evaluated conditions plus the two combined premise flags.

    l0_uniqueness:      eq3, eq4 and eq5 all hold (x is the unique sparsest
                        representation with high probability)
    l0_l1_equivalence:  eq3, eq4 and eq6 all hold (additionally the l1
                        minimizer recovers x)
    """

    conditions: tuple[ConditionCheck, ...]
    l0_uniqueness: bool
    l0_l1_equivalence: bool

    def get(self, cid: str) -> ConditionCheck:
        for check in self.conditions:
            if check.id == cid:
                return check
        raise KeyError(cid)

    @property
    def all_satisfied(self) -> bool:
        return all(c.satisfied for c in self.conditions)

    def to_dict(self) -> dict:
        return {
            "conditions": [c.to_dict() for c in self.conditions],
            "l0_uniqueness": self.l0_uniqueness,
            "l0_l1_equivalence": self.l0_l1_equivalence,
            "all_satisfied": self.all_satisfied,
        }


# ============================================================
# individual conditions
# ============================================================


def classical_threshold(mu: float) -> float:
    """Deterministic worst-case sparsity threshold (1 + 1/mu) / 2; +inf at mu = 0."""
    if mu < 0:
        raise ValueError(f"coherence must be nonnegative, got {mu}")
    if mu == 0.0:
        return math.inf
    return 0.5 * (1.0 + 1.0 / mu)


def _eight_s_plus_one_rhs(mu: float, s: float, N: int) -> float:
    return _inv_mu_sq(mu) / (8.0 * (s + 1.0) * math.log(N))


def check_random_support_threshold(
    mu: float, N: int, params: TheoremParams
) -> tuple[ConditionCheck, ConditionCheck]:
    """Total-budget thresholds for a fully random support (eq1 strict, eq2 not)."""
    _require_n_gt_2(N)
    total = float(params.total)
    inv = _inv_mu_sq(mu)
    rhs1 = min(SPARSITY_CONSTANT * inv / (params.s * math.log(N)), inv / 2.0)
    eq1 = _make_check("eq1", total, rhs1, strict=True)
    eq2 = _make_check("eq2", total, _eight_s_plus_one_rhs(mu, params.s, N), strict=False)
    return eq1, eq2


def default_u(s: float, N: int) -> float:
    """The canonical tail argument u = sqrt(4 s log N), giving bound N^{-s}."""
    _require_n_gt_2(N)
    return math.sqrt(4.0 * s * math.log(N))


def block_a_terms(mu: float, mu_a: float, n_a: int) -> tuple[float, float]:
    """Block-A terms: slope = (3/sqrt(2)) sqrt(mu^2 n_a), the sqrt(q) coefficient
    of the Xi_X moment bound, and gersgorin = (n_a - 1) mu_a, the bound on Xi_A."""
    return 3.0 / math.sqrt(2.0) * math.sqrt(mu**2 * n_a), max(n_a - 1, 0) * mu_a


def block_b_terms(
    mu_b: float, spec_a: float, spec_b: float, n_b: int, Nb: int
) -> tuple[float, float, float]:
    """Block-B terms, all 0 at n_b = 0: slope = 6 sqrt(mu_b^2 n_b) and frame =
    2 n_b ||B||^2 / N_b of the Xi_B moment bound, cross = sqrt(n_b / N_b) ||A|| ||B||
    the constant of the Xi_X moment bound."""
    if n_b == 0:
        return 0.0, 0.0, 0.0
    if Nb < 1:
        raise ValueError(f"n_b={n_b} > 0 requires a nonempty block B")
    slope = 6.0 * math.sqrt(mu_b**2 * n_b)
    return slope, 2.0 * n_b * spec_b**2 / Nb, math.sqrt(n_b / Nb) * spec_a * spec_b


def _eq3_lhs(mu: float, mu_a: float, n_a: int, u: float) -> float:
    slope, gersgorin = block_a_terms(mu, mu_a, n_a)
    return 2.0 * (slope * u + gersgorin)


def _eq4_lhs(mu_b: float, spec_a: float, spec_b: float, n_b: int, Nb: int, u: float) -> float:
    slope, frame, cross = block_b_terms(mu_b, spec_a, spec_b, n_b, Nb)
    return 2.0 * (slope * u + frame + cross)


def check_arbitrary_block(
    mu: float, mu_a: float, N: int, params: TheoremParams
) -> ConditionCheck:
    """Concentration condition on the fixed block-A support (eq3).

    lhs = 2 (slope_a u + gersgorin), rhs = (1 - gamma) e^{-1/4}

    n_a = 0 leaves nothing on block A to control; the condition is vacuous
    and reported with lhs = 0.
    """
    lhs = _eq3_lhs(mu, mu_a, params.n_a, default_u(params.s, N))
    note = "vacuous at n_a = 0" if params.n_a == 0 else ""
    return _make_check("eq3", lhs, (1.0 - params.gamma) * _QUARTER_DECAY, strict=False, note=note)


def check_random_block(
    mu_b: float,
    spec_a: float,
    spec_b: float,
    Nb: int,
    N: int,
    params: TheoremParams,
) -> ConditionCheck:
    """Concentration condition on the random block-B support (eq4).

    lhs = 2 (slope_b u + frame + cross), rhs = gamma e^{-1/4}
    """
    lhs = _eq4_lhs(mu_b, spec_a, spec_b, params.n_b, Nb, default_u(params.s, N))
    return _make_check("eq4", lhs, params.gamma * _QUARTER_DECAY, strict=False)


def check_uniqueness_threshold(
    mu: float, N: int, params: TheoremParams
) -> tuple[ConditionCheck, ConditionCheck]:
    """Budget thresholds closing the argument: eq5 (l0, strict) and eq6 (l1)."""
    _require_n_gt_2(N)
    total = float(params.total)
    eq5 = _make_check("eq5", total, _inv_mu_sq(mu) / 2.0, strict=True)
    eq6 = _make_check("eq6", total, _eight_s_plus_one_rhs(mu, params.s, N), strict=False)
    return eq5, eq6


def evaluate_conditions(
    stats: DictionaryStats,
    N: int,
    Nb: int,
    params: TheoremParams,
) -> ConditionReport:
    """Evaluate every condition for one (s, gamma, n_a, n_b) setting."""
    eq1, eq2 = check_random_support_threshold(stats.mu, N, params)
    eq3 = check_arbitrary_block(stats.mu, stats.mu_a, N, params)
    eq4 = check_random_block(stats.mu_b, stats.spec_a, stats.spec_b, Nb, N, params)
    eq5, eq6 = check_uniqueness_threshold(stats.mu, N, params)
    classical = _make_check(
        "classical", float(params.total), classical_threshold(stats.mu), strict=True
    )
    return ConditionReport(
        conditions=(eq1, eq2, eq3, eq4, eq5, eq6, classical),
        l0_uniqueness=eq3.satisfied and eq4.satisfied and eq5.satisfied,
        l0_l1_equivalence=eq3.satisfied and eq4.satisfied and eq6.satisfied,
    )


# ============================================================
# budget search
# ============================================================


def first_feasible_gamma(
    stats: DictionaryStats, N: int, Nb: int, s: float, n_a: int, n_b: int
) -> float | None:
    """First gamma of GAMMA_GRID_DEFAULT at which eq3 and eq4 both hold, else None.

    Neither lhs depends on gamma, so each is evaluated once.
    """
    _require_s(s)
    u = default_u(s, N)
    lhs_a = _eq3_lhs(stats.mu, stats.mu_a, n_a, u)
    lhs_b = _eq4_lhs(stats.mu_b, stats.spec_a, stats.spec_b, n_b, Nb, u)
    for gamma in GAMMA_GRID_DEFAULT:
        if lhs_a <= (1.0 - gamma) * _QUARTER_DECAY and lhs_b <= gamma * _QUARTER_DECAY:
            return gamma
    return None


@dataclass(frozen=True)
class GammaBest:
    gamma: float
    n_a: int
    n_b: int

    @property
    def total(self) -> int:
        return self.n_a + self.n_b

    def to_dict(self) -> dict:
        return {"gamma": self.gamma, "n_a": self.n_a, "n_b": self.n_b}


@dataclass(frozen=True)
class SparsitySearchResult:
    best_n_a: int
    best_n_b: int
    best_gamma: float
    per_gamma: tuple[GammaBest, ...]
    report: ConditionReport

    @property
    def best_total(self) -> int:
        return self.best_n_a + self.best_n_b

    def to_dict(self) -> dict:
        return {
            "best_n_a": self.best_n_a,
            "best_n_b": self.best_n_b,
            "best_gamma": self.best_gamma,
            "best_total": self.best_total,
            "per_gamma": [g.to_dict() for g in self.per_gamma],
            "report": self.report.to_dict(),
        }


def _largest_feasible(ok, hi: int) -> int:
    """Largest n in [0, hi] passing ``ok``, exploiting monotone lhs."""
    if hi < 0:
        return 0
    if ok(hi):
        return hi
    lo = 0  # invariant: ok(lo) holds (n = 0 is always vacuous-true)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _strict_total_cap(rhs: float) -> float:
    """Largest integer total strictly below rhs (inf passes through)."""
    if math.isinf(rhs):
        return math.inf
    cap = math.floor(rhs)
    if cap == rhs:
        cap -= 1
    return cap


def max_sparsity_search(
    stats: DictionaryStats,
    N: int,
    Nb: int,
    s: float = 1.0,
    na_cap: int | None = None,
    nb_cap: int | None = None,
) -> SparsitySearchResult:
    """Maximize n_a + n_b subject to eq3..eq6 over GAMMA_GRID_DEFAULT.

    Both concentration conditions have lhs nondecreasing in their budget, so a
    per-gamma binary search is exact; the total is then trimmed to the eq5/eq6
    caps keeping n_a first.  Returns the lexicographically largest
    (n_a + n_b, n_a) over the grid, with the first maximizing gamma on ties,
    and (0, 0) when nothing is feasible.  ``na_cap``/``nb_cap`` restrict the
    block budgets below their natural limits N - Nb and Nb.
    """
    _require_n_gt_2(N)
    _require_s(s)
    u = default_u(s, N)
    Na = N - Nb
    a_hi = Na if na_cap is None else min(na_cap, Na)
    b_hi = Nb if nb_cap is None else min(nb_cap, Nb)

    eq5_cap = _strict_total_cap(_inv_mu_sq(stats.mu) / 2.0)
    eq6_rhs = _eight_s_plus_one_rhs(stats.mu, s, N)
    eq6_cap = math.inf if math.isinf(eq6_rhs) else math.floor(eq6_rhs)
    total_cap = min(eq5_cap, eq6_cap)

    per_gamma = []
    for gamma in GAMMA_GRID_DEFAULT:
        rhs_a, rhs_b = (1.0 - gamma) * _QUARTER_DECAY, gamma * _QUARTER_DECAY
        na_max = _largest_feasible(lambda n: _eq3_lhs(stats.mu, stats.mu_a, n, u) <= rhs_a, a_hi)
        nb_max = _largest_feasible(
            lambda n: _eq4_lhs(stats.mu_b, stats.spec_a, stats.spec_b, n, Nb, u) <= rhs_b,
            b_hi,
        )
        best_total = na_max + nb_max
        if math.isfinite(total_cap):
            best_total = min(best_total, max(int(total_cap), 0))
        n_a = min(na_max, best_total)
        per_gamma.append(GammaBest(gamma=gamma, n_a=n_a, n_b=best_total - n_a))

    best = max(per_gamma, key=lambda g: (g.total, g.n_a))
    report = evaluate_conditions(
        stats, N, Nb, TheoremParams(s=s, gamma=best.gamma, n_a=best.n_a, n_b=best.n_b)
    )
    return SparsitySearchResult(
        best_n_a=best.n_a,
        best_n_b=best.n_b,
        best_gamma=best.gamma,
        per_gamma=tuple(per_gamma),
        report=report,
    )


# ============================================================
# asymptotic design ratios
# ============================================================


@dataclass(frozen=True)
class ScalingReport:
    """Dimensionless ratios tracking the asymptotic design targets.

    r1 = mu sqrt(m)                      coherence at the square-root scale
    r2 = mu_a m / log N                  block-A coherence against m / log N
    r3 = Na log N / m                    block-A size against m / log N
    r4 = ||B||^2 m / (N_b log N)         block-B frame growth
    r5 = ||A||^2 ||B||^2 m / (N_b log N) cross-term growth

    These are reports, not pass/fail checks: the targets are asymptotic
    statements about families of dictionaries, meaningless for a single one.
    """

    r1: float
    r2: float
    r3: float
    r4: float
    r5: float

    def to_dict(self) -> dict:
        return {"r1": self.r1, "r2": self.r2, "r3": self.r3, "r4": self.r4, "r5": self.r5}


def scaling_report(stats: DictionaryStats, D: PartitionedDictionary) -> ScalingReport:
    _require_n_gt_2(D.N)
    log_n = math.log(D.N)
    nb = max(D.Nb, 1)
    return ScalingReport(
        r1=stats.mu * math.sqrt(D.m),
        r2=stats.mu_a * D.m / log_n,
        r3=D.Na * log_n / D.m,
        r4=stats.spec_b**2 * D.m / (nb * log_n),
        r5=stats.spec_a**2 * stats.spec_b**2 * D.m / (nb * log_n),
    )
