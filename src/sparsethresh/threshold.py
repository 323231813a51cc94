"""Closed-form sparsity conditions for partitioned dictionaries.

All conditions bound the support sizes n_a (arbitrary block A) and n_b
(random block B) through one ``DictionaryStats``, the dictionary's coherence
profile and shape, and read nothing beside it; logs are natural.  With
L = s log N, u = sqrt(4 s log N) (``default_u``) and budget split gamma in [0, 1]:

  eq1  n_a + n_b <  min{ c mu^-2 / L, mu^-2 / 2 }          (strict), c = 0.004212
  eq2  n_a + n_b <= mu^-2 / (8 (s + 1) log N)
  eq3  2 (slope_a u + gersgorin)           <=  (1 - gamma) e^{-1/4}
  eq4  2 (slope_b u + frame + cross)       <=  gamma e^{-1/4}
  eq5  n_a + n_b <  mu^-2 / 2                               (strict)
  eq6  n_a + n_b <= mu^-2 / (8 (s + 1) log N)
  classical  n_a + n_b <  (1 + 1/mu) / 2                    (strict)

where ``block_a_terms`` and ``block_b_terms`` define the block terms.  eq3 and
eq4 are the two halves of the singular-value concentration premise: at the
theorem's u the tail threshold is e^{1/4} (eq3 lhs + eq4 lhs) / 2, at most 1/2
where both hold, and its bound is N^{-s}, the ``lemma1_bound`` that
``concentration.run_smin_trials`` reports.  The same terms give
``concentration``'s moment bounds slope_b sqrt(q) + frame on Xi_B and
slope_a sqrt(q) + cross on Xi_X.  eq5
gives l0 uniqueness and eq6 adds l1 equivalence on top of eq3/eq4.  N > 2 and
s >= 1 give 8 (s + 1) log N > 2, so eq6's rhs lies below eq5's and eq6 implies
eq5; eq2 is eq6's formula.
An orthonormal dictionary has mu = 0 and every mu^-2 threshold becomes +inf
at any s; the report then carries rhs = inf and the condition holds for any
budget.  A zero budget holds every condition, also where eq1's rhs underflows
to 0 at huge s.

Each condition has one home: ``_conditions`` writes its lhs, rhs, strictness
and note once, and ``evaluate_conditions``, ``first_feasible_gamma`` and
``max_sparsity_search`` all read it.  The search maximizes n_a + n_b subject
to eq3..eq6 over a gamma grid by three bisections per gamma: n_a against eq3,
n_b against eq4, then the total against eq5 and eq6.  ``scaling_report``
reduces the asymptotic design targets to five dimensionless ratios with no
pass/fail attached.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .dictionary import DictionaryStats, _require_integer

__all__ = [
    "SPARSITY_CONSTANT",
    "GAMMA_GRID_DEFAULT",
    "TheoremParams",
    "ConditionCheck",
    "ConditionReport",
    "SparsitySearchResult",
    "ScalingReport",
    "classical_threshold",
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
        _require_integer("n_a", self.n_a)
        _require_integer("n_b", self.n_b)
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
# the conditions
# ============================================================


def classical_threshold(mu: float) -> float:
    """Deterministic worst-case sparsity threshold (1 + 1/mu) / 2; +inf at mu = 0."""
    if mu < 0:
        raise ValueError(f"coherence must be nonnegative, got {mu}")
    if mu == 0.0:
        return math.inf
    return 0.5 * (1.0 + 1.0 / mu)


def default_u(stats: DictionaryStats, s: float) -> float:
    """The canonical tail argument u = sqrt(4 s log N), giving bound N^{-s}."""
    _require_n_gt_2(stats.N)
    return math.sqrt(4.0 * s * math.log(stats.N))


def block_a_terms(stats: DictionaryStats, n_a: int) -> tuple[float, float]:
    """Block-A terms: slope = (3/sqrt(2)) sqrt(mu^2 n_a), the sqrt(q) coefficient
    of the Xi_X moment bound, and gersgorin = (n_a - 1) mu_a, the bound on Xi_A."""
    return 3.0 / math.sqrt(2.0) * math.sqrt(stats.mu**2 * n_a), max(n_a - 1, 0) * stats.mu_a


def block_b_terms(stats: DictionaryStats, n_b: int) -> tuple[float, float, float]:
    """Block-B terms, all 0 at n_b = 0: slope = 6 sqrt(mu_b^2 n_b) and frame =
    2 n_b ||B||^2 / N_b of the Xi_B moment bound, cross = sqrt(n_b / N_b) ||A|| ||B||
    the constant of the Xi_X moment bound."""
    if n_b == 0:
        return 0.0, 0.0, 0.0
    Nb, spec_b = stats.Nb, stats.spec_b
    if Nb < 1:
        raise ValueError(f"n_b={n_b} > 0 requires a nonempty block B")
    slope = 6.0 * math.sqrt(stats.mu_b**2 * n_b)
    return slope, 2.0 * n_b * spec_b**2 / Nb, math.sqrt(n_b / Nb) * stats.spec_a * spec_b


@dataclass(frozen=True)
class _Condition:
    """One inequality lhs(n) vs rhs(gamma), n being the budget it reads."""

    id: str
    budget: str  # the TheoremParams attribute n: "n_a", "n_b" or "total"
    lhs: Callable[[int], float]  # nondecreasing in n
    rhs: Callable[[float], float]
    strict: bool
    note: str = ""  # reported at n = 0

    def holds(self, lhs: float, gamma: float) -> bool:
        # lhs 0 holds every condition: eq1's rhs, > 0 in exact arithmetic, can
        # underflow to 0 at huge s
        if not lhs:
            return True
        rhs = self.rhs(gamma)
        return lhs < rhs if self.strict else lhs <= rhs

    def check(self, params: TheoremParams) -> ConditionCheck:
        n = getattr(params, self.budget)
        lhs = self.lhs(n)
        ok = self.holds(lhs, params.gamma)
        note = self.note if n == 0 else ""
        return ConditionCheck(self.id, lhs, self.rhs(params.gamma), self.strict, ok, note)


def _conditions(stats: DictionaryStats, s: float) -> tuple[_Condition, ...]:
    """eq1..eq6 and the classical bound for one profile and s, in report order."""
    _require_s(s)
    u = default_u(stats, s)
    classical = classical_threshold(stats.mu)  # also rejects mu < 0
    mu_sq = stats.mu * stats.mu
    inv = 1.0 / mu_sq if mu_sq else math.inf  # inf also where mu^2 underflows
    if math.isinf(inv):  # every cap is inf at any s, where inf / inf would be nan
        l0_cap = l1_cap = eq1_cap = math.inf
    else:
        l0_cap = inv / 2.0
        l1_cap = inv / (8.0 * (s + 1.0) * math.log(stats.N))
        eq1_cap = min(SPARSITY_CONSTANT * inv / (s * math.log(stats.N)), l0_cap)

    def block_lhs(slope: float, *constants: float) -> float:
        value = slope * u if slope else 0.0  # a zero slope adds 0 even where u is inf
        for constant in constants:
            value += constant
        return 2.0 * value

    return (
        _Condition("eq1", "total", float, lambda gamma: eq1_cap, strict=True),
        _Condition("eq2", "total", float, lambda gamma: l1_cap, strict=False),
        _Condition(
            "eq3",
            "n_a",
            lambda n: block_lhs(*block_a_terms(stats, n)),
            lambda gamma: (1.0 - gamma) * _QUARTER_DECAY,
            strict=False,
            note="vacuous at n_a = 0",
        ),
        _Condition(
            "eq4",
            "n_b",
            lambda n: block_lhs(*block_b_terms(stats, n)),
            lambda gamma: gamma * _QUARTER_DECAY,
            strict=False,
        ),
        _Condition("eq5", "total", float, lambda gamma: l0_cap, strict=True),
        _Condition("eq6", "total", float, lambda gamma: l1_cap, strict=False),
        _Condition("classical", "total", float, lambda gamma: classical, strict=True),
    )


def evaluate_conditions(stats: DictionaryStats, params: TheoremParams) -> ConditionReport:
    """Evaluate every condition for one (s, gamma, n_a, n_b) setting."""
    checks = tuple(c.check(params) for c in _conditions(stats, params.s))
    eq3, eq4, eq5, eq6 = checks[2:6]
    return ConditionReport(
        conditions=checks,
        l0_uniqueness=eq3.satisfied and eq4.satisfied and eq5.satisfied,
        l0_l1_equivalence=eq3.satisfied and eq4.satisfied and eq6.satisfied,
    )


# ============================================================
# budget search
# ============================================================


def first_feasible_gamma(stats: DictionaryStats, s: float, n_a: int, n_b: int) -> float | None:
    """First gamma of GAMMA_GRID_DEFAULT at which eq3 and eq4 both hold, else None.

    Neither lhs depends on gamma, so both are evaluated once, up front: n_b > 0
    on an empty block B raises even where eq3 fails.
    """
    _, _, eq3, eq4, *_ = _conditions(stats, s)
    lhs_a, lhs_b = eq3.lhs(n_a), eq4.lhs(n_b)
    for gamma in GAMMA_GRID_DEFAULT:
        if eq3.holds(lhs_a, gamma) and eq4.holds(lhs_b, gamma):
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


def _largest_feasible(conditions: tuple[_Condition, ...], gamma: float, hi: int) -> int:
    """Largest n in [0, hi] at which every condition holds at gamma, by
    bisection over their nondecreasing lhs."""

    def ok(n: int) -> bool:
        return all(c.holds(c.lhs(n), gamma) for c in conditions)

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


def max_sparsity_search(
    stats: DictionaryStats,
    s: float = 1.0,
    na_cap: int | None = None,
    nb_cap: int | None = None,
) -> SparsitySearchResult:
    """Maximize n_a + n_b subject to eq3..eq6 over GAMMA_GRID_DEFAULT.

    Every lhs is nondecreasing in its budget, so the per-gamma bisections of
    n_a, n_b and then their total are exact; the total is trimmed keeping n_a
    first.  Returns the lexicographically largest (n_a + n_b, n_a) over the
    grid, with the first maximizing gamma on ties, and (0, 0) when nothing is
    feasible.  ``na_cap``/``nb_cap`` restrict the block budgets below their
    natural limits Na and Nb.
    """
    _, _, eq3, eq4, eq5, eq6, _ = _conditions(stats, s)
    a_hi = stats.Na if na_cap is None else min(_require_integer("na_cap", na_cap), stats.Na)
    b_hi = stats.Nb if nb_cap is None else min(_require_integer("nb_cap", nb_cap), stats.Nb)

    per_gamma = []
    for gamma in GAMMA_GRID_DEFAULT:
        na_max = _largest_feasible((eq3,), gamma, a_hi)
        nb_max = _largest_feasible((eq4,), gamma, b_hi)
        total = _largest_feasible((eq5, eq6), gamma, na_max + nb_max)
        n_a = min(na_max, total)
        per_gamma.append(GammaBest(gamma=gamma, n_a=n_a, n_b=total - n_a))

    best = max(per_gamma, key=lambda g: (g.total, g.n_a))
    report = evaluate_conditions(
        stats, TheoremParams(s=s, gamma=best.gamma, n_a=best.n_a, n_b=best.n_b)
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


def scaling_report(stats: DictionaryStats) -> ScalingReport:
    _require_n_gt_2(stats.N)
    log_n = math.log(stats.N)
    m, nb = stats.m, max(stats.Nb, 1)
    return ScalingReport(
        r1=stats.mu * math.sqrt(m),
        r2=stats.mu_a * m / log_n,
        r3=stats.Na * log_n / m,
        r4=stats.spec_b**2 * m / (nb * log_n),
        r5=stats.spec_a**2 * stats.spec_b**2 * m / (nb * log_n),
    )
