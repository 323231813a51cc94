"""Singular-value concentration for random sub-dictionaries.

For a sub-dictionary S = [A' B'] (n_a fixed columns of A, n_b random columns
of B) the smallest singular value is controlled through the hollow Gram norm
Xi_S = ||S^H S - I||:

    sigma_min(S)^2 >= 1 - Xi_S
    Xi_S <= max{Xi_A, Xi_B} + Xi_X <= Xi_A + Xi_B + Xi_X
    Xi_A <= (n_a - 1) mu_a                   (Gersgorin disc bound)
    ||A'^H B||_{1,2} <= sqrt(mu^2 n_a)       (entrywise coherence bound)
    Xi_X <= ||A|| ||B||                      (norm sub-multiplicativity)

with Xi_A, Xi_B the block hollow Gram norms and Xi_X = ||A'^H B'||.  The
random part concentrates: P{Xi_S >= e^{1/4} (alpha u + beta)} <= e^{-u^2/4}
for u^2 at or above the moment floors ``moment_floor_b`` and
``moment_floor_x``, with alpha = slope_a + slope_b and beta = gersgorin +
frame + cross from ``threshold``'s block terms.  The theorem's
u = sqrt(4 s log N) (``threshold.default_u``) clears both floors; there the
threshold is e^{1/4} (eq3 lhs + eq4 lhs) / 2, read from ``threshold``'s
conditions, and the bound is N^{-s}, the ``lemma1_bound`` of
``run_smin_trials``.  So when both block conditions hold the threshold is at
most 1/2, which pins sigma_min > 1/sqrt(2) outside the N^{-s} event.
``run_smin_trials`` measures this empirically; ``estimate_moment`` checks the
Xi_B and Xi_X moment bounds.

Both runners share one kernel, run on the blocks of ``rng.fan_out`` on the
A-support resolved once per run.  This module only measures: a block's
supports come from ``model.draw_supports``, the rows ``model.sample_instance``
draws on each trial's own stream.  ``chain_batch`` measures the chain for a
block of draws at once: the sub-dictionaries are stacked into one (T, m, k)
array, and each of sigma_min, Xi_S, Xi_A, Xi_B and Xi_X takes one stacked
``np.linalg.svd(..., compute_uv=False)``.  That is
the LAPACK routine the per-matrix ``svd`` and ``norm(ord=2)`` call, applied
matrix by matrix, so every value is bit-identical to measuring the draw on
its own, whatever the block or worker split.  A batched ``eigvalsh`` of the
Gram would be cheaper but rounds differently, moving the CSVs' last digits.
``estimate_moment`` reads only Xi_B and Xi_X, so it takes the stacking and
those two SVDs from the same code (``_sub_dictionaries``) and skips the
other three.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .dictionary import DictionaryStats, PartitionedDictionary, analyze
from .model import SUPPORT_A_STRATEGIES, choose_support_a, draw_supports
from .rng import _require_seed, derive_rng, fan_out
from .threshold import (
    _require_n_gt_2, _require_s, block_a_terms, block_b_terms, first_feasible_gamma,
)

__all__ = [
    "HollowGramRecord",
    "SminExperimentResult",
    "MomentEstimate",
    "chain_batch",
    "run_smin_trials",
    "estimate_moment",
]

CHAIN_SLACK = 1e-9
BOOT_CHUNK_BYTES = 16 * 2**20  # bounds one bootstrap chunk's int64 resample indices
CSV_CHUNK_ROWS = 256
_NORMAL_MIN = np.finfo(float).tiny  # the smallest normal double

TRIAL_CSV_HEADER = "trialIndex,sigmaMin,xiS,xiA,xiB,xiX"
MOMENT_CSV_HEADER = "trialIndex,xiB,xiX"


# ============================================================
# the inequality chain
# ============================================================


def _smallest_singular_values(stack: np.ndarray) -> np.ndarray:
    """sigma_min of each stacked (m, k) matrix; exactly 0 when k > m."""
    T, m, k = stack.shape
    if k > m:
        return np.zeros(T)
    return np.linalg.svd(stack, compute_uv=False)[:, -1]


def _adjoint(stack: np.ndarray) -> np.ndarray:
    return stack.conj().swapaxes(-1, -2)


def _spectral_norms(stack: np.ndarray) -> np.ndarray:
    """norm(ord=2) of each stacked matrix: its largest singular value."""
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def _hollow_norms(blocks: np.ndarray) -> np.ndarray:
    """||X^H X - I|| for each stacked column block X; zeros for empty blocks."""
    k = blocks.shape[-1]
    if k == 0:
        return np.zeros(len(blocks))
    return _spectral_norms(_adjoint(blocks) @ blocks - np.eye(k))


@dataclass(frozen=True)
class HollowGramRecord:
    """All chain quantities for a batch of T sub-dictionary draws.

    The measured fields (``sigma_min`` through ``row_norm_ab``) are length-T
    arrays, entry t for draw t.  ``gersgorin_rhs``, ``row_norm_bound`` and
    ``cross_bound`` are the closed-form ceilings the respective measured
    quantities must stay under; ``breaks`` is the one table of the six chain
    inequalities (never broken when the inputs are consistent).
    """

    sigma_min: np.ndarray
    xi_s: np.ndarray
    xi_a: np.ndarray
    xi_b: np.ndarray
    xi_x: np.ndarray
    row_norm_ab: np.ndarray
    gersgorin_rhs: float
    row_norm_bound: float
    cross_bound: float

    @property
    def xi_max_path(self):
        return np.maximum(self.xi_a, self.xi_b) + self.xi_x

    @property
    def xi_sum_path(self):
        return self.xi_a + self.xi_b + self.xi_x

    def breaks(self, slack: float = CHAIN_SLACK) -> dict:
        """Inequality name -> mask of the draws that break it beyond ``slack``."""
        return {
            "sigma_min^2 >= 1 - xi_s": self.sigma_min**2 < 1.0 - self.xi_s - slack,
            "xi_s <= max(xi_a, xi_b) + xi_x": self.xi_s > self.xi_max_path + slack,
            "xi_s <= xi_a + xi_b + xi_x": self.xi_s > self.xi_sum_path + slack,
            "xi_a <= (n_a - 1) mu_a": self.xi_a > self.gersgorin_rhs + slack,
            "row_norm_ab <= sqrt(mu^2 n_a)": self.row_norm_ab > self.row_norm_bound + slack,
            "xi_x <= ||A|| ||B||": self.xi_x > self.cross_bound + slack,
        }


def _sub_dictionaries(D: PartitionedDictionary, cols_a, cols_b):
    """(S, Xi_B, Xi_X) of T draws: the stacked (T, m, n_a + n_b) sub-dictionaries
    and the two B-dependent chain quantities, each from one stacked SVD.

    Row t of ``cols_a`` (T, n_a) and ``cols_b`` (T, n_b) selects draw t's
    columns of A and B; each row must be duplicate-free and inside its block.
    """
    cols_a = np.asarray(cols_a, dtype=np.intp)
    cols_b = np.asarray(cols_b, dtype=np.intp)
    T, n_a = cols_a.shape
    n_b = cols_b.shape[1]
    if n_a + n_b == 0:
        raise ValueError("empty sub-dictionary has no smallest singular value")
    for block, cols, size in (("A", cols_a, D.Na), ("B", cols_b, D.Nb)):
        if cols.size and (cols.min() < 0 or cols.max() >= size):
            raise ValueError(f"{block}-column indices out of range [0, {size})")
        ordered = np.sort(cols, axis=1)
        if np.any(ordered[:, 1:] == ordered[:, :-1]):
            raise ValueError(f"{block}-column index sets must be duplicate-free")
    # (T, m, k), each draw laid out as np.hstack lays out one S: column-major,
    # but row-major for two single columns.  BLAS dot kernels round contiguous
    # and strided columns differently, so the layout keeps the bytes.
    S = np.concatenate((D.A.T[cols_a], D.B.T[cols_b]), axis=1).swapaxes(1, 2)
    if n_a == n_b == 1:
        S = np.ascontiguousarray(S)
    a_part, b_part = S[..., :n_a], S[..., n_a:]
    xi_x = _spectral_norms(_adjoint(a_part) @ b_part) if n_a and n_b else np.zeros(T)
    return S, _hollow_norms(b_part), xi_x


def chain_batch(
    D: PartitionedDictionary, stats: DictionaryStats, cols_a, cols_b
) -> HollowGramRecord:
    """Measure every quantity in the chain for T draws at once.

    Row t of ``cols_a`` (T, n_a) and ``cols_b`` (T, n_b) selects draw t's
    columns of A and B; each row must be duplicate-free and inside its block.
    The T sub-dictionaries are stacked and each quantity takes one stacked
    SVD, which LAPACK runs matrix by matrix, so draw t's values do not depend
    on the other draws.
    """
    S, xi_b, xi_x = _sub_dictionaries(D, cols_a, cols_b)
    cols_a = np.asarray(cols_a, dtype=np.intp)
    T, n_a = cols_a.shape
    xi_a = row_norm_ab = np.zeros(T)
    if n_a:
        # both depend on the A-support only: measure each distinct one once
        _, first, which = np.unique(cols_a, axis=0, return_index=True, return_inverse=True)
        which = which.reshape(-1)
        a_distinct = S[..., :n_a][first]
        xi_a = _hollow_norms(a_distinct)[which]
        if D.Nb:
            # max column l2 norm of A'^H against the FULL block B, one support
            # at a time so memory stays n_a x Nb
            row_norm_ab = np.array([
                np.linalg.norm(a.conj().T @ D.B, axis=0).max() for a in a_distinct
            ])[which]
    slope_a, gersgorin = block_a_terms(stats.mu, stats.mu_a, n_a)
    return HollowGramRecord(
        sigma_min=_smallest_singular_values(S),
        xi_s=_hollow_norms(S),
        xi_a=xi_a,
        xi_b=xi_b,
        xi_x=xi_x,
        row_norm_ab=row_norm_ab,
        gersgorin_rhs=gersgorin,
        row_norm_bound=slope_a * math.sqrt(2.0) / 3.0,  # slope_a / (3/sqrt(2))
        cross_bound=stats.spec_a * stats.spec_b,
    )


# ============================================================
# sigma_min Monte Carlo
# ============================================================


def _per_trial(shape) -> np.ndarray:
    """Allocate a runner's per-trial results before any work, so a trial count
    too large to hold fails as a usage error."""
    try:
        return np.empty(shape)
    except MemoryError as exc:
        raise ValueError(f"too many trials to hold one row each: {exc}") from None


def _csv_lines(header: str, columns) -> list[str]:
    """``header``, then "t,<repr of each column's float t>" for each trial t.
    The floats are made CSV_CHUNK_ROWS rows at a time, so a run's rows never
    all exist as Python objects at once."""
    table = np.column_stack(columns)
    out = [header]
    for lo in range(0, len(table), CSV_CHUNK_ROWS):
        chunk = table[lo : lo + CSV_CHUNK_ROWS].tolist()
        out += (f"{t}," + ",".join(map(repr, row)) for t, row in enumerate(chunk, lo))
    return out


def _smin_block(common, lo, hi):
    """lo, then the CSV columns, breaks per inequality and broken trials of
    trials lo..hi-1."""
    D, stats, support_a, n_b, master_seed = common
    rec = chain_batch(D, stats, *draw_supports(D, support_a, n_b, master_seed, lo, hi))
    masks = rec.breaks()
    return (
        lo,
        np.column_stack((rec.sigma_min, rec.xi_s, rec.xi_a, rec.xi_b, rec.xi_x)),
        {name: int(np.count_nonzero(mask)) for name, mask in masks.items()},
        int(np.count_nonzero(np.logical_or.reduce(list(masks.values())))),
    )


@dataclass(eq=False)
class SminExperimentResult:
    """Per-trial chain measurements plus the empirical concentration summary."""

    n_a: int
    n_b: int
    trials: int
    s: float
    master_seed: int
    strategy: str
    support_a: tuple[int, ...] | None
    N: int
    sigma_min: np.ndarray
    xi_s: np.ndarray
    xi_a: np.ndarray
    xi_b: np.ndarray
    xi_x: np.ndarray
    violation_count: int
    violations_by_inequality: dict[str, int]
    failure_count: int
    empirical_failure_rate: float
    lemma_bound: float
    gamma_feasible: float | None
    bound_respected: bool | None
    histogram_counts: np.ndarray
    histogram_edges: np.ndarray

    def csv_rows(self) -> list[str]:
        columns = (self.sigma_min, self.xi_s, self.xi_a, self.xi_b, self.xi_x)
        return _csv_lines(TRIAL_CSV_HEADER, columns)

    def summary_dict(self) -> dict:
        return {
            "n_a": self.n_a,
            "n_b": self.n_b,
            "trials": self.trials,
            "s": self.s,
            "master_seed": self.master_seed,
            "strategy": self.strategy,
            "support_a": list(self.support_a) if self.support_a is not None else None,
            "N": self.N,
            "violation_count": self.violation_count,
            "violations_by_inequality": dict(self.violations_by_inequality),
            "failure_count": self.failure_count,
            "empirical_failure_rate": self.empirical_failure_rate,
            "lemma1_bound": self.lemma_bound,
            "gamma_feasible": self.gamma_feasible,
            "conditions_hold": self.gamma_feasible is not None,
            "bound_respected": self.bound_respected,
            "sigma_min_mean": float(self.sigma_min.mean()),
            "sigma_min_smallest": float(self.sigma_min.min()),
            "histogram": {
                "counts": [int(c) for c in self.histogram_counts],
                "edges": [float(e) for e in self.histogram_edges],
            },
        }


def run_smin_trials(
    D: PartitionedDictionary,
    strategy: str,
    n_a: int,
    n_b: int,
    trials: int,
    s: float = 1.0,
    master_seed: int = 0,
    support_a=None,
    workers: int = 1,
) -> SminExperimentResult:
    """Sample ``trials`` sub-dictionaries and measure the whole chain.

    The A-support is resolved once per run (any deterministic strategy or a
    prescribed list); the ``random-baseline`` strategy instead re-draws it
    every trial before the B-support, as the control experiment.  Failure means
    sigma_min <= 1/sqrt(2); the empirical failure rate is compared against
    the N^{-s} bound whenever some gamma in the default grid satisfies both
    block conditions.
    """
    _require_seed(master_seed)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if n_a + n_b == 0:
        raise ValueError("empty sub-dictionary has no smallest singular value")
    D.check_budgets(n_a, n_b)
    _require_s(s)
    _require_n_gt_2(D.N)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    resolved = choose_support_a(strategy, D.Na, n_a, indices=support_a)
    rows = _per_trial((trials, 5))
    stats = analyze(D)
    gamma_feasible = first_feasible_gamma(stats, D.N, D.Nb, s, n_a, n_b)

    by_inequality: Counter = Counter()
    violation_count = 0
    common = (D, stats, resolved, n_b, master_seed)
    for lo, block, breaks, broken in fan_out(_smin_block, common, trials, workers):
        rows[lo : lo + len(block)] = block
        by_inequality.update(breaks)
        violation_count += broken

    sig = rows[:, 0]
    failure_count = int(np.count_nonzero(sig <= 1.0 / math.sqrt(2.0)))
    rate = failure_count / trials
    lemma_bound = float(D.N) ** (-s)
    bound_respected = (rate <= lemma_bound) if gamma_feasible is not None else None

    counts, edges = np.histogram(np.clip(sig, 0.0, 1.0), bins=50, range=(0.0, 1.0))
    return SminExperimentResult(
        n_a=n_a,
        n_b=n_b,
        trials=trials,
        s=s,
        master_seed=master_seed,
        strategy=strategy,
        support_a=None if strategy == "random-baseline" else resolved,
        N=D.N,
        sigma_min=sig,
        xi_s=rows[:, 1],
        xi_a=rows[:, 2],
        xi_b=rows[:, 3],
        xi_x=rows[:, 4],
        violation_count=violation_count,
        violations_by_inequality=dict(by_inequality),
        failure_count=failure_count,
        empirical_failure_rate=rate,
        lemma_bound=lemma_bound,
        gamma_feasible=gamma_feasible,
        bound_respected=bound_respected,
        histogram_counts=counts,
        histogram_edges=edges,
    )


# ============================================================
# moment estimation
# ============================================================


def moment_floor_b(n_b: int) -> float:
    """Smallest q for which the Xi_B moment bound is valid."""
    if n_b < 1:
        return 4.0
    return max(4.0 * math.log(n_b / 2.0 + 1.0), 4.0)


def moment_floor_x(n_b: int) -> float:
    """Smallest q for which the Xi_X moment bound is valid (a higher floor)."""
    if n_b < 1:
        return 4.0
    return max(4.0 * math.log(n_b), 4.0)


@dataclass(eq=False)
class MomentEstimate:
    """Monte Carlo moment roots of Xi_B and Xi_X against their bounds.

    The Xi_X side is populated only when q clears its own validity floor;
    otherwise estimate/bound on that side are None and only the raw samples
    remain available.
    """

    q: float
    trials: int
    n_a: int
    n_b: int
    estimate_b: float
    upper95_b: float
    bound_b: float
    floor_b: float
    estimate_x: float | None
    upper95_x: float | None
    bound_x: float | None
    floor_x: float
    xi_b: np.ndarray
    xi_x: np.ndarray

    def csv_rows(self) -> list[str]:
        return _csv_lines(MOMENT_CSV_HEADER, (self.xi_b, self.xi_x))

    def summary_dict(self) -> dict:
        return {
            "q": self.q,
            "trials": self.trials,
            "n_a": self.n_a,
            "n_b": self.n_b,
            "estimate_b": self.estimate_b,
            "upper95_b": self.upper95_b,
            "bound_b": self.bound_b,
            "floor_b": self.floor_b,
            "estimate_x": self.estimate_x,
            "upper95_x": self.upper95_x,
            "bound_x": self.bound_x,
            "floor_x": self.floor_x,
        }


def _moment_block(common, lo, hi):
    """lo, then Xi_B and Xi_X of trials lo..hi-1; sigma_min, Xi_S and Xi_A
    would be unused SVDs."""
    D, support_a, n_b, master_seed = common
    cols_a, cols_b = draw_supports(D, support_a, n_b, master_seed, lo, hi)
    return lo, *_sub_dictionaries(D, cols_a, cols_b)[1:]


def _moment_roots(x: np.ndarray, q: float):
    """[mean of x^q]^{1/q} along the last axis of nonnegative x, at any q.

    Where the plain mean of q-th powers leaves the normal range (0 or
    subnormal by underflow, inf by overflow), x is divided by its largest
    value first: the powers then lie in [0, 1], one of them 1, so their mean
    is at least 1/T, and the root is that largest value times the scaled
    root.  Everywhere else the plain formula's bits are kept.
    """
    with np.errstate(over="ignore"):
        means = np.mean(x**q, axis=-1)
    roots = means ** (1.0 / q)
    bad = ~((means >= _NORMAL_MIN) & (means < math.inf))
    if np.any(bad):
        top = x.max(axis=-1, keepdims=True)
        unit = x / np.where(top > 0.0, top, 1.0)
        roots = np.where(bad, top[..., 0] * np.mean(unit**q, axis=-1) ** (1.0 / q), roots)
    return roots


def estimate_moment(
    D: PartitionedDictionary,
    n_a: int,
    n_b: int,
    q: float,
    trials: int,
    master_seed: int = 0,
    strategy: str = "first-n",
    support_a=None,
    n_boot: int = 1000,
) -> MomentEstimate:
    """Estimate [E Xi^q]^{1/q} for Xi_B and Xi_X over random B-supports.

    The A-support is resolved once per run (default: first n_a columns;
    ``random-baseline``, which redraws it per trial, is refused).  Bootstrap
    percentiles (upper edge of the 95% interval) quantify Monte Carlo error;
    the analytic bounds are provably slack, so the upper edge should sit
    well below them.
    """
    _require_seed(master_seed)
    if trials < 1000:
        raise ValueError(f"moment estimation needs >= 1000 trials, got {trials}")
    floor_b = moment_floor_b(n_b)
    floor_x = moment_floor_x(n_b)
    if not (math.isfinite(q) and q >= floor_b - 1e-12):
        raise ValueError(
            f"q must be a finite number at or above the validity floor "
            f"{floor_b:.6g} for n_b={n_b}, got q={q}"
        )
    if n_a + n_b == 0:
        raise ValueError("empty sub-dictionary has no smallest singular value")
    D.check_budgets(n_a, n_b)
    support_a = choose_support_a(strategy, D.Na, n_a, indices=support_a)
    if isinstance(support_a, int):
        fixed = tuple(name for name in SUPPORT_A_STRATEGIES if name != "random-baseline")
        raise ValueError(
            f"moments need a fixed A-support: strategy must be one of {fixed}, "
            f"got {strategy!r}"
        )
    xi_b, xi_x = _per_trial((2, trials))
    stats = analyze(D)

    common = (D, support_a, n_b, master_seed)
    for lo, block_b, block_x in fan_out(_moment_block, common, trials, 1):
        xi_b[lo : lo + len(block_b)] = block_b
        xi_x[lo : lo + len(block_x)] = block_x

    slope_a, _ = block_a_terms(stats.mu, stats.mu_a, n_a)
    slope_b, frame, cross = block_b_terms(stats.mu_b, stats.spec_a, stats.spec_b, n_b, D.Nb)
    sqrt_q = math.sqrt(q)
    bound_b = slope_b * sqrt_q + frame
    x_valid = q >= floor_x - 1e-12
    bound_x = slope_a * sqrt_q + cross if x_valid else None

    boot_rng = derive_rng(master_seed, trials, 1)
    boot_b = np.empty(n_boot)
    boot_x = np.empty(n_boot)
    chunk = max(1, min(100, BOOT_CHUNK_BYTES // (8 * trials)))  # resamples at a time
    for lo in range(0, n_boot, chunk):
        hi = min(lo + chunk, n_boot)
        idx = boot_rng.integers(0, trials, size=(hi - lo, trials))
        boot_b[lo:hi] = _moment_roots(xi_b[idx], q)
        boot_x[lo:hi] = _moment_roots(xi_x[idx], q)

    return MomentEstimate(
        q=q,
        trials=trials,
        n_a=n_a,
        n_b=n_b,
        estimate_b=float(_moment_roots(xi_b, q)),
        upper95_b=float(np.quantile(boot_b, 0.975)),
        bound_b=bound_b,
        floor_b=floor_b,
        estimate_x=float(_moment_roots(xi_x, q)) if x_valid else None,
        upper95_x=float(np.quantile(boot_x, 0.975)) if x_valid else None,
        bound_x=bound_x,
        floor_x=floor_x,
        xi_b=xi_b,
        xi_x=xi_x,
    )
