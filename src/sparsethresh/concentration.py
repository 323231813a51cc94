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
A-support resolved once per run.  Every function here takes the dictionary
alone and reads its profile as ``D.stats``, which D measures once and keeps,
so pool workers receive the profile with D.  This module only measures: a
block's supports come from ``model.draw_supports``, which draws each row
from its own trial's stream, whatever the block.  ``chain_batch``
measures the chain for a block of draws from their stacked Grams G = S^H S
with stacked ``eigvalsh`` calls: the extreme eigenvalues of G give sigma_min
and Xi_S, those of its diagonal blocks Xi_A and Xi_B, and the largest of
G_AB G_AB^H gives Xi_X.  LAPACK solves a stack matrix by matrix, so a draw's
values do not depend on the block or worker split.  sqrt(lambda_min) errs by
about eps ||G|| / (2 sigma_min), 2e-8 on an exactly singular S, so a draw
with lambda_min below ``SVD_BELOW_LAMBDA_MIN`` takes sigma_min from an SVD
of its S.  ``estimate_moment``
reads only Xi_B and Xi_X, from the same code (``_sub_dictionaries``).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import dictionary
from .dictionary import PartitionedDictionary, _require_integer
from .model import SUPPORT_A_STRATEGIES, _block_columns, choose_support_a, draw_supports
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
# An eigenvalue of G errs by about eps ||G||, so sqrt(lambda_min) by eps ||G|| / (2 sigma_min).
# From lambda_min = 1e-2 up (sigma_min >= 0.1) that is at most 5 eps ||G|| <= 5 eps k, for k
# unit columns; below, sigma_min comes from an SVD of S.
SVD_BELOW_LAMBDA_MIN = 1e-2
BOOT_CHUNK_BYTES = 16 * 2**20  # bounds one bootstrap chunk's int64 resample indices
CSV_CHUNK_ROWS = 1024
_NORMAL_MIN = np.finfo(float).tiny  # the smallest normal double

TRIAL_CSV_HEADER = "trialIndex,sigmaMin,xiS,xiA,xiB,xiX"
MOMENT_CSV_HEADER = "trialIndex,xiB,xiX"


# ============================================================
# the inequality chain
# ============================================================


def _adjoint(stack: np.ndarray) -> np.ndarray:
    return stack.conj().swapaxes(-1, -2)


def _spectrum(gram: np.ndarray):
    """(lambda_min, lambda_max, ||G - I||) of each stacked Hermitian G, k >= 1."""
    eigenvalues = np.linalg.eigvalsh(gram)
    low, high = eigenvalues[:, 0], eigenvalues[:, -1]
    return low, high, np.maximum(high - 1.0, 1.0 - low)


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
    """(S, G, Xi_B, Xi_X) of T draws: the stacked (T, m, k) sub-dictionaries,
    their (T, k, k) Grams G = S^H S and the two B-dependent chain quantities,
    read off the blocks of G.

    Row t of ``cols_a`` (T, n_a) and ``cols_b`` (T, n_b) selects draw t's
    columns of A and B; each row must hold distinct integers inside its block.
    """
    cols_a, cols_b = _block_columns("A", cols_a, D.Na), _block_columns("B", cols_b, D.Nb)
    T, n_a = cols_a.shape
    n_b = cols_b.shape[1]
    if n_a + n_b == 0:
        raise ValueError("empty sub-dictionary has no smallest singular value")
    # one gather from the whole matrix: half the time of one per block at p = 127
    S = np.moveaxis(D.matrix[:, np.hstack((cols_a, cols_b + D.Na))], 0, 1)
    gram = _adjoint(S) @ S
    xi_b = _spectrum(gram[:, n_a:, n_a:])[2] if n_b else np.zeros(T)
    xi_x = np.zeros(T)
    if n_a and n_b:
        cross = gram[:, :n_a, n_a:]  # A'^H B'
        outer = cross @ _adjoint(cross) if n_a <= n_b else _adjoint(cross) @ cross
        xi_x = np.sqrt(_spectrum(outer)[1])
    return S, gram, xi_b, xi_x


def _row_norms_ab(D: PartitionedDictionary, supports: np.ndarray) -> np.ndarray:
    """max_j ||A'^H b_j||, the largest column l2 norm of A'^H against the
    FULL block B, for the A-support A' of each row of ``supports`` (k, n_a).

    |a_i^H b_j|^2 is formed once for each column i in the union of the
    supports, over B-column chunks of about GRAM_CHUNK_BYTES, and a
    support's squared column norms are the sums of its rows, in its column
    order.  A fixed support is its own union, so it costs one n_a x Nb
    product.  BLAS may round an entry of a larger product in another last
    bit than the support's own product would: a few eps relative at most,
    and the value is only compared with its ceiling plus CHAIN_SLACK.
    """
    # the union as a mask over A (numpy 2.4's first np.unique of a flat array
    # costs 1.7 MB of RSS)
    present = np.zeros(D.Na, dtype=bool)
    present[supports] = True
    union = np.flatnonzero(present)
    rows = (np.cumsum(present) - 1)[supports]  # each support's rows in the union
    adjoint = D.A[:, union].conj().T
    width = max(1, dictionary.GRAM_CHUNK_BYTES // (16 * max(len(union), len(supports))))
    largest = np.zeros(len(supports))
    for lo in range(0, D.Nb, width):
        product = adjoint @ D.B[:, lo : lo + width]
        squares = np.square(product.real)
        squares += np.square(product.imag)
        del product
        sums = squares[rows[:, 0]]
        for i in range(1, rows.shape[1]):
            sums += squares[rows[:, i]]
        np.maximum(largest, sums.max(axis=1), out=largest)
    return np.sqrt(largest)


def chain_batch(D: PartitionedDictionary, cols_a, cols_b) -> HollowGramRecord:
    """Measure every quantity in the chain for T draws at once.

    Row t of ``cols_a`` (T, n_a) and ``cols_b`` (T, n_b) selects draw t's
    columns of A and B; each row must hold distinct integers inside its block.
    Each quantity is read off the eigenvalues of the draws' Grams G = S^H S or
    of their blocks; sigma_min comes from an SVD of S where lambda_min lies
    below ``SVD_BELOW_LAMBDA_MIN``, and is exactly 0 with more columns than
    rows.  The three ceilings read D's own profile, ``D.stats``.
    """
    S, gram, xi_b, xi_x = _sub_dictionaries(D, cols_a, cols_b)
    cols_a = np.asarray(cols_a, dtype=np.intp)
    T, n_a = cols_a.shape
    lambda_min, _, xi_s = _spectrum(gram)
    m, k = S.shape[1:]
    sigma_min = np.zeros(T)
    if k <= m:
        sigma_min = np.sqrt(np.maximum(lambda_min, 0.0))
        low = np.flatnonzero(lambda_min < SVD_BELOW_LAMBDA_MIN)
        if low.size:
            sigma_min[low] = np.linalg.svd(S[low], compute_uv=False)[:, -1]
    xi_a = row_norm_ab = np.zeros(T)
    if n_a:
        # both depend on the A-support only: measure each distinct one once
        _, first, which = np.unique(cols_a, axis=0, return_index=True, return_inverse=True)
        which = which.reshape(-1)
        xi_a = _spectrum(gram[first, :n_a, :n_a])[2][which]
        if D.Nb:
            row_norm_ab = _row_norms_ab(D, cols_a[first])[which]
    slope_a, gersgorin = block_a_terms(D.stats, n_a)
    return HollowGramRecord(
        sigma_min=sigma_min,
        xi_s=xi_s,
        xi_a=xi_a,
        xi_b=xi_b,
        xi_x=xi_x,
        row_norm_ab=row_norm_ab,
        gersgorin_rhs=gersgorin,
        row_norm_bound=slope_a * math.sqrt(2.0) / 3.0,  # slope_a / (3/sqrt(2))
        cross_bound=D.stats.spec_a * D.stats.spec_b,
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
    The rows are made CSV_CHUNK_ROWS at a time, so a run's rows never all exist
    as Python objects at once; within a chunk each distinct bit pattern is
    formatted once (bits, not values, so -0.0 stays apart from 0.0)."""
    table = np.column_stack(columns)
    out = [header]
    for lo in range(0, len(table), CSV_CHUNK_ROWS):
        chunk = table[lo : lo + CSV_CHUNK_ROWS]
        bits, inverse = np.unique(chunk.view(np.uint64).ravel(), return_inverse=True)
        text = np.array([repr(v) for v in bits.view(float).tolist()], dtype=object)
        rows = text[inverse.reshape(chunk.shape)].tolist()
        out += (f"{t}," + ",".join(row) for t, row in enumerate(rows, lo))
    return out


def _smin_block(common, lo, hi):
    """lo, then the CSV columns, breaks per inequality and broken trials of
    trials lo..hi-1."""
    D, support_a, n_b, master_seed = common
    rec = chain_batch(D, *draw_supports(D, support_a, n_b, master_seed, lo, hi))
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
    if _require_integer("trials", trials) < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if n_a + n_b == 0:
        raise ValueError("empty sub-dictionary has no smallest singular value")
    D.check_budgets(n_a, n_b)
    _require_s(s)
    _require_n_gt_2(D.N)
    if _require_integer("workers", workers) < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    resolved = choose_support_a(strategy, D.Na, n_a, indices=support_a)
    rows = _per_trial((trials, 5))
    # read before fan_out, so the workers receive the profile with D
    gamma_feasible = first_feasible_gamma(D.stats, s, n_a, n_b)

    by_inequality: Counter = Counter()
    violation_count = 0
    common = (D, resolved, n_b, master_seed)
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
        master_seed=int(master_seed),  # a numpy integer would not dump to JSON
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
    would be unused eigensolves of the Grams."""
    D, support_a, n_b, master_seed = common
    cols_a, cols_b = draw_supports(D, support_a, n_b, master_seed, lo, hi)
    return lo, *_sub_dictionaries(D, cols_a, cols_b)[2:]


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
    if _require_integer("trials", trials) < 1000:
        raise ValueError(f"moment estimation needs >= 1000 trials, got {trials}")
    if _require_integer("n_boot", n_boot) < 1:
        raise ValueError(f"n_boot must be >= 1, got {n_boot}")
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

    common = (D, support_a, n_b, master_seed)
    for lo, block_b, block_x in fan_out(_moment_block, common, trials, 1):
        xi_b[lo : lo + len(block_b)] = block_b
        xi_x[lo : lo + len(block_x)] = block_x

    slope_a, _ = block_a_terms(D.stats, n_a)
    slope_b, frame, cross = block_b_terms(D.stats, n_b)
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
