"""l1 recovery: equality-constrained basis pursuit plus a tiny l0 oracle.

``solve_bp`` minimizes sum_i |x_i| (complex modulus) subject to D x = y with
ADMM (Boyd et al. 2011, "Distributed Optimization and Statistical Learning
via the Alternating Direction Method of Multipliers"): alternate the affine
projection x = v - pinv(D) (D v) + pinv(D) y onto the constraint set with
complex soft-thresholding, plus a scaled dual step.  The iteration is
scale-free and tunes its own step:

- it solves for y / ||y|| and multiplies the result by ||y||, so the
  stopping floors max(1, ...) are relative to ||y|| and the iteration count
  does not depend on the scale of y;
- the z- and dual updates use the over-relaxed point
  1.6 x + (1 - 1.6) z (RELAXATION; section 3.4.3 there);
- every 10 iterations (BALANCE_EVERY) the primal and dual residuals, each
  over its stopping scale, are compared: when one exceeds the other
  10-fold (BALANCE_RATIO), rho moves by a factor of 2 (BALANCE_FACTOR)
  toward balance and the scaled dual is rescaled by the inverse factor
  (residual balancing, section 3.4.1).  The projection does not depend on
  rho, so a new rho needs no refactorisation.

The returned x is always the projected iterate, never the relaxed point, so
it satisfies the constraint to machine precision wherever the iteration
stops.

``brute_force_l0`` enumerates all supports up to a small size cap and reports
every one that reproduces y by least squares, which settles minimality and
uniqueness by definition at desk scale.  Monte Carlo sweeps over (n_a, n_b)
cells aggregate success rates into a phase-transition grid.  Trial t of the
cell at grid indices (si, ai, bi) reads its stream
derive_rng(master_seed, si, ai, bi, t) through ``model.sample_instance``
(support, then magnitudes, then phases) and hands y to ``solve_bp``.  A sweep under the non-continuous
``unit`` magnitude law warns once, in the calling process, before any solve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .dictionary import PartitionedDictionary
from .model import CoefficientSpec, sample_instance
from .rng import derive_rng, fan_out

__all__ = [
    "BpSolverConfig",
    "RecoveryOutcome",
    "BruteForceResult",
    "PhaseTransitionGrid",
    "solve_bp",
    "brute_force_l0",
    "run_recovery_sweep",
    "SUCCESS_REL_ERROR",
]

SUCCESS_REL_ERROR = 1e-4
SUPPORT_FLOOR_FACTOR = 1e-6
RECOVERY_CSV_HEADER = "nA,nB,strategy,trials,successes,rate"

# ADMM step rules (see the module docstring).  Balancing on every iteration
# falls into a limit cycle: single-atom mub7 cells drop from 8/8 to 0/8.
RELAXATION = 1.6
BALANCE_EVERY = 10
BALANCE_RATIO = 10.0
BALANCE_FACTOR = 2.0

_UNIT_LAW_WARNING = (
    "unit magnitudes are not drawn from a continuous distribution; "
    "uniqueness-based success claims are fragile under this law"
)


@dataclass(frozen=True)
class BpSolverConfig:
    """ADMM settings; ``step_parameter`` is the initial rho, which residual
    balancing then moves.  Tolerances are relative to ||y||."""

    step_parameter: float = 1.0
    max_iterations: int = 100_000
    primal_tolerance: float = 1e-8
    dual_tolerance: float = 1e-8

    def __post_init__(self):
        if self.step_parameter <= 0:
            raise ValueError(f"step_parameter must be positive, got {self.step_parameter}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.primal_tolerance <= 0 or self.dual_tolerance <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True, eq=False)
class RecoveryOutcome:
    """Solver output and diagnostics; error fields need a reference x_true.

    ``feasibility_residual`` is ||D x_hat - y|| / ||y|| (0 when y = 0).
    """

    x_hat: np.ndarray
    l1_value: float
    feasibility_residual: float
    iterations: int
    converged: bool
    relative_l2_error: float | None = None
    support_match: bool | None = None

    @property
    def success(self) -> bool:
        return (
            self.converged
            and self.relative_l2_error is not None
            and self.relative_l2_error <= SUCCESS_REL_ERROR
        )


def _shrink(w: np.ndarray, k: float) -> np.ndarray:
    """Complex soft-threshold: shrink the modulus by k, keep the phase."""
    return np.maximum(1.0 - k / np.maximum(np.abs(w), 1e-300), 0.0) * w


def _norm(a: np.ndarray) -> float:
    return math.sqrt(np.vdot(a, a).real)


def _dictionary_matrix(D) -> np.ndarray:
    if isinstance(D, PartitionedDictionary):
        return D.matrix
    mat = np.asarray(D, dtype=np.complex128)
    if mat.ndim != 2:
        raise ValueError("expected a matrix or a PartitionedDictionary")
    return mat


def solve_bp(
    D,
    y,
    cfg: BpSolverConfig | None = None,
    x_true=None,
) -> RecoveryOutcome:
    """Minimize the l1 norm subject to D x = y.

    Never raises on non-convergence; the outcome carries converged=False and
    the last projected (feasible) iterate instead.  When ``x_true`` is given,
    the relative l2 error (absolute norm if x_true = 0) and the support match
    at floor SUPPORT_FLOOR_FACTOR * max|x_hat| are filled in.
    """
    cfg = cfg or BpSolverConfig()
    mat = _dictionary_matrix(D)
    m, n = mat.shape
    y = np.asarray(y, dtype=np.complex128).reshape(-1)
    if y.shape[0] != m:
        raise ValueError(f"y has length {y.shape[0]}, expected {m}")
    if not np.all(np.isfinite(y.view(float))):
        raise ValueError("y must be finite")

    y_scale = _norm(y) or 1.0
    y_unit = y / y_scale
    pinv = np.linalg.pinv(mat)
    x_feas = pinv @ y_unit
    rho = cfg.step_parameter
    # complex scalars: numpy scales a complex array by a float scalar through
    # a slower mixed-type loop
    relax, relax_rest = complex(RELAXATION), complex(1.0 - RELAXATION)

    x = np.zeros(n, dtype=complex)
    z = np.zeros(n, dtype=complex)
    u = np.zeros(n, dtype=complex)
    converged = False
    it = 0
    for it in range(1, cfg.max_iterations + 1):
        v = z - u
        x = v - pinv @ (mat @ v) + x_feas
        w = relax * x + relax_rest * z + u
        z_old = z
        z = _shrink(w, 1.0 / rho)
        u = w - z
        r_norm = _norm(x - z)
        s_norm = rho * _norm(z - z_old)
        r_scale = max(1.0, _norm(x), _norm(z))
        s_scale = max(1.0, rho * _norm(u))
        if r_norm <= cfg.primal_tolerance * r_scale and s_norm <= cfg.dual_tolerance * s_scale:
            converged = True
            break
        if it % BALANCE_EVERY == 0:
            r_rel = r_norm / r_scale
            s_rel = s_norm / s_scale
            if r_rel > BALANCE_RATIO * s_rel:
                rho *= BALANCE_FACTOR
                u = u / BALANCE_FACTOR
            elif s_rel > BALANCE_RATIO * r_rel:
                rho /= BALANCE_FACTOR
                u = u * BALANCE_FACTOR

    feas = _norm(mat @ x - y_unit)
    x = x * y_scale

    rel_err = None
    match = None
    if x_true is not None:
        x_true = np.asarray(x_true, dtype=np.complex128).reshape(-1)
        true_norm = float(np.linalg.norm(x_true))
        diff = float(np.linalg.norm(x - x_true))
        rel_err = diff / true_norm if true_norm > 0 else float(np.linalg.norm(x))
        floor = SUPPORT_FLOOR_FACTOR * float(np.abs(x).max(initial=0.0))
        est_support = {int(i) for i in np.where(np.abs(x) > floor)[0]}
        true_support = {int(i) for i in np.where(np.abs(x_true) > 1e-12)[0]}
        match = est_support == true_support

    return RecoveryOutcome(
        x_hat=x,
        l1_value=float(np.abs(x).sum()),
        feasibility_residual=feas,
        iterations=it,
        converged=converged,
        relative_l2_error=rel_err,
        support_match=match,
    )


# ============================================================
# brute-force l0 oracle
# ============================================================


@dataclass(frozen=True)
class BruteForceResult:
    """Smallest support size reproducing y, with every achieving support."""

    k: int | None
    supports: tuple[tuple[int, ...], ...]

    @property
    def unique(self) -> bool:
        return self.k is not None and len(self.supports) == 1


def brute_force_l0(D, y, k_max: int, tol: float | None = None) -> BruteForceResult:
    """Exhaustive minimal-support search, capped at N <= 32 and k_max <= 4.

    Returns the smallest k <= k_max for which some size-k support fits y to
    within ``tol`` (default 1e-8 ||y||) by least squares, together with all
    such supports; k = None when nothing fits under the caps.
    """
    mat = _dictionary_matrix(D)
    m, n = mat.shape
    if n > 32:
        raise ValueError(f"brute force capped at N <= 32, got N={n}")
    if k_max > 4:
        raise ValueError(f"brute force capped at k_max <= 4, got {k_max}")
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    y = np.asarray(y, dtype=np.complex128).reshape(-1)
    if y.shape[0] != m:
        raise ValueError(f"y has length {y.shape[0]}, expected {m}")
    y_norm = float(np.linalg.norm(y))
    if tol is None:
        tol = 1e-8 * y_norm

    for k in range(k_max + 1):
        hits = []
        if k == 0:
            if y_norm <= tol:
                hits.append(())
        else:
            for support in combinations(range(n), k):
                sub = mat[:, support]
                c, *_ = np.linalg.lstsq(sub, y, rcond=None)
                if float(np.linalg.norm(sub @ c - y)) <= tol:
                    hits.append(tuple(support))
        if hits:
            return BruteForceResult(k=k, supports=tuple(hits))
    return BruteForceResult(k=None, supports=())


# ============================================================
# Monte Carlo recovery
# ============================================================


SWEEP_STRATEGIES = ("first-n", "spread", "random-baseline")


def _sweep_cell(payload):
    """(successes, solver stalls, largest iteration count) of one cell."""
    D, strategy, n_a, n_b, trials, master_seed, key, coeff, cfg = payload
    successes = nonconverged = iterations_max = 0
    for t in range(trials):
        rng = derive_rng(master_seed, *key, t)
        inst = sample_instance(D, strategy, n_a, n_b, rng, coeff=coeff)
        outcome = solve_bp(D, inst.y, cfg, x_true=inst.x)
        successes += outcome.success
        nonconverged += not outcome.converged
        iterations_max = max(iterations_max, outcome.iterations)
    return successes, nonconverged, iterations_max


@dataclass(eq=False)
class PhaseTransitionGrid:
    """Success counts over (strategy, n_a, n_b) cells."""

    na_values: tuple[int, ...]
    nb_values: tuple[int, ...]
    strategies: tuple[str, ...]
    trials_per_cell: int
    master_seed: int
    successes: np.ndarray  # shape (strategies, na_values, nb_values)
    nonconverged: np.ndarray  # solver stalls, same shape
    iterations_max: np.ndarray  # largest ADMM iteration count, same shape

    @property
    def rates(self) -> np.ndarray:
        return self.successes / self.trials_per_cell

    def csv_rows(self) -> list[str]:
        out = [RECOVERY_CSV_HEADER]
        for si, strategy in enumerate(self.strategies):
            for ai, n_a in enumerate(self.na_values):
                for bi, n_b in enumerate(self.nb_values):
                    hit = int(self.successes[si, ai, bi])
                    rate = hit / self.trials_per_cell
                    out.append(
                        f"{n_a},{n_b},{strategy},{self.trials_per_cell},{hit},{rate!r}"
                    )
        return out

    def rate_by_total(self, strategy: str) -> dict[int, float]:
        """Mean success rate over cells sharing n_a + n_b, per strategy."""
        si = self.strategies.index(strategy)
        sums: dict[int, list[float]] = {}
        for ai, n_a in enumerate(self.na_values):
            for bi, n_b in enumerate(self.nb_values):
                sums.setdefault(n_a + n_b, []).append(
                    float(self.successes[si, ai, bi]) / self.trials_per_cell
                )
        return {k: sum(v) / len(v) for k, v in sorted(sums.items())}

    def summary_dict(self) -> dict:
        return {
            "na_values": list(self.na_values),
            "nb_values": list(self.nb_values),
            "strategies": list(self.strategies),
            "trials_per_cell": self.trials_per_cell,
            "master_seed": self.master_seed,
            "rates": [
                [[float(r) for r in row] for row in plane] for plane in self.rates
            ],
            "nonconverged": self.nonconverged.tolist(),
            "iterations_max": self.iterations_max.tolist(),
        }


def run_recovery_sweep(
    D: PartitionedDictionary,
    na_values,
    nb_values,
    trials_per_cell: int,
    strategies=("first-n", "random-baseline"),
    master_seed: int = 0,
    coeff: CoefficientSpec | None = None,
    cfg: BpSolverConfig | None = None,
    workers: int = 1,
) -> PhaseTransitionGrid:
    """Measure success rates over the (strategy, n_a, n_b) grid.

    Per-trial streams are keyed by (strategy, cell, trial), so the grid is
    bitwise identical across worker counts and run orders.  Every grid value
    and strategy is checked, and the unit-law warning raised, before any
    solve.
    """
    na_values = tuple(int(v) for v in na_values)
    nb_values = tuple(int(v) for v in nb_values)
    strategies = tuple(strategies)
    if not na_values or not nb_values or not strategies:
        raise ValueError("na_values, nb_values and strategies must be non-empty")
    for name, values in (
        ("na_values", na_values), ("nb_values", nb_values), ("strategies", strategies)
    ):
        if len(set(values)) != len(values):
            raise ValueError(f"{name} has repeated entries: {values}")
    for strategy in strategies:
        if strategy not in SWEEP_STRATEGIES:
            raise ValueError(
                f"sweep strategy must be one of {SWEEP_STRATEGIES}, got {strategy!r}"
            )
    if trials_per_cell < 1:
        raise ValueError(f"trials_per_cell must be >= 1, got {trials_per_cell}")
    if min(na_values + nb_values) < 0 or max(na_values) > D.Na or max(nb_values) > D.Nb:
        raise ValueError(
            f"grid outside the block sizes [0, Na={D.Na}] x [0, Nb={D.Nb}]: "
            f"na_values {na_values}, nb_values {nb_values}"
        )
    if coeff is not None and coeff.magnitude_law == "unit":
        warnings.warn(_UNIT_LAW_WARNING, stacklevel=2)
    payloads = [
        (D, strategy, n_a, n_b, trials_per_cell, master_seed, (si, ai, bi), coeff, cfg)
        for si, strategy in enumerate(strategies)
        for ai, n_a in enumerate(na_values)
        for bi, n_b in enumerate(nb_values)
    ]
    shape = (len(strategies), len(na_values), len(nb_values))
    counts = np.array(fan_out(_sweep_cell, payloads, workers), dtype=np.int64)
    successes, nonconverged, iterations_max = (c.reshape(shape) for c in counts.T)
    return PhaseTransitionGrid(
        na_values=na_values,
        nb_values=nb_values,
        strategies=strategies,
        trials_per_cell=trials_per_cell,
        master_seed=master_seed,
        successes=successes,
        nonconverged=nonconverged,
        iterations_max=iterations_max,
    )
