"""Hybrid sparse-signal model: fixed support on block A, random support on B.

An instance is a coefficient vector x of length N with

  - a caller-chosen support of size n_a inside block A (any strategy, or an
    explicit index list),
  - a support of size n_b drawn uniformly at random from block B,
  - nonzero values z_i = r_i * exp(i theta_i) with magnitudes r_i from a
    configurable law and phases theta_i i.i.d. uniform on [0, 2 pi),

together with the measurement y = D x.  Everything is driven by explicit
generator streams (see ``sparsethresh.rng``), so instances are reproducible
and independent of evaluation order.

``draw_support`` is the one hybrid-support draw of every runner: the
A-support first (only ``random-baseline`` reads the stream for it), then the
B-support.  ``sample_instance`` reads the same stream on: magnitudes, then
phases.  So ``smin``, ``moments`` and ``recover`` see one support per stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dictionary import PartitionedDictionary

__all__ = [
    "MAGNITUDE_LAWS",
    "SUPPORT_A_STRATEGIES",
    "CoefficientSpec",
    "SparseInstance",
    "sample_support_b",
    "choose_support_a",
    "draw_support",
    "sample_instance",
]

MAGNITUDE_LAWS = ("half-normal-modulus", "uniform", "unit")
SUPPORT_A_STRATEGIES = ("prescribed", "first-n", "spread", "random-baseline")


@dataclass(frozen=True)
class CoefficientSpec:
    """Law of the nonzero values; phases are always uniform on [0, 2 pi).

    magnitude_law:
      half-normal-modulus  modulus of a standard complex Gaussian (default);
                           continuous and strictly positive a.s.
      uniform              uniform on (0, 1]; continuous
      unit                 constant 1; NOT continuous, kept for worst-case
                           style experiments only
    """

    magnitude_law: str = "half-normal-modulus"

    def __post_init__(self):
        if self.magnitude_law not in MAGNITUDE_LAWS:
            raise ValueError(
                f"unknown magnitude_law {self.magnitude_law!r}, "
                f"expected one of {MAGNITUDE_LAWS}"
            )

    def sample_magnitudes(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.magnitude_law == "half-normal-modulus":
            re = rng.standard_normal(n)
            im = rng.standard_normal(n)
            return np.hypot(re, im) / np.sqrt(2.0)
        if self.magnitude_law == "uniform":
            # 1 - U with U in [0, 1) lands in (0, 1]
            return 1.0 - rng.uniform(0.0, 1.0, size=n)
        return np.ones(n)


@dataclass(frozen=True, eq=False)
class SparseInstance:
    """One sampled coefficient vector and its measurement y = D x."""

    support: tuple[int, ...]
    values: np.ndarray
    x: np.ndarray
    y: np.ndarray

    @property
    def sparsity(self) -> int:
        return len(self.support)


# ============================================================
# support sampling
# ============================================================


def sample_support_b(n_total: int, n_pick: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Uniformly random size-n_pick subset of {0..n_total-1}, sorted ascending."""
    if not 0 <= n_pick <= n_total:
        raise ValueError(f"need 0 <= n_pick <= n_total, got {n_pick} of {n_total}")
    if n_pick == 0:
        return ()
    picked = rng.choice(n_total, size=n_pick, replace=False)
    return tuple(int(i) for i in np.sort(picked))


def choose_support_a(
    strategy: str,
    n_total: int,
    n_pick: int,
    indices=None,
    rng: np.random.Generator | None = None,
) -> tuple[int, ...]:
    """Pick the fixed block-A support per strategy.

    prescribed        pass ``indices`` through after validation
    first-n           {0, 1, ..., n_pick - 1}
    spread            evenly spaced, index i -> floor(i * n_total / n_pick)
    random-baseline   uniform subset drawn from ``rng``; the control against
                      the fixed strategies
    """
    if strategy not in SUPPORT_A_STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}, expected one of {SUPPORT_A_STRATEGIES}"
        )
    if not 0 <= n_pick <= n_total:
        raise ValueError(f"need 0 <= n_pick <= n_total, got {n_pick} of {n_total}")
    if indices is not None and strategy != "prescribed":
        raise ValueError(
            f"support_a indices apply only to the prescribed strategy, got {strategy!r}"
        )
    if strategy == "prescribed":
        if indices is None:
            raise ValueError("prescribed strategy needs an explicit index list")
        chosen = tuple(int(i) for i in indices)
        if len(chosen) != n_pick:
            raise ValueError(f"expected {n_pick} indices, got {len(chosen)}")
        if len(set(chosen)) != len(chosen):
            raise ValueError(f"prescribed indices contain duplicates: {chosen}")
        if any(not 0 <= i < n_total for i in chosen):
            raise ValueError(f"prescribed indices out of range [0, {n_total}): {chosen}")
        return chosen
    if strategy == "first-n":
        return tuple(range(n_pick))
    if strategy == "spread":
        # floor(i * n_total / n_pick) is strictly increasing since n_total >= n_pick
        return tuple(i * n_total // n_pick for i in range(n_pick))
    if rng is None:
        raise ValueError("random-baseline needs an rng")
    return sample_support_b(n_total, n_pick, rng)


def draw_support(
    D: PartitionedDictionary,
    strategy: str,
    n_a: int,
    n_b: int,
    rng: np.random.Generator,
    support_a=None,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """One hybrid support as (A-column indices, B-column indices).

    The A-support comes first (``choose_support_a``; only ``random-baseline``
    reads ``rng``), then n_b B-columns uniformly at random from ``rng``.
    """
    cols_a = choose_support_a(strategy, D.Na, n_a, indices=support_a, rng=rng)
    return cols_a, sample_support_b(D.Nb, n_b, rng)


# ============================================================
# instance sampling
# ============================================================


def sample_instance(
    D: PartitionedDictionary,
    strategy: str,
    n_a: int,
    n_b: int,
    rng: np.random.Generator,
    support_a=None,
    coeff: CoefficientSpec | None = None,
) -> SparseInstance:
    """Draw one hybrid-model instance from ``rng``.

    Draw order is fixed (``draw_support``, then magnitudes, then phases) so a
    given stream always produces the same instance.  The support lists the
    A-columns in ascending order, then the B-columns as indices into D.
    """
    coeff = coeff or CoefficientSpec()
    cols_a, cols_b = draw_support(D, strategy, n_a, n_b, rng, support_a)
    support = tuple(sorted(cols_a)) + tuple(D.Na + j for j in cols_b)
    k = len(support)

    magnitudes = coeff.sample_magnitudes(k, rng)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=k)
    values = magnitudes * np.exp(1j * phases)

    x = np.zeros(D.N, dtype=complex)
    x[list(support)] = values
    y = D.matrix @ x
    return SparseInstance(support=support, values=values, x=x, y=y)
