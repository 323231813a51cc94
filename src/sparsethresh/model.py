"""Hybrid sparse-signal model: fixed support on block A, random support on B.

An instance is a coefficient vector x of length N with

  - a caller-chosen support of size n_a inside block A (any strategy, or an
    explicit index list),
  - a support of size n_b drawn uniformly at random from block B,
  - nonzero values z_i = r_i * exp(i theta_i) whose magnitudes r_i are the
    modulus of a standard complex Gaussian (continuous and strictly positive)
    and whose phases theta_i are i.i.d. uniform on [0, 2 pi),

together with the measurement y = D x.  Everything is driven by explicit
generator streams (see ``sparsethresh.rng``), so instances are reproducible
and independent of evaluation order.

``choose_support_a`` turns a strategy into an A-support once per run (per
(strategy, n_a) in ``recover``).  ``draw_support``, the one hybrid-support
draw of a trial, takes it (only ``random-baseline`` reads the stream for
it), then draws the B-support; ``sample_instance`` reads the same stream on:
magnitudes, then phases.  So every runner sees one support per stream.
``recover`` draws each trial this way; ``smin`` and ``moments`` draw a
block's supports at once with ``concentration.draw_supports``, which gives
the rows ``draw_support`` gives and is tested against it.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .dictionary import PartitionedDictionary

__all__ = [
    "SUPPORT_A_STRATEGIES",
    "sample_support_b",
    "choose_support_a",
    "draw_support",
    "sample_instance",
]

SUPPORT_A_STRATEGIES = ("prescribed", "first-n", "spread", "random-baseline")


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
    strategy: str, n_total: int, n_pick: int, indices=None
) -> tuple[int, ...] | int:
    """Resolve a strategy into the ``support_a`` of ``draw_support``, once per run.

    prescribed        pass ``indices`` through after validation
    first-n           {0, 1, ..., n_pick - 1}
    spread            evenly spaced, index i -> floor(i * n_total / n_pick)
    random-baseline   the int n_pick: each trial draws its own n_pick
                      columns, the control against the fixed strategies
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
        # one index past n_pick tells a list too long, however long it is
        chosen = tuple(int(i) for i in islice(indices, n_pick + 1))
        if len(chosen) != n_pick:
            got = "more" if len(chosen) > n_pick else len(chosen)
            raise ValueError(f"expected {n_pick} indices, got {got}")
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
    return int(n_pick)


def draw_support(
    D: PartitionedDictionary, support_a: tuple[int, ...] | int, n_b: int, rng: np.random.Generator
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """One hybrid support as (A-column indices, B-column indices).

    ``support_a`` is ``choose_support_a``'s: a tuple is the A-support and reads
    nothing; an int n_a draws n_a A-columns from ``rng``.  Then n_b B-columns.
    """
    if isinstance(support_a, int):
        support_a = sample_support_b(D.Na, support_a, rng)
    return support_a, sample_support_b(D.Nb, n_b, rng)


# ============================================================
# instance sampling
# ============================================================


def sample_instance(
    D: PartitionedDictionary, support_a: tuple[int, ...] | int, n_b: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one hybrid-model instance (x, y) from ``rng``, with y = D x.

    Draw order is fixed (``draw_support``, then the magnitudes from all k
    real parts before the k imaginary parts, then the phases) so a given
    stream always produces the same instance.  The i-th value goes to the
    i-th support index in ascending order, so the support is
    ``np.flatnonzero(x)``: the A-columns, then the B-columns.
    """
    cols_a, cols_b = draw_support(D, support_a, n_b, rng)
    support = sorted(cols_a) + [D.Na + j for j in cols_b]
    k = len(support)
    magnitudes = np.hypot(rng.standard_normal(k), rng.standard_normal(k)) / np.sqrt(2.0)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=k)
    x = np.zeros(D.N, dtype=complex)
    x[support] = magnitudes * np.exp(1j * phases)
    return x, D.matrix @ x
