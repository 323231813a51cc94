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

This is the one module that turns a trial's stream into its support.
``choose_support_a`` turns a strategy into an A-support once per run (per
(strategy, n_a) in ``recover``); only ``random-baseline`` then reads the
stream for it, before the B-support.  ``sample_instance`` draws one trial's
support that way and reads the same stream on: magnitudes, then phases.
``draw_supports`` draws the supports of a block of trials at once, the rows
``sample_instance`` puts on each trial's stream.  ``recover`` reads its
trials through the first, ``smin`` and ``moments`` through the second, so
every runner sees one support per stream.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .dictionary import PartitionedDictionary
from .rng import derive_choices

__all__ = [
    "SUPPORT_A_STRATEGIES",
    "sample_support_b",
    "choose_support_a",
    "sample_instance",
    "draw_supports",
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
    """Resolve a strategy into the ``support_a`` of the draws, once per run.

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


# ============================================================
# trial draws: one instance, or a block's supports
# ============================================================


def sample_instance(
    D: PartitionedDictionary, support_a: tuple[int, ...] | int, n_b: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one hybrid-model instance (x, y) from ``rng``, with y = D x.

    ``support_a`` is ``choose_support_a``'s: a tuple is the A-support and
    reads nothing from ``rng``, and must lie in block A without repeats; an
    int n_a draws n_a A-columns from ``rng``.  Draw order is fixed (that
    A-support, the n_b B-columns, then the magnitudes from all k real parts
    before the k imaginary parts, then the phases) so a given stream always
    produces the same instance.  The i-th value goes to the i-th support
    index in ascending order, so the support is ``np.flatnonzero(x)``: the
    A-columns, then the B-columns.
    """
    if isinstance(support_a, int):
        support_a = sample_support_b(D.Na, support_a, rng)
    cols_a = sorted(support_a)
    if cols_a and (cols_a[0] < 0 or cols_a[-1] >= D.Na):
        raise ValueError(f"A-column indices out of range [0, {D.Na})")
    if len(set(cols_a)) != len(cols_a):
        raise ValueError("A-column index sets must be duplicate-free")
    support = cols_a + [D.Na + j for j in sample_support_b(D.Nb, n_b, rng)]
    k = len(support)
    magnitudes = np.hypot(rng.standard_normal(k), rng.standard_normal(k)) / np.sqrt(2.0)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=k)
    x = np.zeros(D.N, dtype=complex)
    x[support] = magnitudes * np.exp(1j * phases)
    return x, D.matrix @ x


def draw_supports(
    D: PartitionedDictionary,
    support_a: tuple[int, ...] | int,
    n_b: int,
    master_seed: int,
    lo: int,
    hi: int,
) -> tuple[np.ndarray, np.ndarray]:
    """A- and B-column indices of trials lo..hi-1, as (T, n_a) and (T, n_b) arrays.

    Row t is the support ``sample_instance`` draws on trial t's own stream
    derive_rng(master_seed, t), so it does not depend on the other trials.
    ``rng.derive_choices`` makes the block's draws in one pass: the n_a
    A-columns of ``random-baseline``, then the n_b B-columns, each sorted.  A
    fixed A-support is repeated on every row in its given order, where
    ``sample_instance`` sorts it.
    """
    keys = np.arange(lo, hi)[:, None]
    if isinstance(support_a, int):
        return tuple(derive_choices(master_seed, keys, [(D.Na, support_a), (D.Nb, n_b)]))
    (cols_b,) = derive_choices(master_seed, keys, [(D.Nb, n_b)])
    return np.tile(np.array(support_a, dtype=np.intp), (hi - lo, 1)), cols_b
