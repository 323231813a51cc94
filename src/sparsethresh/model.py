"""Hybrid sparse-signal model: fixed support on block A, random support on B.

An instance is a coefficient vector x of length N with

  - a caller-chosen support of size n_a inside block A (any strategy, or an
    explicit index list),
  - a support of size n_b drawn uniformly at random from block B,
  - nonzero values z_i = r_i * exp(i theta_i) whose magnitudes r_i are the
    modulus of a standard complex Gaussian (continuous and strictly positive)
    and whose phases theta_i are i.i.d. uniform on [0, 2 pi),

together with the measurement y = D x.  Everything is driven by explicit
per-trial streams (see ``sparsethresh.rng``), so instances are reproducible
and independent of evaluation order.

This is the one module that turns a trial's stream into its support, and
it builds those streams itself: both draws take the run's master seed and
a (T, L) array of key rows, one row per trial, so a caller names its
trials and never holds a stream.  ``choose_support_a`` turns a strategy
into an A-support once per run (per (strategy, n_a) in ``recover``); only
``random-baseline`` then reads the stream for it, before the B-support.
``draw_instances`` draws the trials of one ``recover`` cell in one pass,
one numpy Generator ``rng.derive_rng(master_seed, *row)`` per key row:
each trial's support that way, then from the same stream its magnitudes,
then its phases.  A fixed A-support is checked and sorted once per cell,
and the values and their scatter into X are computed for all rows at
once; only the stream reads and y = D x stay per row, so a row of
``draw_instances`` equals the one-row draw on its own key, bit for bit.
``draw_supports`` draws the supports of a block of trials at once, for
``smin`` and its moment estimates, in the same order from the package's
own stream (``rng.derive_choices``), which no numpy version or worker
count can move.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .dictionary import PartitionedDictionary, _require_integer
from .rng import _checked_keys, derive_choices, derive_rng

__all__ = [
    "SUPPORT_A_STRATEGIES",
    "choose_support_a",
    "draw_instances",
    "draw_supports",
]

SUPPORT_A_STRATEGIES = ("prescribed", "first-n", "spread", "random-baseline")


# ============================================================
# support sampling
# ============================================================


def _holds_bool(cols) -> bool:
    """Whether ``cols`` is a bool, or a list or tuple holding one at any depth."""
    if isinstance(cols, (list, tuple)):
        return any(map(_holds_bool, cols))
    return isinstance(cols, bool) or getattr(cols, "dtype", None) == bool


def _block_columns(block: str, cols, size: int) -> np.ndarray:
    """``cols``, index sets into ``block`` of ``size`` columns, as intp; refuses a float
    or bool index (a cast would truncate it), one outside the block, or a repeat."""
    if isinstance(cols, (list, tuple)) and _holds_bool(cols):  # numpy reads [0, True] as int64
        raise ValueError(f"{block}-column indices are bool, not integers in [0, {size})")
    cols = np.asarray(cols)
    if cols.size and cols.dtype.kind not in "iu":
        raise ValueError(f"{block}-column indices are {cols.dtype}, not integers in [0, {size})")
    if cols.size and (cols.min() < 0 or cols.max() >= size):
        raise ValueError(f"{block}-column indices out of range [0, {size})")
    ordered = np.sort(cols, axis=-1)
    if np.any(ordered[..., 1:] == ordered[..., :-1]):
        raise ValueError(f"{block}-column index sets must be duplicate-free")
    return cols.astype(np.intp, copy=False)


def _subsets(n_total: int, n_pick: int, rngs) -> np.ndarray:
    """A uniformly random size-n_pick subset of {0..n_total-1} from each
    stream of ``rngs``, sorted ascending, as the rows of a (len(rngs),
    n_pick) intp array.  n_pick = 0 reads nothing from the streams."""
    if not 0 <= n_pick <= n_total:
        raise ValueError(f"need 0 <= n_pick <= n_total, got {n_pick} of {n_total}")
    picks = np.empty((len(rngs), n_pick), dtype=np.intp)
    if n_pick:
        for row, rng in zip(picks, rngs):
            row[:] = rng.choice(n_total, size=n_pick, replace=False)
        picks.sort(axis=1)
    return picks


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
    _require_integer("n_pick", n_pick)
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
        chosen = tuple(islice(indices, n_pick + 1))
        if len(chosen) != n_pick:
            got = "more" if len(chosen) > n_pick else len(chosen)
            raise ValueError(f"expected {n_pick} indices, got {got}")
        if len(set(chosen)) != len(chosen):
            raise ValueError(f"prescribed indices contain duplicates: {chosen}")
        return tuple(_block_columns("A", chosen, n_total).tolist())
    if strategy == "first-n":
        return tuple(range(n_pick))
    if strategy == "spread":
        # floor(i * n_total / n_pick) is strictly increasing since n_total >= n_pick
        return tuple(i * n_total // n_pick for i in range(n_pick))
    return int(n_pick)


# ============================================================
# trial draws: a block's instances, or its supports
# ============================================================


def draw_instances(
    D: PartitionedDictionary, support_a: tuple[int, ...] | int, n_b: int, master_seed: int, keys
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one hybrid-model instance per row of ``keys``: X (T, N) and
    Y (T, m), whose row t is the instance (x, y = D x) of the stream
    ``rng.derive_rng(master_seed, *keys[t])``.

    ``keys`` is a (T, L) array of nonnegative integers.  ``support_a`` is
    ``choose_support_a``'s: a tuple is the A-support of every row, checked
    once (it must lie in block A without repeats) and read from no stream;
    an int n_a draws each row's n_a A-columns from its stream.  Each stream
    is read in a fixed order (that A-support, the n_b B-columns, then the
    magnitudes from all k real parts before the k imaginary parts, then the
    phases), so a key row always produces the same instance, whatever the
    other rows.  The i-th value goes to the i-th support index in ascending
    order, so the support is ``np.flatnonzero(x)``: the A-columns, then the
    B-columns.  Each y is one matrix-vector product, so it has the bits of
    ``D.matrix @ x``.
    """
    rngs = [derive_rng(master_seed, *row) for row in _checked_keys(master_seed, keys).tolist()]
    if isinstance(support_a, int):
        cols_a = _subsets(D.Na, support_a, rngs)
    else:
        fixed = np.sort(_block_columns("A", support_a, D.Na))
        cols_a = np.broadcast_to(fixed, (len(rngs), fixed.size))
    support = np.concatenate([cols_a, D.Na + _subsets(D.Nb, n_b, rngs)], axis=1)
    k = support.shape[1]
    re, im, phases = np.empty((3, len(rngs), k))
    for t, rng in enumerate(rngs):
        re[t] = rng.standard_normal(k)
        im[t] = rng.standard_normal(k)
        phases[t] = rng.uniform(0.0, 2.0 * np.pi, size=k)
    X = np.zeros((len(rngs), D.N), dtype=complex)
    np.put_along_axis(X, support, np.hypot(re, im) / np.sqrt(2.0) * np.exp(1j * phases), axis=1)
    Y = np.empty((len(rngs), D.m), dtype=complex)
    for x, y in zip(X, Y):
        np.matmul(D.matrix, x, out=y)
    return X, Y


def draw_supports(
    D: PartitionedDictionary, support_a: tuple[int, ...] | int, n_b: int, master_seed: int, keys
) -> tuple[np.ndarray, np.ndarray]:
    """A- and B-column indices of one trial per row of ``keys``, as (T, n_a)
    and (T, n_b) arrays.

    Row t is drawn from its own stream, ``rng.derive_choices`` at key row
    keys[t], so it does not depend on the other rows.  The draws are made
    in one pass: the n_a A-columns of ``random-baseline``, then the n_b
    B-columns, each uniform and sorted.  A fixed A-support is repeated on
    every row in its given order, where ``draw_instances`` sorts it.
    """
    if isinstance(support_a, int):
        return tuple(derive_choices(master_seed, keys, [(D.Na, support_a), (D.Nb, n_b)]))
    (cols_b,) = derive_choices(master_seed, keys, [(D.Nb, n_b)])
    return np.tile(np.array(support_a, dtype=np.intp), (len(cols_b), 1)), cols_b
