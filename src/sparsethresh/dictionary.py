"""Partitioned dictionaries and their coherence and spectral statistics.

A dictionary is a complex m x N matrix with unit-norm columns, N >= m.  A
partitioned dictionary additionally carries a split point Na: the first Na
columns form block A, the remaining Nb = N - Na columns form block B.  The
profile ``analyze`` returns as a ``DictionaryStats``, shape included, and
that ``D.stats`` measures once and keeps:

    coherence         mu    = max_{i != j} |d_i^H d_j|
    sub-coherences    mu_a, mu_b (within each block)
    spectral norms    ||A||, ||B||, ||D||  (largest singular value, read
                      off the m x m frame operator X X^H)
    Welch bound       sqrt((N - m) / (m (N - 1)))  for N >= m, a universal
                      lower bound on mu
    tight-frame gap   | ||X||^2 - N_x / m |  per block (zero for a tight frame)

Builders cover the two standard unit-coherence-profile constructions: the
concatenation of the identity and Fourier bases (coherence 1/sqrt(m)), and the
identity plus p chirp bases for an odd prime p (p + 1 mutually unbiased bases
of C^p, coherence 1/sqrt(p)).  Arbitrary dictionaries round-trip through a
file of two .npy arrays, see ``save_dictionary``.

Memory: ``analyze`` never forms the N x N Gram matrix.  It walks its upper
triangle in tiles of about GRAM_CHUNK_BYTES (1 MiB, 64 x 1,024 entries) and
reads mu, mu_a and mu_b from each tile in the same pass, writing every
tile's product and modulus into two buffers made once, so beside the m x N
matrix it holds about 1.6 MiB whatever N is.  Its spectral norms hold a
column span of about _BLOCK_BYTES (1 MiB), its conjugate and at most three
m x m matrices.
The builders fill their matrix in blocks of about 1 MiB and hand it to
PartitionedDictionary without a copy.  ``load_dictionary`` reads the file
straight into the matrix it allocates once the header is checked, and
``save_dictionary`` writes it straight from the matrix.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "DictionaryFormatError",
    "PartitionedDictionary",
    "DictionaryStats",
    "welch_bound",
    "build_two_onb",
    "build_mub",
    "build_random_dictionary",
    "analyze",
    "save_dictionary",
    "load_dictionary",
]

COLUMN_NORM_TOL = 1e-10
LOAD_NORM_TOL = 1e-8
# Bytes of complex Gram entries in one ``_coherences`` tile (``_gram_tile``),
# and of |A'^H B| entries formed at once by ``concentration``'s row norms.
# Against 4 MiB row chunks, 1 MiB tiles cut report-mub61's peak RSS from 59.7
# to 55.0 MB; the pass takes 1-12% less time at mub127 and 5-9% more at mub61.
GRAM_CHUNK_BYTES = 2**20
# Gram tiles start at a multiple of this many columns, and all but a band's
# last span a multiple of it (see ``_coherences``).
_GRAM_ALIGN = 64
# Bytes of matrix a builder fills, or a column norm or frame operator reads, at once.
_BLOCK_BYTES = 2**20


class DictionaryFormatError(ValueError):
    """Raised when a dictionary file violates the on-disk format contract."""


def _as_complex_matrix(matrix) -> np.ndarray:
    out = np.asarray(matrix, dtype=np.complex128)
    if out.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={out.ndim}")
    if out.shape[0] < 1 or out.shape[1] < 1:
        raise ValueError(f"matrix must be nonempty, got shape {out.shape}")
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise ValueError("matrix entries must all be finite")
    return out


def _is_integer(value) -> bool:
    """An int or numpy integer, not a bool: a float or bool size, seed or
    split would be truncated to another one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_integer(name: str, value) -> int:
    """``value`` as an int; a ValueError naming ``name`` unless it is an integer."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_split(split, n: int) -> None:
    """Refuse a split that is not an integer in [0, n]."""
    _require_integer("split", split)
    if not 0 <= split <= n:
        raise ValueError(f"split must lie in [0, {n}], got {split}")


def _spans(lo: int, hi: int, item_bytes: int):
    """Ranges [a, b) over [lo, hi), each of about _BLOCK_BYTES at ``item_bytes``
    an item, and none a lone item unless [lo, hi) is one."""
    step = max(2, _BLOCK_BYTES // item_bytes)
    while lo < hi:
        end = hi if hi - lo <= step + 1 else lo + step
        yield lo, end
        lo = end


def _column_norms(mat: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(mat, axis=0)``, bit for bit, a column span at a time.
    Over two or more columns numpy sums each column in row order; over one
    it sums pairwise, hence spans that are no lone column."""
    m, n = mat.shape
    norms = np.empty(n)
    for lo, hi in _spans(0, n, 16 * m):
        norms[lo:hi] = np.linalg.norm(mat[:, lo:hi], axis=0)
    return norms


# ============================================================
# core types
# ============================================================


@dataclass(frozen=True)
class PartitionedDictionary:
    """Unit-column complex matrix with a split into blocks A and B.

    The matrix is copied, validated (unit columns within COLUMN_NORM_TOL,
    N >= m, 0 <= split <= N) and frozen read-only, so instances are safe
    to share across threads and processes.  The builders and the loader
    hand over the matrix they allocated without the copy (``_adopt``).
    """

    matrix: np.ndarray
    split: int

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_complex_matrix(self.matrix).copy())
        self._freeze(COLUMN_NORM_TOL)  # only _adopt skips the norms

    def _freeze(self, norm_tol: float | None) -> None:
        """Validate ``matrix``, ``split`` and, unless ``norm_tol`` is None, the
        column norms; make the matrix read-only."""
        mat = self.matrix
        m, n = mat.shape
        if n < m:
            raise ValueError(f"dictionary must have N >= m, got m={m}, N={n}")
        _check_split(self.split, n)
        if norm_tol is not None:
            norms = _column_norms(mat)
            bad = np.where(np.abs(norms - 1.0) > norm_tol)[0]
            if bad.size:
                j = int(bad[0])
                raise ValueError(
                    f"column {j} has norm {norms[j]:.12g}, expected 1 within {norm_tol:g}"
                )
        mat.setflags(write=False)
        object.__setattr__(self, "split", int(self.split))

    def __setstate__(self, state: dict) -> None:
        """Unpickle with the matrix read-only again: numpy's pickle drops the flag."""
        self.__dict__.update(state)
        self.matrix.setflags(write=False)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def N(self) -> int:
        return self.matrix.shape[1]

    @property
    def Na(self) -> int:
        return self.split

    @property
    def Nb(self) -> int:
        return self.N - self.split

    @cached_property
    def stats(self) -> DictionaryStats:
        """``analyze(self)``, measured on first read and kept in ``__dict__``, so a
        pickled D carries it to pool workers.  The matrix is read-only (``_freeze``,
        ``__setstate__``) and the split frozen, so it cannot go stale."""
        return analyze(self)

    @property
    def A(self) -> np.ndarray:
        return self.matrix[:, : self.split]

    @property
    def B(self) -> np.ndarray:
        return self.matrix[:, self.split :]

    def check_budgets(self, n_a: int, n_b: int) -> None:
        """Raise ValueError unless n_a and n_b are integers with 0 <= n_a <= Na
        and 0 <= n_b <= Nb."""
        _require_integer("n_a", n_a)
        _require_integer("n_b", n_b)
        if not (0 <= n_a <= self.Na and 0 <= n_b <= self.Nb):
            raise ValueError(
                f"budgets must satisfy 0 <= n_a <= {self.Na} and 0 <= n_b <= {self.Nb}, "
                f"got n_a={n_a}, n_b={n_b}"
            )


@dataclass(frozen=True)
class DictionaryStats:
    """Coherence profile of a partitioned dictionary: its shape and the six
    numbers ``analyze`` measures, all that ``threshold`` reads of it.

    ``mu_a``/``mu_b`` are 0.0, with ``*_defined`` False, for a block of fewer
    than two columns: a single-column coherence is undefined, but every
    downstream formula multiplies it by a vanishing count.
    """

    m: int
    N: int
    Na: int
    mu: float
    mu_a: float
    mu_b: float
    spec_a: float
    spec_b: float
    spec_d: float

    @property
    def Nb(self) -> int:
        return self.N - self.Na

    @property
    def welch(self) -> float:
        return welch_bound(self.m, self.N) if self.N >= 2 else 0.0

    @property
    def tight_dev_a(self) -> float:
        return abs(self.spec_a**2 - self.Na / self.m)

    @property
    def tight_dev_b(self) -> float:
        return abs(self.spec_b**2 - self.Nb / self.m)

    @property
    def mu_a_defined(self) -> bool:
        return self.Na >= 2

    @property
    def mu_b_defined(self) -> bool:
        return self.Nb >= 2

    def to_dict(self) -> dict:
        return {
            "mu": self.mu,
            "muA": self.mu_a,
            "muB": self.mu_b,
            "specA": self.spec_a,
            "specB": self.spec_b,
            "specD": self.spec_d,
            "welch": self.welch,
            "tightDevA": self.tight_dev_a,
            "tightDevB": self.tight_dev_b,
            "muADefined": self.mu_a_defined,
            "muBDefined": self.mu_b_defined,
        }


# ============================================================
# scalar statistics
# ============================================================


def _max(block: np.ndarray) -> float:
    return float(block.max()) if block.size else 0.0


def _gram_tile() -> tuple[int, int]:
    """Rows and columns of a Gram tile of about GRAM_CHUNK_BYTES, 64 x 1,024
    at 1 MiB: the columns the largest multiple of _GRAM_ALIGN at most
    GRAM_CHUNK_BYTES / (16 _GRAM_ALIGN), and at least _GRAM_ALIGN; the rows
    what the columns leave of the budget, and at least two."""
    cols = max(_GRAM_ALIGN, GRAM_CHUNK_BYTES // (16 * _GRAM_ALIGN) // _GRAM_ALIGN * _GRAM_ALIGN)
    return max(2, GRAM_CHUNK_BYTES // (16 * cols)), cols


def _coherences(mat: np.ndarray, split: int) -> tuple[float, float, float]:
    """mu of all columns, mu_a of columns [0, split) and mu_b of [split, N).

    One pass over the upper triangle of the Gram matrix in tiles of at most
    ``rows`` x ``cols`` entries (``_gram_tile``): the band of rows [lo, hi)
    is cut into tiles of columns [start, stop), each holding |d_i^H d_j|
    with the diagonal zeroed, and each entry raises the coherence of the
    block pair it lies in.  A block with fewer than two columns reads 0.0.

    Each entry is rounded as in one N x N product, so no value depends on
    the tile shape:

    - BLAS rounds the ragged last columns of a product on a path of their
      own, so every tile starts at a multiple of _GRAM_ALIGN, a band's
      tiles but its last are ``cols`` wide, a multiple of it too, and its
      last runs to N, ending in the same ragged columns as the N x N
      product;
    - in those columns |G_ij| and |G_ji| can differ in the last bit, so a
      band holding rows past the last multiple of _GRAM_ALIGN spans every
      column;
    - no band has a single row, and no tile a single column (a band's last
      tile is at least _GRAM_ALIGN wide, or spans all its columns), which
      BLAS would take as a matrix-vector product.
    """
    n = mat.shape[1]
    ragged = n - n % _GRAM_ALIGN
    rows, cols = _gram_tile()
    # every tile's product and modulus lead the same two buffers: a band
    # has at most rows + 1 rows, a tile fewer than cols + _GRAM_ALIGN columns
    size = min(rows + 1, n) * min(cols + _GRAM_ALIGN - 1, n)
    product, modulus = np.empty(size, dtype=complex), np.empty(size)
    mu = mu_a = mu_b = 0.0
    for lo in range(0, n - 1, rows):
        hi = n if n - lo <= rows + 1 else lo + rows  # no lone last row
        adjoint = mat[:, lo:hi].conj().T
        ra = min(max(split - lo, 0), hi - lo)  # band rows [0, ra) lie in A
        start = 0 if hi > ragged else lo - lo % _GRAM_ALIGN
        while start < n:
            stop = n if n - start < cols + _GRAM_ALIGN else start + cols
            shape = (hi - lo, stop - start)
            tile = product[: shape[0] * shape[1]].reshape(shape)
            np.matmul(adjoint, mat[:, start:stop], out=tile)
            gram = np.abs(tile, out=modulus[: tile.size].reshape(shape))
            if lo < stop and start < hi:  # the tile meets the diagonal
                np.fill_diagonal(gram[max(start - lo, 0) :, max(lo - start, 0) :], 0.0)
            ca = max(split - start, 0)  # tile columns [0, ca) lie in A
            mu_a = max(mu_a, _max(gram[:ra, :ca]))
            mu_b = max(mu_b, _max(gram[ra:, ca:]))
            mu = max(mu, mu_a, mu_b, _max(gram[:ra, ca:]), _max(gram[ra:, :ca]))
            start = stop
    return mu, mu_a, mu_b


def welch_bound(m: int, N: int) -> float:
    """Universal coherence lower bound sqrt((N - m) / (m (N - 1)))."""
    if N < m:
        raise ValueError(f"welch_bound needs N >= m, got m={m}, N={N}")
    if m < 1 or N < 2:
        raise ValueError(f"welch_bound needs m >= 1 and N >= 2, got m={m}, N={N}")
    return math.sqrt((N - m) / (m * (N - 1)))


# ============================================================
# builders
# ============================================================


def _allocate(m: int, n: int) -> np.ndarray:
    """A builder's m x n matrix, allocated before any work, so that a size too
    large to hold fails as a usage error."""
    try:
        return np.empty((m, n), dtype=complex)
    except (MemoryError, ValueError) as exc:  # ValueError: past the address space
        raise ValueError(f"a {m} x {n} dictionary is too large to hold: {exc}") from None


def _adopt(mat: np.ndarray, split: int, norm_tol=COLUMN_NORM_TOL) -> PartitionedDictionary:
    """A PartitionedDictionary over ``mat`` itself: for a complex matrix its
    caller has just allocated and keeps no other reference to, which the
    constructor's copy would only double.  ``norm_tol=None`` is for norms
    the caller has checked."""
    D = object.__new__(PartitionedDictionary)
    object.__setattr__(D, "matrix", mat)
    object.__setattr__(D, "split", split)
    D._freeze(norm_tol)
    return D


def build_two_onb(m: int) -> PartitionedDictionary:
    """Identity plus unitary Fourier basis, split at m; coherence 1/sqrt(m)."""
    if not _is_integer(m) or m < 2:
        raise ValueError(f"two-basis dictionary needs an integer m >= 2, got {m!r}")
    m = int(m)  # a numpy integer's arithmetic would wrap
    mat = _allocate(m, 2 * m)
    mat[:, :m] = 0
    np.fill_diagonal(mat, 1.0)
    k = np.arange(m)
    for lo, hi in _spans(0, m, 16 * m):
        j = np.arange(lo, hi)[:, None]
        mat[lo:hi, m:] = np.exp(-2j * np.pi * ((j * k) % m) / m) / math.sqrt(m)
    return _adopt(mat, m)


def _is_odd_prime(p: int) -> bool:
    if not _is_integer(p) or p < 3 or p % 2 == 0:
        return False
    return all(p % d for d in range(3, int(math.isqrt(p)) + 1, 2))


def build_mub(p: int) -> PartitionedDictionary:
    """Identity basis plus p quadratic-chirp bases of C^p, for odd prime p.

    Column (a, b) of the chirp part is t -> exp(2 pi i (a t^2 + b t) / p) / sqrt(p).
    The p + 1 bases are pairwise mutually unbiased, so the coherence is exactly
    1/sqrt(p), block A (the identity) is orthonormal, and the whole matrix is a
    tight frame with ||D||^2 = N / m = p + 1.

    Even p and prime powers p^k need a different field construction and are
    intentionally not built here; import such dictionaries from a file instead.
    """
    if not _is_odd_prime(p):
        raise ValueError(
            f"p must be an odd prime, got {p!r}; load prepared dictionaries "
            "from a file for other sizes"
        )
    p = int(p)  # a numpy integer's arithmetic would wrap
    mat = _allocate(p, p * (p + 1))
    mat[:, :p] = 0
    np.fill_diagonal(mat, 1.0)
    t = np.arange(p)
    for a in range(p):
        for b in range(p):
            # exact modular phase keeps angles in [0, 2 pi) before the exp
            k = (a * t * t + b * t) % p
            mat[:, (a + 1) * p + b] = np.exp(2j * np.pi * k / p) / math.sqrt(p)
    return _adopt(mat, p)


def build_random_dictionary(m: int, N: int, seed: int, split: int = 0) -> PartitionedDictionary:
    """Columns i.i.d. uniform on the complex unit sphere of C^m; deterministic per seed."""
    if not (_is_integer(m) and _is_integer(N) and 1 <= m <= N):
        raise ValueError(f"need integers N >= m >= 1, got m={m!r}, N={N!r}")
    if not _is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    m, N = int(m), int(N)  # a numpy integer's arithmetic would wrap
    _check_split(split, N)  # before the matrix is allocated and drawn
    mat = _allocate(m, N)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    for part in (mat.real, mat.imag):  # every real part is drawn first
        for lo, hi in _spans(0, m, 8 * N):
            part[lo:hi] = rng.standard_normal((hi - lo, N))
    mat /= _column_norms(mat)
    return _adopt(mat, split)


# ============================================================
# analysis
# ============================================================


def analyze(D: PartitionedDictionary) -> DictionaryStats:
    """The coherence profile of a partitioned dictionary.

    mu, mu_a and mu_b come from one tiled pass over the upper triangle of
    D's Gram matrix (``_coherences``), so the memory it takes is one tile
    of about GRAM_CHUNK_BYTES (1 MiB) plus its modulus, whatever N is.

    ||X|| is the root of the largest eigenvalue of the m x m frame operator
    X X^H (Golub and Van Loan, Matrix Computations, 8.6), clamped at 0 so
    that an empty block reads 0.0: A A^H and B B^H summed over column spans
    of about _BLOCK_BYTES, and D D^H their sum.  Unit columns keep them far
    from overflow, and each norm agrees with the SVD's to a few eps relative.
    """
    mu, mu_a, mu_b = _coherences(D.matrix, D.Na)
    frames = np.zeros((2, D.m, D.m), dtype=complex)  # A A^H and B B^H
    for frame, (start, stop) in zip(frames, ((0, D.Na), (D.Na, D.N))):
        for lo, hi in _spans(start, stop, 16 * D.m):
            span = D.matrix[:, lo:hi]
            frame += span @ span.conj().T
    spec_a, spec_b = map(_largest_root, frames)
    frames[0] += frames[1]  # D D^H, in place: at most three m x m matrices at once
    return DictionaryStats(m=D.m, N=D.N, Na=D.Na, mu=mu, mu_a=mu_a, mu_b=mu_b,
                           spec_a=spec_a, spec_b=spec_b, spec_d=_largest_root(frames[0]))


def _largest_root(frame: np.ndarray) -> float:
    return math.sqrt(max(0.0, float(np.linalg.eigvalsh(frame)[-1])))


# ============================================================
# file format
# ============================================================
#
# Two .npy arrays (NEP 1, format version 1.0) back to back, extension
# .dict.npy: the m x N matrix as <c16 in C order, then Na as a 0-d <i8.
# np.load(path) reads the matrix, and a second np.load on the same open
# file reads Na.


def save_dictionary(D: PartitionedDictionary, path) -> None:
    """Write D as a .dict.npy file, each array straight from memory.  The
    file appears under ``path`` only when complete, and a failed write
    leaves no file behind.  An OSError names ``path``, never the temporary
    file."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        fh = open(tmp, "wb")
        try:
            with fh:
                for array in (np.ascontiguousarray(D.matrix, dtype="<c16"),
                              np.array(D.Na, dtype="<i8")):
                    np.lib.format.write_array(fh, array, version=(1, 0), allow_pickle=False)
            os.replace(tmp, path)
        except BaseException:
            os.remove(tmp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write dictionary file {path}: {exc.strerror or exc}") from exc


def load_dictionary(path, renormalize: bool = False) -> PartitionedDictionary:
    """Read a .dict.npy file back into a PartitionedDictionary.

    The file is read once, front to back, and never asked to seek, so
    ``path`` may be a pipe.  Each array's header is checked before its data
    is read (``_read_array``), and the file must end after Na.  Column
    norms are checked at the looser tolerance LOAD_NORM_TOL, since files
    written by other tools may round; pass renormalize=True to rescale
    columns instead of failing.  Zero columns are always an error.
    """
    try:
        with open(path, "rb") as fh:
            mat = _read_array(fh, path, "matrix", "<c16", ndim=2)
            na = int(_read_array(fh, path, "Na", "<i8", ndim=0))
            if fh.read(1):
                raise DictionaryFormatError(f"{path}: the file goes on after Na")
    except OSError as exc:
        raise DictionaryFormatError(f"cannot read dictionary file {path}: {exc}") from exc
    m, n = mat.shape
    if not 0 <= na <= n:
        raise DictionaryFormatError(f"{path}: Na={na} outside [0, N={n}]")
    if not np.isfinite(mat).all():
        raise DictionaryFormatError(f"{path}: matrix entries must be finite")

    if renormalize:
        # scale each column by a power of two, exactly, so that its largest
        # part lies in [1/2, 1): its squares can then neither overflow nor
        # underflow the norm, and a column whose plain norm did neither
        # divides to the same bytes as before
        parts = mat.view(float).reshape(m, n, 2)
        largest = np.maximum(parts.max(axis=(0, 2)), -parts.min(axis=(0, 2)))
        np.ldexp(parts, -np.frexp(largest)[1][:, None], out=parts)
    norms = _column_norms(mat)
    zero = np.where(norms <= 1e-300)[0]
    if zero.size:
        raise DictionaryFormatError(f"{path}: column {int(zero[0])} is zero")
    if renormalize:
        mat /= norms
        try:
            return _adopt(mat, na, norm_tol=max(COLUMN_NORM_TOL, 2 * LOAD_NORM_TOL))
        except ValueError as exc:
            raise DictionaryFormatError(f"{path}: {exc}") from exc
    bad = np.where(np.abs(norms - 1.0) > LOAD_NORM_TOL)[0]
    if bad.size:
        j = int(bad[0])
        raise DictionaryFormatError(
            f"{path}: column {j} has norm {norms[j]:.12g}, beyond "
            f"{LOAD_NORM_TOL:g}; pass renormalize to rescale"
        )
    return _adopt(mat, na, norm_tol=None)  # within LOAD_NORM_TOL, checked above


def _read_array(fh, path, name: str, dtype: str, ndim: int) -> np.ndarray:
    """The next .npy array of ``fh``, refused unless its header gives
    ``dtype``, C order and ``ndim`` dimensions, N >= m >= 1 for a matrix:
    so no byte is unpickled, and the array is allocated only once its
    header is checked, then read into in place."""
    try:
        version = np.lib.format.read_magic(fh)
        if version not in ((1, 0), (2, 0)):
            raise ValueError(f"format version {version[0]}.{version[1]}, expected 1.0 or 2.0")
        read_header = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                       else np.lib.format.read_array_header_2_0)
        shape, fortran_order, found = read_header(fh)
    except OSError:
        raise
    except Exception as exc:  # ast and tokenize raise more than ValueError on a bad header
        raise DictionaryFormatError(f"{path} is not a .npy dictionary: {name}: {exc}") from None
    if found != np.dtype(dtype):
        convert = "; convert it with .astype(complex)" if ndim == 2 else ""
        raise DictionaryFormatError(f"{path}: {name} is {found.str}, expected {dtype}{convert}")
    if fortran_order:
        raise DictionaryFormatError(f"{path}: {name} is in Fortran order, expected C order")
    if len(shape) != ndim or any(type(k) is not int for k in shape):  # a bool is no size
        raise DictionaryFormatError(f"{path}: {name} has shape {shape}, expected {ndim}-d")
    if ndim == 2 and not 1 <= shape[0] <= shape[1]:
        raise DictionaryFormatError(f"{path}: need N >= m >= 1, got m={shape[0]}, N={shape[1]}")
    try:
        array = np.empty(shape, dtype=dtype)
    except (MemoryError, ValueError):  # ValueError: past the address space
        raise DictionaryFormatError(
            f"{path}: a {' x '.join(map(str, shape))} {name} does not fit in memory"
        ) from None
    data = memoryview(array.reshape(-1).view(np.uint8))
    got = 0
    while got < len(data):
        count = fh.readinto(data[got:])
        if not count:
            raise DictionaryFormatError(
                f"{path}: the file ends after {got} of the {len(data)} bytes of {name}"
            )
        got += count
    return array
