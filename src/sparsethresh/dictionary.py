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
JSON text format, see ``save_dictionary``.

Memory: ``analyze`` never forms the N x N Gram matrix.  It walks its upper
triangle in row chunks of about GRAM_CHUNK_BYTES (4 MiB) and reads mu, mu_a
and mu_b from each chunk in the same pass, writing every chunk's product
and modulus into two buffers made once, so beside the m x N matrix it holds
about 6 MiB whatever N is.  Its spectral norms hold a column span of about
_BLOCK_BYTES (1 MiB), its conjugate and at most three m x m matrices.
The builders fill their matrix in blocks of about 1 MiB and hand it to
PartitionedDictionary without a copy.  ``load_dictionary`` reads the file
once, front to back, in pieces of about ENTRIES_CHUNK_CHARS (2^20) bytes
through an incremental UTF-8 decoder, never whole, and parses ``entries``
piece by piece into float blocks, with no Python object per entry, each
copied into the matrix as it is read: beside the matrix it holds a few
pieces, whatever the file size (about twice the matrix when ``entries``
comes before m and N).  Past a piece that is not pairs it only counts the
elements, so refusing a malformed ``entries`` holds no more.
"""

from __future__ import annotations

import codecs
import json
import math
import os
import re
from dataclasses import InitVar, dataclass
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
# Bytes of complex Gram entries formed at once by ``_coherences``, and of
# |A'^H B| entries by ``concentration``'s row norms.  Against 16 MiB, 4 MiB
# takes a quarter of the memory and no more time at mub61, but about a fifth
# more at mub127, where a chunk's 16 rows re-pack the whole matrix per product.
GRAM_CHUNK_BYTES = 4 * 2**20
# Gram products start at a multiple of this many columns (see ``_coherences``).
_GRAM_ALIGN = 64
# Bytes of matrix a builder fills, or a column norm or frame operator reads, at once.
_BLOCK_BYTES = 2**20
# Bytes of the file ``load_dictionary`` reads at once, and characters of
# ``entries`` it parses at once: a few of them are its peak beside the matrix.
ENTRIES_CHUNK_CHARS = 2**20

_DECODER = json.JSONDecoder()
_WS = re.compile(r"[ \t\n\r]*")
# every character a JSON number can hold: one ends before the first other
_NUMBER_RUN = re.compile(r"[-+.eE0-9]*")
# a pair's ']', then the ']' that closes ``entries``
_ENTRIES_END = re.compile(r"\][ \t\n\r]*\]")
_NUMBER_OR_SPACE = b"0123456789+-.eE \t\n\r"
_BRACKET_TO_SPACE = bytes.maketrans(b"[]", b"  ")


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

    The matrix is copied, validated (unit columns within ``norm_tol``,
    N >= m, 0 <= split <= N) and frozen read-only, so instances are safe
    to share across threads and processes.  The builders and the loader
    hand over the matrix they allocated without the copy (``_adopt``).
    """

    matrix: np.ndarray
    split: int
    norm_tol: InitVar[float] = COLUMN_NORM_TOL

    def __post_init__(self, norm_tol: float):
        object.__setattr__(self, "matrix", _as_complex_matrix(self.matrix).copy())
        self._freeze(float(norm_tol))  # only _adopt skips the norms

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


def _coherences(mat: np.ndarray, split: int) -> tuple[float, float, float]:
    """mu of all columns, mu_a of columns [0, split) and mu_b of [split, N).

    One pass over the upper triangle of the Gram matrix, ``rows`` rows at a
    time: the chunk of rows [lo, hi) holds |d_i^H d_j| for i in [lo, hi) and
    j from ``start`` <= lo on, with its diagonal zeroed, and each entry
    raises the coherence of the block pair it lies in.  A block with fewer
    than two columns reads 0.0.

    Each entry is rounded as in one N x N product, so no value depends on
    GRAM_CHUNK_BYTES:

    - BLAS rounds the ragged last columns of a product on a path of their
      own, so every chunk's columns run from a multiple of _GRAM_ALIGN to N
      and end in the same ragged columns as the N x N product;
    - in those columns |G_ij| and |G_ji| can differ in the last bit, so a
      chunk holding rows past the last multiple of _GRAM_ALIGN spans every
      column;
    - no chunk has a single row, which BLAS would take as a matrix-vector
      product.
    """
    n = mat.shape[1]
    ragged = n - n % _GRAM_ALIGN
    rows = max(2, GRAM_CHUNK_BYTES // (16 * n))
    # every chunk's product and modulus lead the same two buffers
    size = min(rows + 1, n) * n
    product, modulus = np.empty(size, dtype=complex), np.empty(size)
    mu = mu_a = mu_b = 0.0
    for lo in range(0, n - 1, rows):
        hi = n if n - lo <= rows + 1 else lo + rows  # no lone last row
        start = 0 if hi > ragged else lo - lo % _GRAM_ALIGN
        shape = (hi - lo, n - start)
        chunk = product[: shape[0] * shape[1]].reshape(shape)
        np.matmul(mat[:, lo:hi].conj().T, mat[:, start:], out=chunk)
        gram = np.abs(chunk, out=modulus[: chunk.size].reshape(shape))
        np.fill_diagonal(gram[:, lo - start :], 0.0)
        ra = min(max(split - lo, 0), hi - lo)  # chunk rows [0, ra) lie in A
        ca = max(split - start, 0)  # chunk columns [0, ca) lie in A
        mu_a = max(mu_a, _max(gram[:ra, :ca]))
        mu_b = max(mu_b, _max(gram[ra:, ca:]))
        mu = max(mu, mu_a, mu_b, _max(gram[:ra, ca:]), _max(gram[ra:, :ca]))
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

    mu, mu_a and mu_b come from one chunked pass over the upper triangle of
    D's Gram matrix (``_coherences``), so the memory it takes is one chunk
    of about GRAM_CHUNK_BYTES (4 MiB) plus its modulus, whatever N is.

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
# JSON text, UTF-8, extension .dict.json:
#   {"m": <rows>, "N": <cols>, "Na": <split>, "entries": [[re, im], ...]}
# entries are row-major, one [re, im] pair per matrix entry, written with 17
# significant digits so the decimal representation round-trips bit-exact.


def save_dictionary(D: PartitionedDictionary, path) -> None:
    """Write D as .dict.json text, one entry at a time, so no large string is
    ever held: joined text, even one matrix row at a time, left the calling
    process's heap larger for the work after it.  The file appears under
    ``path`` only when complete, and a failed write leaves no file behind.
    An OSError names ``path``, never the temporary file."""
    entries = (f"  [{z.real:.16e}, {z.imag:.16e}]" for row in D.matrix for z in row.tolist())
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        fh = open(tmp, "w", encoding="utf-8")
        try:
            with fh:
                fh.write(f'{{\n "m": {D.m},\n "N": {D.N},\n "Na": {D.Na},\n "entries": [\n')
                fh.write(next(entries))  # m, N >= 1: there is a first entry
                for entry in entries:
                    fh.write(",\n")
                    fh.write(entry)
                fh.write("\n ]\n}\n")
            os.replace(tmp, path)
        except BaseException:
            os.remove(tmp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write dictionary file {path}: {exc.strerror or exc}") from exc


def load_dictionary(path, renormalize: bool = False) -> PartitionedDictionary:
    """Read a .dict.json file back into a PartitionedDictionary.

    Any JSON object layout is read as ``json.load`` would read it: keys in
    any order, extra keys, any whitespace, the last of duplicate keys.
    ``entries`` must be an array of [re, im] pairs of JSON numbers.
    Column norms are checked at the looser tolerance LOAD_NORM_TOL, since text
    formats written by other tools may round; pass renormalize=True to rescale
    columns instead of failing.  Zero columns are always an error.

    The file is read once, front to back, a piece of about
    ENTRIES_CHUNK_CHARS bytes at a time (``_Window``), so ``path`` may be a
    pipe, and ``entries`` is parsed piece by piece into the matrix of the m
    and N read before it (``_Pairs``).  With m and N first, as
    ``save_dictionary`` writes them, the peak beside the matrix is a few
    pieces whatever the file size; with ``entries`` first it is about twice
    the matrix.  From a piece of ``entries`` that is not pairs on, json
    reads its elements one at a time and only their count is kept.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DictionaryFormatError(f"cannot read dictionary file {path}: {exc}") from exc
    with fh:
        doc = _read_object(_Window(fh, path))
    for key in ("m", "N", "Na", "entries"):
        if key not in doc:
            raise DictionaryFormatError(f"{path}: missing field {key!r}")
    m, n, na = doc["m"], doc["N"], doc["Na"]
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (m, n, na)):
        raise DictionaryFormatError(f"{path}: m, N, Na must be integers")
    if m < 1 or n < m:
        raise DictionaryFormatError(f"{path}: need N >= m >= 1, got m={m}, N={n}")
    if not 0 <= na <= n:
        raise DictionaryFormatError(f"{path}: Na={na} outside [0, N={n}]")
    pairs = doc.pop("entries")
    if not isinstance(pairs, _Pairs):
        raise DictionaryFormatError(f"{path}: entries must be a list of [re, im] pairs")
    if pairs.count != m * n:
        raise DictionaryFormatError(f"{path}: expected {m * n} entries, found {pairs.count}")
    # integers in [2^63, 2^64) with no negative integer or float beside them
    # make numpy's uint64, refused as when numpy read the whole nested list
    if not pairs.all_pairs or pairs.unsigned:
        raise DictionaryFormatError(f"{path}: entries must be [re, im] pairs of numbers")
    mat = pairs.matrix(m, n)
    del pairs, doc
    if not np.isfinite(mat).all():
        raise DictionaryFormatError(f"{path}: entries must be finite")

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


class _Window:
    """A sliding window ``text`` over a file's UTF-8 text, read ``pos`` on.

    ``fill`` drops the text before ``pos`` and decodes the next piece of
    about ENTRIES_CHUNK_CHARS bytes onto the end, through an incremental
    decoder, so a character may span pieces.  The window holds what its
    reader has not yet consumed and about a piece more.
    """

    def __init__(self, fh, path):
        self.fh, self.path = fh, path
        self.decoder = codecs.getincrementaldecoder("utf-8")()
        self.text = ""
        self.pos = 0
        self.base = 0  # characters of the file before ``text``
        self.bytes_read = 0
        self.eof = False

    def fill(self, size: int = 0) -> bool:
        """Drop ``text[:pos]`` and append the text of the next max(``size``,
        ENTRIES_CHUNK_CHARS) bytes, or of more while they end inside a
        character; False when the file has ended."""
        self.base += self.pos
        rest, self.text, self.pos = self.text[self.pos :], "", 0
        new = ""
        while not new and not self.eof:
            try:
                data = self.fh.read(max(size, ENTRIES_CHUNK_CHARS))
                self.bytes_read += len(data)
                self.eof = not data
                new = self.decoder.decode(data, final=self.eof)
            except OSError as exc:
                raise DictionaryFormatError(
                    f"cannot read dictionary file {self.path}: {exc}"
                ) from exc
            except UnicodeDecodeError as exc:  # exc.start counts the pending bytes first
                at = self.bytes_read - len(data) - len(self.decoder.getstate()[0]) + exc.start
                raise DictionaryFormatError(
                    f"{self.path} is not UTF-8 text: {exc.reason} at byte {at}"
                ) from None
            del data  # the piece's bytes go before its text is joined on
        self.text = rest + new
        return bool(new)

    def reach(self, count: int) -> bool:
        """Whether ``count`` characters follow ``pos``, read in if need be."""
        while len(self.text) - self.pos < count:
            if not self.fill(count - len(self.text) + self.pos):
                return False
        return True

    def at(self, char: str) -> bool:
        """Whether ``char`` comes next."""
        if self.pos == len(self.text):
            self.fill()
        return self.text.startswith(char, self.pos)

    def skip_space(self) -> None:
        self.pos = _WS.match(self.text, self.pos).end()
        while self.pos == len(self.text) and self.fill():
            self.pos = _WS.match(self.text).end()

    def expect(self, char: str, refusal: str | None = None) -> None:
        if not self.at(char):
            raise DictionaryFormatError(refusal or (
                f"{self.path} is not valid JSON: expecting {char!r} at char {self.base + self.pos}"
            ))

    def skip(self, char: str, refusal: str | None = None) -> None:
        """Move ``pos`` past ``char``, which must be there, and the whitespace after it."""
        self.expect(char, refusal)
        self.pos += 1
        self.skip_space()

    def items(self, close: str, refusal: str | None = None):
        """Yield at each element of the comma-separated sequence at ``pos``,
        for the caller to read it, then move past the ``close`` that ends
        the sequence.  ``refusal`` replaces the message of a missing one."""
        self.skip_space()
        more = not self.at(close)
        while more:
            yield
            self.skip_space()
            more = self.at(",")
            if more:
                self.skip(",")
        self.skip(close, refusal)

    def value(self, refusal: str | None = None):
        """The JSON value at ``pos``, read by json, with ``pos`` moved past it.

        A value json cannot complete yet, or a number that may go on past
        the window, doubles the window until it can or the file ends, so
        the reads stay linear in the value's length.  ``refusal`` replaces
        the message of a value that is not JSON.
        """
        while True:
            try:
                value, end = _DECODER.raw_decode(self.text, self.pos)
                # a number ends at the first character no number holds
                if self.eof or _NUMBER_RUN.match(self.text, self.pos).end() < len(self.text):
                    self.pos = end
                    return value
            except (ValueError, RecursionError) as exc:  # also an int past the digit limit
                if self.eof or isinstance(exc, RecursionError):
                    if isinstance(exc, json.JSONDecodeError):
                        exc = f"{exc.msg} at char {self.base + exc.pos}"
                    raise DictionaryFormatError(
                        refusal or f"{self.path} is not valid JSON: {exc}"
                    ) from None
            self.fill(len(self.text) - self.pos)


def _read_object(w: _Window) -> dict:
    """The top-level JSON object of ``w``'s file, walked key by key: json
    reads every key and value but an ``entries`` array, which
    ``_read_pairs`` reads."""
    w.skip_space()
    w.skip("{", f"{w.path}: top-level value must be an object")
    doc = {}
    not_pairs = f"{w.path}: entries must be [re, im] pairs of numbers"
    for _ in w.items("}"):
        w.expect('"')
        key = w.value()
        w.skip_space()
        w.skip(":")
        if key == "entries" and w.at("["):
            doc[key] = _read_pairs(w, _Pairs(doc.get("m"), doc.get("N")), not_pairs)
        else:
            doc[key] = w.value(not_pairs if key == "entries" else None)
    if w.pos < len(w.text):  # skip_space stops at text or the end of the file
        raise DictionaryFormatError(
            f"{w.path} is not valid JSON: extra data at char {w.base + w.pos}"
        )
    return doc


def _read_pairs(w: _Window, pairs: _Pairs, refusal: str) -> _Pairs:
    """``pairs`` filled from the array opening at ``w.pos``, with ``w.pos``
    moved past the array, in one forward pass.

    Chunks of about ENTRIES_CHUNK_CHARS characters, each cut just before a
    '[', are read one at a time by ``_pair_block``; the last one ends at the
    first ']' that follows a pair's ']' across whitespace, which lies before
    the cut of a chunk the array ends in.  From a chunk that is not pairs on,
    json reads the elements one at a time and ``pairs`` only counts them
    (``all_pairs`` False), so no text is read twice; JSON that is not valid
    there raises ``refusal``.
    """
    w.skip("[")  # so that a chunk of no pairs is never the space before the first
    start = w.pos
    while True:
        w.pos = start
        w.reach(ENTRIES_CHUNK_CHARS)
        start = w.pos
        cut = w.text.rfind("[", start + 1, start + ENTRIES_CHUNK_CHARS)
        block = _pair_block(w.text, start, cut, last=False) if cut > 0 else None
        if block is None:  # the chunk runs past the array's end, or is not pairs
            break
        pairs.add(block)
        start = cut
    end = _ENTRIES_END.search(w.text, w.pos, cut if cut > 0 else len(w.text))
    # the last chunk reads on to the array's end only while it may be pairs
    while end is None and cut < 0 and not w.eof and _may_be_pairs(w.text[w.pos :]):
        w.fill(len(w.text) - w.pos)
        end = _ENTRIES_END.search(w.text, w.pos)
    block = _pair_block(w.text, w.pos, end.start() + 1, last=True) if end else None
    if block is not None:
        pairs.add(block)
        w.pos = end.end()
        return pairs
    pairs.all_pairs = False
    for _ in w.items("]", refusal):
        w.value(refusal)
        pairs.count += 1
    return pairs


class _Pairs:
    """The [re, im] pairs of ``entries``, added block by block: into an
    (m N, 2) float buffer for the ``m`` and ``N`` read before ``entries``
    while they fit it, and kept aside past it or without such m and N.
    ``all_pairs`` is False, and ``count`` counts the elements, once one was
    not read as a pair.

    A block's values are converted to float as they are copied, so the
    buffer holds what one nested list would give: numpy promotes int64 and
    uint64 blocks together to float64, and every block of uint64 alone is
    refused (``unsigned``).
    """

    def __init__(self, m, n):
        self.flat = None
        if type(m) is int and type(n) is int and 1 <= m <= n:
            try:
                self.flat = np.empty((m * n, 2))
            except (MemoryError, ValueError):  # ValueError: past the address space
                pass
        self.filled = 0  # pairs in ``flat``
        self.aside = []
        self.count = 0
        self.all_pairs = True
        self.unsigned = True

    def add(self, block: np.ndarray) -> None:
        k = len(block)
        if self.flat is not None and not self.aside and self.filled + k <= len(self.flat):
            self.flat[self.filled : self.filled + k] = block
            self.filled += k
        else:
            self.aside.append(block)
        self.count += k
        self.unsigned &= block.dtype.kind == "u"

    def matrix(self, m: int, n: int) -> np.ndarray:
        """The m x n complex matrix whose row-major entries are the m n
        pairs; each pair fills its entry's two float parts as read, a -0.0
        included (re + 1j * im would read it as +0.0).  The buffer itself
        when it holds them all, else a new one, the blocks moved over one
        at a time."""
        flat, self.flat = self.flat, None
        if self.filled < self.count or len(flat) != self.count:
            kept, flat = flat, np.empty((self.count, 2))
            if self.filled:
                flat[: self.filled] = kept[: self.filled]
            del kept
            lo = self.filled
            self.aside.reverse()
            while self.aside:
                block = self.aside.pop()
                flat[lo : lo + len(block)] = block
                lo += len(block)
        return flat.view(complex).reshape(m, n)


def _may_be_pairs(text: str) -> bool:
    """Whether ``text``, bare of numbers and whitespace, starts '[,],' repeated."""
    left = text.encode().translate(None, _NUMBER_OR_SPACE)
    return (b"[,]," * (len(left) // 4 + 1)).startswith(left)


def _pair_block(text: str, lo: int, hi: int, last: bool):
    """The (k, 2) values of ``text[lo:hi]``, k pairs [re, im] of JSON
    numbers with a comma after each but the ``last`` chunk's last one; None
    for other text.

    With numbers and whitespace deleted, a chunk of pairs leaves exactly
    '[,],' k times.  With its brackets turned to spaces it is one flat
    array of 2k numbers to json.  numpy gives each block the dtype it would
    give the nested list, and ``_Pairs`` promotes the blocks as one list
    would be; integers past uint64 make an object array, refused here.
    Each copy of the chunk is dropped as soon as the next one is made.
    """
    raw = text[lo:hi].encode()
    left = raw.translate(None, _NUMBER_OR_SPACE)
    if last:
        left += b","
    k = len(left) // 4
    if k == 0 or len(left) != 4 * k or left.count(b"[,],") != k:
        return None
    flat = raw.translate(_BRACKET_TO_SPACE)
    del raw
    body = memoryview(flat)[: len(flat) if last else flat.rindex(b",")]
    array = b"".join((b"[", body, b"]")).decode()
    del body, flat
    try:
        values = json.loads(array)
    except ValueError:  # not JSON numbers, or an integer past int's digit limit
        return None
    del array
    block = np.array(values)
    if len(values) != 2 * k or block.dtype.kind not in "iuf":
        return None
    return block.reshape(k, 2)
