"""Partitioned dictionaries and their coherence and spectral statistics.

A dictionary is a complex m x N matrix with unit-norm columns, N >= m.  A
partitioned dictionary additionally carries a split point Na: the first Na
columns form block A, the remaining Nb = N - Na columns form block B.  The
quantities computed here:

    coherence         mu    = max_{i != j} |d_i^H d_j|
    sub-coherences    mu_a, mu_b (within each block)
    spectral norms    ||A||, ||B||, ||D||  (largest singular value)
    Welch bound       sqrt((N - m) / (m (N - 1)))  for N >= m, a universal
                      lower bound on mu
    tight-frame gap   | ||X||^2 - N_x / m |  per block (zero for a tight frame)

Builders cover the two standard unit-coherence-profile constructions: the
concatenation of the identity and Fourier bases (coherence 1/sqrt(m)), and the
identity plus p chirp bases for an odd prime p (p + 1 mutually unbiased bases
of C^p, coherence 1/sqrt(p)).  Arbitrary dictionaries round-trip through a
JSON text format, see ``save_dictionary``.

Memory: ``coherence`` and ``analyze`` never form the N x N Gram matrix.  They
walk its upper triangle in row chunks of about GRAM_CHUNK_BYTES (16 MiB) and
read mu, mu_a and mu_b from each chunk in the same pass, so beside the m x N
matrix they hold one chunk and its modulus (about 24 MiB) whatever N is.
The builders fill their matrix in blocks of about 1 MiB and hand it to
PartitionedDictionary without a copy.  ``load_dictionary`` holds the file's
text, decoded once, and parses ``entries`` in chunks of about
ENTRIES_CHUNK_CHARS (2^20) characters into float blocks, with no Python
object per entry: its peak is about twice the file size, while the file's
bytes are decoded.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import InitVar, dataclass

import numpy as np

__all__ = [
    "DictionaryFormatError",
    "PartitionedDictionary",
    "DictionaryStats",
    "coherence",
    "spectral_norm",
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
# Bytes of complex Gram entries formed at once by ``_coherences``.
GRAM_CHUNK_BYTES = 16 * 2**20
# Gram products start at a multiple of this many columns (see ``_coherences``).
_GRAM_ALIGN = 64
# Bytes of matrix a builder fills, or a column-norm pass reads, at once.
_BLOCK_BYTES = 2**20
# Characters of ``entries`` text read at once by ``load_dictionary``.
ENTRIES_CHUNK_CHARS = 2**20

_DECODER = json.JSONDecoder()
_WS = re.compile(r"[ \t\n\r]*")
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


def _column_norms(mat: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(mat, axis=0)``, bit for bit, a column block of about
    _BLOCK_BYTES at a time.  Over two or more columns numpy sums each column
    in row order; over one it sums pairwise, so no block is a lone column
    unless the matrix is."""
    m, n = mat.shape
    cols = max(2, _BLOCK_BYTES // (16 * m))
    norms = np.empty(n)
    lo = 0
    while lo < n:
        hi = n if n - lo <= cols + 1 else lo + cols
        norms[lo:hi] = np.linalg.norm(mat[:, lo:hi], axis=0)
        lo = hi
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
        if not 0 <= self.split <= n:
            raise ValueError(f"split must lie in [0, {n}], got {self.split}")
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

    @property
    def A(self) -> np.ndarray:
        return self.matrix[:, : self.split]

    @property
    def B(self) -> np.ndarray:
        return self.matrix[:, self.split :]

    def check_budgets(self, n_a: int, n_b: int) -> None:
        """Raise ValueError unless 0 <= n_a <= Na and 0 <= n_b <= Nb."""
        if not (0 <= n_a <= self.Na and 0 <= n_b <= self.Nb):
            raise ValueError(
                f"budgets must satisfy 0 <= n_a <= {self.Na} and 0 <= n_b <= {self.Nb}, "
                f"got n_a={n_a}, n_b={n_b}"
            )


@dataclass(frozen=True)
class DictionaryStats:
    """Coherence and spectral summary of a partitioned dictionary.

    ``mu_a``/``mu_b`` are reported as 0.0 with the matching ``*_defined``
    flag cleared when a block has fewer than two columns, since a
    single-column coherence is undefined but every downstream formula
    multiplies it by a vanishing count.
    """

    mu: float
    mu_a: float
    mu_b: float
    spec_a: float
    spec_b: float
    spec_d: float
    welch: float
    tight_dev_a: float
    tight_dev_b: float
    mu_a_defined: bool = True
    mu_b_defined: bool = True

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


def coherence(matrix) -> float:
    """Largest |inner product| over distinct column pairs.

    Raises ValueError for fewer than two columns: the coherence of a single
    column is undefined and silently reporting 0 would hide the misuse.
    """
    mat = _as_complex_matrix(matrix)
    if mat.shape[1] < 2:
        raise ValueError("coherence is undefined for fewer than two columns")
    return _coherences(mat, 0)[0]


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
    mu = mu_a = mu_b = 0.0
    for lo in range(0, n - 1, rows):
        hi = n if n - lo <= rows + 1 else lo + rows  # no lone last row
        start = 0 if hi > ragged else lo - lo % _GRAM_ALIGN
        gram = np.abs(mat[:, lo:hi].conj().T @ mat[:, start:])
        np.fill_diagonal(gram[:, lo - start :], 0.0)
        ra = min(max(split - lo, 0), hi - lo)  # chunk rows [0, ra) lie in A
        ca = max(split - start, 0)  # chunk columns [0, ca) lie in A
        mu_a = max(mu_a, _max(gram[:ra, :ca]))
        mu_b = max(mu_b, _max(gram[ra:, ca:]))
        mu = max(mu, mu_a, mu_b, _max(gram[:ra, ca:]), _max(gram[ra:, :ca]))
    return mu, mu_a, mu_b


def spectral_norm(matrix) -> float:
    """Largest singular value; 0.0 for a block with no columns."""
    mat = np.asarray(matrix, dtype=np.complex128)
    if mat.size == 0:
        return 0.0
    return float(np.linalg.norm(mat, ord=2))


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


def _row_blocks(m: int, row_bytes: int):
    """Ranges (lo, hi) over rows [0, m) that a builder fills at once, each
    of about _BLOCK_BYTES at ``row_bytes`` a row."""
    rows = max(1, _BLOCK_BYTES // row_bytes)
    return ((lo, min(lo + rows, m)) for lo in range(0, m, rows))


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
    if m < 2:
        raise ValueError(f"two-basis dictionary needs m >= 2, got {m}")
    mat = _allocate(m, 2 * m)
    mat[:, :m] = 0
    np.fill_diagonal(mat, 1.0)
    k = np.arange(m)
    for lo, hi in _row_blocks(m, 16 * m):
        j = np.arange(lo, hi)[:, None]
        mat[lo:hi, m:] = np.exp(-2j * np.pi * ((j * k) % m) / m) / math.sqrt(m)
    return _adopt(mat, m)


def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
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
            f"p must be an odd prime, got {p}; load prepared dictionaries "
            "from a file for other sizes"
        )
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
    if not 1 <= m <= N:
        raise ValueError(f"need N >= m >= 1, got m={m}, N={N}")
    mat = _allocate(m, N)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    for part in (mat.real, mat.imag):  # every real part is drawn first
        for lo, hi in _row_blocks(m, 8 * N):
            part[lo:hi] = rng.standard_normal((hi - lo, N))
    mat /= _column_norms(mat)
    return _adopt(mat, split)


# ============================================================
# analysis
# ============================================================


def analyze(D: PartitionedDictionary) -> DictionaryStats:
    """Populate every DictionaryStats field for a partitioned dictionary.

    mu, mu_a and mu_b come from one chunked pass over the upper triangle of
    D's Gram matrix (``_coherences``), so the memory it takes is one chunk
    of about GRAM_CHUNK_BYTES (16 MiB) plus its modulus, whatever N is.
    """
    mu, mu_a, mu_b = _coherences(D.matrix, D.Na)
    spec_a = spectral_norm(D.A)
    spec_b = spectral_norm(D.B)
    spec_d = spectral_norm(D.matrix)
    welch = welch_bound(D.m, D.N) if D.N >= 2 else 0.0
    tight_dev_a = abs(spec_a**2 - D.Na / D.m)
    tight_dev_b = abs(spec_b**2 - D.Nb / D.m)
    return DictionaryStats(
        mu=mu,
        mu_a=mu_a,
        mu_b=mu_b,
        spec_a=spec_a,
        spec_b=spec_b,
        spec_d=spec_d,
        welch=welch,
        tight_dev_a=tight_dev_a,
        tight_dev_b=tight_dev_b,
        mu_a_defined=D.Na >= 2,
        mu_b_defined=D.Nb >= 2,
    )


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
    ``path`` only when complete, and a failed write leaves no file behind."""
    entries = (f"  [{z.real:.16e}, {z.imag:.16e}]" for row in D.matrix for z in row.tolist())
    tmp = f"{path}.tmp{os.getpid()}"
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


def load_dictionary(path, renormalize: bool = False) -> PartitionedDictionary:
    """Read a .dict.json file back into a PartitionedDictionary.

    Any JSON object layout is read as ``json.load`` would read it: keys in
    any order, extra keys, any whitespace, the last of duplicate keys.
    ``entries`` must be an array of [re, im] pairs of JSON numbers.
    Column norms are checked at the looser tolerance LOAD_NORM_TOL, since text
    formats written by other tools may round; pass renormalize=True to rescale
    columns instead of failing.  Zero columns are always an error.
    """
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except OSError as exc:
        raise DictionaryFormatError(f"cannot read dictionary file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DictionaryFormatError(f"{path} is not UTF-8 text: {exc}") from exc
    doc = _read_object(text, path)
    del text
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
    pairs = doc["entries"]
    if not isinstance(pairs, (list, np.ndarray)):
        raise DictionaryFormatError(f"{path}: entries must be a list of [re, im] pairs")
    if len(pairs) != m * n:
        raise DictionaryFormatError(f"{path}: expected {m * n} entries, found {len(pairs)}")
    # a list is JSON that _read_pairs refused; integers in [2^63, 2^64) with
    # no negative integer or float beside them make numpy's uint64, refused
    # as when numpy read the whole nested list
    if not isinstance(pairs, np.ndarray) or pairs.dtype.kind not in "fi":
        raise DictionaryFormatError(f"{path}: entries must be [re, im] pairs of numbers")
    if not np.all(np.isfinite(pairs)):
        raise DictionaryFormatError(f"{path}: entries must be finite")
    mat = np.empty((m, n), dtype=complex)
    np.add(pairs[:, 0], 1j * pairs[:, 1], out=mat.reshape(-1))
    del pairs, doc

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


def _read_object(text: str, path) -> dict:
    """The top-level JSON object of ``text``, walked key by key: json reads
    every key and value but ``entries``, which ``_read_entries`` reads."""

    def value(idx: int):
        try:
            return _DECODER.raw_decode(text, idx)
        except (ValueError, RecursionError) as exc:  # also an int past the digit limit
            raise DictionaryFormatError(f"{path} is not valid JSON: {exc}") from None

    def expect(idx: int, char: str) -> None:
        if not text.startswith(char, idx):
            raise DictionaryFormatError(
                f"{path} is not valid JSON: expecting {char!r} at char {idx}"
            )

    def skip(idx: int, char: str) -> int:
        """The index past ``char`` at ``idx`` and the whitespace after it."""
        expect(idx, char)
        return _WS.match(text, idx + 1).end()

    idx = _WS.match(text).end()
    if not text.startswith("{", idx):
        raise DictionaryFormatError(f"{path}: top-level value must be an object")
    idx = skip(idx, "{")
    doc = {}
    more = not text.startswith("}", idx)
    while more:
        expect(idx, '"')
        key, idx = value(idx)
        idx = skip(_WS.match(text, idx).end(), ":")
        doc[key], idx = _read_entries(text, idx, path) if key == "entries" else value(idx)
        idx = _WS.match(text, idx).end()
        more = text.startswith(",", idx)
        if more:
            idx = skip(idx, ",")
    idx = skip(idx, "}")
    if idx != len(text):
        raise DictionaryFormatError(f"{path} is not valid JSON: extra data at char {idx}")
    return doc


def _read_entries(text: str, idx: int, path):
    """The ``entries`` value at ``idx`` and the index past it: a (k, 2)
    array when it is an array of [re, im] pairs of numbers, else what json
    reads there."""
    if text.startswith("[", idx):
        found = _read_pairs(text, idx)
        if found is not None:
            return found
    try:
        return _DECODER.raw_decode(text, idx)
    except (ValueError, RecursionError):
        raise DictionaryFormatError(f"{path}: entries must be [re, im] pairs of numbers") from None


def _read_pairs(text: str, idx: int):
    """The array of number pairs opening at ``idx`` as a (k, 2) array and the
    index past it, or None when it is anything else.

    Chunks of about ENTRIES_CHUNK_CHARS characters, each cut just before a
    '[', are read one at a time by ``_pair_block``; the last one ends at the
    first ']' that follows a pair's ']' across whitespace.
    """
    blocks = []
    start = idx + 1
    while True:
        cut = text.rfind("[", start + 1, start + ENTRIES_CHUNK_CHARS)
        block = _pair_block(text[start:cut], last=False) if cut > 0 else None
        if block is None:  # the chunk runs past the array's end, or is not pairs
            break
        blocks.append(block)
        start = cut
    end = _ENTRIES_END.search(text, start)
    block = _pair_block(text[start : end.start() + 1], last=True) if end else None
    if block is None:
        return None
    blocks.append(block)
    return np.concatenate(blocks), end.end()


def _pair_block(chunk: str, last: bool):
    """The (k, 2) values of ``chunk``, k pairs [re, im] of JSON numbers with a
    comma after each but the ``last`` chunk's last one; None for other text.

    With numbers and whitespace deleted, a chunk of pairs leaves exactly
    '[,],' k times.  With its brackets turned to spaces it is one flat
    array of 2k numbers to json.  numpy gives each block the dtype it would
    give the nested list, and ``np.concatenate`` promotes the blocks as one
    list would be; integers past uint64 make an object array, refused here.
    """
    raw = chunk.encode()
    left = raw.translate(None, _NUMBER_OR_SPACE)
    if last:
        left += b","
    k = len(left) // 4
    if k == 0 or len(left) != 4 * k or left.count(b"[,],") != k:
        return None
    flat = raw.translate(_BRACKET_TO_SPACE)
    if not last:
        flat = flat[: flat.rindex(b",")]
    try:
        values = json.loads(b"[" + flat + b"]")
    except ValueError:  # not JSON numbers, or an integer past int's digit limit
        return None
    block = np.array(values)
    if len(values) != 2 * k or block.dtype.kind not in "iuf":
        return None
    return block.reshape(k, 2)
