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
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import InitVar, dataclass, field

import numpy as np

__all__ = [
    "DictionaryFormatError",
    "PartitionedDictionary",
    "DictionaryStats",
    "coherence",
    "cross_coherence",
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


# ============================================================
# core types
# ============================================================


@dataclass(frozen=True)
class PartitionedDictionary:
    """Unit-column complex matrix with a split into blocks A and B.

    The matrix is copied, validated (unit columns within ``norm_tol``,
    N >= m, 0 <= split <= N) and frozen read-only, so instances are safe
    to share across threads and processes.
    """

    matrix: np.ndarray
    split: int
    norm_tol: InitVar[float] = COLUMN_NORM_TOL

    def __post_init__(self, norm_tol: float):
        mat = _as_complex_matrix(self.matrix).copy()
        m, n = mat.shape
        if n < m:
            raise ValueError(f"dictionary must have N >= m, got m={m}, N={n}")
        if not 0 <= self.split <= n:
            raise ValueError(f"split must lie in [0, {n}], got {self.split}")
        norms = np.linalg.norm(mat, axis=0)
        bad = np.where(np.abs(norms - 1.0) > norm_tol)[0]
        if bad.size:
            j = int(bad[0])
            raise ValueError(
                f"column {j} has norm {norms[j]:.12g}, expected 1 within {norm_tol:g}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
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


def cross_coherence(block_a, block_b) -> float:
    """max_{i,j} |a_i^H b_j| between two column sets sharing a row count."""
    a = np.asarray(block_a, dtype=np.complex128)
    b = np.asarray(block_b, dtype=np.complex128)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("cross_coherence expects two matrices")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"row counts differ: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[1] == 0 or b.shape[1] == 0:
        return 0.0
    return float(np.abs(a.conj().T @ b).max())


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


def build_two_onb(m: int) -> PartitionedDictionary:
    """Identity plus unitary Fourier basis, split at m; coherence 1/sqrt(m)."""
    if m < 2:
        raise ValueError(f"two-basis dictionary needs m >= 2, got {m}")
    mat = _allocate(m, 2 * m)
    mat[:, :m] = np.eye(m)
    j, k = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    mat[:, m:] = np.exp(-2j * np.pi * ((j * k) % m) / m) / math.sqrt(m)
    return PartitionedDictionary(mat, m)


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
    mat[:, :p] = np.eye(p)
    t = np.arange(p)
    for a in range(p):
        for b in range(p):
            # exact modular phase keeps angles in [0, 2 pi) before the exp
            k = (a * t * t + b * t) % p
            mat[:, (a + 1) * p + b] = np.exp(2j * np.pi * k / p) / math.sqrt(p)
    return PartitionedDictionary(mat, p)


def build_random_dictionary(m: int, N: int, seed: int, split: int = 0) -> PartitionedDictionary:
    """Columns i.i.d. uniform on the complex unit sphere of C^m; deterministic per seed."""
    if not 1 <= m <= N:
        raise ValueError(f"need N >= m >= 1, got m={m}, N={N}")
    mat = _allocate(m, N)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    mat.real = rng.standard_normal((m, N))
    mat.imag = rng.standard_normal((m, N))
    mat /= np.linalg.norm(mat, axis=0)
    return PartitionedDictionary(mat, split)


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
    ``path`` only when complete."""
    entries = (f"  [{z.real:.16e}, {z.imag:.16e}]" for row in D.matrix for z in row.tolist())
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n "m": {D.m},\n "N": {D.N},\n "Na": {D.Na},\n "entries": [\n')
        fh.write(next(entries))  # m, N >= 1: there is a first entry
        for entry in entries:
            fh.write(",\n")
            fh.write(entry)
        fh.write("\n ]\n}\n")
    os.replace(tmp, path)


def load_dictionary(path, renormalize: bool = False) -> PartitionedDictionary:
    """Read a .dict.json file back into a PartitionedDictionary.

    Column norms are checked at the looser tolerance LOAD_NORM_TOL, since text
    formats written by other tools may round; pass renormalize=True to rescale
    columns instead of failing.  Zero columns are always an error.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DictionaryFormatError(f"cannot read dictionary file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DictionaryFormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DictionaryFormatError(f"{path}: top-level value must be an object")
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
    entries = doc["entries"]
    if not isinstance(entries, list):
        raise DictionaryFormatError(f"{path}: entries must be a list of [re, im] pairs")
    if len(entries) != m * n:
        raise DictionaryFormatError(
            f"{path}: expected {m * n} entries, found {len(entries)}"
        )
    not_numbers = f"{path}: entries must be [re, im] pairs of numbers"
    try:
        pairs = np.asarray(entries)
    except ValueError as exc:
        raise DictionaryFormatError(not_numbers) from exc
    if pairs.dtype.kind not in "fi" or pairs.shape != (m * n, 2):
        raise DictionaryFormatError(not_numbers)
    # JSON true and false among numbers turn into 1 and 0, so only the
    # entries that read 1 or 0 need a look at their Python type
    rows, cols = np.nonzero((pairs == 0) | (pairs == 1))
    if any(type(entries[i][j]) is bool for i, j in zip(rows.tolist(), cols.tolist())):
        raise DictionaryFormatError(not_numbers)
    mat = (pairs[:, 0] + 1j * pairs[:, 1]).reshape(m, n)
    if not np.all(np.isfinite(pairs)):
        raise DictionaryFormatError(f"{path}: entries must be finite")

    norms = np.linalg.norm(mat, axis=0)
    zero = np.where(norms <= 1e-300)[0]
    if zero.size:
        raise DictionaryFormatError(f"{path}: column {int(zero[0])} is zero")
    if renormalize:
        mat = mat / norms
    else:
        bad = np.where(np.abs(norms - 1.0) > LOAD_NORM_TOL)[0]
        if bad.size:
            j = int(bad[0])
            raise DictionaryFormatError(
                f"{path}: column {j} has norm {norms[j]:.12g}, beyond "
                f"{LOAD_NORM_TOL:g}; pass renormalize to rescale"
            )
    return PartitionedDictionary(mat, na, norm_tol=max(COLUMN_NORM_TOL, 2 * LOAD_NORM_TOL))
