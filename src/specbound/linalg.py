"""Variance profiles and the normalized norm sequence.

A variance profile is a symmetric square matrix with nonnegative entries.
The size measure used throughout the package is the max row sum norm
``|S| = max_x sum_y S[x, y]`` (no absolute values needed: entries are
nonnegative).  The normalized norm sequence

    z_j = |S^j| / |S|^j,   j = 1, 2, ...

always lives in (0, 1] and is the only input the bound computation needs
besides ``|S|`` itself.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InputError, NumericError

__all__ = [
    "VarianceMatrix",
    "NormSequence",
    "inf_norm",
    "norm_sequence",
    "gram_linearize",
    "wigner_profile",
    "exp_profile",
    "random_profile",
    "load_dense",
    "load_matrix",
    "resolve_profile",
]


# Side of the square tiles that the symmetry check and random_profile's
# in-place a + a.T walk one tile pair at a time, so that neither needs a
# second n-by-n array and the transposed reads stay in cache.
_TILE = 128


def _tiles(n: int):
    """Slice pairs (rows, cols) of the tiles on and above the diagonal of
    an n-by-n array; (cols, rows) is the mirror tile of each."""
    starts = range(0, n, _TILE)
    for i, lo in enumerate(starts):
        for hi in starts[i:]:
            yield slice(lo, lo + _TILE), slice(hi, hi + _TILE)


class VarianceMatrix:
    """Validated symmetric nonnegative matrix.

    The wrapped array is read-only so that downstream results cannot be
    invalidated by accidental mutation.  An input that is an exact
    ``np.ndarray`` of float64, C-contiguous, owning its memory and
    already read-only is adopted as is, without a copy; the caller hands
    it over and must not make it writeable again.  Every other input
    (a list, a writeable array, a view, another dtype or memory order,
    an ndarray subclass) is copied into a new float64 array.  Either
    way every check runs.  With ``repair=True`` an almost valid input is
    fixed up (symmetrized, negatives clamped to zero) and a warning is
    emitted instead of an error.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries, repair: bool = False):
        a = entries
        if not (type(a) is np.ndarray and a.dtype == np.float64
                and a.flags.c_contiguous and a.base is None
                and not a.flags.writeable):
            a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise InputError(f"expected a nonempty square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise InputError("matrix contains NaN or infinite entries")
        fixed = []
        if not all(np.array_equal(a[r, c], a[c, r].T) for r, c in _tiles(a.shape[0])):
            if repair:
                a = (a + a.T) / 2
                fixed.append("symmetrized")
            else:
                x, y = np.argwhere(a != a.T)[0]
                raise InputError(
                    f"matrix is not symmetric: entry ({x}, {y}) = {float(a[x, y])!r} "
                    f"but ({y}, {x}) = {float(a[y, x])!r}"
                )
        if np.any(a < 0):
            if repair:
                a = np.clip(a, 0.0, None)
                fixed.append("clamped negatives to zero")
            else:
                x, y = np.argwhere(a < 0)[0]
                raise InputError(f"negative entry {float(a[x, y])!r} at ({x}, {y})")
        if fixed:
            warnings.warn(f"repaired input matrix: {', '.join(fixed)}", stacklevel=2)
        a.setflags(write=False)
        self._entries = a

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def n(self) -> int:
        return self._entries.shape[0]

    def __repr__(self):
        return f"VarianceMatrix(n={self.n})"


@dataclass(frozen=True)
class NormSequence:
    """Max row sum norm of a profile together with z_j = |S^j| / |S|^j."""

    norm_s: float
    z: np.ndarray = field(repr=False)

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        if self.norm_s <= 0:
            raise InputError(f"norm must be positive, got {self.norm_s}")
        if z.ndim != 1 or len(z) == 0:
            raise InputError("z must be a nonempty vector")
        if z[0] != 1.0:
            raise InputError(f"z[0] must equal 1 exactly, got {z[0]!r}")
        if np.any(z <= 0) or np.any(z > 1):
            raise InputError("z values must lie in (0, 1]")
        z.setflags(write=False)
        object.__setattr__(self, "z", z)

    @property
    def J(self) -> int:
        return len(self.z)


_TINY = float(np.finfo(float).tiny)


def inf_norm(s: VarianceMatrix) -> float:
    """Max row sum norm of a variance profile.

    The entries are finite, but their row sums can leave
    double-precision range; that raises NumericError.
    """
    with np.errstate(over="ignore"):
        norm = float((s.entries @ np.ones(s.n)).max())
    if not np.isfinite(norm):
        raise NumericError(
            "max row sum |S| overflows double precision; rescale the profile and retry"
        )
    return norm


def norm_sequence(s: VarianceMatrix, J: int) -> NormSequence:
    """Compute z_j = |S^j| / |S|^j for j = 1..J without forming powers.

    Uses the iteration u_0 = all-ones, u_j = S u_{j-1} / |S|, for which
    max(u_j) = z_j.  Cost is J matrix-vector products; values are clamped
    into (0, 1] to absorb roundoff at the top end, and floored at the
    smallest positive normal double where the iteration underflows.
    z_j is nonincreasing, so the floor is an upper bound on every value
    it replaces and the bound computed from the sequence stays valid.
    """
    if J < 1:
        raise InputError(f"J must be at least 1, got {J}")
    entries = s.entries
    u = np.ones(s.n)
    norm = inf_norm(s)
    if norm == 0.0:
        raise InputError("the zero matrix has no norm sequence")
    z = np.empty(J)
    for j in range(J):
        u = (entries @ u) / norm
        z[j] = min(max(u.max(), _TINY), 1.0)
    return NormSequence(norm_s=norm, z=z)


def gram_linearize(rect) -> VarianceMatrix:
    """Embed an M-by-N nonnegative matrix B as the symmetric profile
    [[0, B], [B^T, 0]] of size M+N.

    Squared singular values of a sample matrix drawn from B appear as
    squared eigenvalues of the linearization, so a support bound for the
    output profile bounds the squared largest singular value.  B is only
    read; the profile is the one (M+N)-square array built here.
    """
    b = np.asarray(rect, dtype=float)
    if b.ndim != 2 or b.size == 0:
        raise InputError(f"expected a nonempty 2-d array, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise InputError("matrix contains NaN or infinite entries")
    if np.any(b < 0):
        x, y = np.argwhere(b < 0)[0]
        raise InputError(f"negative entry {float(b[x, y])!r} at ({x}, {y})")
    m, n = b.shape
    out = np.zeros((m + n, m + n))
    out[:m, m:] = b
    out[m:, :m] = b.T
    out.setflags(write=False)
    return VarianceMatrix(out)


def wigner_profile(n: int) -> VarianceMatrix:
    """Constant profile with entries 1/n; every z_j equals 1."""
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    a = np.full((n, n), 1.0 / n)
    a.setflags(write=False)
    return VarianceMatrix(a)


def exp_profile(n: int) -> VarianceMatrix:
    """Exponential profile S[i, j] = exp((i + j) / n) / n, zero-based."""
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    v = np.exp(np.arange(n) / n)
    a = np.outer(v, v)
    a /= n
    a.setflags(write=False)
    return VarianceMatrix(a)


def random_profile(n: int, seed: int) -> VarianceMatrix:
    """Seeded random symmetric profile with entries of mean 1/(2n).

    The 1/n scale keeps the norm of order one as n grows.  The entries
    are those of ``(a + a.T) / 2 * (1.0 / n)`` for the draw ``a``, bit
    for bit, computed in the draw's own array.
    """
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InputError(f"seed must be a nonnegative integer, got {seed!r}")
    a = np.random.default_rng(seed).random((n, n))
    # a + a.T tile pair by tile pair; float addition commutes, so a tile
    # and its mirror receive the same sums
    for r, c in _tiles(n):
        t = a[r, c] + a[c, r].T
        a[r, c] = t
        a[c, r] = t.T
    a /= 2
    a *= 1.0 / n
    a.setflags(write=False)
    return VarianceMatrix(a)


_CSV_HEADER = re.compile(r"^n\s*=\s*(\d+)$")


def load_dense(path) -> np.ndarray:
    """Read a dense matrix from a text file.

    Two layouts are accepted and sniffed from the first line:

    * plain: the row count on the first line, then one whitespace
      separated row per line;
    * csv: a header ``n=<rows>`` followed by comma separated rows.

    Rows may be rectangular (all the same length).  Malformed content
    raises InputError with the offending line.
    """
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not a text file: {exc}") from None
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise InputError(f"{path}: file is empty")
    head = lines[0]
    m = _CSV_HEADER.match(head)
    if m:
        nrows, sep = int(m.group(1)), ","
    elif head.isdecimal():  # isdigit() also passes '²', which int() rejects
        nrows, sep = int(head), None
    else:
        raise InputError(
            f"{path}: first line must be a row count or 'n=<rows>', got {head!r}"
        )
    body = lines[1:]
    if nrows < 1:
        raise InputError(f"{path}: row count must be positive")
    if len(body) != nrows:
        raise InputError(f"{path}: expected {nrows} rows, found {len(body)}")
    rows = []
    for i, line in enumerate(body, start=2):
        try:
            row = [float(tok) for tok in line.split(sep)]
        except ValueError as exc:
            raise InputError(f"{path}: line {i}: {exc}") from None
        if rows and len(row) != len(rows[0]):
            raise InputError(
                f"{path}: line {i}: expected {len(rows[0])} values, found {len(row)}"
            )
        rows.append(row)
    return np.array(rows, dtype=float)


def load_matrix(path, repair: bool = False) -> VarianceMatrix:
    """Read a square variance profile from a text file."""
    a = load_dense(path)
    if a.shape[0] != a.shape[1]:
        raise InputError(f"{path}: expected a square matrix, got shape {a.shape}")
    return VarianceMatrix(a, repair=repair)


def resolve_profile(name: str, n: int | None = None, seed: int | None = None,
                    repair: bool = False) -> tuple[VarianceMatrix, dict]:
    """Build a profile from a generator name or a file path.

    Recognized generator names: ``wigner`` and ``expprofile`` (both need
    ``n``), ``random`` (needs ``n`` and ``seed``), and ``gram:<path>``
    for the symmetric linearization of a rectangular matrix file.  Any
    other string is treated as the path of a square matrix file, which
    ``repair`` fixes up (see VarianceMatrix); ``repair`` with any other
    source raises InputError.  Returns the profile plus a small
    descriptor suitable for logging.
    """
    if repair and (name in ("wigner", "expprofile", "random")
                   or name.startswith("gram:")):
        raise InputError("repair applies only to square matrix files, "
                         f"not to {name!r}")

    def need_n():
        if n is None:
            raise InputError(f"profile {name!r} requires a size n")
        return n

    if name == "wigner":
        return wigner_profile(need_n()), {"profile": name, "n": n}
    if name == "expprofile":
        return exp_profile(need_n()), {"profile": name, "n": n}
    if name == "random":
        if seed is None:
            raise InputError("profile 'random' requires a seed")
        return random_profile(need_n(), seed), {"profile": name, "n": n, "seed": seed}
    if name.startswith("gram:"):
        path = name[len("gram:"):]
        g = gram_linearize(load_dense(path))
        return g, {"profile": "gram", "path": path, "n": g.n}
    s = load_matrix(name, repair=repair)
    return s, {"profile": "file", "path": str(name), "n": s.n}
