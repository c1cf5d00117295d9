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

import itertools
import numbers
import os
import re
import sys
import warnings
from dataclasses import dataclass, field

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


def _check_matrix(a):
    """Refuse ``a`` unless it is a nonempty finite square matrix; return the
    first entry (x, y), row-major, where a != conj(a.T), or None. Builds no
    n-by-n mask unless one differs: min and max propagate NaN and reach +-inf."""
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise InputError(f"expected a nonempty square matrix, got shape {a.shape}")
    parts = (a.real, a.imag) if a.dtype.kind == "c" else (a,)
    if not all(np.isfinite(p.min()) and np.isfinite(p.max()) for p in parts):
        raise InputError("matrix contains NaN or infinite entries")
    if all(np.array_equal(a[r, c], a[c, r].conj().T) for r, c in _tiles(a.shape[0])):
        return None
    return tuple(int(i) for i in np.argwhere(a != a.conj().T)[0])


def _check_int(name, value, minimum):
    """Return ``value`` as an int if it is a Python or NumPy integer, not
    a bool, of at least ``minimum`` (0 or 1); raise InputError otherwise."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < minimum):
        kind = "positive" if minimum else "nonnegative"
        raise InputError(f"{name} must be a {kind} integer, got {value!r}")
    return int(value)


def _check_real(name, value, low=0.0, high=np.inf, closed=False):
    """Return ``value`` as a float if it is a real number, not a bool, in
    (low, high), or in [low, high) when ``closed``; raise InputError otherwise."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    # float() of an int past double range raises, so test its size first
    x = float(value) if real and abs(value) <= sys.float_info.max else np.nan
    if not ((low <= x) if closed else (low < x)) or not x < high:
        span = f"{'[' if closed else '('}{low:g}, {high:g})"
        raise InputError(f"{name} must be a real number in {span}, got {value!r}")
    return x


def _check_type(name, value, *classes):
    """Return ``value`` if it is an instance of one of ``classes``; raise
    InputError naming the expected and the given type otherwise."""
    if not isinstance(value, classes):
        want = " or ".join(c.__name__ for c in classes)
        raise InputError(f"{name} must be a {want}, got {type(value).__name__}")
    return value


def _real_array(name, value, copy=False, allow_complex=False):
    """Return ``value`` as a float64 array, a new one when ``copy``; raise
    InputError unless it is a rectangular array of integers or floats, or,
    with ``allow_complex``, of complex numbers, returned as complex128."""
    kinds, what = ("iufc", "real or complex") if allow_complex else ("iuf", "real")
    try:
        a = np.asarray(value)
    except (TypeError, ValueError) as exc:  # ragged
        raise InputError(f"{name} must be {what} numbers: {exc}") from None
    if a.dtype.kind not in kinds:  # not bools, text or objects
        raise InputError(f"{name} must be {what} numbers, got dtype {a.dtype}")
    dtype = complex if a.dtype.kind == "c" else float
    return np.array(a, dtype=dtype) if copy else np.asarray(a, dtype=dtype)


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
        _check_type("repair", repair, bool)
        a = entries
        if not (type(a) is np.ndarray and a.dtype == np.float64
                and a.flags.c_contiguous and a.base is None
                and not a.flags.writeable):
            a = _real_array("matrix entries", entries, copy=True)
        fixed = []
        bad = _check_matrix(a)
        if bad is not None:
            if repair:
                # halves first: the sum of two finite entries can overflow
                a = a / 2 + a.T / 2
                fixed.append("symmetrized")
            else:
                x, y = bad
                raise InputError(
                    f"matrix is not symmetric: entry ({x}, {y}) = {float(a[x, y])!r} "
                    f"but ({y}, {x}) = {float(a[y, x])!r}"
                )
        if a.min() < 0:
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
        object.__setattr__(self, "norm_s", _check_real("norm_s", self.norm_s))
        # a copy, so that the caller's array stays writeable
        z = _real_array("z values", self.z, copy=True)
        if z.ndim != 1 or len(z) == 0:
            raise InputError("z must be a nonempty vector")
        if z[0] != 1.0:
            raise InputError(f"z[0] must equal 1 exactly, got {z[0]!r}")
        if not ((z > 0) & (z <= 1)).all():
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
    _check_type("s", s, VarianceMatrix)
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
    J = _check_int("J", J, 1)
    entries = _check_type("s", s, VarianceMatrix).entries
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
    b = _real_array("matrix entries", rect)
    if b.ndim != 2 or b.size == 0:
        raise InputError(f"expected a nonempty 2-d array, got shape {b.shape}")
    if b.min() < 0:
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
    n = _check_int("n", n, 1)
    a = np.full((n, n), 1.0 / n)
    a.setflags(write=False)
    return VarianceMatrix(a)


def exp_profile(n: int) -> VarianceMatrix:
    """Exponential profile S[i, j] = exp((i + j) / n) / n, zero-based."""
    n = _check_int("n", n, 1)
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
    n = _check_int("n", n, 1)
    seed = _check_int("seed", seed, 0)
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


_HEADER = re.compile(r"^(n\s*=\s*)?(\d+)$")


def load_dense(path) -> np.ndarray:
    """Read a dense matrix from a text file.

    Two layouts are accepted and sniffed from the first line:

    * plain: the row count on the first line, then one whitespace
      separated row per line;
    * csv: a header ``n=<rows>`` followed by comma separated rows.

    Blank and whitespace-only lines are skipped, and each entry is read
    by ``float()``.  Rows may be rectangular (all the same length).
    Malformed content raises InputError naming the file; for a bad entry
    or row length it gives numpy's reason with its row and column, rows
    counted from the first one after the header, blank lines left out.
    """
    try:
        with open(_check_type("path", path, str, os.PathLike)) as f:
            lines = (ln for ln in f if ln.strip())
            head = next(lines, "").strip()
            if not head:
                raise InputError(f"{path}: file is empty")
            m = _HEADER.match(head)  # \d is str.isdecimal: int() reads it
            if not m:
                raise InputError(f"{path}: first line must be a row count "
                                 f"or 'n=<rows>', got {head!r}")
            nrows, sep = int(m.group(2)), "," if m.group(1) else None
            if nrows < 1:
                raise InputError(f"{path}: row count must be positive")
            # loadtxt warns on an empty body, so a header alone stops here
            first = next(lines, None)
            if first is None:
                raise InputError(f"{path}: expected {nrows} rows, found 0")
            a = np.loadtxt(itertools.chain([first], lines), delimiter=sep,
                           comments=None, converters=float, ndmin=2)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not a text file: {exc}") from None
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None
    if len(a) != nrows:
        raise InputError(f"{path}: expected {nrows} rows, found {len(a)}")
    return a


def load_matrix(path, repair: bool = False) -> VarianceMatrix:
    """Read a square variance profile from a text file."""
    a = load_dense(path)
    a.setflags(write=False)  # hand the array over: VarianceMatrix adopts it
    return VarianceMatrix(a, repair=repair)


def resolve_profile(name: str, n: int | None = None, seed: int | None = None,
                    repair: bool = False) -> tuple[VarianceMatrix, dict]:
    """Build a profile from a generator name or a file path.

    Recognized generator names: ``wigner`` and ``expprofile`` (both need
    ``n``), ``random`` (needs ``n`` and ``seed``), and ``gram:<path>``
    for the symmetric linearization of a rectangular matrix file.  Any
    other string is treated as the path of a square matrix file.  Each
    setting is read by one kind of source and raises InputError with any
    other: ``n`` by the generators, ``seed`` by ``random`` and ``repair``
    by square matrix files (see VarianceMatrix).  Returns the profile
    plus a small descriptor suitable for logging.
    """
    generated = _check_type("name", name, str) in ("wigner", "expprofile", "random")
    if _check_type("repair", repair, bool) and (generated or name.startswith("gram:")):
        raise InputError("repair applies only to square matrix files, "
                         f"not to {name!r}")
    if n is not None and not generated:
        raise InputError("n applies only to generated profiles "
                         f"(wigner, expprofile, random), not to {name!r}")
    if seed is not None and name != "random":
        raise InputError(f"a profile seed applies only to 'random', not to {name!r}")
    if name == "wigner":
        return wigner_profile(n), {"profile": name, "n": n}
    if name == "expprofile":
        return exp_profile(n), {"profile": name, "n": n}
    if name == "random":
        return random_profile(n, seed), {"profile": name, "n": n, "seed": seed}
    if name.startswith("gram:"):
        path = name[len("gram:"):]
        g = gram_linearize(load_dense(path))
        return g, {"profile": "gram", "path": path, "n": g.n}
    s = load_matrix(name, repair=repair)
    return s, {"profile": "file", "path": str(name), "n": s.n}
