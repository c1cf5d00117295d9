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

import collections
import contextlib
import ctypes
import functools
import itertools
import numbers
import os
import re
import sys
import threading
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


# numpy's OpenBLAS: its thread-count functions, and LAPACKE's real
# symmetric and complex hermitian eigensolvers (None where it lacks them)
_OpenBlas = collections.namedtuple("_OpenBlas", "get put dsyevd zheevd")


@functools.cache
def _openblas():
    """The OpenBLAS that numpy loaded, found by library name in this
    process's memory map, as an _OpenBlas, or None where there is none:
    another BLAS, or no ``/proc/self/maps``."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.rsplit("/", 1)[-1]}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # numpy's own wheels prefix the names with scipy_, ILP64 builds
        # suffix them with 64_
        for prefix, suffix in itertools.product(("scipy_", ""), ("64_", "")):
            name = f"{prefix}%s{suffix}"
            try:
                get = lib[name % "openblas_get_num_threads"]
                put = lib[name % "openblas_set_num_threads"]
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            try:
                solvers = [lib[name % f"LAPACKE_{f}"] for f in ("dsyevd", "zheevd")]
            except AttributeError:
                return _OpenBlas(get, put, None, None)
            # lapack_int is 64 bits wide in an ILP64 build; the arguments
            # are layout, jobz, uplo, n, a, lda and the eigenvalues w
            integer = ctypes.c_int64 if suffix else ctypes.c_int
            for f in solvers:
                f.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, integer,
                              ctypes.c_void_p, integer, ctypes.c_void_p]
                f.restype = integer
            return _OpenBlas(get, put, *solvers)
    return None


# The thread count is one setting of the whole process: bodies run under
# _one_blas_thread in several Python threads take turns, so that none of
# them restores the count while another still runs.
_BLAS_TURN = threading.RLock()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body on one OpenBLAS thread, and restore the thread count
    after it; without OpenBLAS, run it as it is. Yields the thread count
    it found, 1 without OpenBLAS."""
    blas = _openblas()
    if blas is None:
        yield 1
        return
    with _BLAS_TURN:
        threads = blas.get()
        blas.put(1)
        try:
            yield threads
        finally:
            blas.put(threads)


def _check_matrix(a):
    """Refuse the real array ``a`` unless it is a nonempty finite square
    matrix; return the first entry (x, y), row-major, where a != a.T, or
    None. Builds no n-by-n mask unless one differs: min and max propagate
    NaN and reach +-inf."""
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise InputError(f"expected a nonempty square matrix, got shape {a.shape}")
    if not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise InputError("matrix contains NaN or infinite entries")
    if all(np.array_equal(a[r, c], a[c, r].T) for r, c in _tiles(a.shape[0])):
        return None
    return tuple(int(i) for i in np.argwhere(a != a.T)[0])


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


def _real_array(name, value, copy=False):
    """Return ``value`` as a float64 array, a new one when ``copy``; raise
    InputError unless it is a rectangular array of integers or floats."""
    try:
        a = np.asarray(value)
    except (TypeError, ValueError) as exc:  # ragged
        raise InputError(f"{name} must be real numbers: {exc}") from None
    if a.dtype.kind not in "iuf":  # not bools, complex numbers, text or objects
        raise InputError(f"{name} must be real numbers, got dtype {a.dtype}")
    return np.array(a, dtype=float) if copy else np.asarray(a, dtype=float)


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
    emitted instead of an error.  The row sums ``S 1`` are formed once
    here, for every layer to read (see ``row_sums``).
    """

    __slots__ = ("_entries", "_row_sums")

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
        with np.errstate(over="ignore"):
            r = a @ np.ones(a.shape[0])
        r.setflags(write=False)
        self._row_sums = r

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def row_sums(self) -> np.ndarray:
        """The read-only row sums ``S 1``, as ``entries @ np.ones(n)``.

        The entries are finite, but a row sum past double-precision
        range reads inf; ``inf_norm`` raises NumericError on it.
        """
        return self._row_sums

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

# Relative width at which norm_sequence's bracket [lo, hi] of two-step
# ratios counts as closed: near roundoff.  A term filled k double steps
# past the close is within a factor (1 + _CLOSED)^k of the full loop's.
_CLOSED = 1e-14


def inf_norm(s: VarianceMatrix) -> float:
    """Max row sum norm of a variance profile: the largest of its
    ``row_sums``, read without a product.

    The entries are finite, but their row sums can leave
    double-precision range; that raises NumericError.
    """
    norm = float(_check_type("s", s, VarianceMatrix).row_sums.max())
    if not np.isfinite(norm):
        raise NumericError(
            "max row sum |S| overflows double precision; rescale the profile and retry"
        )
    return norm


def norm_sequence(s: VarianceMatrix, J: int) -> NormSequence:
    """Compute z_j = |S^j| / |S|^j for j = 1..J without forming powers.

    Uses the iteration u_0 = all-ones, u_j = S u_{j-1} / |S|, for which
    max(u_j) = z_j.  The first iterate u_1 is the profile's ``row_sums``
    over |S|, read, not formed again; OpenBLAS's product need not agree
    bit for bit across thread counts, so a profile built at one thread
    count and read at another takes the bits of its own row sums, as
    every other layer does.  At every even j the ratios u_j / u_{j-2}
    over the rows where u_{j-2} > 0 are bracketed by [lo, hi]
    (Collatz-Wielandt).
    As S >= 0, u_j <= hi u_{j-2} gives z_{j+2k} <= hi^k z_j and
    z_{j-1+2k} <= hi^k z_{j-1}, so once the bracket closes to roundoff
    the remaining terms are filled from those two values and powers of
    hi, and the loop ends.  A filled term is an upper estimate of the
    true one, as the floor below is, so the bound computed from the
    sequence stays valid.  Two steps apart, the iterates of a bipartite
    (Gram) profile, which alternate, settle too; on a reducible union of
    blocks of different radii the bracket never closes.  Cost is
    min(J, steps until the bracket closes) - 1 matrix-vector products,
    as |S| and u_1 are read from the profile's row sums: a handful on
    most profiles, whatever J is.

    Values are clamped into (0, 1] to absorb roundoff at the top end,
    and floored at the smallest positive normal double where the
    iteration underflows.  z_j is nonincreasing, so the floor is an
    upper bound on every value it replaces.
    """
    J = _check_int("J", J, 1)
    entries = _check_type("s", s, VarianceMatrix).entries
    norm = inf_norm(s)
    if norm == 0.0:
        raise InputError("the zero matrix has no norm sequence")
    z = np.empty(J)
    older, old, old_top = None, np.ones(s.n), 1.0  # u_{j-2}, u_{j-1}, max(u_{j-1})
    # a row where u_{j-2} = 0 gives the ratio 0/0 = NaN, which fmax and fmin
    # skip, or x/0 = inf, which keeps the bracket open (lo stays finite:
    # u_{j-2} = 0 on every row makes u_j = 0 and hi NaN)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(1, J + 1):
            u = (entries @ old if j > 1 else s.row_sums) / norm
            top = u.max()
            z[j - 1] = min(max(top, _TINY), 1.0)
            if j % 2 == 0:
                ratio = u / older
                hi = np.fmax.reduce(ratio)
                if hi <= np.fmin.reduce(ratio) * (1.0 + _CLOSED):
                    _fill_tail(z[j:], old_top, top, hi)
                    break
            older, old, old_top = old, u, top
    return NormSequence(norm_s=norm, z=z)


def _fill_tail(tail, z_prev, z_j, hi):
    """Fill ``tail``, the terms after z_j, with their upper estimates
    hi^k z_{j-1} and hi^k z_j (k = 1, 2, ...), alternately; ``z_prev``
    and ``z_j`` are z_{j-1} and z_j before the clamp."""
    powers = hi ** np.arange(1, (len(tail) + 1) // 2 + 1)
    tail[0::2] = z_prev * powers
    tail[1::2] = z_j * powers[:len(tail) // 2]
    np.clip(tail, _TINY, 1.0, out=tail)


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
    numpy counts them two ways: a bad second entry of the first row
    reads "at row 0, column 2" (rows from 0, columns from 1), a short second
    row "at row 2" (rows from 1).
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
