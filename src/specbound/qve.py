"""Self-consistent spectral probes for variance profiles.

For every z in the upper half-plane the system

    -1/m_x = z + (S m)_x,        Im m_x > 0,

has exactly one solution vector m.  Averaging its imaginary part over
rows gives a smoothed spectral density whose support is the quantity
the row-sum bounds in :mod:`specbound.bounds` control from above.
This module solves the system pointwise, scans it over grids to locate
the support edge, and runs the companion moment recursion together
with its root-growth support proxy.

Every solve runs through one kernel: Anderson-accelerated fixed-point
iteration of m -> -1/(z + S m) on a block of shifted points, iterated
as matrix-matrix products.  Plain iteration contracts at a rate only
O(Im z) away from one near the spectrum; the short per-point history
removes that slow contraction with the same matrix products, so no
Newton rescue is needed.  The density and support scans converge every
point of a block, none is abandoned early, and a point still
unconverged at the shared sweep budget raises ConvergenceError from
one place, the block helper both scans call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError, InputError, OverflowGuardError
from .linalg import VarianceMatrix, inf_norm

# Points iterated together by the block kernel, and the Anderson history
# kept per point.  Both set the kernel's working memory, about
# 2 (_DEPTH + 1) _BLOCK n complex numbers on top of the profile.
_BLOCK = 32
_DEPTH = 3
# sweep budget of every block the scans iterate, and the update-norm
# tolerances of density_scan and of the support scan
_MAX_SWEEPS = 300_000
_TOL = 1e-9
_EDGE_TOL = 1e-8


@dataclass(frozen=True)
class SpectralProbe:
    """Solution of the self-consistent system at one spectral point.

    ``residual`` is the sup-norm defect ``max_x |m_x + 1/(z + (S m)_x)|``
    of the returned vector, and ``iterations`` counts every update step
    the solver performed to reach it.
    """

    z: complex
    m: np.ndarray = field(repr=False)
    iterations: int
    residual: float

    def __post_init__(self):
        m = np.asarray(self.m, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "m", m)


@dataclass(frozen=True)
class SupportEstimate:
    """Largest grid point whose smoothed density exceeds the threshold.

    ``found`` is False when no grid point exceeds the threshold (for
    instance on the zero profile); ``value`` is 0.0 in that case.
    """

    value: float
    found: bool
    eta: float
    grid_step: float
    threshold: float
    grid_top: float

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "found": self.found,
            "eta": self.eta,
            "grid_step": self.grid_step,
            "threshold": self.threshold,
            "grid_top": self.grid_top,
        }


@dataclass(frozen=True)
class MomentTable:
    """Row-resolved even-moment table c[x, k] for k = 0 .. kmax."""

    kmax: int
    c: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return self.c.shape[0]


def _check_z(z) -> complex:
    z = complex(z)
    if z.imag <= 0:
        raise DomainError(f"z must have positive imaginary part, got {z}")
    return z


def _check_positive(**values):
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise DomainError(f"{name} must be positive and finite, got {value}")


def _anderson(entries, zb, m, tol, cap):
    """Anderson-accelerated fixed-point iteration of m -> -1/(z + S m).

    Iterates the columns of ``m`` in place, column j at the shift
    ``zb[j]``, for at most ``cap`` sweeps, and returns
    ``(sweeps, res, active)``: the sweeps run, every column's latest
    update norm ``max_x |g_x - m_x|`` with ``g = -1/(z + S m)``, and the
    mask of columns left unconverged.  A column stops once its update
    norm is at most tol, holding the iterate whose defect that norm is.

    Every other column moves to ``g - dG gamma``, where dF and dG hold
    the last _DEPTH differences of the updates ``f = g - m`` and of g,
    and the complex gamma minimizes ``|(f - dF gamma) / |g||``.  The
    weight 1/|g| balances the least-squares problem when entries of m
    differ by orders of magnitude, as at the origin of a rectangular
    Gram profile.  If that point leaves the upper half-plane, the
    column takes the plain step g and its history is cleared.  Matrix
    products are split into two real products, which is faster than
    one complex product for a real profile.
    """
    n, b = m.shape
    active = np.ones(b, dtype=bool)
    res = np.full(b, np.inf)
    diff_f = np.zeros((b, _DEPTH, n), dtype=complex)
    diff_g = np.zeros((b, _DEPTH, n), dtype=complex)
    f_prev = np.zeros((b, n), dtype=complex)
    g_prev = np.zeros((b, n), dtype=complex)
    for sweep in range(1, cap + 1):
        idx = np.flatnonzero(active)
        if not len(idx):
            return sweep - 1, res, active
        cols = m[:, idx]
        g = (-1.0 / (zb[idx] + entries @ cols.real + 1j * (entries @ cols.imag))).T
        f = g - cols.T
        r = np.abs(f).max(axis=1)
        res[idx] = r
        active[idx[r <= tol]] = False
        go = r > tol
        idx, g, f = idx[go], g[go], f[go]
        hist_f, hist_g = diff_f[idx], diff_g[idx]
        if sweep > 1:
            hist_f[:, sweep % _DEPTH] = f - f_prev[idx]
            hist_g[:, sweep % _DEPTH] = g - g_prev[idx]
        weight = 1.0 / np.abs(g)
        wf = hist_f * weight[:, None, :]
        gram = wf.conj() @ wf.transpose(0, 2, 1)
        rhs = wf.conj() @ (f * weight)[:, :, None]
        gamma = np.linalg.pinv(gram, rcond=1e-12, hermitian=True) @ rhs
        step = g - (gamma.transpose(0, 2, 1) @ hist_g)[:, 0]
        plain = ~(step.imag > 0).all(axis=1)
        step[plain] = g[plain]
        hist_f[plain] = 0.0
        hist_g[plain] = 0.0
        diff_f[idx], diff_g[idx] = hist_f, hist_g
        f_prev[idx], g_prev[idx] = f, g
        m[:, idx] = step.T
    return cap, res, active


def _scan_block(entries, zb, m, tol):
    """Converge the block ``m`` in place (see _anderson) within
    _MAX_SWEEPS sweeps and return the smoothed density of each column.

    Raises ConvergenceError naming the first point left unconverged.
    """
    _, res, active = _anderson(entries, zb, m, tol, _MAX_SWEEPS)
    if active.any():
        j = np.flatnonzero(active)[0]
        raise ConvergenceError(
            f"QVE scan stalled at tau = {zb[j].real:.6g} "
            f"(eta = {zb[j].imag}, tol = {tol})",
            residual=float(res[j]),
            iterations=_MAX_SWEEPS,
        )
    return m.imag.mean(axis=0) / math.pi


def solve_qve(s: VarianceMatrix, z, tol: float = 1e-9,
              max_iter: int = 200_000) -> SpectralProbe:
    """Solve -1/m_x = z + (S m)_x for the upper-half-plane vector m.

    Anderson-accelerated fixed-point iteration from m = -1/z, as a
    block of one column (see _anderson); ``iterations`` counts its
    update steps.  Raises ConvergenceError when max_iter update steps
    did not reach the tolerance, DomainError when Im z <= 0, and
    InputError when tol is not positive and finite.
    """
    z = _check_z(z)
    if not 0.0 < tol < math.inf:
        raise InputError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise InputError(f"max_iter must be at least 1, got {max_iter}")
    m = np.full((s.n, 1), -1.0 / z)
    it, res, active = _anderson(s.entries, np.array([z]), m, tol, max_iter)
    if active[0]:
        raise ConvergenceError(
            f"no convergence at z = {z} after {max_iter} iterations "
            f"(residual {res[0]:.3e})",
            residual=float(res[0]),
            iterations=max_iter,
        )
    # the defect of the returned vector is exactly its last update norm
    return SpectralProbe(z=z, m=m[:, 0], iterations=it, residual=float(res[0]))


def density(s: VarianceMatrix, tau: float, eta: float) -> float:
    """Smoothed spectral density (1/(pi n)) sum_x Im m_x(tau + i eta)."""
    return float(density_scan(s, [tau], eta)[0])


def density_scan(s: VarianceMatrix, taus, eta: float = 1e-3) -> np.ndarray:
    """Smoothed density at every point of ``taus``, as one array.

    Blocks of points are iterated together, each point from m = -1/z,
    to an update norm of _TOL.  Raises ConvergenceError naming the
    first point of a block that is left unconverged.
    """
    _check_positive(eta=eta)
    taus = np.asarray(taus, dtype=float).ravel()
    out = np.empty(len(taus))
    for start in range(0, len(taus), _BLOCK):
        zb = taus[start:start + _BLOCK] + 1j * eta
        m_block = np.repeat((-1.0 / zb)[None, :], s.n, axis=0)
        out[start:start + _BLOCK] = _scan_block(s.entries, zb, m_block, _TOL)
    return out


def estimate_support(s: VarianceMatrix, eta: float = 1e-3,
                     grid_step: float = 1e-3,
                     threshold: float = 1e-2) -> SupportEstimate:
    """Locate the largest grid point where the smoothed density exceeds
    the threshold.

    The grid runs from 0 to one past the row-sum bound B = 2 sqrt(|S|)
    and is scanned from the top down in blocks, each converged to an
    update norm of _EDGE_TOL and warm-started from the lowest point of
    the block above.  Every m_x is the Stieltjes transform of a
    probability measure on [-B, B], so above B the density is at most
    eta / (pi ((tau - B)^2 + eta^2)); the scan starts at the highest
    grid point where that bound exceeds the threshold, and it returns
    at the first block holding a point above the threshold.  A block
    left unconverged raises ConvergenceError naming its first such
    point.  The zero profile has no spectrum to detect (its density is
    a spike at the origin that the smoothing would smear past the
    threshold), so it short-circuits to a not-found result.
    """
    _check_positive(eta=eta, grid_step=grid_step, threshold=threshold)
    norm = inf_norm(s)
    if norm == 0.0:
        return SupportEstimate(0.0, False, eta, grid_step, threshold, 0.0)
    edge = 2.0 * math.sqrt(norm)
    grid_top = edge + 1.0
    n_pts = int(math.floor(grid_top / grid_step)) + 1
    reach = edge + math.sqrt(max(eta / (math.pi * threshold) - eta * eta, 0.0))
    top = min(n_pts - 1, int(math.floor(reach / grid_step)))
    taus_desc = np.arange(top, -1, -1, dtype=float) * grid_step
    warm = None
    for start in range(0, len(taus_desc), _BLOCK):
        tb = taus_desc[start:start + _BLOCK]
        zb = tb + 1j * eta
        if warm is None:
            m_block = np.repeat((-1.0 / zb)[None, :], s.n, axis=0)
        else:
            m_block = np.repeat(warm[:, None], len(tb), axis=1)
        dens = _scan_block(s.entries, zb, m_block, _EDGE_TOL)
        exceed = np.flatnonzero(dens > threshold)
        if len(exceed):
            return SupportEstimate(float(tb[exceed[0]]), True, eta,
                                   grid_step, threshold, grid_top)
        warm = m_block[:, -1]
    return SupportEstimate(0.0, False, eta, grid_step, threshold, grid_top)


def moment_recursion(s: VarianceMatrix, kmax: int) -> MomentTable:
    """Row-resolved even moments via the tree recursion.

        c[x, 0] = 1,
        c[x, k] = sum_y S_xy sum_{n=0}^{k-1} c[x, k-1-n] c[y, n].

    Each column's product S c[:, m] is computed once and cached, so the
    cost is O(kmax n^2 + kmax^2 n).  Raises OverflowGuardError as soon
    as an entry leaves double-precision range; rescaling S by 1/a
    rescales c[x, k] by a^-k, so large profiles can be probed after
    scaling.
    """
    if not isinstance(kmax, int) or kmax < 0:
        raise InputError(f"kmax must be a nonnegative integer, got {kmax!r}")
    entries = s.entries
    c = np.zeros((s.n, kmax + 1))
    sc = np.zeros((s.n, kmax))  # sc[:, m] = S @ c[:, m]
    c[:, 0] = 1.0
    for k in range(1, kmax + 1):
        acc = np.zeros(s.n)
        with np.errstate(over="ignore", invalid="ignore"):
            sc[:, k - 1] = entries @ c[:, k - 1]
            for m in range(k):
                acc += c[:, k - 1 - m] * sc[:, m]
        if not np.all(np.isfinite(acc)):
            raise OverflowGuardError(
                f"moment overflow at k = {k}; rescale the profile and retry"
            )
        c[:, k] = acc
    return MomentTable(kmax=kmax, c=c)


def support_from_moments(table: MomentTable, kmax: int | None = None) -> float:
    """Support proxy max_x c[x, kmax] ** (1 / (2 kmax)).

    Nondecreasing in kmax and never above the true support edge, so it
    complements the density scan from below.
    """
    if kmax is None:
        kmax = table.kmax
    if not isinstance(kmax, int) or kmax < 1:
        raise InputError(f"kmax must be a positive integer, got {kmax!r}")
    if kmax > table.kmax:
        raise InputError(
            f"table only holds moments up to k = {table.kmax}, got kmax = {kmax}"
        )
    return float(table.c[:, kmax].max() ** (1.0 / (2 * kmax)))
