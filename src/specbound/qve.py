"""Self-consistent spectral probes for variance profiles.

For every z in the upper half-plane the system

    -1/m_x = z + (S m)_x,        Im m_x > 0,

has exactly one solution vector m.  Averaging its imaginary part over
rows gives a smoothed spectral density whose support is the quantity
the row-sum bounds in :mod:`specbound.bounds` control from above.
This module solves the system on grids of points, scans the density
over them to locate the support edge, and runs the companion moment
recursion together with its root-growth support proxy.

Every solve runs through one kernel: Anderson-accelerated fixed-point
iteration of m -> -1/(z + S m) on a block of shifted points, iterated
as matrix-matrix products.  Plain iteration contracts at a rate only
O(Im z) away from one near the spectrum; the short per-point history
removes that slow contraction with the same matrix products, so no
Newton rescue is needed.  The kernel has one caller, _solve_block,
which density_scan calls on each block of points: it starts every
point at m = -1/z, converges every point of the block (none is
abandoned early), and is the one place that raises ConvergenceError.
The support scan reads its densities from density_scan, so both scans
converge to the one tolerance _TOL within the one budget _MAX_SWEEPS.

The support scan starts from a certified ceiling on the edge rather
than from the row-sum bound: max_x (1/u_x + (S u)_x) at any computed
u > 0 bounds the edge from above (Ajanki, Erdos and Kruger, "Quadratic
vector equations on the complex upper half-plane", cited as [AEK]),
and each m_x is the Stieltjes transform of a measure with no mass above
the edge, so the smoothed density falls as tau rises above the edge.
The scan therefore starts at the lowest grid point at or above the
ceiling: if the density there is at most the threshold, so is the
density at every point above it, and skipping them is exact.  If it
exceeds the threshold, the points above it, up to the reach of the
ceiling's Cauchy bound, are scanned too, and that point is the answer
when none of them exceeds the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InputError, NumericError
from .linalg import VarianceMatrix, inf_norm

# Points iterated together by the block kernel, and the Anderson history
# kept per point.  Both set the kernel's working memory, about
# 2 (_DEPTH + 1) _BLOCK n complex numbers on top of the profile.
_BLOCK = 32
_DEPTH = 3
# sweep budget and update-norm tolerance of every block the scans
# iterate (density_scan, and estimate_support through it)
_MAX_SWEEPS = 300_000
_TOL = 1e-9
# relative bracket width of the edge ceiling's bisection, and the steps
# of the monotone real iteration run at each of its trial points
_CEILING_WIDTH = 5e-3
_CEILING_STEPS = 60


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


def _check_positive(**values):
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise InputError(f"{name} must be positive and finite, got {value}")


def _anderson(entries, zb, m, tol, cap):
    """Anderson-accelerated fixed-point iteration of m -> -1/(z + S m).

    Iterates the rows of ``m`` in place, row j at the shift ``zb[j]``,
    for at most ``cap`` sweeps, and returns ``(sweeps, res, active)``:
    the sweeps run, every row's latest update norm ``max_x |g_x - m_x|``
    with ``g = -1/(z + S m)``, and the mask of rows left unconverged.  A
    row stops once its update norm is at most tol, holding the iterate
    whose defect that norm is.  The kernel returns at once when an
    update norm or the Anderson Gram matrix is not finite, leaving the
    running rows unconverged.

    Every other row moves to ``g - dG gamma``, where dF and dG hold the
    last _DEPTH differences of the updates ``f = g - m`` and of g, and
    the complex gamma minimizes ``|(f - dF gamma) / |g||``.  The weight
    1/|g| balances the least-squares problem when entries of m differ by
    orders of magnitude, as at the origin of a rectangular Gram profile.
    If that point leaves the upper half-plane, the row takes the plain
    step g and its history is cleared.

    The running rows and their histories are held compacted and shrink
    only on a sweep where a row stops.  S is symmetric, so the rows of
    S m are one real product of the stacked real and imaginary parts
    with ``entries``.
    """
    b, n = m.shape
    active = np.ones(b, dtype=bool)
    res = np.full(b, np.inf)
    idx = np.arange(b)
    cur = m
    hist_f = np.zeros((b, _DEPTH, n), dtype=complex)
    hist_g = np.zeros((b, _DEPTH, n), dtype=complex)
    f_prev = g_prev = np.zeros((b, n), dtype=complex)
    for sweep in range(1, cap + 1):
        k = len(idx)
        sm = np.concatenate((cur.real, cur.imag)) @ entries
        g = -1.0 / (zb[idx, None] + sm[:k] + 1j * sm[k:])
        f = g - cur
        r = np.abs(f).max(axis=1)
        res[idx] = r
        done = r <= tol
        if done.any():
            m[idx[done]] = cur[done]
            active[idx[done]] = False
            go = ~done
            idx, cur, g, f = idx[go], cur[go], g[go], f[go]
            hist_f, hist_g = hist_f[go], hist_g[go]
            f_prev, g_prev = f_prev[go], g_prev[go]
            if not len(idx):
                return sweep, res, active
        if not np.isfinite(r).all():
            break
        if sweep > 1:
            hist_f[:, sweep % _DEPTH] = f - f_prev
            hist_g[:, sweep % _DEPTH] = g - g_prev
        weight = 1.0 / np.abs(g)
        wf = hist_f * weight[:, None, :]
        gram = wf.conj() @ wf.transpose(0, 2, 1)
        if not np.isfinite(gram).all():
            break
        rhs = wf.conj() @ (f * weight)[:, :, None]
        gamma = np.linalg.pinv(gram, rcond=1e-12, hermitian=True) @ rhs
        cur = g - (gamma.transpose(0, 2, 1) @ hist_g)[:, 0]
        plain = ~(cur.imag > 0).all(axis=1)
        cur[plain] = g[plain]
        hist_f[plain] = 0.0
        hist_g[plain] = 0.0
        f_prev, g_prev = f, g
    m[idx] = cur
    return sweep, res, active


def _edge_ceiling(entries, hi):
    """Certified upper bound on the top of the spectrum of the profile.

    For every u > 0 the value c(u) = max_x (1/u_x + (S u)_x) is at least
    the edge: at tau = c(u) the vector u is a supersolution of the
    monotone map v -> 1/(tau - S v), so its iteration from 0 stays below
    u and converges to a positive solution of 1/u + S u = tau, which
    exists only at or above the edge [AEK].  ``hi`` must be such a bound
    already; the row-sum bound 2 sqrt(|S|) is c(1/sqrt(|S|)).

    Bisects tau on [0, hi] to a relative bracket width of
    _CEILING_WIDTH.  At each trial tau the iteration u -> 1/(tau - S u)
    runs from 0 for at most _CEILING_STEPS steps; a denominator <= 0
    means no positive solution at tau and moves the bracket up, and
    otherwise it moves down.  The bracket only steers the search: the
    result is the smallest c(u) over every positive iterate met, or hi.
    """
    lo, best = 0.0, hi
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while hi - lo > _CEILING_WIDTH * hi:
            tau = 0.5 * (lo + hi)
            su = np.zeros(len(entries))
            for _ in range(_CEILING_STEPS):
                denom = tau - su
                if not (denom > 0.0).all():
                    lo = tau
                    break
                u = 1.0 / denom
                su = entries @ u
                cert = float((1.0 / u + su).max())
                if cert < best:
                    best = cert
            else:
                hi = tau
    return best


def _solve_block(entries, zb, tol, cap):
    """Converge every point of ``zb`` from the cold start m = -1/z (see
    _anderson) within ``cap`` sweeps and return ``(m, sweeps, res)``,
    with one row of m per point.

    Raises ConvergenceError naming the first point whose update norm
    is not finite, or else the first point left unconverged.
    """
    m = np.repeat((-1.0 / zb)[:, None], entries.shape[0], axis=1)
    sweeps, res, active = _anderson(entries, zb, m, tol, cap)
    if active.any():
        bad = active & ~np.isfinite(res)
        j = np.flatnonzero(bad if bad.any() else active)[0]
        raise ConvergenceError(
            f"QVE stalled at tau = {zb[j].real:.6g} "
            f"(eta = {zb[j].imag}, tol = {tol})",
            residual=float(res[j]),
            iterations=sweeps,
        )
    return m, sweeps, res


def density(s: VarianceMatrix, tau: float, eta: float) -> float:
    """Smoothed spectral density (1/(pi n)) sum_x Im m_x(tau + i eta)."""
    return float(density_scan(s, [tau], eta)[0])


def density_scan(s: VarianceMatrix, taus, eta: float = 1e-3) -> np.ndarray:
    """Smoothed density at every point of ``taus``, as one array.

    Blocks of _BLOCK points are iterated together by _solve_block, each
    point from m = -1/z, to an update norm of _TOL within _MAX_SWEEPS
    sweeps.  Raises InputError when a tau is not finite, and
    ConvergenceError naming the first point of a block that is left
    unconverged.
    """
    _check_positive(eta=eta)
    taus = np.asarray(taus, dtype=float).ravel()
    if not np.isfinite(taus).all():
        raise InputError(f"taus must be finite, got {taus[~np.isfinite(taus)][0]}")
    out = np.empty(len(taus))
    for start in range(0, len(taus), _BLOCK):
        zb = taus[start:start + _BLOCK] + 1j * eta
        m = _solve_block(s.entries, zb, _TOL, _MAX_SWEEPS)[0]
        out[start:start + _BLOCK] = m.imag.mean(axis=1) / math.pi
    return out


def _first_above(s, taus_desc, eta, threshold):
    """First point of the descending grid ``taus_desc`` whose smoothed
    density exceeds the threshold, or None.

    The densities come from density_scan, one block of _BLOCK points at
    a time, each point cold-started, and the scan stops at the first
    block holding such a point.  Warm starts from the block above would
    save sweeps only on blocks after the first, and a scan that starts
    at the edge ceiling seldom reaches a second block.
    """
    for start in range(0, len(taus_desc), _BLOCK):
        tb = taus_desc[start:start + _BLOCK]
        exceed = np.flatnonzero(density_scan(s, tb, eta) > threshold)
        if len(exceed):
            return float(tb[exceed[0]])
    return None


def estimate_support(s: VarianceMatrix, eta: float = 1e-3,
                     grid_step: float = 1e-3,
                     threshold: float = 1e-2) -> SupportEstimate:
    """Locate the largest grid point where the smoothed density exceeds
    the threshold.

    The grid runs from 0 to one past the row-sum bound B = 2 sqrt(|S|).
    Every m_x is the Stieltjes transform of a probability measure on
    [-E, E], where E is the top of the spectrum, so each
    Im m_x(tau + i eta) = int eta / ((tau - l)^2 + eta^2) dmu_x(l)
    falls as tau rises above E, and there the density is at most
    eta / (pi ((tau - E)^2 + eta^2)).  E is replaced by the certified
    ceiling C of _edge_ceiling, a value of max_x (1/u_x + (S u)_x) at a
    computed u > 0, which is at least E and at most B.  Points above the
    reach of that bound cannot exceed the threshold.

    The scan starts at g0, the lowest grid point at or above C (or the
    highest below the reach, if that is lower), and runs top down (see
    _first_above).  If the density at g0 is at most the threshold, no
    point above g0 exceeds it either, since g0 >= C >= E, so the scan's
    answer is final.  Otherwise the points above g0, up to the highest
    one below the reach, are scanned top down the same way, and g0 is
    the answer if none of them exceeds the threshold.  Every density
    comes from density_scan, so a block left unconverged raises its
    ConvergenceError naming the first such point.
    The zero profile has no spectrum to detect (its density is a spike
    at the origin that the smoothing would smear past the threshold), so
    it short-circuits to a not-found result.
    """
    _check_positive(eta=eta, grid_step=grid_step, threshold=threshold)
    norm = inf_norm(s)
    if norm == 0.0:
        return SupportEstimate(0.0, False, eta, grid_step, threshold, 0.0)
    bound = 2.0 * math.sqrt(norm)
    grid_top = bound + 1.0
    n_pts = int(math.floor(grid_top / grid_step)) + 1
    edge = _edge_ceiling(s.entries, bound)
    reach = edge + math.sqrt(max(eta / (math.pi * threshold) - eta * eta, 0.0))
    top = min(n_pts - 1, int(math.floor(reach / grid_step)))
    g0 = min(top, math.ceil(edge / grid_step))
    taus = np.arange(top + 1, dtype=float) * grid_step
    hit = _first_above(s, taus[g0::-1], eta, threshold)
    if hit == taus[g0]:
        # the density exceeds the threshold at g0, so nothing rules out
        # the points above it
        above = _first_above(s, taus[:g0:-1], eta, threshold)
        if above is not None:
            hit = above
    if hit is None:
        return SupportEstimate(0.0, False, eta, grid_step, threshold, grid_top)
    return SupportEstimate(hit, True, eta, grid_step, threshold, grid_top)


def moment_recursion(s: VarianceMatrix, kmax: int) -> np.ndarray:
    """Row-resolved even moments via the tree recursion.

        c[x, 0] = 1,
        c[x, k] = sum_y S_xy sum_{m=0}^{k-1} c[x, k-1-m] c[y, m].

    Returns the read-only n-by-(kmax + 1) table c.  Order k is kept as
    one row c_k (the column c[:, k] of the table), next to the cached
    products S c_m, and is computed in one step: one matrix-vector
    product S c_{k-1}, one elementwise product of the k rows c_{k-1},
    ..., c_0 with S c_0, ..., S c_{k-1}, and one reduction of those k
    rows.  The reduction adds the terms in the order m = 0 .. k-1, as
    the formula's loop does, so the table equals the loop's bit for
    bit.  The cost is kmax matrix-vector products and kmax (kmax + 1) / 2
    vector products, O(kmax n^2 + kmax^2 n), in kmax steps.  Raises
    NumericError as soon as an entry leaves double-precision range;
    rescaling S by 1/a rescales c[x, k] by a^-k, so large profiles can
    be probed after scaling.
    """
    if not isinstance(kmax, int) or kmax < 0:
        raise InputError(f"kmax must be a nonnegative integer, got {kmax!r}")
    entries, n = s.entries, s.n
    # One spare zero column: NumPy reduces over the outer axis row after
    # row only while rows are at least two wide; on one-wide rows it
    # switches to pairwise summation, which changes the last bits.
    c = np.zeros((kmax + 1, n + 1))
    sc = np.zeros((kmax, n + 1))  # sc[m, :n] = S @ c[m, :n]
    c[0, :n] = 1.0
    for k in range(1, kmax + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            sc[k - 1, :n] = entries @ c[k - 1, :n]
            np.add.reduce(c[k - 1::-1] * sc[:k], axis=0, out=c[k])
        if not np.all(np.isfinite(c[k])):
            raise NumericError(
                f"moment overflow at k = {k}; rescale the profile and retry"
            )
    table = c[:, :n].T
    table.setflags(write=False)
    return table


def support_from_moments(table: np.ndarray) -> float:
    """Support proxy max_x c[x, k] ** (1 / (2 k)) at the table's depth
    k = table.shape[1] - 1.

    Nondecreasing in k and never above the true support edge, so it
    complements the density scan from below.  A shallower proxy comes
    from a shallower table: moment_recursion(s, k) is the first k + 1
    columns of any deeper table of s, bit for bit.  Raises InputError
    on a table of depth 0, which holds no moment to take a root of.
    """
    kmax = table.shape[1] - 1
    if kmax < 1:
        raise InputError(f"table must hold moments up to k >= 1, got kmax = {kmax}")
    return float(table[:, kmax].max() ** (1.0 / (2 * kmax)))
