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
removes that slow contraction with the same matrix products.  The
kernel is one function, _solve_block, which density_scan calls on each
block of points: it starts every row x of every point at the semicircle
law of its own row sum r_x = (S 1)_x, the root of r_x m^2 + z m + 1 = 0
in the upper half-plane, which is the exact solution when every row sum
is r_x (Ajanki, Erdos and Kruger, "Quadratic vector equations on the
complex upper half-plane", cited as [AEK]).  It iterates until every
point of the block has converged (none is abandoned early), and
otherwise raises ConvergenceError; no other code raises it.
The support scan reads its densities from density_scan, so both scans
converge to the one update norm _TOL / sqrt(|S|), with |S| the max row
sum, within the one budget _MAX_SWEEPS.  The solution scales as
m_{aS}(z) = m_S(z / sqrt(a)) / sqrt(a) [AEK], so that tolerance is one
relative accuracy at every scale, and the scans are scale-covariant bit
for bit: scaling S by 16^k and z by 4^k is exact in binary, and scales
every density by exactly 4^-k.

The support scan starts from a certified ceiling on the edge rather
than from the row-sum bound: max_x (1/u_x + (S u)_x) at any computed
u > 0 bounds the edge from above [AEK], and each m_x is the Stieltjes
transform of a measure with no mass above the edge, so the smoothed
density falls as tau rises above the ceiling.
That is the scan's one premise.  _edge_ceiling finds its u in one loop,
an ascent on dual weights p that stops once a weak-duality lower bound
on the edge comes within a relative _CEILING_WIDTH of the ceiling.  The
scan walks from the lowest grid point at or above the ceiling: down to
the first point whose density exceeds the threshold when the density
there is at most the threshold, and otherwise up to the last point
before the density falls to the threshold.  The answer mostly lies a few grid points from the start,
so each walk converges its points in blocks that grow from 4 points to
_BLOCK (see _first_past), which never converges more points than full
blocks would.  density_scan itself, and with it the CSV scan, still
iterates full blocks of _BLOCK points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InputError, NumericError
from .linalg import (VarianceMatrix, _check_int, _check_real, _check_type,
                     _one_blas_thread, _real_array, inf_norm)

__all__ = ["SupportEstimate", "density", "density_scan", "estimate_support",
           "moment_recursion", "support_from_moments"]

# Points iterated together by the block kernel, and the Anderson history
# kept per point.  Both set the kernel's working memory, about
# 2 (_DEPTH + 1) _BLOCK n complex numbers on top of the profile.
_BLOCK = 32
_DEPTH = 3
# sweep budget of every block the scans iterate (density_scan, and
# estimate_support through it), and their update-norm tolerance in units
# of 1/sqrt(|S|), the scale of m
_MAX_SWEEPS = 300_000
_TOL = 1e-9
# relative width of the edge bracket [L(p), c(u)] at which the ceiling's
# dual ascent stops, and its budget of steps, of two products each but
# the first
_CEILING_WIDTH = 1e-4
_CEILING_STEPS = 100


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


def _solve_block(s, zb, tol, cap):
    """Converge every point of ``zb`` within ``cap`` sweeps of
    Anderson-accelerated fixed-point iteration of m -> -1/(z + S m) on
    the profile ``s``.

    Row x of each point starts at its own semicircle m_x = -2 / (z + w),
    where w^2 = z^2 - 4 r_x with r_x the row sum, read from
    ``s.row_sums``, on the root with Re(conj(z) w) >= 0; it lies in the
    upper half-plane and solves the system when every row sum is r_x.
    w is formed as sqrt(z - e_x) sqrt(z + e_x) from the semicircle's
    edge e_x = 2 sqrt(r_x): a product of principal roots that is this
    root and squares neither z nor r_x, so it does not overflow for any
    finite row sum and |z| below about 9e307.  A row whose row sum is 0
    starts at exactly -1/z, its solution; so does a row whose formula is
    not finite or not in the upper half-plane (an overflowed row sum,
    |z| near the largest double, or an underflowed imaginary part).

    Returns ``(m, sweeps, res)``: one row of m per point, the sweeps
    run, and every row's last update norm ``max_x |g_x - m_x|`` with
    ``g = -1/(z + S m)``.  A row stops exactly when its update norm is
    at most tol, holding the iterate whose defect that norm is.

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

    Raises ConvergenceError when rows are still running after ``cap``
    sweeps, and at once when an update norm or the Anderson Gram matrix
    is not finite.  It names the first running point whose update norm
    is not finite, or else the first running point.
    """
    entries, b, n = s.entries, len(zb), s.n
    z = zb[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        edge = 2.0 * np.sqrt(s.row_sums)
        m = -2.0 / (z + np.sqrt(z - edge) * np.sqrt(z + edge))
    cold = (edge == 0.0) | ~(np.isfinite(m) & (m.imag > 0))
    m = np.where(cold, -1.0 / z, m)
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
            go = ~done
            idx, cur, g, f = idx[go], cur[go], g[go], f[go]
            hist_f, hist_g = hist_f[go], hist_g[go]
            f_prev, g_prev = f_prev[go], g_prev[go]
            if not len(idx):
                return m, sweep, res
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
    bad = np.flatnonzero(~np.isfinite(res[idx]))
    j = idx[bad[0] if len(bad) else 0]
    raise ConvergenceError(
        f"QVE stalled at tau = {zb[j].real:.6g} "
        f"(eta = {zb[j].imag}, tol = {tol})",
        residual=float(res[j]),
        iterations=sweep,
    )


def _edge_ceiling(s, hi):
    """Certified upper bound on the top of the spectrum of the profile ``s``.

    For every u > 0 the value c(u) = max_x (1/u_x + (S u)_x) is at least
    the edge: at tau = c(u) the vector u is a supersolution of the
    monotone map v -> 1/(tau - S v), so its iteration from 0 stays below
    u and converges to a positive solution of 1/u + S u = tau, which
    exists only at or above the edge [AEK].  ``hi`` must be such a bound
    already; the row-sum bound 2 sqrt(|S|) is c(1/sqrt(|S|)).

    Every p >= 0 with S p != 0 bounds the edge from below: each c(u) is
    at least the p-weighted mean of 1/u + S u, whose least value over u,
    reached at u = sqrt(p / S p), is L(p) = 2 sum_x sqrt(p_x (S p)_x) /
    sum_x p_x, and the edge is the infimum of c(u) [AEK].  One ascent on
    p, from p = 1, runs at most _CEILING_STEPS steps; one that stops at
    step k makes 2 k - 1 products, as its first S p = S 1 is the
    profile's row sums.  A step forms u = sqrt(p / S p) and
    g = 1/u + S u, so that max g is c(u) and the p-weighted mean of g
    is L(p); keeps the smallest max g met; stops once that ceiling is at
    most L(p) (1 + _CEILING_WIDTH); and otherwise moves to p g / max g.  The relative
    width _CEILING_WIDTH holds only when that bracket closes: a loop
    that spends its steps, or meets a max g that is not finite, returns
    the smallest ceiling met, or hi.  A zero row, decided once from the
    row sums, takes no part: its u_x is free, and 1/u_x falls to 0 as
    u_x grows.
    """
    entries = s.entries
    p, sp, best = np.ones(s.n), s.row_sums, hi
    live = sp > 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(_CEILING_STEPS):
            u = np.where(live, np.sqrt(p / sp), 0.0)
            g = np.where(live, 1.0 / u + entries @ u, 0.0)
            top = float(g.max())
            if not math.isfinite(top):
                break
            best = min(best, top)
            if best <= p @ g / p.sum() * (1.0 + _CEILING_WIDTH):
                break
            p = p * g / top
            sp = entries @ p
    return best


def density(s: VarianceMatrix, tau: float, eta: float) -> float:
    """Smoothed spectral density (1/(pi n)) sum_x Im m_x(tau + i eta)."""
    return float(density_scan(s, [tau], eta)[0])


def density_scan(s: VarianceMatrix, taus, eta: float = 1e-3) -> np.ndarray:
    """Smoothed density at every point of ``taus``, as one array.

    Each block of _BLOCK points is one call of the kernel _solve_block,
    which starts every row of every point at the semicircle of its row
    sum and converges it to an update norm of _TOL / sqrt(|S|) within
    _MAX_SWEEPS sweeps.  m scales as 1/sqrt(|S|), so the scan is
    scale-covariant: on 16^k S at 4^k taus and 4^k eta it returns
    exactly 4^-k times the densities on S.  The zero profile keeps its
    exact start -1/z.  A max row sum that overflows raises
    ``inf_norm``'s NumericError before any sweep.  Raises InputError
    when a tau is not a finite real number; a block left unconverged
    raises the kernel's ConvergenceError, naming the first point whose
    update norm is not finite, or else the first point still running.
    The blocks run on one OpenBLAS thread, so the densities do not
    depend on the thread count.
    """
    _check_type("s", s, VarianceMatrix)
    eta = _check_real("eta", eta)
    taus = _real_array("taus", taus).ravel()
    if not np.isfinite(taus).all():
        raise InputError(f"taus must be finite, got {taus[~np.isfinite(taus)][0]}")
    # m scales as 1/sqrt(|S|); the zero profile gets tolerance inf
    with np.errstate(divide="ignore"):
        tol = _TOL / np.sqrt(inf_norm(s))
    out = np.empty(len(taus))
    # the steps between two sweeps outlast an idle worker's spin, so a
    # second thread would be woken once a sweep; on a busy machine that
    # wait costs more than the thread saves on a sweep's product
    with _one_blas_thread():
        for start in range(0, len(taus), _BLOCK):
            zb = taus[start:start + _BLOCK] + 1j * eta
            m = _solve_block(s, zb, tol, _MAX_SWEEPS)[0]
            out[start:start + _BLOCK] = m.imag.mean(axis=1) / math.pi
    return out


def _first_past(s, taus, eta, threshold, above):
    """Index of the first point of ``taus`` whose smoothed density
    exceeds the threshold (``above`` true) or is at most it (``above``
    false), or len(taus) if there is none.

    The densities come from density_scan, one block at a time, each
    point started afresh at its rows' semicircles, and the walk stops at
    the first block holding such a point.  The blocks hold 4, 8 and 16
    points, then 4 more to reach _BLOCK, then _BLOCK each: every block
    doubles the points walked so far, plus 4, but ends no later than the
    next multiple of _BLOCK.  A walk from the edge ceiling mostly meets
    its answer within a few points, where a 4-point block costs a
    fraction of a full one, and no walk converges more points than one
    in blocks of _BLOCK.
    Warm starts from the previous block would save sweeps only on later
    blocks, which such a walk seldom reaches.
    """
    start = 0
    while start < len(taus):
        stop = min(2 * start + 4, (start // _BLOCK + 1) * _BLOCK)
        exceed = density_scan(s, taus[start:stop], eta) > threshold
        past = np.flatnonzero(exceed == above)
        if len(past):
            return start + int(past[0])
        start = stop
    return len(taus)


def _grid_points(top, step, what):
    """Number of grid points k * step, k = 0, 1, ..., in [0, top].

    Raises InputError, its message starting with `what`, when a float64
    array of that many points cannot fit the address space.
    """
    last = top / step
    if not last < np.iinfo(np.intp).max // 8:
        raise InputError(f"{what} of {last + 1:.4g} points is too large")
    return int(math.floor(last)) + 1


def estimate_support(s: VarianceMatrix, eta: float = 1e-3,
                     grid_step: float = 1e-3,
                     threshold: float = 1e-2) -> SupportEstimate:
    """Locate the largest grid point where the smoothed density exceeds
    the threshold.

    The grid runs from 0 to one past the row-sum bound B = 2 sqrt(|S|);
    InputError is raised when it holds more points than an array can.
    Every m_x is the Stieltjes transform of a probability measure on
    [-E, E], where E is the top of the spectrum, so each
    Im m_x(tau + i eta) = int eta / ((tau - l)^2 + eta^2) dmu_x(l)
    falls strictly as tau rises above E, and so does the density.  E is
    replaced by the certified ceiling C of _edge_ceiling, a value of
    max_x (1/u_x + (S u)_x) at a computed u > 0, which is at least E
    and at most B, so the density falls strictly on [C, inf).

    The scan starts at g0, the lowest grid point at or above C, and
    walks from there (see _first_past).  If the density at g0 is at
    most the threshold, so is the density at every point above it, and
    the walk goes down to the first point whose density exceeds the
    threshold.  Otherwise it goes up, and the answer is the point just
    below the first one whose density is at most the threshold, or the
    last grid point if there is none.  Every density comes from
    density_scan, so a block left unconverged raises its
    ConvergenceError naming the first such point.  Like density_scan the
    value is scale-covariant: on 16^k S with 4^k eta and grid_step and
    4^-k threshold it is exactly 4^k times the value on S, unless the
    walk runs off the top of either grid.  The top 2 sqrt(|S|) + 1 is
    not covariant, as its + 1 is absolute: at k < 0 the grid holds up
    to 4^-k times as many points.
    The zero profile has no spectrum to detect (its density is a spike
    at the origin that the smoothing would smear past the threshold), so
    it short-circuits to a not-found result, on the grid from 0 to 1.
    """
    eta = _check_real("eta", eta)
    grid_step = _check_real("grid_step", grid_step)
    threshold = _check_real("threshold", threshold)
    norm = inf_norm(s)
    bound = 2.0 * math.sqrt(norm)
    grid_top = bound + 1.0
    if norm == 0.0:
        return SupportEstimate(0.0, False, eta, grid_step, threshold, grid_top)
    n_pts = _grid_points(grid_top, grid_step, "a scan grid")
    g0 = min(n_pts - 1, math.ceil(_edge_ceiling(s, bound) / grid_step))
    taus = np.arange(n_pts, dtype=float) * grid_step
    g = g0 - _first_past(s, taus[g0::-1], eta, threshold, True)
    if g == g0:
        # the density at g0 exceeds the threshold, so the answer is at
        # or above it
        g += _first_past(s, taus[g0 + 1:], eta, threshold, False)
    if g < 0:
        return SupportEstimate(0.0, False, eta, grid_step, threshold, grid_top)
    return SupportEstimate(float(taus[g]), True, eta, grid_step, threshold, grid_top)


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
    bit.  The first product S c_0 = S 1 is the profile's ``row_sums``,
    read, not formed again; OpenBLAS's product need not agree bit for
    bit across thread counts, so a profile built at one thread count and
    read at another takes the bits of its own row sums, as every other
    layer does.  The cost is max(kmax - 1, 0) matrix-vector products
    and kmax (kmax + 1) / 2 vector products, O(kmax n^2 + kmax^2 n), in
    kmax steps.  Raises NumericError as soon as an entry leaves
    double-precision range;
    rescaling S by 1/a rescales c[x, k] by a^-k, so large profiles can
    be probed after scaling.
    """
    kmax = _check_int("kmax", kmax, 0)
    entries, n = _check_type("s", s, VarianceMatrix).entries, s.n
    # One spare zero column: NumPy reduces over the outer axis row after
    # row only while rows are at least two wide; on one-wide rows it
    # switches to pairwise summation, which changes the last bits.
    c = np.zeros((kmax + 1, n + 1))
    sc = np.zeros((kmax, n + 1))  # sc[m, :n] = S @ c[m, :n]
    prod = np.empty((kmax, n + 1))  # the k products of order k; every order reuses it
    c[0, :n] = 1.0
    for k in range(1, kmax + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            sc[k - 1, :n] = entries @ c[k - 1, :n] if k > 1 else s.row_sums
            np.multiply(c[k - 1::-1], sc[:k], out=prod[:k])
            np.add.reduce(prod[:k], axis=0, out=c[k])
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
    on a table of depth 0, or a top moment that is negative or not finite.
    """
    table = _real_array("table entries", table)
    if table.ndim != 2 or not len(table):
        raise InputError(f"table must be a 2-d array with rows, got shape {table.shape}")
    kmax = table.shape[1] - 1
    if kmax < 1:
        raise InputError(f"table must hold moments up to k >= 1, got kmax = {kmax}")
    top = float(table[:, kmax].max())
    return _check_real("the top moment", top, closed=True) ** (1.0 / (2 * kmax))
