"""Self-consistent spectral probes for variance profiles.

For every z in the upper half-plane the system

    -1/m_x = z + (S m)_x,        Im m_x > 0,

has exactly one solution vector m.  Averaging its imaginary part over
rows gives a smoothed spectral density whose support is the quantity
the row-sum bounds in :mod:`specbound.bounds` control from above.
This module solves the system pointwise, scans it over grids to locate
the support edge, and runs the companion moment recursion together
with its root-growth support proxy.

Probes at distinct z values are independent; grid scans exploit that
by iterating whole blocks of shifted points as matrix-matrix products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError, InputError, OverflowGuardError
from .linalg import VarianceMatrix, inf_norm

_RESCUE_AFTER = 2_000
_NEWTON_CAP = 60


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

    def to_dict(self) -> dict:
        return {
            "z": [self.z.real, self.z.imag],
            "iterations": self.iterations,
            "residual": self.residual,
            "m_real": self.m.real.tolist(),
            "m_imag": self.m.imag.tolist(),
        }


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


def _newton_step(entries, z, m, tol):
    """One damped Newton step on G(m) = m + 1/(z + S m).

    Returns (m_next, residual_before_step) or (None, residual) when the
    linear solve fails or no step length keeps m in the upper half-plane.
    """
    f = 1.0 / (z + entries @ m)
    g = m + f
    res = float(np.abs(g).max())
    if res <= tol:
        return m, res
    jac = np.eye(len(m)) - (f * f)[:, None] * entries
    try:
        delta = np.linalg.solve(jac, -g)
    except np.linalg.LinAlgError:
        return None, res
    lam = 1.0
    while lam > 1e-8 and np.min((m + lam * delta).imag) <= 0.0:
        lam *= 0.5
    if lam <= 1e-8:
        return None, res
    return m + lam * delta, res


def _newton_continuation(entries, z, tol):
    """Solve the system by continuation in the imaginary part of z.

    Starts where plain iteration contracts strongly (Im z = 1), then
    follows the solution down to the requested point with Newton steps,
    each level warm-started from the previous one.  Returns
    (m, steps) on success and (None, steps) on failure.
    """
    n = entries.shape[0]
    target = z.imag
    etas = [max(1.0, target)]
    while etas[-1] > 4 * target:
        etas.append(etas[-1] / 4)
    if etas[-1] != target:
        etas.append(target)

    z0 = complex(z.real, etas[0])
    m = np.full(n, -1.0 / z0)
    steps = 0
    for _ in range(200):
        f = -1.0 / (z0 + entries @ m)
        steps += 1
        if np.abs(f - m).max() <= 1e-13:
            m = f
            break
        m = f

    for eta in etas:
        zc = complex(z.real, eta)
        converged = False
        for _ in range(_NEWTON_CAP):
            m_next, res = _newton_step(entries, zc, m, tol)
            if m_next is None:
                return None, steps
            if res <= tol:
                converged = True
                break
            m = m_next
            steps += 1
        if not converged:
            return None, steps
    return m, steps


def solve_qve(s: VarianceMatrix, z, tol: float = 1e-9,
              max_iter: int = 200_000) -> SpectralProbe:
    """Solve -1/m_x = z + (S m)_x for the upper-half-plane vector m.

    Plain fixed-point iteration from m = -1/z; the update is damped by
    one half if the residual starts oscillating.  Near the spectrum at
    small Im z the plain iteration contracts at a rate only O(Im z)
    away from one, so after a few thousand steps the solver switches to
    a Newton continuation in Im z and falls back to iterating only if
    that fails.  Raises ConvergenceError when max_iter update steps did
    not reach the tolerance, and DomainError when Im z <= 0.
    """
    z = _check_z(z)
    if tol <= 0:
        raise InputError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise InputError(f"max_iter must be at least 1, got {max_iter}")
    entries = s.entries
    m = np.full(s.n, -1.0 / z)
    damping = 1.0
    prev = math.inf
    worse = 0
    res = math.inf
    it = 0
    while it < max_iter:
        it += 1
        f = -1.0 / (z + entries @ m)
        res = float(np.abs(f - m).max())
        if res <= tol:
            # the defect of the pre-update vector is exactly res
            return SpectralProbe(z=z, m=m, iterations=it, residual=res)
        if res > prev * (1 + 1e-12):
            worse += 1
            if worse >= 2:
                damping = 0.5
        prev = res
        m = m + damping * (f - m)
        if it == _RESCUE_AFTER and max_iter > _RESCUE_AFTER:
            rescued, steps = _newton_continuation(entries, z, tol)
            if rescued is not None:
                final = float(np.abs(rescued + 1.0 / (z + entries @ rescued)).max())
                return SpectralProbe(z=z, m=rescued,
                                     iterations=it + steps, residual=final)
    raise ConvergenceError(
        f"no convergence at z = {z} after {max_iter} iterations "
        f"(residual {res:.3e})",
        residual=res,
        iterations=max_iter,
    )


def density(s: VarianceMatrix, tau: float, eta: float, tol: float = 1e-9,
            max_iter: int = 300_000) -> float:
    """Smoothed spectral density (1/(pi n)) sum_x Im m_x(tau + i eta)."""
    if eta <= 0:
        raise DomainError(f"eta must be positive, got {eta}")
    probe = solve_qve(s, complex(tau, eta), tol=tol, max_iter=max_iter)
    return float(probe.m.imag.mean() / math.pi)


def _converge_block(entries, zb, m0, tol, cap):
    """Iterate a block of shifted points at once.

    ``zb`` holds the shifts, ``m0`` one start column per shift.  Returns
    (M, converged) where converged marks columns whose final update was
    below tol.  Matrix products are split into two real products, which
    is faster than one complex product for a real profile.
    """
    m_block = m0.astype(complex)
    active = np.ones(len(zb), dtype=bool)
    for _ in range(cap):
        idx = np.flatnonzero(active)
        cols = m_block[:, idx]
        sm = entries @ cols.real + 1j * (entries @ cols.imag)
        fresh = -1.0 / (zb[idx][None, :] + sm)
        res = np.abs(fresh - cols).max(axis=0)
        m_block[:, idx] = fresh
        active[idx[res <= tol]] = False
        if not active.any():
            break
    return m_block, ~active


def density_scan(s: VarianceMatrix, taus, eta: float = 1e-3,
                 tol: float = 1e-9, block: int = 256) -> np.ndarray:
    """Smoothed density at every point of ``taus``, as one array.

    Blocks of points are iterated together; points still unconverged
    after the block budget (deep inside the spectrum, where plain
    iteration is slow) are finished one by one with the Newton
    continuation solver.
    """
    if eta <= 0:
        raise DomainError(f"eta must be positive, got {eta}")
    entries = s.entries
    taus = np.asarray(taus, dtype=float).ravel()
    out = np.empty(len(taus))
    for start in range(0, len(taus), block):
        tb = taus[start:start + block]
        zb = tb + 1j * eta
        m0 = np.repeat((-1.0 / zb)[None, :], entries.shape[0], axis=0)
        m_block, converged = _converge_block(entries, zb, m0, tol, cap=4_000)
        for j in np.flatnonzero(~converged):
            rescued, _ = _newton_continuation(entries, complex(zb[j]), tol)
            if rescued is None:
                probe = solve_qve(s, complex(zb[j]), tol=tol)
                rescued = probe.m
            m_block[:, j] = rescued
        out[start:start + block] = m_block.imag.mean(axis=0) / math.pi
    return out


def estimate_support(s: VarianceMatrix, eta: float = 1e-3,
                     grid_step: float = 1e-3, threshold: float = 1e-2,
                     tol: float = 1e-8, max_iter: int = 60_000,
                     block: int = 128) -> SupportEstimate:
    """Locate the largest grid point where the smoothed density exceeds
    the threshold.

    The grid runs from 0 to one past the row-sum bound and is scanned
    from the top down in blocks, warm-starting each block from its
    neighbour.  The moment a converged point exceeds the threshold and
    every point above it has settled below it, everything further down
    is abandoned: points deep inside the spectrum, where convergence is
    slowest, are never iterated to completion.  The zero profile has no
    spectrum to detect (its density is a spike at the origin that the
    smoothing would smear past the threshold), so it short-circuits to
    a not-found result.
    """
    if eta <= 0 or grid_step <= 0 or threshold <= 0:
        raise DomainError("eta, grid_step and threshold must be positive")
    entries = s.entries
    norm = inf_norm(s)
    if norm == 0.0:
        return SupportEstimate(0.0, False, eta, grid_step, threshold, 0.0)
    grid_top = 2.0 * math.sqrt(norm) + 1.0
    n_pts = int(math.floor(grid_top / grid_step)) + 1
    taus_desc = np.arange(n_pts - 1, -1, -1, dtype=float) * grid_step
    warm = None

    for start in range(0, n_pts, block):
        tb = taus_desc[start:start + block]
        zb = tb + 1j * eta
        if warm is None:
            m_block = np.repeat((-1.0 / zb)[None, :], entries.shape[0], axis=0)
        else:
            m_block = np.repeat(warm[:, None], len(tb), axis=1)
        active = np.ones(len(tb), dtype=bool)
        dens = np.full(len(tb), np.nan)
        for _ in range(max_iter):
            idx = np.flatnonzero(active)
            cols = m_block[:, idx]
            sm = entries @ cols.real + 1j * (entries @ cols.imag)
            fresh = -1.0 / (zb[idx][None, :] + sm)
            res = np.abs(fresh - cols).max(axis=0)
            m_block[:, idx] = fresh
            done = idx[res <= tol]
            if len(done):
                active[done] = False
                dens[done] = m_block[:, done].imag.mean(axis=0) / math.pi
            exceed = np.flatnonzero(~active & (dens > threshold))
            if len(exceed):
                j0 = exceed[0]
                if not active[:j0].any():
                    return SupportEstimate(float(tb[j0]), True, eta,
                                           grid_step, threshold, grid_top)
                # nothing below the candidate can move the answer
                active[j0 + 1:] = False
            if not active.any():
                break
        if active.any():
            worst = tb[np.flatnonzero(active)[0]]
            raise ConvergenceError(
                f"support scan stalled near tau = {worst:.6g} "
                f"(eta = {eta}, tol = {tol})",
                residual=float(res.max()) if len(idx) else None,
                iterations=max_iter,
            )
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
