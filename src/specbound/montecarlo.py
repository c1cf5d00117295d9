"""Random-matrix sampling and largest-eigenvalue experiments.

Samples centered Gaussian matrices whose entry variances follow a
given profile, measures the largest absolute eigenvalue per sample,
and aggregates statistics for comparison against the analytic bounds.

Each trial owns an RNG stream derived from (seed, trial index), so
results are identical no matter how trials are scheduled; aggregation
sorts by trial index. The largest absolute eigenvalue comes from
LAPACK's symmetric/hermitian eigensolver ?syevd/?heevd, the routine
``numpy.linalg.eigvalsh`` calls: it is exact to roundoff and has no
tolerance or iteration cap to tune. It is called through the LAPACKE
interface of numpy's OpenBLAS by ctypes, which releases the GIL, so an
experiment runs its trials on as many workers as OpenBLAS had threads,
but at most two, each solving on one OpenBLAS thread; the values do not
depend on the thread count. Where that interface is missing,
``eigvalsh`` runs the trials one after another, on one thread too, with
the same values.

The eigensolver reads only the lower triangle of its input, so an
experiment takes the entry scales sqrt(S) once and hands each draw to
it as drawn (_draw), in place, without mirroring it into a full matrix
or checking its symmetry: the draw's lower triangle is exactly the
sample's, so every trial's value equals the largest absolute eigenvalue
of ``sample_matrix(...)`` for the same stream, by ``eigvalsh`` on one
OpenBLAS thread, bit for bit. Memory peaks at the profile, its entry
scales and one draw per worker: two draws at most, as much as one
``eigvalsh`` call holds (its input and the copy it solves). A complex
draw is the sample alone: its real and imaginary parts are drawn in
blocks of rows into the sample's own memory, so no real profile is held
beside it.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .linalg import (VarianceMatrix, _check_int, _check_type, _one_blas_thread,
                     _openblas)

__all__ = ["ENSEMBLES", "McConfig", "McResult", "mc_experiment",
           "sample_matrix", "trial_rng"]

ENSEMBLES = ("real-symmetric", "complex-hermitian")


def _check_ensemble(ensemble):
    """The one check of an ensemble name, for McConfig and sample_matrix."""
    if _check_type("ensemble", ensemble, str) not in ENSEMBLES:
        raise InputError(f"unknown ensemble {ensemble!r}; choose from {ENSEMBLES}")


def _check_seed(seed):
    """The one seed rule, for McConfig and trial_rng: an integer in [0, 2**64)."""
    if not _check_int("seed", seed, 0) < 2**64:
        raise InputError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    return int(seed)


@dataclass(frozen=True)
class McConfig:
    """Parameters of one sampling experiment."""

    trials: int
    seed: int
    ensemble: str = "real-symmetric"

    def __post_init__(self):
        # NumPy integers are stored as int, so that results serialize
        object.__setattr__(self, "trials", _check_int("trials", self.trials, 1))
        object.__setattr__(self, "seed", _check_seed(self.seed))
        _check_ensemble(self.ensemble)


@dataclass(frozen=True)
class McResult:
    """Aggregated largest-eigenvalue statistics.

    ``std`` uses the n-1 denominator and is reported as 0 with
    ``std_defined`` False when fewer than two trials succeeded.
    ``elapsed`` is wall-clock seconds and does not take part in
    equality comparisons.
    """

    trials: int
    seed: int
    ensemble: str
    per_trial: tuple
    mean: float
    std: float
    std_defined: bool
    failures: int
    elapsed: float = field(compare=False)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent, reproducible RNG stream for one trial."""
    return np.random.default_rng(np.random.SeedSequence(
        entropy=_check_seed(seed), spawn_key=(_check_int("trial", trial, 0),)))


# Rows of a complex sample's real or imaginary part that _draw draws at
# once, into a real block of its own that it then copies into the part
_ROWS = 64


def _draw(sigma, ensemble, rng):
    """One sample's lower triangle, diagonal included, bit for bit.

    Makes sample_matrix's RNG calls, scales them by the entry scales
    ``sigma``, and returns an array whose lower triangle is the
    sample's; its strict upper triangle holds values no caller reads.
    The entries are formed where the sample's upper triangle lies,
    conjugated in the complex case, and returned as a transposed view.
    Every zero is made +0.0, as the sums that mirror a sample make it,
    so the lower triangle equals the sample's in every bit.
    """
    if ensemble == "real-symmetric":
        h = rng.standard_normal(sigma.shape)
        h *= sigma
    else:
        # each part in blocks of rows, the same stream as one draw of the
        # whole part, so no real profile is alive beside the sample; the
        # parts are strided views, which standard_normal cannot fill
        h = np.empty(sigma.shape, dtype=complex)
        for part in (h.real, h.imag):
            for lo in range(0, len(part), _ROWS):
                block = part[lo:lo + _ROWS]
                block[...] = rng.standard_normal(block.shape)
        diag = np.diag(sigma) * np.diag(h.real)
        h *= sigma
        h /= math.sqrt(2)
        np.conjugate(h, out=h)
        np.fill_diagonal(h, diag)
    h += 0.0
    return h.T


def sample_matrix(s: VarianceMatrix, ensemble: str,
                  rng: np.random.Generator) -> np.ndarray:
    """One centered Gaussian sample with E |H_xy|^2 = S_xy.

    Real-symmetric: H_xy = H_yx ~ Normal(0, S_xy) for x <= y,
    independently. Complex-hermitian: off-diagonal real and imaginary
    parts each Normal(0, S_xy / 2); diagonal real Normal(0, S_xx).
    """
    _check_ensemble(ensemble)
    _check_type("rng", rng, np.random.Generator)
    low = _draw(np.sqrt(_check_type("s", s, VarianceMatrix).entries), ensemble, rng)
    return np.tril(low) + np.tril(low, -1).conj().T


# LAPACKE's code for column-major (Fortran-order) arrays
_COL_MAJOR = 102

# Most workers an experiment runs: each holds a draw of its own, and two
# draws are what one eigvalsh call held. Two workers on two CPUs took
# 15% off report-acceptance; more were not measured.
_MAX_WORKERS = 2


def _lapacke():
    """numpy's OpenBLAS where it has LAPACKE's eigensolvers, else None."""
    blas = _openblas()
    return None if blas is None or blas.dsyevd is None else blas


def _radius(h) -> float:
    """Largest absolute eigenvalue of the hermitian matrix whose lower
    triangle ``h`` holds, from LAPACK's ?syevd/?heevd: the routine
    ``numpy.linalg.eigvalsh`` calls, with the same workspace, so the two
    agree bit for bit.

    The routine is called through numpy's OpenBLAS's LAPACKE by ctypes,
    which releases the GIL, so workers in several Python threads solve at
    once. A writeable F-contiguous float64 or complex128 ``h`` is
    overwritten, as the solver works in place; any other ``h`` is solved
    in a Fortran-order copy. Without LAPACKE it is
    ``numpy.linalg.eigvalsh``. Raises LinAlgError when the solver fails.
    """
    blas = _lapacke()
    if blas is None:
        return float(np.abs(np.linalg.eigvalsh(h)).max())
    hermitian = np.iscomplexobj(h)
    a = np.require(h, complex if hermitian else float, "FW")
    n = a.shape[0]
    if a.shape != (n, n):  # the solver reads n columns of n entries
        raise np.linalg.LinAlgError(f"expected a square matrix, got shape {a.shape}")
    w = np.empty(n)
    solve = blas.zheevd if hermitian else blas.dsyevd
    if solve(_COL_MAJOR, b"N", b"L", n, a.ctypes.data, n, w.ctypes.data):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return float(np.abs(w).max())


def mc_experiment(s: VarianceMatrix, cfg: McConfig) -> McResult:
    """Run ``cfg.trials`` independent samples and aggregate statistics.

    Deterministic given (seed, trials, ensemble): every trial draws
    from its own stream, and its value does not depend on the thread
    count. The trials run on as many workers as OpenBLAS had threads
    when the call began, but at most two and at most ``cfg.trials``, the
    calling thread among them, each solving on one OpenBLAS thread;
    without LAPACKE there is one worker. Each worker takes the next
    trial, draws it and hands the draw to the eigensolver in place, so
    memory peaks at the profile, its entry scales and one draw per
    worker, whatever the thread count. Trials whose eigensolver fails
    (``LinAlgError``) are excluded from the statistics and counted as
    failures; any other exception in a worker stops the others and
    reaches the caller once every worker has ended.
    """
    start = time.perf_counter()
    _check_type("cfg", cfg, McConfig)
    sigma = np.sqrt(_check_type("s", s, VarianceMatrix).entries)
    radii = [None] * cfg.trials  # None: the trial's eigensolver failed
    order, turn = iter(range(cfg.trials)), threading.Lock()
    stop, errors = threading.Event(), []

    def work():
        while not stop.is_set():
            with turn:
                trial = next(order, None)
            if trial is None:
                return
            # the draw is not named, so it does not outlive its trial
            try:
                radii[trial] = _radius(
                    _draw(sigma, cfg.ensemble, trial_rng(cfg.seed, trial)))
            except np.linalg.LinAlgError:
                pass

    def helper():
        try:
            work()
        except BaseException as exc:
            errors.append(exc)
            stop.set()

    with _one_blas_thread() as threads:
        helpers = []
        try:
            # eigvalsh holds the GIL, so without LAPACKE one worker
            workers = (1 if _lapacke() is None
                       else min(cfg.trials, threads, _MAX_WORKERS))
            for _ in range(workers - 1):
                helpers.append(threading.Thread(target=helper))
                helpers[-1].start()
            work()
        finally:
            stop.set()
            for worker in helpers:
                worker.join()
    if errors:
        raise errors[0]
    values = [r for r in radii if r is not None]
    mean = statistics.fmean(values) if values else 0.0
    if len(values) >= 2:
        std, std_defined = statistics.stdev(values), True
    else:
        std, std_defined = 0.0, False
    return McResult(
        trials=cfg.trials,
        seed=cfg.seed,
        ensemble=cfg.ensemble,
        per_trial=tuple(values),
        mean=mean,
        std=std,
        std_defined=std_defined,
        failures=cfg.trials - len(values),
        elapsed=time.perf_counter() - start,
    )
