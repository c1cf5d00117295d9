"""Random-matrix sampling and largest-eigenvalue experiments.

Samples centered Gaussian matrices whose entry variances follow a
given profile, measures the largest absolute eigenvalue per sample,
and aggregates statistics for comparison against the analytic bounds.

Each trial owns an RNG stream derived from (seed, trial index), so
results are identical no matter how trials are scheduled; aggregation
sorts by trial index. The largest absolute eigenvalue comes from
LAPACK's symmetric/hermitian eigensolver (``numpy.linalg.eigvalsh``):
it is exact to roundoff and has no tolerance or iteration cap to tune.

The eigensolver reads only the lower triangle of its input, so an
experiment takes the entry scales sqrt(S) once and hands each draw to
it as drawn (_draw), without mirroring it into a full matrix or
checking its symmetry: the draw's lower triangle is exactly the
sample's, so every trial's value equals the largest absolute eigenvalue
of ``sample_matrix(...)`` for the same stream, bit for bit.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .linalg import VarianceMatrix, _check_int, _check_type

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
        # one real buffer takes both draws in turn, so no more than the
        # complex sample and one real profile are alive at once
        g = rng.standard_normal(sigma.shape)
        h = np.empty(sigma.shape, dtype=complex)
        h.real = g
        diag = np.diag(sigma) * np.diag(g)
        rng.standard_normal(out=g)
        h.imag = g
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


def _radius(h) -> float:
    # eigvalsh reads only the lower triangle of h
    return float(np.abs(np.linalg.eigvalsh(h)).max())


def mc_experiment(s: VarianceMatrix, cfg: McConfig) -> McResult:
    """Run ``cfg.trials`` independent samples and aggregate statistics.

    Deterministic given (seed, trials, ensemble): every trial draws
    from its own stream. Trials whose eigensolver fails to converge
    (``LinAlgError``) are excluded from the statistics and counted as
    failures.
    """
    start = time.perf_counter()
    _check_type("cfg", cfg, McConfig)
    sigma = np.sqrt(_check_type("s", s, VarianceMatrix).entries)
    values = []
    failures = 0
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, trial)
        # no draw outlives its trial, so two are never held at once
        try:
            values.append(_radius(_draw(sigma, cfg.ensemble, rng)))
        except np.linalg.LinAlgError:
            failures += 1
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
        failures=failures,
        elapsed=time.perf_counter() - start,
    )
