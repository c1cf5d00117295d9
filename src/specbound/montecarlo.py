"""Random-matrix sampling and largest-eigenvalue experiments.

Samples centered Gaussian matrices whose entry variances follow a
given profile, measures the largest absolute eigenvalue per sample,
and aggregates statistics for comparison against the analytic bounds.

Each trial owns an RNG stream derived from (seed, trial index), so
results are identical no matter how trials are scheduled; aggregation
sorts by trial index. The largest absolute eigenvalue comes from
LAPACK's symmetric/hermitian eigensolver (``numpy.linalg.eigvalsh``):
it is exact to roundoff and has no tolerance or iteration cap to tune.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .linalg import VarianceMatrix

__all__ = ["ENSEMBLES", "McConfig", "McResult", "mc_experiment",
           "sample_matrix", "spectral_radius", "trial_rng"]

ENSEMBLES = ("real-symmetric", "complex-hermitian")


@dataclass(frozen=True)
class McConfig:
    """Parameters of one sampling experiment."""

    trials: int
    seed: int
    ensemble: str = "real-symmetric"

    def __post_init__(self):
        # NumPy integers are stored as int, so that results serialize
        for name in ("trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, np.integer):
                object.__setattr__(self, name, int(value))
        if not isinstance(self.trials, int) or self.trials < 1:
            raise InputError(f"trials must be a positive integer, got {self.trials!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise InputError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if self.ensemble not in ENSEMBLES:
            raise InputError(
                f"unknown ensemble {self.ensemble!r}; choose from {ENSEMBLES}"
            )


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
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(trial,)))


def sample_matrix(s: VarianceMatrix, ensemble: str,
                  rng: np.random.Generator) -> np.ndarray:
    """One centered Gaussian sample with E |H_xy|^2 = S_xy.

    Real-symmetric: H_xy = H_yx ~ Normal(0, S_xy) for x <= y,
    independently. Complex-hermitian: off-diagonal real and imaginary
    parts each Normal(0, S_xy / 2); diagonal real Normal(0, S_xx).
    """
    if ensemble not in ENSEMBLES:
        raise InputError(f"unknown ensemble {ensemble!r}; choose from {ENSEMBLES}")
    sigma = np.sqrt(s.entries)
    if ensemble == "real-symmetric":
        upper = np.triu(sigma * rng.standard_normal((s.n, s.n)))
        return upper + np.triu(upper, 1).T
    gr = rng.standard_normal((s.n, s.n))
    gi = rng.standard_normal((s.n, s.n))
    upper = np.triu(sigma * (gr + 1j * gi) / math.sqrt(2), 1)
    diag = np.diag(np.diag(sigma) * np.diag(gr))
    return upper + upper.conj().T + diag


def spectral_radius(h) -> float:
    """Largest absolute eigenvalue of a symmetric/hermitian matrix.

    Exact to roundoff, from ``numpy.linalg.eigvalsh``. Raises
    ``numpy.linalg.LinAlgError`` if the eigensolver does not converge.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise InputError(f"need a square matrix, got shape {h.shape}")
    if not np.array_equal(h, h.conj().T):
        raise InputError("matrix is not symmetric/hermitian")
    return float(np.abs(np.linalg.eigvalsh(h)).max(initial=0.0))


def mc_experiment(s: VarianceMatrix, cfg: McConfig) -> McResult:
    """Run ``cfg.trials`` independent samples and aggregate statistics.

    Deterministic given (seed, trials, ensemble): every trial draws
    from its own stream. Trials whose eigensolver fails to converge
    (``LinAlgError``) are excluded from the statistics and counted as
    failures.
    """
    start = time.perf_counter()
    values = []
    failures = 0
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, trial)
        h = sample_matrix(s, cfg.ensemble, rng)
        try:
            values.append(spectral_radius(h))
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
