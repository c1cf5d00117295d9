"""Spectral support bounds for random matrices with variance profiles."""

import os as _os

# Honor SPECBOUND_THREADS before any numerical library spins up its thread
# pool.  This only works if numpy has not been imported yet, which is the
# case when the CLI is the entry point.
_threads = _os.environ.get("SPECBOUND_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"

from .errors import (  # noqa: E402
    SpecboundError,
    InputError,
    MatrixFormatError,
    ZeroMatrixError,
    DomainError,
    NumericError,
    ConvergenceError,
    ToleranceError,
    OverflowGuardError,
)
from .linalg import (  # noqa: E402
    VarianceMatrix,
    NormSequence,
    inf_norm,
    norm_sequence,
    gram_linearize,
    wigner_profile,
    exp_profile,
    random_profile,
    load_dense,
    load_matrix,
    resolve_profile,
)
from .bounds import (  # noqa: E402
    BoundReport,
    critical_w,
    root_function,
    support_bound,
)
from .qve import (  # noqa: E402
    MomentTable,
    SupportEstimate,
    density,
    density_scan,
    estimate_support,
    moment_recursion,
    support_from_moments,
)
from .montecarlo import (  # noqa: E402
    ENSEMBLES,
    McConfig,
    McResult,
    mc_experiment,
    sample_matrix,
    spectral_radius,
    trial_rng,
)
