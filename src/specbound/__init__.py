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

# each module declares its exports in __all__
from .errors import *  # noqa: E402,F401,F403
from .linalg import *  # noqa: E402,F401,F403
from .bounds import *  # noqa: E402,F401,F403
from .qve import *  # noqa: E402,F401,F403
from .montecarlo import *  # noqa: E402,F401,F403
