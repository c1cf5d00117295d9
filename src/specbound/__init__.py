"""Spectral support bounds for random matrices with variance profiles."""

import os as _os


def _is_thread_count(value):
    """Whether the text ``value`` is a positive decimal integer."""
    return value.isascii() and value.isdecimal() and int(value) > 0


# Honor SPECBOUND_THREADS before any numerical library spins up its thread
# pool.  This only works if numpy has not been imported yet, which is the
# case when the CLI is the entry point.  Only a positive decimal integer is
# passed on: OpenBLAS takes 0, a negative count or text as every CPU, and
# 1.5 as 1.  The CLI refuses any other nonempty value; an empty one is unset.
_threads = _os.environ.get("SPECBOUND_THREADS", "")
if _is_thread_count(_threads):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)
# Idle OpenBLAS workers spin for 2^28 cycles (about 0.13 s at 2 GHz) after
# every BLAS call before they sleep, burning a core through the Python steps
# in between; 2^20 cycles lets them sleep after about 0.5 ms. OpenBLAS reads
# the value once, when numpy loads it, and a value already set wins. The
# thread count is unchanged, so every result stays bit-identical.
_os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

__version__ = "0.1.0"

# each module declares its exports in __all__
from .errors import *  # noqa: E402,F401,F403
from .linalg import *  # noqa: E402,F401,F403
from .bounds import *  # noqa: E402,F401,F403
from .qve import *  # noqa: E402,F401,F403
from .montecarlo import *  # noqa: E402,F401,F403
