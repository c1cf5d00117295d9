"""Set-up probe: interpreter start, imports and profile construction.

    PYTHONPATH=src python3 bench/setup_probe.py NAME N [SEED]

Does what every benchmark request does before its first layer call,
then exits, so that timing this process from spawn to exit gives the
request's set-up time.
"""

import sys

import specbound.cli  # noqa: F401  (the import every request pays)
from specbound.linalg import resolve_profile

name, n, *seed = sys.argv[1:]
resolve_profile(name, n=int(n), seed=int(seed[0]) if seed else None)
