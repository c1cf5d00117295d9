"""Library driver for the moments-2000 workload.

No CLI command runs the moment recursion without also running the QVE
support scan, which takes about 38 s at N = 2000. This driver reaches
the large-N linalg / bounds / moment path on its own: it builds a
seeded random profile, computes the support bound at depth J = 250, the
moment table up to kmax = 100 and the moment proxy, and prints them as
one JSON object on stdout.

    PYTHONPATH=src python3 bench/moments_driver.py --profile-seed 7

The library names are imported into this module so that the traced run
(bench/traced.py) can wrap them where this module looks them up.
"""

from __future__ import annotations

import argparse
import json
import sys

from specbound.bounds import support_bound
from specbound.linalg import resolve_profile
from specbound.qve import moment_recursion, support_from_moments

N = 2000
J = 250
KMAX = 100


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile-seed", type=int, required=True)
    args = parser.parse_args(argv)
    s, desc = resolve_profile("random", n=N, seed=args.profile_seed)
    rep = support_bound(s, J=J)
    table = moment_recursion(s, kmax=KMAX)
    proxy = support_from_moments(table)
    print(json.dumps({
        "source": desc,
        "J": rep.J,
        "kmax": KMAX,
        "trivial_bound": rep.trivial_bound,
        "improved_bound": rep.improved_bound,
        "moment_proxy": proxy,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
