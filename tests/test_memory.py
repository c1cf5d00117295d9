"""Peak-memory guard for the large-N moment path.

A profile is one n-by-n float64 array (8 n^2 bytes): the generator
builds it in place and VarianceMatrix adopts it without a copy, and the
norm sequence and moment recursion add only O(J n + kmax n). The child
interpreter measures its own peak resident set, so the numbers are not
blurred by what the test session has allocated before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import json, resource, sys
from specbound.bounds import support_bound
from specbound.linalg import random_profile
from specbound.qve import moment_recursion

def peak_bytes():
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss if sys.platform == "darwin" else rss * 1024

base = peak_bytes()
s = random_profile(2000, 7)
support_bound(s, J=250)
moment_recursion(s, kmax=100)
print(json.dumps({"base": base, "peak": peak_bytes()}))
"""


def test_large_profile_bound_and_moments_peak_below_two_profiles():
    n = 2000
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", CHILD], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    rss = json.loads(out.stdout)
    growth = (rss["peak"] - rss["base"]) / (8 * n * n)
    assert growth < 2.0, f"peak grew by {growth:.2f} profiles of 8 n^2 bytes"
