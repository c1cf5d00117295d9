"""Peak-memory guards for the large-N moment path, the file reader and
the MC sampler.

A profile is one n-by-n float64 array (8 n^2 bytes): the generator, or
the file reader, builds it and VarianceMatrix adopts it without a copy,
and the norm sequence and moment recursion add only O(J n + kmax n). An MC
experiment holds the entry scales sqrt(S), one profile, and one draw
per worker, at most two, which the eigensolver overwrites in place: one
profile in the real-symmetric ensemble, and two in the complex-hermitian
one, whose parts are drawn in blocks of rows into the sample itself. Each
child interpreter measures its own peak resident set, so the numbers
are not blurred by what the test session has allocated before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from specbound.linalg import random_profile

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


# The generator is run once on a 2-by-2 profile before the baseline is
# taken, so that the lazy import of numpy.random falls before it. The
# profile is the one array the generator fills in place; every check of
# it only reads.
PROFILE_CHILD = """
import json, resource, sys
from specbound.linalg import random_profile

def peak_bytes():
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss if sys.platform == "darwin" else rss * 1024

random_profile(2, 0)
base = peak_bytes()
s = random_profile(2000, 7)
print(json.dumps({"base": base, "peak": peak_bytes()}))
"""


# A 2-by-2 file is read once before the baseline is taken, so that the
# imports loadtxt makes fall before it. The profile is the one array
# loadtxt fills, which VarianceMatrix adopts.
FILE_CHILD = """
import json, resource, sys
from specbound.linalg import load_matrix

def peak_bytes():
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss if sys.platform == "darwin" else rss * 1024

load_matrix(sys.argv[1])
base = peak_bytes()
s = load_matrix(sys.argv[2])
print(json.dumps({"base": base, "peak": peak_bytes()}))
"""


# The path is run once on a 2-by-2 profile before the baseline is taken:
# the lazy import of numpy.random alone adds about 6 MB, which no
# profile size changes.
MC_CHILD = """
import json, resource, sys
from specbound.linalg import _openblas, exp_profile
from specbound.montecarlo import McConfig, mc_experiment

def peak_bytes():
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss if sys.platform == "darwin" else rss * 1024

cfg = McConfig(trials=int(sys.argv[2]), seed=1, ensemble=sys.argv[1])
if len(sys.argv) > 3 and _openblas() is not None:
    _openblas().put(int(sys.argv[3]))  # OpenBLAS threads, past the CPUs
mc_experiment(exp_profile(2), cfg)
base = peak_bytes()
s = exp_profile(1000)
mc_experiment(s, cfg)
print(json.dumps({"base": base, "peak": peak_bytes()}))
"""


def peak_growth(child, n, *argv, threads=None):
    """Peak resident growth of a fresh interpreter running ``child``, in
    profiles of 8 n^2 bytes; ``threads`` sets SPECBOUND_THREADS alone, or
    no thread variable at all when it is empty."""
    env = dict(os.environ)
    if threads is not None:
        for var in ("SPECBOUND_THREADS", "OMP_NUM_THREADS",
                    "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env.pop(var, None)
        if threads:
            env["SPECBOUND_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", child, *argv], env=env,
                         check=True, capture_output=True, text=True, timeout=120)
    rss = json.loads(out.stdout)
    return (rss["peak"] - rss["base"]) / (8 * n * n)


def test_large_profile_bound_and_moments_peak_below_two_profiles():
    growth = peak_growth(CHILD, 2000)
    assert growth < 2.0, f"peak grew by {growth:.2f} profiles of 8 n^2 bytes"


def test_random_profile_peak_is_one_profile():
    # a boolean n-by-n mask in a check would add 1/8 of a profile
    growth = peak_growth(PROFILE_CHILD, 2000)
    assert growth < 1.06, f"peak grew by {growth:.3f} profiles of 8 n^2 bytes"


def test_load_matrix_peak_below_two_profiles(tmp_path):
    # a parse that holds a Python float per entry grows by 12 profiles
    small, large = tmp_path / "small.txt", tmp_path / "large.txt"
    small.write_text("2\n1 0\n0 1\n")
    np.savetxt(large, random_profile(1000, 7).entries, header="1000", comments="")
    growth = peak_growth(FILE_CHILD, 1000, str(small), str(large))
    assert growth < 2.0, f"peak grew by {growth:.2f} profiles of 8 n^2 bytes"


@pytest.mark.parametrize("ensemble,limit", [
    ("real-symmetric", 4.5), ("complex-hermitian", 9.0)])
def test_mc_experiment_peak(ensemble, limit):
    growth = peak_growth(MC_CHILD, 1000, ensemble, "2")
    assert growth < limit, f"peak grew by {growth:.2f} profiles of 8 n^2 bytes"
    # two workers at two threads: two draws alive at once, and beside a
    # complex one no real profile (S, sqrt(S) and two complex draws make 6)
    two = 7.0 if ensemble == "complex-hermitian" else limit
    growth = peak_growth(MC_CHILD, 1000, ensemble, "4", threads="2")
    assert growth < two, (f"peak at two workers grew by {growth:.2f} "
                          "profiles of 8 n^2 bytes")
    # eight OpenBLAS threads and no cap in the environment: still two
    # workers, so still two draws
    growth = peak_growth(MC_CHILD, 1000, ensemble, "8", "8", threads="")
    assert growth < two, (f"peak at eight threads grew by {growth:.2f} "
                          "profiles of 8 n^2 bytes")
