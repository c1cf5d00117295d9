"""Session-scoped fixtures shared by the acceptance suite.

The N=500 support scans and sampling experiments take seconds each, so
they are computed once and reused by every criterion that needs them.
"""

import time

import numpy as np
import pytest

from specbound.linalg import VarianceMatrix, exp_profile, random_profile, wigner_profile
from specbound.montecarlo import McConfig, mc_experiment
from specbound.qve import estimate_support

# one verdict line per acceptance criterion, echoed after the test run
# (plain prints from passing tests are swallowed by output capture)
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def products(monkeypatch):
    """Counts the products made with a profile's entries on the left,
    such as the norm sequence's and the edge ceiling's matrix-vector
    products.  The row sums that VarianceMatrix forms are not counted."""
    count = [0]

    class Counting(np.ndarray):
        def __matmul__(self, other):
            count[0] += 1
            return np.asarray(self) @ other

    fget = VarianceMatrix.entries.fget
    monkeypatch.setattr(VarianceMatrix, "entries",
                        property(lambda s: fget(s).view(Counting)))
    return count


@pytest.fixture(scope="session")
def exp500():
    return exp_profile(500)


@pytest.fixture(scope="session")
def wigner500():
    return wigner_profile(500)


@pytest.fixture(scope="session")
def random100():
    return random_profile(100, seed=7)


@pytest.fixture(scope="session")
def exp500_support(exp500):
    return estimate_support(exp500)


@pytest.fixture(scope="session")
def wigner500_support(wigner500):
    return estimate_support(wigner500)


@pytest.fixture(scope="session")
def random100_support(random100):
    return estimate_support(random100)


def _timed_mc(profile):
    start = time.perf_counter()
    res = mc_experiment(profile, McConfig(trials=10, seed=1))
    return res, time.perf_counter() - start


@pytest.fixture(scope="session")
def exp500_mc(exp500):
    return _timed_mc(exp500)


@pytest.fixture(scope="session")
def wigner500_mc(wigner500):
    return _timed_mc(wigner500)


@pytest.fixture(scope="session")
def random100_mc(random100):
    return _timed_mc(random100)
