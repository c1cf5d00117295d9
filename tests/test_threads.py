"""Idle BLAS workers sleep instead of spinning, the QVE scan and the MC
eigensolves run on one BLAS thread, and the numbers stay the same.

specbound sets OPENBLAS_THREAD_TIMEOUT before numpy loads, and OpenBLAS
reads it once, at load time, so each check runs in a fresh interpreter
whose environment is built here: the test session has long since
imported numpy, and its own environment already holds the default.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from test_cli import strip_timing

SRC = Path(__file__).resolve().parents[1] / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "OPENBLAS_THREAD_TIMEOUT")

TIMEOUT_CHILD = """
import os
import specbound
print(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
"""

# CPU time burnt while the process sleeps after a BLAS call: a spinning
# worker thread counts towards the process's CPU time, a sleeping one not
IDLE_CHILD = """
import time
import specbound  # first: it sets the timeout before numpy loads
import numpy as np
a = np.random.default_rng(0).standard_normal((500, 500))
a @ a
before = time.process_time()
time.sleep(0.3)
print(time.process_time() - before)
"""


def child(argv, **env_vars):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update(env_vars)
    out = subprocess.run([sys.executable, *argv], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout


def uses_openblas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return False
    return "openblas" in str(blas.get("name", "")).lower()


def cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def test_import_sets_the_thread_timeout_unless_it_is_set():
    assert child(["-c", TIMEOUT_CHILD]).strip() == "20"
    preset = child(["-c", TIMEOUT_CHILD], OPENBLAS_THREAD_TIMEOUT="28")
    assert preset.strip() == "28"


@pytest.mark.skipif(not uses_openblas() or cpus() < 2,
                    reason="needs numpy on OpenBLAS and two CPUs")
def test_idle_blas_worker_burns_no_cpu_while_the_process_sleeps():
    idle = float(child(["-c", IDLE_CHILD], SPECBOUND_THREADS="2"))
    assert idle < 0.02, f"{idle:.4f} s of CPU during a 0.3 s sleep"


def test_report_is_the_same_with_the_spinning_timeout():
    argv = ["-m", "specbound.cli", "report", "--profile", "expprofile",
            "--n", "200", "--trials", "2"]
    runs = [json.loads(child(argv, SPECBOUND_THREADS="2", **extra))
            for extra in ({}, {"OPENBLAS_THREAD_TIMEOUT": "28"})]
    assert strip_timing(runs[0]) == strip_timing(runs[1])


# densities of the QVE scan on exp500, as the hex of their bytes
SCAN_CHILD = """
import specbound  # first: it sets the thread count before numpy loads
import numpy as np
from specbound import density_scan, exp_profile
print(density_scan(exp_profile(500), np.linspace(0.0, 4.0, 64)).tobytes().hex())
"""


@pytest.mark.skipif(not uses_openblas() or cpus() < 2
                    or not os.path.exists("/proc/self/maps"),
                    reason="needs numpy on OpenBLAS, two CPUs and a memory "
                           "map to find OpenBLAS in")
def test_density_scan_is_the_same_at_one_and_two_threads():
    # a two-thread product sums in another order, and moved these
    # densities by up to 4.2e-13 before the scan ran on one thread
    one, two = (child(["-c", SCAN_CHILD], SPECBOUND_THREADS=t) for t in "12")
    assert one == two


# MC radii on exp500, as the hex of their bytes
MC_CHILD = """
import sys
import specbound  # first: it sets the thread count before numpy loads
import numpy as np
from specbound import McConfig, exp_profile, mc_experiment
cfg = McConfig(trials=4, seed=1, ensemble=sys.argv[1])
print(np.array(mc_experiment(exp_profile(500), cfg).per_trial).tobytes().hex())
"""


@pytest.mark.skipif(not uses_openblas() or cpus() < 2,
                    reason="needs numpy on OpenBLAS and two CPUs")
@pytest.mark.parametrize("ensemble", ["real-symmetric", "complex-hermitian"])
def test_mc_experiment_is_the_same_at_one_and_two_threads(ensemble):
    # the trials run on two workers at two threads, each solving on one
    # BLAS thread; a two-thread eigvalsh moved these radii by up to 5e-15
    one, two = (child(["-c", MC_CHILD, ensemble], SPECBOUND_THREADS=t)
                for t in "12")
    assert one == two


# the report JSON on exp500, apart from its clocks and the MC elapsed
REPORT_ARGV = ["-m", "specbound.cli", "report", "--profile", "expprofile",
               "--n", "500", "--trials", "4"]


@pytest.mark.skipif(not uses_openblas() or cpus() < 2,
                    reason="needs numpy on OpenBLAS and two CPUs")
def test_report_is_the_same_at_one_and_two_threads():
    # every stage of report runs on one BLAS thread, so its numbers are
    # those of a one-thread run, bit for bit
    one, two = (strip_timing(json.loads(child(REPORT_ARGV, SPECBOUND_THREADS=t)))
                for t in "12")
    assert one == two


def test_a_high_thread_count_runs_two_workers_with_the_one_worker_radii(
        monkeypatch):
    from specbound import montecarlo
    from specbound.linalg import _openblas, exp_profile
    from specbound.montecarlo import ENSEMBLES, McConfig, mc_experiment

    blas = _openblas()
    if blas is None or blas.dsyevd is None:
        pytest.skip("OpenBLAS's LAPACKE eigensolvers not found")
    s = exp_profile(30)
    configs = [McConfig(trials=64, seed=3, ensemble=e) for e in ENSEMBLES]
    threads, interval = blas.get(), sys.getswitchinterval()
    draw, drawers = montecarlo._draw, set()

    def recording(*args):
        drawers.add(threading.get_ident())
        return draw(*args)

    blas.put(1)
    try:
        expected = [mc_experiment(s, cfg) for cfg in configs]
        # eight threads still run two workers, as each holds a draw; a
        # trial taken twice, or a radius stored at another trial's
        # index, would change the radii
        monkeypatch.setattr(montecarlo, "_draw", recording)
        blas.put(8)
        sys.setswitchinterval(1e-6)
        assert [mc_experiment(s, cfg) for cfg in configs] == expected
        assert blas.get() == 8
        assert 1 <= len(drawers) <= 2
    finally:
        sys.setswitchinterval(interval)
        blas.put(threads)


@pytest.mark.skipif(not uses_openblas() or cpus() < 2,
                    reason="needs numpy on OpenBLAS and two CPUs")
def test_density_scan_runs_on_one_blas_thread_and_restores_the_count(monkeypatch):
    from specbound import qve
    from specbound.linalg import _openblas, exp_profile

    blas = _openblas()
    if blas is None:
        pytest.skip("OpenBLAS's thread-count functions not found")
    get, put = blas.get, blas.put
    threads, seen = get(), []
    kernel = qve._solve_block

    def recording(*args):
        seen.append(get())
        return kernel(*args)

    def failing(*args):
        raise RuntimeError("kernel failed")

    put(2)
    try:
        s = exp_profile(40)
        monkeypatch.setattr(qve, "_solve_block", recording)
        qve.density_scan(s, np.linspace(0.0, 4.0, 40))
        assert seen == [1, 1] and get() == 2
        monkeypatch.setattr(qve, "_solve_block", failing)
        with pytest.raises(RuntimeError, match="kernel failed"):
            qve.density_scan(s, [1.0])
        assert get() == 2
    finally:
        put(threads)


@pytest.mark.skipif(not uses_openblas() or cpus() < 2,
                    reason="needs numpy on OpenBLAS and two CPUs")
def test_concurrent_scans_restore_the_thread_count():
    from specbound import qve
    from specbound.linalg import _openblas, exp_profile

    blas = _openblas()
    if blas is None:
        pytest.skip("OpenBLAS's thread-count functions not found")
    get, put = blas.get, blas.put
    s, taus = exp_profile(40), np.linspace(0.0, 4.0, 8)
    expected = qve.density_scan(s, taus)
    threads, interval = get(), sys.getswitchinterval()
    results = []

    def scan():
        for _ in range(25):
            results.append(qve.density_scan(s, taus))

    put(2)
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=scan) for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
        assert get() == 2
        assert len(results) == 100
        assert all(np.array_equal(r, expected) for r in results)
    finally:
        sys.setswitchinterval(interval)
        put(threads)
