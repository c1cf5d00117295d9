#!/usr/bin/env python3
"""specbound benchmark: three closed-loop workloads with output checks.

    python3 bench/run.py --workload report-acceptance --seed 7 --seconds 40 --trace 0

Run it from the root of a source checkout: it imports the package from
``src/`` and builds nothing. One client issues the workload's requests
in order, each as its own process started only after the previous one
has exited (a closed loop with one client), and repeats the whole
sequence while the next one still fits in ``--seconds``. Every output
is checked after its sequence ends, outside the timed window.

With ``--trace 0`` the last line of stdout is one JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of one traced sequence (see bench/traced.py), the tracing
overhead against one untraced sequence, and one single-threaded
sequence. Metric names and units come from BENCHMARK.json. The full
record (environment manifest, every request, every span) is written
to bench/results/BENCH_<workload>_seed<seed>_trace<0|1>.json.

Workloads and the reasons for them are in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
DEFAULT_SEED = 7
SETUP_REPS = 5
# every run must end within 180 s, whatever the code under test does
RUN_LIMIT_S = 165.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Two BLAS threads, or fewer on a smaller machine: on 2 CPUs, alternating
# qve requests spread 4.5% at 2 threads and 8% at 1. The pin is recorded
# in every result, because wall and CPU time depend on it.
THREADS = min(2, len(os.sched_getaffinity(0)))
WORKING_SET_NOTE = ("computed from argument and array sizes; profiles up to "
                    "N = 2000 (32 MB) fit in a 105 MiB L3, so no bandwidth "
                    "or roofline claim is made")


def request_env(threads: int) -> dict:
    """Environment of a request: pinned threads, package from src/."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["SPECBOUND_THREADS"] = str(threads)
    env["PYTHONPATH"] = str(SRC)
    return env


# ----------------------------------------------------------------- checks

def _report_checks(name, payload, csv, s):
    sup = payload["support_estimate"]
    support, step = sup["value"], sup["grid_step"]
    trivial, improved = payload["trivial_bound"], payload["improved_bound"]
    proxy, mc = payload["moment_proxy"], payload["mc"]
    floor = mc["mean"] - 3 * mc["std"]
    checks = [
        (f"support edge found ({sup['found']})", sup["found"]),
        (f"trivial {trivial:.6f} >= improved {improved:.6f}",
         trivial >= improved - 1e-12),
        (f"improved {improved:.6f} >= support {support:.4f} - step",
         improved >= support - step),
        (f"support {support:.4f} - step >= mc mean - 3 std {floor:.4f}",
         support - step >= floor),
        (f"proxy {proxy:.4f} <= support {support:.4f} + step",
         proxy <= support + step),
        (f"no MC failures ({mc['failures']})", mc["failures"] == 0),
    ]
    # The MC seed is the CLI default (1) at every bench seed, so the
    # acceptance windows of criteria 2, 3 and 8 apply to every run.
    if name == "exp500":
        checks += [
            (f"exp500 support {support:.4f} within 3.669 +/- 0.002",
             abs(support - 3.669) <= 0.002),
            (f"exp500 mc mean {mc['mean']:.4f} in [3.54, 3.82]",
             3.54 <= mc["mean"] <= 3.82),
            (f"exp500 mc std {mc['std']:.4f} in [0.01, 0.12]",
             0.01 <= mc["std"] <= 0.12),
        ]
    elif name == "wigner500":
        checks += [
            (f"wigner500 improved {improved:.12f} equals 2 to 1e-9",
             abs(improved - 2.0) <= 1e-9),
            (f"wigner500 support {support:.4f} within 2 +/- 0.05",
             abs(support - 2.0) <= 0.05),
            (f"wigner500 mc mean {mc['mean']:.4f} within 2 +/- 0.08",
             abs(mc["mean"] - 2.0) <= 0.08),
        ]
    return checks


def _density_checks(name, payload, csv, s):
    import numpy as np
    from specbound.qve import density

    rows = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
    taus, dens = rows[:, 0], rows[:, 1]
    # trapezoid rule: tau = 0 and the grid top are ends of the interval
    step = float(taus[1] - taus[0])
    mass = float(step * (dens.sum() - (dens[0] + dens[-1]) / 2))
    checks = [
        (f"support edge found ({payload['found']})", payload["found"]),
        (f"density >= 0 (min {dens.min():.3g})", bool(dens.min() >= 0.0)),
        (f"mass on tau >= 0 {mass:.5f} within 0.5 +/- 0.01",
         abs(mass - 0.5) <= 0.01),
    ]
    # bulk, near the edge, and beyond it
    for i in (len(taus) // 4, len(taus) // 2, 3 * len(taus) // 4):
        ref = density(s, float(taus[i]), eta=payload["eta"])
        checks.append((f"csv density at tau {taus[i]:.3f} matches pointwise "
                       f"{ref:.10g} to 1e-8", abs(dens[i] - ref) <= 1e-8))
    return checks


def _moment_checks(name, payload, csv, s):
    proxy = payload["moment_proxy"]
    improved, trivial = payload["improved_bound"], payload["trivial_bound"]
    return [
        (f"proxy {proxy:.6f} <= improved {improved:.6f}", proxy <= improved),
        (f"improved {improved:.6f} <= trivial {trivial:.6f}",
         improved <= trivial + 1e-12),
    ]


# -------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Request:
    name: str
    kind: str       # "cli" (python -m specbound.cli) or "moments" (driver)
    argv: tuple     # "{csv}" stands for a scratch CSV path
    profile: tuple  # resolve_profile(name, n, seed) of the request's input
    checks: object  # (name, payload, csv, profile) -> [(label, ok)]


def workloads(seed: int) -> dict:
    """Request sequences, with every seeded input taken from ``seed``."""
    return {
        "report-acceptance": [
            Request("exp500", "cli",
                    ("report", "--profile", "expprofile", "--n", "500"),
                    ("expprofile", 500, None), _report_checks),
            Request("wigner500", "cli",
                    ("report", "--profile", "wigner", "--n", "500"),
                    ("wigner", 500, None), _report_checks),
            Request("random100", "cli",
                    ("report", "--profile", "random", "--n", "100",
                     "--profile-seed", str(seed)),
                    ("random", 100, seed), _report_checks),
        ],
        "density-scan": [
            Request("random300", "cli",
                    ("qve", "--profile", "random", "--n", "300",
                     "--profile-seed", str(seed), "--csv", "{csv}"),
                    ("random", 300, seed), _density_checks),
        ],
        "moments-2000": [
            Request("random2000", "moments", ("--profile-seed", str(seed)),
                    ("random", 2000, seed), _moment_checks),
        ],
    }


# --------------------------------------------------------------- requests

@dataclass
class Outcome:
    request: Request
    wall: float
    cpu: float
    rss_mb: float
    exit: int
    stdout: Path
    csv: Path
    spans: Path | None
    failed_checks: list = field(default_factory=list)
    payload: dict | None = None


def spawn(cmd, env, stdout: Path, deadline: float):
    """Run one process to its end; return wall, CPU, peak RSS and exit code.

    The process is killed at ``deadline`` (a perf_counter value).
    """
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode


def command(req: Request, csv: Path, spans: Path | None) -> list:
    argv = [a.replace("{csv}", str(csv)) for a in req.argv]
    if spans is not None:
        return [sys.executable, str(BENCH / "traced.py"), str(spans), req.name,
                req.kind, *argv]
    if req.kind == "cli":
        return [sys.executable, "-m", "specbound.cli", *argv]
    return [sys.executable, str(BENCH / "moments_driver.py"), *argv]


def run_sequence(requests, tmp: Path, tag: str, threads: int, deadline: float,
                 traced: bool = False):
    """Issue each request after the previous one exited; return wall and outcomes."""
    outcomes = []
    start = time.perf_counter()
    for i, req in enumerate(requests):
        base = tmp / f"{tag}-{i}-{req.name}"
        spans = base.with_suffix(".spans.json") if traced else None
        csv, out = base.with_suffix(".csv"), base.with_suffix(".out")
        wall, cpu, rss, code = spawn(command(req, csv, spans), request_env(threads),
                                     out, deadline)
        outcomes.append(Outcome(req, wall, cpu, rss, code, out, csv, spans))
    return time.perf_counter() - start, outcomes


class Checker:
    """Checks outputs after a sequence, outside its timed window."""

    def __init__(self):
        self._profiles = {}

    def profile(self, spec):
        from specbound.linalg import resolve_profile

        if spec not in self._profiles:
            name, n, seed = spec
            self._profiles[spec] = resolve_profile(name, n=n, seed=seed)[0]
        return self._profiles[spec]

    def __call__(self, o: Outcome) -> None:
        if o.exit != 0:
            o.failed_checks = [f"exit code {o.exit}"]
            return
        try:
            o.payload = json.loads(o.stdout.read_text())
            checks = o.request.checks(o.request.name, o.payload, o.csv,
                                      self.profile(o.request.profile))
        except (OSError, ValueError, KeyError, TypeError, IndexError,
                AttributeError, ImportError) as exc:
            o.failed_checks = [f"output check error: {exc!r}"]
            return
        o.failed_checks = [label for label, ok in checks if not ok]


def setup_times(requests, reps: int, deadline: float, tmp: Path) -> list:
    """Per repetition, the summed spawn-to-exit time of one set-up probe per request."""
    totals = []
    for rep in range(reps):
        total = 0.0
        for req in requests:
            name, n, seed = req.profile
            cmd = [sys.executable, str(BENCH / "setup_probe.py"), name, str(n)]
            if seed is not None:
                cmd.append(str(seed))
            wall, _, _, code = spawn(cmd, request_env(THREADS),
                                     tmp / f"setup-{rep}.out", deadline)
            if code != 0:
                raise RuntimeError(f"set-up probe {cmd[2:]} exited with {code}")
            total += wall
        totals.append(total)
    return totals


# ---------------------------------------------------------------- metrics

def end_to_end(sequences, setups, attempted, failed) -> dict:
    walls = [w for w, _ in sequences]
    lat = [[o.wall for o in outs] for _, outs in sequences]
    return {
        "wall_s": statistics.median(walls),
        "req_p50_s": statistics.median(statistics.median(x) for x in lat),
        "req_max_s": statistics.median(max(x) for x in lat),
        "cpu_s": statistics.median(sum(o.cpu for o in outs) for _, outs in sequences),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(max(o.rss_mb for o in outs)
                                         for _, outs in sequences),
        "ok_share": (attempted - failed) / attempted,
    }


def _eig_relerr(outcomes, checker):
    """Worst relative gap between each MC trial value and eigvalsh of the same sample."""
    import numpy as np
    from specbound.montecarlo import sample_matrix, trial_rng

    worst = 0.0
    for o in outcomes:
        mc = (o.payload or {}).get("mc")
        if mc is None:
            continue
        if mc["failures"] or len(mc["per_trial"]) != mc["trials"]:
            return None
        s = checker.profile(o.request.profile)
        for trial, value in enumerate(mc["per_trial"]):
            h = sample_matrix(s, mc["ensemble"], trial_rng(mc["seed"], trial))
            exact = float(np.abs(np.linalg.eigvalsh(h)).max())
            worst = max(worst, abs(value - exact) / exact)
    return worst


# Per-layer metrics read from spans: metric -> (span name, what to take).
SPAN_METRICS = {
    "montecarlo.spectral_radius_s": ("montecarlo.spectral_radius", "time"),
    "montecarlo.power_iters": ("montecarlo.spectral_radius", "power_iters"),
    "montecarlo.sample_matrix_s": ("montecarlo.sample_matrix", "time"),
    "montecarlo.mc_experiment_s": ("montecarlo.mc_experiment", "time"),
    "qve.estimate_support_s": ("qve.estimate_support", "time"),
    "qve.estimate_support_grid_pts": ("qve.estimate_support",
                                      "estimate_support_grid_pts"),
    "qve.density_scan_s": ("qve.density_scan", "time"),
    "qve.density_scan_pts": ("qve.density_scan", "density_scan_pts"),
    "qve.solve_qve_calls": ("qve.solve_qve", "calls"),
    "qve.moment_recursion_s": ("qve.moment_recursion", "time"),
    "qve.moment_matvecs": ("qve.moment_recursion", "moment_matvecs"),
    "qve.moment_bytes": ("qve.moment_recursion", "moment_bytes"),
    "linalg.resolve_profile_s": ("linalg.resolve_profile", "time"),
    "linalg.norm_sequence_s": ("linalg.norm_sequence", "time"),
    "linalg.norm_sequence_matvecs": ("linalg.norm_sequence", "norm_sequence_matvecs"),
    "bounds.support_bound_s": ("bounds.support_bound", "time"),
    "bounds.critical_w_s": ("bounds.critical_w", "time"),
    "cli.self_s": ("cli.run", "self"),
}


def read_spans(outcomes):
    """Merge the span files of a traced sequence; add each span's self time."""
    spans, absent, json_bytes = [], set(), 0
    for o in outcomes:
        if o.spans is None or not o.spans.is_file():
            continue
        data = json.loads(o.spans.read_text())
        own = data["spans"]
        for span in own:
            span["self"] = span["end"] - span["start"]
        for span in own:
            if span["parent"] is not None:
                own[span["parent"]]["self"] -= span["end"] - span["start"]
        spans += own
        absent.update(data["absent"])
        if o.request.kind == "cli":
            json_bytes += data["json_bytes"]
    return spans, absent, json_bytes


def per_layer(traced, plain_wall, one_thread_wall, checker):
    wall, outcomes = traced
    spans, absent, json_bytes = read_spans(outcomes)
    values, missing = {}, []
    for metric, (name, what) in SPAN_METRICS.items():
        mine = [s for s in spans if s["name"] == name]
        if what == "time":
            values[metric] = sum(s["end"] - s["start"] for s in mine)
        elif what == "self":
            values[metric] = sum(s["self"] for s in mine)
        elif what == "calls":
            values[metric] = len(mine)
        else:
            values[metric] = sum(s.get("counts", {}).get(what, 0) for s in mine)
            if f"{name}:counts" in absent:
                missing.append(metric)
        if name in absent:
            missing.append(metric)
    values["cli.json_bytes"] = json_bytes
    values["montecarlo.failures"] = sum(
        (o.payload or {}).get("mc", {}).get("failures", 0) for o in outcomes)
    try:
        relerr = _eig_relerr(outcomes, checker)
    except (ImportError, AttributeError, TypeError, KeyError):
        relerr = None
    if relerr is None:
        missing.append("montecarlo.eig_relerr_max")
    values["montecarlo.eig_relerr_max"] = relerr or 0.0
    values["trace.overhead_s"] = wall - plain_wall
    values["env.wall_1thread_s"] = one_thread_wall
    return values, sorted(set(missing)), spans


# -------------------------------------------------------------- manifest

def manifest() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = git.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "specbound_threads": THREADS,
        "cpu_count": os.cpu_count(),
        "sched_affinity": len(os.sched_getaffinity(0)),
    }


def metric_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


# ------------------------------------------------------------------ main

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads(0)))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "specbound" / "__init__.py").is_file():
        print(f"error: no specbound sources under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    # pin the threads of this process too (it runs the output checks)
    # before numpy is first imported
    for var in BLAS_VARS:
        os.environ.pop(var, None)
    os.environ["SPECBOUND_THREADS"] = str(THREADS)
    sys.path.insert(0, str(SRC))

    units = metric_units()
    requests = workloads(args.seed)[args.workload]
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    RESULTS.mkdir(exist_ok=True)
    tmp = RESULTS / f"tmp-{os.getpid()}"
    tmp.mkdir()
    checker = Checker()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    try:
        # untimed warm-up: compiles bytecode, fills the file cache
        setup_times(requests[:1], 1, deadline, tmp)
        if args.trace:
            plain = run_sequence(requests, tmp, "plain", THREADS, deadline)
            traced = run_sequence(requests, tmp, "traced", THREADS, deadline,
                                  traced=True)
            single = run_sequence(requests, tmp, "single", 1, deadline)
            sequences = [plain, traced, single]
        else:
            setups = setup_times(requests, SETUP_REPS, deadline, tmp)
            window_end = started + args.seconds
            sequences = []
            while True:
                sequences.append(run_sequence(requests, tmp, f"seq{len(sequences)}",
                                              THREADS, deadline))
                typical = statistics.median(w for w, _ in sequences)
                if time.perf_counter() + typical > window_end:
                    break
        outcomes = [o for _, outs in sequences for o in outs]
        for o in outcomes:
            checker(o)
        attempted = len(outcomes)
        failed = sum(1 for o in outcomes if o.failed_checks)
        if args.trace:
            values, absent, spans = per_layer(traced, plain[0], single[0], checker)
            kind = "per_layer"
            record.update(absent=absent, spans=spans,
                          traced_wall_s=traced[0], plain_wall_s=plain[0])
        else:
            values = end_to_end(sequences, setups, attempted, failed)
            kind = "end_to_end"
            record["setup_s_reps"] = setups
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units[kind].items()}
    # numpy is first imported here or by the checks, after the timed requests
    record["manifest"] = manifest()
    record["working_set"] = {
        "label": WORKING_SET_NOTE,
        "profile_bytes": {r.name: 8 * r.profile[1] ** 2 for r in requests},
    }
    record["requests"] = [
        {"sequence": i, "request": o.request.name, "wall_s": o.wall,
         "cpu_s": o.cpu, "rss_mb": o.rss_mb, "exit": o.exit,
         "failed_checks": o.failed_checks}
        for i, (_, outs) in enumerate(sequences) for o in outs]
    record["sequence_walls_s"] = [w for w, _ in sequences]
    record["requests_per_sequence"] = len(requests)
    record["metrics"] = metrics
    out = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for o in outcomes:
        for label in o.failed_checks:
            print(f"FAILED {o.request.name}: {label}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    if record.get("absent"):
        print("absent (reads 0): " + ", ".join(record["absent"]), file=sys.stderr)
    print(f"{len(sequences)} sequences of {len(requests)} requests; record in {out}",
          file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
