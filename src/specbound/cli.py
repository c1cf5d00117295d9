"""Command-line frontend.

Subcommands tie the pipeline together: ``bound`` computes the row-sum
support bound, ``qve`` locates the spectral edge from the smoothed
density, ``mc`` samples random matrices and measures their largest
eigenvalue, and ``report`` combines all three into one comparison. The
scan's settings (--eta, --grid-step, --threshold) are ``qve``'s alone;
``report`` runs the scan at their defaults and echoes them in its
``support_estimate``. It runs the moment proxy at the one depth
kmax = 100 and echoes it as ``moment_kmax``, so every option of
``report`` but the source is one of ``bound`` or ``mc``.

Machine-readable output is JSON on stdout; the human summary goes to
stderr so pipelines stay clean, and ``> report.json`` keeps it. Every
subcommand runs on one path, ``run``: it resolves the matrix source,
calls the subcommand for its fields and summary lines, and prints them
behind a manifest. This module alone lays out that JSON: ``bound``,
``qve`` and ``mc`` give the fields of their result dataclass in
declaration order, as ``dataclasses.asdict`` gives them, and ``report``
lays out its own. A ``gram:`` source adds a note in every subcommand,
since each then reports the largest singular value. CSV is emitted only
for density scans. Exit codes: 0 on success, 2 for input problems (an
input whose arrays cannot be allocated among them), 3 for numeric
failures. The environment variable SPECBOUND_THREADS caps the threads
used by the underlying linear algebra; a value that is not a positive
integer exits 2 before the source is read, and an empty one is unset.
Idle OpenBLAS workers sleep after 2^20 cycles (about 0.5 ms) instead of
spinning for 2^28; OPENBLAS_THREAD_TIMEOUT overrides that. Both take
effect only if they are set before numpy is first imported. The
manifest's cpu_seconds counts the CPU time of every thread, next to its
wall_clock_seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, _is_thread_count
from .bounds import support_bound
from .errors import InputError, NumericError
from .linalg import _check_real, resolve_profile
from .montecarlo import ENSEMBLES, McConfig, mc_experiment
from .qve import (
    _grid_points,
    density_scan,
    estimate_support,
    moment_recursion,
    support_from_moments,
)

# depth of report's moment proxy: the depth the moments-2000 benchmark
# workload runs through the library
_PROXY_KMAX = 100


def _source_flags(parser):
    parser.add_argument(
        "--profile",
        help="generator name (wigner, expprofile, random, gram:<path>) "
        "or the path of a square matrix file",
    )
    parser.add_argument("--n", type=int,
                        help="size for generated profiles (refused for a file "
                        "or gram: source)")
    parser.add_argument(
        "--profile-seed", type=int,
        help="seed for 'random' profiles (default 0; refused for other sources)",
    )
    parser.add_argument(
        "--repair", action="store_true",
        help="symmetrize and clamp an almost-valid square matrix file",
    )


def _bound_flags(parser):
    parser.add_argument("--j", type=int, default=50,
                        help="depth of the norm sequence (default 50)")


def _mc_flags(parser):
    parser.add_argument("--trials", type=int, default=10,
                        help="number of samples (default 10)")
    parser.add_argument("--seed", type=int, default=1,
                        help="experiment seed (default 1)")
    parser.add_argument("--ensemble", choices=ENSEMBLES, default="real-symmetric",
                        help="sampled matrix ensemble (default real-symmetric)")


# parsed options the manifest leaves out: the dispatch entries and the
# three that the source descriptor already resolves
_UNRECORDED = ("command", "func", "profile", "n", "profile_seed")

_GRAM_NOTE = ("input was linearized from a rectangular matrix: the numbers "
              "above control its largest singular value, so square them to "
              "bound the largest eigenvalue of the Gram matrix")


def _manifest(args, desc, started, cpu_started):
    params = {"source": desc}
    params.update((k, v) for k, v in vars(args).items() if k not in _UNRECORDED)
    return {
        "command": args.command,
        "parameters": params,
        "version": __version__,
        "wall_clock_seconds": round(time.perf_counter() - started, 6),
        # CPU time of every thread of the process: far above the wall
        # clock, it shows BLAS threads busy while the run is not
        "cpu_seconds": round(time.process_time() - cpu_started, 6),
    }


def cmd_bound(args, s):
    rep = support_bound(s, J=args.j)
    return asdict(rep), [
        f"trivial bound   {rep.trivial_bound:.6f}",
        f"improved bound  {rep.improved_bound:.6f}",
        f"critical w      {rep.w_c:.6f}  (J = {rep.J})",
    ]


def cmd_qve(args, s):
    _check_real("--csv-step", args.csv_step)
    est = estimate_support(s, eta=args.eta, grid_step=args.grid_step,
                           threshold=args.threshold)
    if est.found:
        lines = [f"support edge ~= {est.value:.6f}  "
                 f"(eta = {est.eta}, grid step = {est.grid_step})"]
    else:
        lines = ["no density above the threshold; support not detected"]
    if args.csv:
        top = max(est.grid_top, args.csv_step) + args.csv_step / 2
        _grid_points(top, args.csv_step, "a --csv-step grid")
        taus = np.arange(0.0, top, args.csv_step)
        vals = density_scan(s, taus, eta=est.eta)
        rows = "\n".join(f"{t:.10g},{v:.10g}" for t, v in zip(taus, vals))
        Path(args.csv).write_text("tau,density\n" + rows + "\n")
        lines.append(f"density scan ({len(taus)} points) written to {args.csv}")
    return asdict(est), lines


def cmd_mc(args, s):
    res = mc_experiment(s, McConfig(trials=args.trials, seed=args.seed,
                                    ensemble=args.ensemble))
    return asdict(res), [
        f"mean |lambda|_max = {res.mean:.4f} +/- {res.std:.4f} "
        f"over {len(res.per_trial)} trials ({res.failures} failures)",
    ]


def cmd_report(args, s):
    # bad MC settings fail before any stage runs
    cfg = McConfig(trials=args.trials, seed=args.seed, ensemble=args.ensemble)
    # cheap stages first, so that a failing profile fails fast
    rep = support_bound(s, J=args.j)
    table = moment_recursion(s, kmax=_PROXY_KMAX)
    proxy = support_from_moments(table)
    est = estimate_support(s)
    mc = mc_experiment(s, cfg)
    fields = {
        "trivial_bound": rep.trivial_bound,
        "improved_bound": rep.improved_bound,
        "w_c": rep.w_c,
        "J": rep.J,
        "support_estimate": asdict(est),
        "moment_proxy": proxy,
        "moment_kmax": _PROXY_KMAX,
        "mc": asdict(mc),
    }
    return fields, [
        f"moment proxy    {proxy:.4f}   (kmax = {_PROXY_KMAX})",
        f"mc mean         {mc.mean:.4f} +/- {mc.std:.4f}   "
        f"({len(mc.per_trial)} trials, {mc.failures} failures)",
        f"support edge    {est.value:.4f}" + ("" if est.found else "   (not found)"),
        f"improved bound  {rep.improved_bound:.4f}   (w_c = {rep.w_c:.4f}, J = {rep.J})",
        f"trivial bound   {rep.trivial_bound:.4f}",
    ]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="specbound",
        description="Support bounds, spectral probes, and Monte-Carlo "
        "validation for random matrices with a variance profile.",
    )
    p.add_argument("--version", action="version",
                   version=f"specbound {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", help="row-sum support bound")
    _source_flags(b)
    _bound_flags(b)
    b.set_defaults(func=cmd_bound)

    q = sub.add_parser("qve", help="support edge from the smoothed density")
    _source_flags(q)
    q.add_argument("--eta", type=float, default=1e-3,
                   help="imaginary offset of the probe line (default 1e-3)")
    q.add_argument("--grid-step", type=float, default=1e-3,
                   help="tau grid resolution (default 1e-3)")
    q.add_argument("--threshold", type=float, default=1e-2,
                   help="density level defining the edge (default 1e-2)")
    q.add_argument("--csv", metavar="PATH",
                   help="write a tau,density scan to this CSV file")
    q.add_argument("--csv-step", type=float, default=0.05,
                   help="tau resolution of the CSV scan (default 0.05)")
    q.set_defaults(func=cmd_qve)

    m = sub.add_parser("mc", help="largest-eigenvalue sampling experiment")
    _source_flags(m)
    _mc_flags(m)
    m.set_defaults(func=cmd_mc)

    r = sub.add_parser("report", help="combined comparison of all estimates")
    _source_flags(r)
    _bound_flags(r)
    _mc_flags(r)
    r.set_defaults(func=cmd_report)
    return p


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started, cpu_started = time.perf_counter(), time.process_time()
    try:
        threads = os.environ.get("SPECBOUND_THREADS", "")
        if threads and not _is_thread_count(threads):
            raise InputError("SPECBOUND_THREADS must be a positive integer, "
                             f"got {threads!r}")
        if not args.profile:
            raise InputError("a matrix source is required: --profile NAME|PATH")
        seed = args.profile_seed
        seed = 0 if seed is None and args.profile == "random" else seed
        s, desc = resolve_profile(args.profile, n=args.n, seed=seed,
                                  repair=args.repair)
        fields, lines = args.func(args, s)
        payload = {"manifest": _manifest(args, desc, started, cpu_started), **fields}
        lines = [f"profile: {desc}", *lines]
        if desc.get("profile") == "gram":
            payload["note"] = _GRAM_NOTE
            lines.append("note: " + _GRAM_NOTE)
        for line in lines:
            print(line, file=sys.stderr)
        # result dataclasses go in through asdict; their one array field,
        # the bound's z, is written as a list
        print(json.dumps(payload, indent=2, default=np.ndarray.tolist))
        return 0
    except (InputError, OSError, MemoryError) as exc:
        # a MemoryError is an input asking for an array that cannot be
        # allocated, such as a profile size or grid past the memory
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
