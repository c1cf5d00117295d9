"""Command-line frontend.

Subcommands tie the pipeline together: ``bound`` computes the row-sum
support bound, ``qve`` locates the spectral edge from the smoothed
density, ``mc`` samples random matrices and measures their largest
eigenvalue, and ``report`` combines all three into one comparison.

Machine-readable output is JSON on stdout; the human summary goes to
stderr so pipelines stay clean, and ``> report.json`` keeps the JSON. This
module alone lays out that JSON: a manifest, then the fields of the
result dataclasses in declaration order, as ``dataclasses.asdict``
gives them. CSV is emitted only for density scans. Exit codes: 0 on
success, 2 for input problems, 3 for numeric failures. The environment
variable SPECBOUND_THREADS caps the threads used by the underlying
linear algebra when it is set before the first import.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import support_bound
from .errors import InputError, NumericError
from .linalg import resolve_profile
from .montecarlo import ENSEMBLES, McConfig, mc_experiment
from .qve import (
    density_scan,
    estimate_support,
    moment_recursion,
    support_from_moments,
)


def _source_flags(parser):
    parser.add_argument(
        "--profile",
        help="generator name (wigner, expprofile, random, gram:<path>) "
        "or the path of a square matrix file",
    )
    parser.add_argument("--n", type=int, help="size for generated profiles")
    parser.add_argument(
        "--profile-seed", type=int, default=0,
        help="seed for the 'random' profile generator (default 0)",
    )
    parser.add_argument(
        "--repair", action="store_true",
        help="symmetrize and clamp an almost-valid square matrix file",
    )


def _bound_flags(parser):
    parser.add_argument("--j", type=int, default=50,
                        help="depth of the norm sequence (default 50)")


def _qve_flags(parser):
    parser.add_argument("--eta", type=float, default=1e-3,
                        help="imaginary offset of the probe line (default 1e-3)")
    parser.add_argument("--grid-step", type=float, default=1e-3,
                        help="tau grid resolution (default 1e-3)")
    parser.add_argument("--threshold", type=float, default=1e-2,
                        help="density level defining the edge (default 1e-2)")


def _mc_flags(parser):
    parser.add_argument("--trials", type=int, default=10,
                        help="number of samples (default 10)")
    parser.add_argument("--seed", type=int, default=1,
                        help="experiment seed (default 1)")
    parser.add_argument("--ensemble", choices=ENSEMBLES, default="real-symmetric",
                        help="sampled matrix ensemble (default real-symmetric)")


def _resolve_source(args):
    if not args.profile:
        raise InputError("a matrix source is required: --profile NAME|PATH")
    return resolve_profile(args.profile, n=args.n, seed=args.profile_seed,
                           repair=args.repair)


# parsed options the manifest leaves out: the dispatch entries and the
# three that the source descriptor already resolves
_UNRECORDED = ("command", "func", "profile", "n", "profile_seed")


def _manifest(args, desc, started):
    params = {"source": desc}
    params.update((k, v) for k, v in vars(args).items() if k not in _UNRECORDED)
    return {
        "command": args.command,
        "parameters": params,
        "version": __version__,
        "wall_clock_seconds": round(time.perf_counter() - started, 6),
    }


def _emit(payload, summary_lines):
    for line in summary_lines:
        print(line, file=sys.stderr)
    # result dataclasses go in through asdict; their one array field, the
    # bound's z, is written as a list
    print(json.dumps(payload, indent=2, default=np.ndarray.tolist))


def cmd_bound(args):
    started = time.perf_counter()
    s, desc = _resolve_source(args)
    rep = support_bound(s, J=args.j)
    payload = {"manifest": _manifest(args, desc, started), **asdict(rep)}
    _emit(payload, [
        f"profile: {desc}",
        f"trivial bound   {rep.trivial_bound:.6f}",
        f"improved bound  {rep.improved_bound:.6f}",
        f"critical w      {rep.w_c:.6f}  (J = {rep.J})",
    ])
    return 0


def cmd_qve(args):
    started = time.perf_counter()
    if not 0.0 < args.csv_step < math.inf:
        raise InputError(
            f"--csv-step must be positive and finite, got {args.csv_step}")
    s, desc = _resolve_source(args)
    est = estimate_support(s, eta=args.eta, grid_step=args.grid_step,
                           threshold=args.threshold)
    payload = {"manifest": _manifest(args, desc, started), **asdict(est)}
    lines = [f"profile: {desc}"]
    if est.found:
        lines.append(
            f"support edge ~= {est.value:.6f}  "
            f"(eta = {est.eta}, grid step = {est.grid_step})"
        )
    else:
        lines.append("no density above the threshold; support not detected")
    if args.csv:
        taus = np.arange(0.0, max(est.grid_top, args.csv_step) + args.csv_step / 2,
                         args.csv_step)
        vals = density_scan(s, taus, eta=args.eta)
        rows = "\n".join(f"{t:.10g},{v:.10g}" for t, v in zip(taus, vals))
        Path(args.csv).write_text("tau,density\n" + rows + "\n")
        lines.append(f"density scan ({len(taus)} points) written to {args.csv}")
    _emit(payload, lines)
    return 0


def cmd_mc(args):
    started = time.perf_counter()
    cfg = McConfig(trials=args.trials, seed=args.seed, ensemble=args.ensemble)
    s, desc = _resolve_source(args)
    res = mc_experiment(s, cfg)
    payload = {"manifest": _manifest(args, desc, started), **asdict(res)}
    _emit(payload, [
        f"profile: {desc}",
        f"mean |lambda|_max = {res.mean:.4f} +/- {res.std:.4f} "
        f"over {len(res.per_trial)} trials ({res.failures} failures)",
    ])
    return 0


def cmd_report(args):
    started = time.perf_counter()
    # bad MC settings fail before any stage runs
    cfg = McConfig(trials=args.trials, seed=args.seed, ensemble=args.ensemble)
    s, desc = _resolve_source(args)
    # cheap stages first, so that a failing profile fails fast
    rep = support_bound(s, J=args.j)
    table = moment_recursion(s, kmax=args.kmax)
    proxy = support_from_moments(table)
    est = estimate_support(s, eta=args.eta, grid_step=args.grid_step,
                           threshold=args.threshold)
    mc = mc_experiment(s, cfg)
    payload = {
        "manifest": _manifest(args, desc, started),
        "trivial_bound": rep.trivial_bound,
        "improved_bound": rep.improved_bound,
        "w_c": rep.w_c,
        "J": rep.J,
        "support_estimate": asdict(est),
        "moment_proxy": proxy,
        "moment_kmax": args.kmax,
        "mc": asdict(mc),
    }
    lines = [
        f"profile: {desc}",
        f"moment proxy    {proxy:.4f}   (kmax = {args.kmax})",
        f"mc mean         {mc.mean:.4f} +/- {mc.std:.4f}   "
        f"({len(mc.per_trial)} trials, {mc.failures} failures)",
        f"support edge    {est.value:.4f}" + ("" if est.found else "   (not found)"),
        f"improved bound  {rep.improved_bound:.4f}   (w_c = {rep.w_c:.4f}, J = {rep.J})",
        f"trivial bound   {rep.trivial_bound:.4f}",
    ]
    if desc.get("profile") == "gram":
        note = ("input was linearized from a rectangular matrix: the numbers "
                "above control its largest singular value, so square them to "
                "bound the largest eigenvalue of the Gram matrix")
        payload["note"] = note
        lines.append("note: " + note)
    _emit(payload, lines)
    return 0


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
    _qve_flags(q)
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
    r.add_argument("--kmax", type=int, default=100,
                   help="depth of the moment proxy (default 100)")
    _qve_flags(r)
    _mc_flags(r)
    r.set_defaults(func=cmd_report)
    return p


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
