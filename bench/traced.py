"""Run one benchmark request in-process with timing wrappers.

    PYTHONPATH=src python3 bench/traced.py SPANS.json REQUEST_ID cli ARGV...
    PYTHONPATH=src python3 bench/traced.py SPANS.json REQUEST_ID moments ARGV...

The request runs as ``specbound.cli.run(ARGV)`` or as the moments
driver's ``main(ARGV)``, in this process. Before it starts, a timing
wrapper replaces each public name listed in TARGETS at the place its
caller looks it up. Spans (name, start, end, parent, request id, and
counts computed from the arguments or the result) stay in memory and
are written to SPANS.json when the request has ended. The request's
stdout is passed through unchanged, so the caller can check it.

A name missing from the measured code is recorded as absent instead of
failing the run, so the benchmark keeps working when a later change
removes or renames a function.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import time
from pathlib import Path


def _moment_counts(bound, result):
    kmax = bound.arguments["kmax"]
    n = bound.arguments["s"].n
    matvecs = kmax * (kmax + 1) // 2
    return {"moment_matvecs": matvecs, "moment_bytes": matvecs * 8 * n * n}


def _norm_counts(bound, result):
    # one matvec for |S| plus one per term of the sequence
    return {"norm_sequence_matvecs": bound.arguments["J"] + 1}


def _density_counts(bound, result):
    return {"density_scan_pts": len(result)}


def _support_counts(bound, result):
    # grid points from the top of the grid down to the returned edge:
    # the fewest the top-down scan must converge to return that edge
    if not result.found:
        return {"estimate_support_grid_pts": int(result.grid_top / result.grid_step) + 1}
    pts = round((result.grid_top - result.value) / result.grid_step) + 1
    return {"estimate_support_grid_pts": int(pts)}


def _power_counts(bound, result):
    return {"power_iters": int(result.iterations)}


# (module, attribute, span name, counter). Names imported into the
# calling module are wrapped there, because that is where the caller
# looks them up.
TARGETS = {
    "cli": [
        ("specbound.cli", "resolve_profile", "linalg.resolve_profile", None),
        ("specbound.cli", "support_bound", "bounds.support_bound", None),
        ("specbound.cli", "estimate_support", "qve.estimate_support", _support_counts),
        ("specbound.cli", "density_scan", "qve.density_scan", _density_counts),
        ("specbound.cli", "moment_recursion", "qve.moment_recursion", _moment_counts),
        ("specbound.cli", "support_from_moments", "qve.support_from_moments", None),
        ("specbound.cli", "mc_experiment", "montecarlo.mc_experiment", None),
    ],
    "moments": [
        ("moments_driver", "resolve_profile", "linalg.resolve_profile", None),
        ("moments_driver", "support_bound", "bounds.support_bound", None),
        ("moments_driver", "moment_recursion", "qve.moment_recursion", _moment_counts),
        ("moments_driver", "support_from_moments", "qve.support_from_moments", None),
    ],
    "inner": [
        ("specbound.bounds", "norm_sequence", "linalg.norm_sequence", _norm_counts),
        ("specbound.bounds", "critical_w", "bounds.critical_w", None),
        ("specbound.qve", "solve_qve", "qve.solve_qve", None),
        ("specbound.montecarlo", "sample_matrix", "montecarlo.sample_matrix", None),
        ("specbound.montecarlo", "spectral_radius", "montecarlo.spectral_radius",
         _power_counts),
    ],
}


class Tracer:
    """Collects nested spans for one request."""

    def __init__(self, request_id: str):
        self.request_id = request_id
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[int] = []

    def call(self, name, fn, args=(), kwargs=None, counter=None, signature=None):
        kwargs = kwargs or {}
        span = {"name": name, "request": self.request_id,
                "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = counter(bound, result)
            except (AttributeError, KeyError, TypeError, ValueError):
                self.absent.append(f"{name}:counts")
        return result

    def attach(self, module, attr, name, counter=None):
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.absent.append(name)
            return
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter, signature)

        setattr(module, attr, wrapper)


def main(argv: list[str]) -> int:
    spans_path, request_id, kind, *rest = argv
    tracer = Tracer(request_id)
    for group in (kind, "inner"):
        for module_name, attr, name, counter in TARGETS[group]:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                tracer.absent.append(name)
                continue
            tracer.attach(module, attr, name, counter)
    if kind == "cli":
        from specbound.cli import run as entry
        root = "cli.run"
    else:
        from moments_driver import main as entry
        root = "driver.main"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tracer.call(root, entry, (rest,))
    out = buf.getvalue()
    sys.stdout.write(out)
    Path(spans_path).write_text(json.dumps({
        "request": request_id,
        "exit": code,
        "json_bytes": len(out.encode()),
        "absent": tracer.absent,
        "spans": tracer.spans,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
