"""Deterministic spectral support bounds from the norm sequence.

The baseline bound for the support of the limiting spectral measure of a
variance profile S is ``2 sqrt(|S|)``.  It is improved by the factor
``1 / w_c`` where ``w_c`` is the unique root in [1, 2) of

    phi(w) = 1 - (w/2) * ( sum_{j=0}^{J} (w/2)^j z_j
                           + (w/2)^{J+1} / (1 - w/2) ),

with z_0 = 1 and z_j the normalized norm sequence of S.  The closing
term replaces every z_j beyond the computed horizon J by its upper bound
1, so the root is always a valid (conservative) improvement factor and
grows toward its limit as J increases.

phi is strictly decreasing on [0, 2) with phi(0) = 1, phi(1) >= 0 and
phi(w) -> -infinity as w -> 2, which makes bisection both safe and
exact up to the requested bracket width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ToleranceError
from .linalg import NormSequence, VarianceMatrix, norm_sequence

__all__ = ["root_function", "critical_w", "support_bound", "BoundReport"]

_MAX_BISECT = 500


def root_function(w: float, ns: NormSequence) -> float:
    """Evaluate phi at w for the given norm sequence.

    Defined for 0 <= w < 2; the geometric closing term diverges at 2.
    """
    if not 0.0 <= w < 2.0:
        raise DomainError(f"root function is defined on [0, 2), got w={w}")
    z = ns.z
    x = w / 2.0
    J = len(z)
    head = 1.0 + float((x ** np.arange(1, J + 1)) @ z)
    tail = x ** (J + 1) / (1.0 - x)
    return 1.0 - x * (head + tail)


def critical_w(ns: NormSequence, tol: float = 1e-12) -> float:
    """Locate the root of phi by bisection on [0, 2).

    The result is the midpoint of a bracket of width at most ``tol``.
    """
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    lo, hi = 0.0, 2.0 - 1e-14
    if root_function(hi, ns) >= 0.0:
        raise ToleranceError("no sign change on [0, 2); norm sequence is invalid")
    for _ in range(_MAX_BISECT):
        if hi - lo <= tol:
            return (lo + hi) / 2.0
        mid = (lo + hi) / 2.0
        if root_function(mid, ns) > 0.0:
            lo = mid
        else:
            hi = mid
    raise ToleranceError(
        f"bisection bracket stalled at width {hi - lo:g} (requested {tol:g})"
    )


@dataclass(frozen=True)
class BoundReport:
    """Everything the bound computation produced, ready to serialize."""

    n: int
    J: int
    norm_s: float
    w_c: float
    trivial_bound: float
    improved_bound: float
    z: np.ndarray = field(repr=False)
    tol: float = 1e-12

    @classmethod
    def from_sequence(cls, ns: NormSequence, n: int, tol: float = 1e-12) -> "BoundReport":
        wc = critical_w(ns, tol=tol)
        trivial = 2.0 * math.sqrt(ns.norm_s)
        return cls(
            n=n,
            J=ns.J,
            norm_s=ns.norm_s,
            w_c=wc,
            trivial_bound=trivial,
            improved_bound=trivial / wc,
            z=np.array(ns.z),
            tol=tol,
        )


def support_bound(s: VarianceMatrix, J: int = 50, tol: float = 1e-12) -> BoundReport:
    """Compute trivial and improved support bounds for a profile.

    ``J`` is the number of norm sequence terms used; deeper sequences can
    only tighten the improved bound.
    """
    ns = norm_sequence(s, J)
    return BoundReport.from_sequence(ns, n=s.n, tol=tol)
