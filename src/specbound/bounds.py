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
exact up to a bracket of width 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .linalg import NormSequence, VarianceMatrix, norm_sequence

__all__ = ["root_function", "critical_w", "support_bound", "BoundReport"]

_BRACKET = 1e-12


def root_function(w: float, ns: NormSequence) -> float:
    """Evaluate phi at w for the given norm sequence.

    Defined for 0 <= w < 2; the geometric closing term diverges at 2.
    """
    if not 0.0 <= w < 2.0:
        raise InputError(f"root function is defined on [0, 2), got w={w}")
    z = ns.z
    x = w / 2.0
    J = len(z)
    head = 1.0 + float((x ** np.arange(1, J + 1)) @ z)
    tail = x ** (J + 1) / (1.0 - x)
    return 1.0 - x * (head + tail)


def critical_w(ns: NormSequence) -> float:
    """Locate the root of phi by bisection on [0, 2).

    The result is the midpoint of a bracket of width at most 1e-12,
    reached after 41 halvings of [0, 2).  The bracket always holds the
    root: NormSequence pins z_1 = 1 and every z_j > 0, so at the top
    x = w/2 = 1 - 5e-15 phi is at most 1 - x - x^2 < 0.
    """
    lo, hi = 0.0, 2.0 - 1e-14
    while hi - lo > _BRACKET:
        mid = (lo + hi) / 2.0
        if root_function(mid, ns) > 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


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


def support_bound(s: VarianceMatrix, J: int = 50) -> BoundReport:
    """Compute trivial and improved support bounds for a profile.

    ``J`` is the number of norm sequence terms used; deeper sequences can
    only tighten the improved bound.
    """
    ns = norm_sequence(s, J)
    wc = critical_w(ns)
    trivial = 2.0 * math.sqrt(ns.norm_s)
    return BoundReport(
        n=s.n,
        J=ns.J,
        norm_s=ns.norm_s,
        w_c=wc,
        trivial_bound=trivial,
        improved_bound=trivial / wc,
        z=np.array(ns.z),
    )
