"""Random walks near a floor and the stopped-walk generating function.

A +-1 walk started at height h above a reflecting floor steps up with
probability (1/2)(g+2)/(g+1) when standing at height g.  The probability
of a whole step sequence telescopes to the closed form

    (1/2)^n * (h + 1 + sum of steps) / (h + 1),

which this module evaluates both ways: once as a product of per-step
factors and once through the telescoped formula.

Weighting the up-runs of a free simple walk by the norm sequence z and
stopping the walk at a geometric time with parameter w gives a
generating function with the closed form

    (1 - w) * A(w) / (1 - (w/2) * A(w)),
    A(w) = sum_j (w/2)^j z_j   (z_j := 1 beyond J),

whose denominator is exactly the root function of the bound module: its
smallest positive pole is the critical w.
"""

from __future__ import annotations

import numpy as np

from specbound.bounds import critical_w, root_function
from specbound.errors import DomainError, InputError
from specbound.linalg import NormSequence


def _validated_steps(h: int, omega) -> tuple:
    """Check that every height the walk steps FROM is nonnegative.

    The final height may be -1: the step into it has probability zero,
    so such walks are legal inputs with value 0.
    """
    steps = tuple(omega)
    for s in steps:
        if s not in (1, -1):
            raise InputError(f"steps must be +-1, got {s!r}")
    if not steps:
        raise InputError("the walk must contain at least one step")
    g = h
    for i, s in enumerate(steps):
        if g < 0:
            raise DomainError(
                f"walk height {g} below the floor before step {i + 1}"
            )
        g += s
    return steps


def floor_walk_step_product(h: int, omega) -> float:
    """Probability of the step sequence, one factor per step."""
    steps = _validated_steps(h, omega)
    prob = 1.0
    g = h
    for s in steps:
        up = 0.5 * (g + 2) / (g + 1)
        prob *= up if s == 1 else 1.0 - up
        g += s
    return prob


def floor_walk_closed_form(h: int, omega) -> float:
    """Telescoped probability (1/2)^n (h + 1 + sum omega) / (h + 1)."""
    steps = _validated_steps(h, omega)
    n = len(steps)
    return 0.5**n * (h + 1 + sum(steps)) / (h + 1)


def _prefix(ns: NormSequence, J: int) -> NormSequence:
    if not 1 <= J <= ns.J:
        raise InputError(f"J must be in [1, {ns.J}], got {J}")
    return NormSequence(norm_s=ns.norm_s, z=np.array(ns.z[:J]))


def stopped_walk_generating_function(ns: NormSequence, J: int, w: float) -> float:
    """Closed form of sum_n w^n E[z-weight of up-runs], times (1 - w).

    Only the first J norm sequence values are used; deeper runs carry
    weight 1.  Defined for 0 <= w strictly below the denominator's root.
    """
    sub = _prefix(ns, J)
    # the denominator is the pole detector, and it rejects w outside
    # [0, 2); critical_w only names the pole in the message
    denom = root_function(w, sub)
    if denom <= 0.0:
        raise DomainError(f"w={w} is at or beyond the pole near "
                          f"w={critical_w(sub):.12g}")
    x = w / 2.0
    series = 1.0 + float((x ** np.arange(1, J + 1)) @ sub.z)
    series += x ** (J + 1) / (1.0 - x)
    return (1.0 - w) * series / denom

