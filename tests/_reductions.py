"""Exact spectral edges of profiles that reduce to a scalar equation.

Used only as a test oracle.  For a rank-one profile S = v v^T / N with
v >= 0, above the edge tau the positive solution of the QVE at the real
point tau, 1/u_x + (S u)_x = tau, is

    u_x = 1 / (tau - v_x t),     t = mean(v u),

so with a = t / tau in (0, 1 / max v) the self-consistency t = mean(v u)
reads

    tau^2 = h(a) = mean(v / (1 - v a)) / a.

Each term v / (a (1 - v a)) is the reciprocal of a positive concave
function of a, so h is convex and grows without bound at both ends of
the interval.  The edge is the fold of the equation, the smallest tau it
admits: tau^2 = min h, reached where h'(a) = 0, that is where

    mean(v (2 v a - 1) / (1 - v a)^2) = 0.

One bisection on the sign of that mean finds the fold in O(N) per step.
h is flat at its minimum, so the edge carries the square of the
bisection's error in a.  For v = ones the fold is a = 1/2 and the edge
is 2, the semicircle's.
"""

import math

import numpy as np


def rank_one_edge(v) -> float:
    """Top of the spectrum of the rank-one profile S = v v^T / len(v).

    ``v`` is a nonnegative vector with a positive entry.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or not (v >= 0).all() or not v.max() > 0:
        raise ValueError("v must be a nonnegative vector with a positive entry")
    lo, hi = 0.0, 1.0 / v.max()
    while True:
        a = 0.5 * (lo + hi)
        if not lo < a < hi:
            break
        if np.mean(v * (2 * v * a - 1) / (1 - v * a) ** 2) < 0:
            lo = a
        else:
            hi = a
    return math.sqrt(np.mean(v / (1 - v * a)) / a)
