"""Brute-force evaluators used only as test oracles.

Each one computes a quantity of the paper's proof the slow, literal
way, so that tests can compare it with the fast form in ``_treeval``
and ``_walks``:

* ``naive_tree_val`` sums over every labeling of a tree, against the
  leaf-to-root contraction ``tree_val_vector``;
* ``stopped_walk_series_exhaustive`` enumerates all 2^n walks, against
  the closed form ``stopped_walk_generating_function``;
* ``pbot_probability`` evaluates the floor-walk probability both ways
  and insists they agree.

All are guarded to tiny sizes.
"""

import itertools

from _dyck import PlaneTree, SizeGuardError, run_statistics, run_z_weight
from _treeval import tree_val_vector
from _walks import _prefix, floor_walk_closed_form, floor_walk_step_product
from specbound.errors import DomainError, InputError, ToleranceError
from specbound.linalg import NormSequence, VarianceMatrix

_SERIES_LIMIT = 20


def tree_val(s: VarianceMatrix, tree: PlaneTree, x: int) -> float:
    """Value of the tree with the root label fixed to x."""
    if not 0 <= x < s.n:
        raise InputError(f"root label {x} outside [0, {s.n})")
    return float(tree_val_vector(s, tree)[x])


def naive_tree_val(s: VarianceMatrix, tree: PlaneTree, x: int) -> float:
    """Literal sum over all labelings; exponential cost."""
    k = tree.edge_count
    if k > 5 or s.n > 5:
        raise SizeGuardError(
            f"naive evaluation guarded to k <= 5 and N <= 5, got k={k}, N={s.n}"
        )
    if not 0 <= x < s.n:
        raise InputError(f"root label {x} outside [0, {s.n})")
    # collect edges as (parent index, child index) over a preorder listing
    edges = []

    def walk(t, my_id):
        for child in t.children:
            child_id = len(edges) + 1
            edges.append((my_id, child_id))
            walk(child, child_id)

    walk(tree, 0)
    entries = s.entries
    total = 0.0
    for labels in itertools.product(range(s.n), repeat=k):
        full = (x,) + labels
        prod = 1.0
        for a, b in edges:
            prod *= entries[full[a], full[b]]
        total += prod
    return total


def pbot_probability(h: int, omega) -> float:
    """Floor-walk probability, computed both ways and cross-checked."""
    a = floor_walk_step_product(h, omega)
    b = floor_walk_closed_form(h, omega)
    if abs(a - b) > 1e-14:
        raise ToleranceError(
            f"step product {a!r} and closed form {b!r} disagree"
        )
    return b


def stopped_walk_series_exhaustive(
    ns: NormSequence, J: int, w: float, n_max: int = 14
) -> float:
    """Ground truth for the generating function by full enumeration.

    Sums (1 - w) w^n E[z-weight] over walk lengths n = 0..n_max, where
    the expectation runs over all 2^n equally likely +-1 walks.  For
    0 <= w < 1 the truncation error is at most w^(n_max+1) / (1 - w).
    """
    sub = _prefix(ns, J)
    if n_max > _SERIES_LIMIT:
        raise SizeGuardError(
            f"enumeration is limited to n_max <= {_SERIES_LIMIT}, got {n_max}"
        )
    if w < 0:
        raise DomainError(f"w must be nonnegative, got {w}")
    z = sub.z
    total = 1.0  # empty walk
    for n in range(1, n_max + 1):
        acc = 0.0
        for walk in itertools.product((1, -1), repeat=n):
            acc += run_z_weight(run_statistics(walk, J), z, "up")
        total += w**n * acc / 2**n
    return (1.0 - w) * total
