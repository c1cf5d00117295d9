"""Values of labeled plane trees and forests under a variance profile.

The value of a tree rooted at label x is the sum, over all labelings of
the non-root vertices, of the product of profile entries along the
edges.  For forests the per-component root labels are maximized instead
of summed, and the component values multiply.

Values are computed by leaf-to-root contraction: a leaf contributes the
all-ones vector, and each vertex multiplies together S times the vectors
of its children, entrywise.  That turns the naive N^(vertices-1) label
sum into a handful of matrix-vector products.

These values are what the support bound actually controls: every tree
with k edges satisfies val <= |S|^k * z^(run statistics of its path),
once for up-runs and once for down-runs.  ``chopping_bound_check``
verifies both inequalities, plus monotonicity of the value under vertex
splitting, exhaustively for small k.
"""

from __future__ import annotations

import numpy as np

from _dyck import (
    Forest,
    InvalidVertexError,
    PlaneTree,
    SizeGuardError,
    enumerate_trees,
    run_statistics,
    run_z_weight,
    split_vertex,
    tree_to_path,
)
from specbound.errors import InputError
from specbound.linalg import VarianceMatrix, norm_sequence


def _guard_contraction(s: VarianceMatrix, k: int):
    # contraction is O(k N^2); the guard only exists to keep exhaustive
    # callers (which loop over Catalan(k) trees) honest about cost
    if s.n > 10 and k > 6:
        raise SizeGuardError(
            f"tree value guarded to N <= 10 or k <= 6, got N={s.n}, k={k}"
        )


def tree_val_vector(s: VarianceMatrix, tree: PlaneTree) -> np.ndarray:
    """Value of the tree for every choice of root label, as a vector."""
    _guard_contraction(s, tree.edge_count)
    entries = s.entries

    def contract(t: PlaneTree) -> np.ndarray:
        v = np.ones(s.n)
        for child in t.children:
            v = v * (entries @ contract(child))
        return v

    return contract(tree)


def forest_val(s: VarianceMatrix, f) -> float:
    """Product over components of the maximal root value."""
    if isinstance(f, PlaneTree):
        f = Forest((f,))
    out = 1.0
    for comp in f.components:
        out *= float(tree_val_vector(s, comp).max())
    return out


def chopping_bound_check(s: VarianceMatrix, k: int) -> dict:
    """Exhaustively verify the run-weighted bounds on all trees with k edges.

    For every tree the value must stay below |S|^k times the z-weight of
    its path's up-runs, and likewise for down-runs; additionally every
    single vertex split must not decrease the forest value.  Returns a
    JSON-ready report listing any violations and the largest ratio of a
    value to its bound (at most 1 when everything holds).
    """
    if k > 6:
        raise SizeGuardError(f"exhaustive check guarded to k <= 6, got k={k}")
    if s.n > 8:
        raise SizeGuardError(f"exhaustive check guarded to N <= 8, got N={s.n}")
    if k < 0:
        raise InputError(f"k must be nonnegative, got {k}")
    ns = norm_sequence(s, max(k, 1))
    trees = enumerate_trees(k)
    violations = []
    max_slack = 0.0
    norm_pow = ns.norm_s**k
    for tree in trees:
        word = tree_to_path(tree).to_brackets()
        val = forest_val(s, tree)
        stats = run_statistics(tree_to_path(tree), J=max(k, 1))
        for side in ("up", "down"):
            bound = norm_pow * run_z_weight(stats, ns.z, side)
            slack = val / bound
            max_slack = max(max_slack, slack)
            if slack > 1 + 1e-9:
                violations.append(
                    {"tree": word, "kind": f"{side}-run bound",
                     "value": val, "bound": bound}
                )
        base = Forest((tree,))
        for comp, path in base.vertices():
            for mode in ("complete", "leftmost", "rightmost"):
                try:
                    after = split_vertex(base, path, mode=mode, component=comp)
                except InvalidVertexError:
                    continue
                if val > forest_val(s, after) * (1 + 1e-12):
                    violations.append(
                        {"tree": word, "kind": f"{mode} split monotonicity",
                         "vertex": list(path), "component": comp}
                    )
    if not trees:
        max_slack = 1.0
    return {
        "k": k,
        "n_trees": len(trees),
        "violations": violations,
        "max_slack": max_slack,
    }
