"""Dyck paths, plane trees, vertex splitting, and run statistics.

A Dyck path of length 2k is a +-1 step sequence whose partial sums stay
nonnegative and end at zero.  Plane (ordered, rooted) trees with k edges
are in bijection with these paths via the clockwise boundary walk: each
edge is traversed once downward-to-upward (an up step) and once back (a
down step).

Everything in this module is exact: paths and trees are immutable
hashable values, probabilities can be requested as Fractions, and the
enumeration routines are exhaustive for small sizes (guarded, since the
counts grow like 4^k).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from specbound.errors import InputError


class SizeGuardError(InputError):
    """A combinatorial size limit was exceeded."""


class InvalidVertexError(InputError):
    """A split was requested at a vertex where splitting is undefined."""


_ENUMERATION_LIMIT = 10


def catalan(k: int) -> int:
    """Number of Dyck paths of length 2k (and of plane trees with k edges)."""
    if k < 0:
        raise InputError(f"k must be nonnegative, got {k}")
    return math.comb(2 * k, k) // (k + 1)


@dataclass(frozen=True)
class DyckPath:
    """Nonnegative +-1 walk returning to zero, stored by its steps."""

    steps: tuple

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        h = 0
        for s in self.steps:
            if s not in (1, -1):
                raise InputError(f"steps must be +-1, got {s!r}")
            h += s
            if h < 0:
                raise InputError("path dips below zero")
        if h != 0:
            raise InputError(f"path must end at height 0, ends at {h}")

    @property
    def k(self) -> int:
        return len(self.steps) // 2

    @property
    def heights(self) -> tuple:
        return tuple(itertools.accumulate(self.steps, initial=0))

    @classmethod
    def from_brackets(cls, word: str) -> "DyckPath":
        table = {"(": 1, ")": -1}
        try:
            return cls(tuple(table[c] for c in word))
        except KeyError as exc:
            raise InputError(f"invalid bracket character {exc.args[0]!r}") from None

    def to_brackets(self) -> str:
        return "".join("(" if s == 1 else ")" for s in self.steps)


@dataclass(frozen=True)
class PlaneTree:
    """Rooted tree with significant child order; a leaf has no children."""

    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        for c in self.children:
            if not isinstance(c, PlaneTree):
                raise InputError(f"children must be PlaneTree, got {type(c).__name__}")

    @property
    def edge_count(self) -> int:
        return len(self.children) + sum(c.edge_count for c in self.children)


@dataclass(frozen=True)
class Forest:
    """Ordered collection of plane trees; every component root is a root.

    The component order matters for vertex addressing and mirrors how new
    components are inserted next to their origin during splitting.
    """

    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        for c in self.components:
            if not isinstance(c, PlaneTree):
                raise InputError(f"components must be PlaneTree, got {type(c).__name__}")

    @property
    def edge_count(self) -> int:
        return sum(c.edge_count for c in self.components)

    def vertices(self):
        """Yield (component_index, path) addresses in depth-first order."""
        def walk(tree, path):
            yield path
            for i, child in enumerate(tree.children):
                yield from walk(child, path + (i,))

        for ci, comp in enumerate(self.components):
            for path in walk(comp, ()):
                yield (ci, path)


def enumerate_dyck(k: int) -> list:
    """All Dyck paths of length 2k, exhaustively and without duplicates."""
    if k < 0:
        raise InputError(f"k must be nonnegative, got {k}")
    if k > _ENUMERATION_LIMIT:
        raise SizeGuardError(
            f"enumeration is limited to k <= {_ENUMERATION_LIMIT}, got {k}"
        )
    out = []
    steps = []

    def rec(ups, downs):
        if ups == k and downs == k:
            out.append(DyckPath(tuple(steps)))
            return
        if ups < k:
            steps.append(1)
            rec(ups + 1, downs)
            steps.pop()
        if downs < ups:
            steps.append(-1)
            rec(ups, downs + 1)
            steps.pop()

    rec(0, 0)
    return out


def enumerate_trees(k: int) -> list:
    """All plane trees with k edges, in Dyck path enumeration order."""
    return [path_to_tree(p) for p in enumerate_dyck(k)]


def tree_to_path(tree: PlaneTree) -> DyckPath:
    """Clockwise boundary walk: descend into each child (+1), return (-1)."""
    steps = []

    def walk(t):
        for c in t.children:
            steps.append(1)
            walk(c)
            steps.append(-1)

    walk(tree)
    return DyckPath(tuple(steps))


def path_to_tree(path: DyckPath) -> PlaneTree:
    """Inverse of the boundary walk: brackets become nested children."""
    stack = [[]]
    for s in path.steps:
        if s == 1:
            stack.append([])
        else:
            done = PlaneTree(tuple(stack.pop()))
            stack[-1].append(done)
    return PlaneTree(tuple(stack[0]))


@dataclass(frozen=True)
class RunStats:
    """Counts of maximal monotone segments of a +-1 walk.

    ``U[j-1]`` is the number of up-runs of length j for j = 1..J; runs
    longer than J land in the overflow buckets (by their lengths), so no
    step is ever dropped.
    """

    U: tuple
    D: tuple
    up_overflow: tuple = ()
    down_overflow: tuple = ()

    @property
    def total_length(self) -> int:
        runs = sum(j * c for j, c in enumerate(self.U, start=1))
        runs += sum(j * c for j, c in enumerate(self.D, start=1))
        return runs + sum(self.up_overflow) + sum(self.down_overflow)


def run_statistics(path, J: int) -> RunStats:
    """Count maximal up-runs and down-runs of each length 1..J.

    Accepts a DyckPath or any +-1 sequence (free walks included).
    """
    if J < 1:
        raise InputError(f"J must be at least 1, got {J}")
    steps = path.steps if isinstance(path, DyckPath) else tuple(path)
    up = [0] * J
    down = [0] * J
    up_over = []
    down_over = []
    for val, grp in itertools.groupby(steps):
        length = sum(1 for _ in grp)
        if val == 1:
            bucket, over = up, up_over
        elif val == -1:
            bucket, over = down, down_over
        else:
            raise InputError(f"steps must be +-1, got {val!r}")
        if length <= J:
            bucket[length - 1] += 1
        else:
            over.append(length)
    return RunStats(
        U=tuple(up), D=tuple(down),
        up_overflow=tuple(up_over), down_overflow=tuple(down_over),
    )


def run_z_weight(stats: RunStats, z, side: str = "up") -> float:
    """Weight Prod_j z_j^(count of runs of length j) for one run direction.

    Runs longer than len(z) (overflow included) carry weight 1, matching
    the closing term of the root function, which bounds those z values
    by 1.
    """
    if side == "up":
        counts = stats.U
    elif side == "down":
        counts = stats.D
    else:
        raise InputError(f"side must be 'up' or 'down', got {side!r}")
    w = 1.0
    for j, count in enumerate(counts, start=1):
        if count and j <= len(z):
            w *= float(z[j - 1]) ** count
    return w


def _as_forest(f) -> Forest:
    if isinstance(f, Forest):
        return f
    if isinstance(f, PlaneTree):
        return Forest((f,))
    raise InputError(f"expected PlaneTree or Forest, got {type(f).__name__}")


def _descend(tree: PlaneTree, path) -> PlaneTree:
    node = tree
    for i in path:
        if not 0 <= i < len(node.children):
            raise InvalidVertexError(f"no child {i} at this vertex (path {path})")
        node = node.children[i]
    return node


def _rebuild(tree: PlaneTree, path, replacement: PlaneTree) -> PlaneTree:
    if not path:
        return replacement
    i = path[0]
    kids = list(tree.children)
    kids[i] = _rebuild(kids[i], path[1:], replacement)
    return PlaneTree(tuple(kids))


def split_vertex(f, path, mode: str, component: int = 0) -> Forest:
    """Split the vertex at ``path`` inside one forest component.

    complete mode detaches every child to a fresh root copy of the
    vertex; leftmost/rightmost keep that one child attached and detach
    the rest.  New components are inserted directly after the component
    that was split, in child order.  The edge set is untouched, only
    incidences change.  A root that ends up with no edges is removed.
    """
    forest = _as_forest(f)
    if mode not in ("complete", "leftmost", "rightmost"):
        raise InputError(f"unknown split mode {mode!r}")
    if not 0 <= component < len(forest.components):
        raise InvalidVertexError(f"forest has no component {component}")
    comp = forest.components[component]
    path = tuple(path)
    target = _descend(comp, path)
    n_children = len(target.children)
    if n_children == 0:
        raise InvalidVertexError("cannot split a leaf")
    if len(path) == 0 and n_children < 2:
        raise InvalidVertexError("cannot split a root with a single child")
    if mode == "complete":
        kept, detached = (), target.children
    elif mode == "leftmost":
        kept, detached = target.children[:1], target.children[1:]
    else:
        kept, detached = target.children[-1:], target.children[:-1]
    new_comp = _rebuild(comp, path, PlaneTree(kept))
    copies = tuple(PlaneTree((child,)) for child in detached)
    before = forest.components[:component]
    after = forest.components[component + 1:]
    middle = () if new_comp.edge_count == 0 else (new_comp,)
    return Forest(before + middle + copies + after)


def dyck_transition_prob(t: int, h: int, k: int, exact: bool = False):
    """Probability that a uniform Dyck path at time t, height h steps up.

    Defined on the triangle 0 <= h <= min(t, 2k - t) with t < 2k.  With
    ``exact=True`` the result is a Fraction instead of a float.
    """
    if k < 1:
        raise InputError(f"k must be at least 1, got {k}")
    if not (0 <= t < 2 * k):
        raise InputError(f"time {t} outside [0, {2 * k})")
    if not (0 <= h <= min(t, 2 * k - t)):
        raise InputError(f"height {h} unreachable at time {t} for k={k}")
    if exact:
        return Fraction(h + 2, 2 * (h + 1)) * Fraction(2 * k - t - h, 2 * k - t)
    return 0.5 * (h + 2) / (h + 1) * (2 * k - t - h) / (2 * k - t)
