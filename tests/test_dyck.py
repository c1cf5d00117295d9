import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from _dyck import (
    DyckPath,
    Forest,
    InvalidVertexError,
    PlaneTree,
    SizeGuardError,
    catalan,
    dyck_transition_prob,
    enumerate_dyck,
    enumerate_trees,
    path_to_tree,
    run_statistics,
    split_vertex,
    tree_to_path,
)
from specbound.errors import DomainError, InputError

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


def leaf():
    return PlaneTree(())


def chain(n):
    """Path graph with n edges, rooted at one end."""
    t = leaf()
    for _ in range(n):
        t = PlaneTree((t,))
    return t


def star(n):
    return PlaneTree(tuple(leaf() for _ in range(n)))


def branching_tree():
    """Five-edge tree: root - b, b - (c, f), c - (d, e).

    Its clockwise boundary walk reads ((()())()).
    """
    c = PlaneTree((leaf(), leaf()))
    b = PlaneTree((c, leaf()))
    return PlaneTree((b,))


# -------------------------------------------------------------- enumeration

def test_catalan_values():
    assert [catalan(k) for k in range(11)] == CATALAN


def test_enumerate_dyck_counts():
    for k in range(8):
        paths = enumerate_dyck(k)
        assert len(paths) == CATALAN[k]
        assert len(set(p.steps for p in paths)) == len(paths)


def test_enumerate_dyck_k10_hits_catalan():
    assert len(enumerate_dyck(10)) == 16796


def test_enumerate_dyck_guards():
    with pytest.raises(SizeGuardError):
        enumerate_dyck(11)
    with pytest.raises(InputError):
        enumerate_dyck(-1)


def test_enumerate_dyck_k0_single_empty_path():
    paths = enumerate_dyck(0)
    assert len(paths) == 1
    assert paths[0].steps == ()


def test_path_invariants_enforced():
    with pytest.raises(InputError):
        DyckPath((1, 1))           # does not return to zero
    with pytest.raises(InputError):
        DyckPath((-1, 1))          # dips below zero
    with pytest.raises(InputError):
        DyckPath((1, 0))           # steps must be +-1


def test_path_heights():
    p = DyckPath.from_brackets("(()())")
    assert p.heights == (0, 1, 2, 1, 2, 1, 0)
    assert p.k == 3


# ----------------------------------------------------------------- bijection

def test_single_edge_roundtrip():
    p = DyckPath.from_brackets("()")
    t = path_to_tree(p)
    assert t == PlaneTree((leaf(),))
    assert tree_to_path(t).to_brackets() == "()"


def test_branching_tree_brackets():
    assert tree_to_path(branching_tree()).to_brackets() == "((()())())"
    assert path_to_tree(DyckPath.from_brackets("((()())())")) == branching_tree()


@pytest.mark.parametrize("k", range(7))
def test_bijection_roundtrip_exhaustive(k):
    for p in enumerate_dyck(k):
        assert tree_to_path(path_to_tree(p)) == p
    trees = enumerate_trees(k)
    assert len(set(trees)) == CATALAN[k]
    for t in trees:
        assert path_to_tree(tree_to_path(t)) == t


def test_edge_count_matches_path_length():
    for t in enumerate_trees(5):
        assert t.edge_count == 5
        assert tree_to_path(t).k == 5


def test_bracket_string_roundtrip():
    for p in enumerate_dyck(5):
        assert DyckPath.from_brackets(p.to_brackets()) == p
    with pytest.raises(InputError):
        DyckPath.from_brackets("(()")
    with pytest.raises(InputError):
        DyckPath.from_brackets("()x")


# ------------------------------------------------------------ run statistics

def test_run_statistics_branching_example():
    st_ = run_statistics(DyckPath.from_brackets("((()())())"), J=3)
    assert st_.U == (2, 0, 1)
    assert st_.D == (1, 2, 0)
    assert st_.up_overflow == ()
    assert st_.down_overflow == ()


def test_run_statistics_single_pair():
    st_ = run_statistics(DyckPath.from_brackets("()"), J=1)
    assert st_.U == (1,)
    assert st_.D == (1,)


def test_run_statistics_all_up_walk():
    st_ = run_statistics((1, 1, 1, 1, 1), J=5)
    assert st_.U == (0, 0, 0, 0, 1)
    assert st_.D == (0, 0, 0, 0, 0)


def test_run_statistics_overflow_bucket():
    st_ = run_statistics((1, 1, 1, 1, 1, -1, -1), J=3)
    assert st_.U == (0, 0, 0)
    assert st_.up_overflow == (5,)
    assert st_.D == (0, 1, 0)
    assert st_.total_length == 7


def test_run_statistics_accounts_for_every_step():
    for p in enumerate_dyck(6):
        for J in (1, 2, 3, 6):
            st_ = run_statistics(p, J)
            assert st_.total_length == 12
            up = sum(j * c for j, c in enumerate(st_.U, start=1)) + sum(st_.up_overflow)
            down = sum(j * c for j, c in enumerate(st_.D, start=1)) + sum(st_.down_overflow)
            assert up == down == 6


def test_run_statistics_free_walk_mixed():
    st_ = run_statistics((-1, -1, 1, -1, 1, 1), J=4)
    assert st_.U == (1, 1, 0, 0)
    assert st_.D == (1, 1, 0, 0)


def test_up_down_distributions_agree_for_free_walks():
    # mirror symmetry of simple +-1 walks: the histogram of up-run
    # statistics over all 2^n walks equals the histogram of down-run stats
    for n in range(1, 13):
        ups = Counter()
        downs = Counter()
        for walk in itertools.product((1, -1), repeat=n):
            stats = run_statistics(walk, J=n)
            ups[stats.U] += 1
            downs[stats.D] += 1
        assert ups == downs


# ---------------------------------------------------------------- splitting

def test_complete_split_of_star_center():
    for k in (2, 3, 5):
        f = split_vertex(star(k), (), mode="complete")
        assert isinstance(f, Forest)
        assert len(f.components) == k
        assert all(c == chain(1) for c in f.components)
        assert f.edge_count == k


def test_leftmost_then_leftmost_split_gives_linear_forest():
    t = branching_tree()
    f1 = split_vertex(t, (0,), mode="leftmost")
    # b kept its leftmost child c; the right child moved to a new root copy
    assert f1.components == (
        PlaneTree((PlaneTree((PlaneTree((leaf(), leaf())),)),)),
        chain(1),
    )
    f2 = split_vertex(f1, (0, 0), mode="leftmost")
    assert f2.components == (chain(3), chain(1), chain(1))
    assert f2.edge_count == 5


def test_rightmost_split_keeps_right_child():
    t = branching_tree()
    f1 = split_vertex(t, (0,), mode="rightmost")
    # b kept only f; c moved with its whole subtree to a copy of b
    assert f1.components == (
        chain(2),
        PlaneTree((PlaneTree((leaf(), leaf())),)),
    )
    f2 = split_vertex(f1, (0,), mode="rightmost", component=1)
    assert f2.components == (chain(2), chain(2), chain(1))


def test_split_preserves_edge_count_on_random_trees():
    import random

    rng = random.Random(0)
    trees = enumerate_trees(8)
    done = 0
    while done < 1000:
        t = rng.choice(trees)
        f = Forest((t,))
        comp, path = rng.choice(list(f.vertices()))
        mode = rng.choice(["complete", "leftmost", "rightmost"])
        try:
            g = split_vertex(f, path, mode=mode, component=comp)
        except InvalidVertexError:
            continue
        assert g.edge_count == f.edge_count
        done += 1


def test_split_invalid_vertices():
    with pytest.raises(InvalidVertexError):
        split_vertex(chain(2), (0, 0), mode="complete")  # leaf
    with pytest.raises(InvalidVertexError):
        split_vertex(chain(2), (), mode="complete")      # root with one child
    with pytest.raises(InvalidVertexError):
        split_vertex(chain(2), (5,), mode="complete")    # no such vertex
    with pytest.raises(InvalidVertexError):
        split_vertex(star(3), (), mode="complete", component=2)
    with pytest.raises(InputError):
        split_vertex(star(3), (), mode="sideways")


def test_split_nonroot_single_child_allowed():
    # an inner vertex with one child has degree two and may be split
    f = split_vertex(chain(3), (0,), mode="complete")
    assert f.components == (chain(1), chain(2))


def test_forest_vertices_enumeration():
    f = Forest((branching_tree(), chain(1)))
    addrs = list(f.vertices())
    assert (0, ()) in addrs
    assert (1, ()) in addrs
    assert (1, (0,)) in addrs
    assert len(addrs) == 8  # six vertices plus two


# ------------------------------------------------------- transition kernel

def test_transition_prob_origin_is_forced_up():
    assert dyck_transition_prob(0, 0, k=4) == 1.0


def test_transition_prob_upper_edge_is_forced_down():
    # on the descending boundary h = 2k - t the path can only go down
    assert dyck_transition_prob(5, 3, k=4) == 0.0


def test_transition_prob_known_value():
    assert dyck_transition_prob(2, 2, 3, exact=True) == Fraction(1, 3)


def test_transition_prob_domain():
    for t, h in [(-1, 0), (2, 3), (6, 1), (7, 0), (3, 4), (0, 1)]:
        with pytest.raises(DomainError):
            dyck_transition_prob(t, h, k=3)


@pytest.mark.parametrize("k", range(1, 7))
def test_transition_prob_matches_exhaustive_counts(k):
    """The closed-form kernel must reproduce the exact conditional
    up-step frequencies of the uniform distribution, in exact rational
    arithmetic, at every reachable (t, h)."""
    paths = enumerate_dyck(k)
    for t in range(2 * k):
        seen = {}
        for p in paths:
            h = p.heights[t]
            tot, up = seen.get(h, (0, 0))
            seen[h] = (tot + 1, up + (1 if p.steps[t] == 1 else 0))
        for h, (tot, up) in seen.items():
            assert dyck_transition_prob(t, h, k, exact=True) == Fraction(up, tot)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 20), data=st.data())
def test_transition_prob_in_unit_interval(k, data):
    t = data.draw(st.integers(0, 2 * k - 1))
    h = data.draw(st.integers(0, min(t, 2 * k - t)))
    p = dyck_transition_prob(t, h, k)
    assert 0.0 <= p <= 1.0
