import itertools
import json

import numpy as np
import pytest

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
from _oracles import naive_tree_val, tree_val
from _treeval import chopping_bound_check, forest_val, tree_val_vector
from specbound.errors import InputError
from specbound.linalg import VarianceMatrix, norm_sequence, wigner_profile


def leaf():
    return PlaneTree(())


def chain(n):
    t = leaf()
    for _ in range(n):
        t = PlaneTree((t,))
    return t


def star(n):
    return PlaneTree(tuple(leaf() for _ in range(n)))


def branching_tree():
    c = PlaneTree((leaf(), leaf()))
    b = PlaneTree((c, leaf()))
    return PlaneTree((b,))


def seeded_profile(n, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    a = rng.random((n, n))
    return VarianceMatrix((a + a.T) / 2 * scale)


def corner_profile(n=8):
    """Small profile with the same multiplicative structure as the large
    exponential test profile (top corner, renormalized to size n)."""
    v = np.exp(np.arange(n) / 500)
    return VarianceMatrix(np.outer(v, v) / n)


# ------------------------------------------------------------ single trees

def test_single_edge_value_is_row_sum():
    s = seeded_profile(5, seed=1)
    vec = tree_val_vector(s, chain(1))
    np.testing.assert_allclose(vec, s.entries @ np.ones(5), rtol=1e-14)
    assert tree_val(s, chain(1), 2) == pytest.approx(s.entries[2].sum())


def test_empty_tree_value_is_one():
    s = seeded_profile(4)
    np.testing.assert_array_equal(tree_val_vector(s, leaf()), np.ones(4))


def test_constant_profile_values_are_one():
    # rows summing to one make every contraction step a no-op
    s = wigner_profile(8)
    for t in enumerate_trees(4):
        np.testing.assert_array_equal(tree_val_vector(s, t), np.ones(8))
    for t in enumerate_trees(6):
        assert tree_val(s, t, 3) == pytest.approx(1.0, abs=1e-12)


def test_five_edge_tree_against_explicit_nested_sum():
    """Spot-check the contraction against the written-out quintuple sum
    sum_yzuvw S_xy S_yz S_zu S_zv S_yw for the five-edge branching tree."""
    s = seeded_profile(5, seed=7)
    a = s.entries
    n = 5
    expected = np.zeros(n)
    for x, y, z, u, v, w in itertools.product(range(n), repeat=6):
        expected[x] += a[x, y] * a[y, z] * a[z, u] * a[z, v] * a[y, w]
    got = tree_val_vector(s, branching_tree())
    np.testing.assert_allclose(got, expected, rtol=1e-12)


@pytest.mark.parametrize("k", range(5))
def test_contraction_matches_naive_labeling_oracle(k):
    s = seeded_profile(4, seed=k + 10)
    for t in enumerate_trees(k):
        for x in range(4):
            assert tree_val(s, t, x) == pytest.approx(
                naive_tree_val(s, t, x), rel=1e-12
            )


def test_naive_oracle_size_guard():
    with pytest.raises(SizeGuardError):
        naive_tree_val(seeded_profile(6), chain(1), 0)
    with pytest.raises(SizeGuardError):
        naive_tree_val(seeded_profile(3), chain(6), 0)


def test_tree_val_size_guard_and_domain():
    big = seeded_profile(11)
    with pytest.raises(SizeGuardError):
        tree_val(big, chain(7), 0)
    # large N with small k is fine, and vice versa
    assert tree_val(big, chain(6), 0) > 0
    assert tree_val(seeded_profile(4), chain(9), 0) > 0
    with pytest.raises(InputError):
        tree_val(seeded_profile(4), chain(1), 7)


# ---------------------------------------------------------------- forests

def test_forest_val_single_tree_is_max_over_roots():
    s = seeded_profile(6, seed=3)
    t = branching_tree()
    assert forest_val(s, t) == pytest.approx(tree_val_vector(s, t).max())


def test_forest_val_two_components_product_formula():
    # chain of two edges times a single edge, written out directly
    s = seeded_profile(5, seed=4)
    a = s.entries
    f = Forest((chain(2), chain(1)))
    expected = (a @ (a @ np.ones(5))).max() * (a @ np.ones(5)).max()
    assert forest_val(s, f) == pytest.approx(expected, rel=1e-13)


def test_chain_value_equals_power_norm():
    s = seeded_profile(7, seed=5)
    ns = norm_sequence(s, 6)
    for n in range(1, 7):
        val = forest_val(s, chain(n))
        power_norm = np.abs(np.linalg.matrix_power(s.entries, n)).sum(axis=1).max()
        assert val == pytest.approx(power_norm, rel=1e-11)
        assert val == pytest.approx(ns.z[n - 1] * ns.norm_s**n, rel=1e-10)
    assert forest_val(wigner_profile(9), chain(4)) == pytest.approx(1.0)


def test_forest_val_empty_forest_is_one():
    assert forest_val(seeded_profile(3), Forest(())) == 1.0


# ---------------------------------------------------- split monotonicity

@pytest.mark.parametrize("profile", ["corner", "seeded", "wigner"])
def test_value_never_decreases_under_splitting(profile):
    s = {
        "corner": corner_profile(6),
        "seeded": seeded_profile(5, seed=8),
        "wigner": wigner_profile(5),
    }[profile]
    for t in enumerate_trees(5):
        f = Forest((t,))
        base = forest_val(s, f)
        for comp, path in f.vertices():
            for mode in ("complete", "leftmost", "rightmost"):
                try:
                    g = split_vertex(f, path, mode=mode, component=comp)
                except InvalidVertexError:
                    continue
                assert forest_val(s, g) * (1 + 1e-12) >= base


# ------------------------------------------------------- chopping bounds

def test_run_weight_bounds_hold_for_every_small_tree():
    s = corner_profile(8)
    ns = norm_sequence(s, 6)
    for k in range(1, 6):
        for t in enumerate_trees(k):
            val = forest_val(s, t)
            stats = run_statistics(tree_to_path(t), J=k)
            up_bound = ns.norm_s**k * run_z_weight(stats, ns.z, "up")
            down_bound = ns.norm_s**k * run_z_weight(stats, ns.z, "down")
            assert val <= up_bound * (1 + 1e-9)
            assert val <= down_bound * (1 + 1e-9)


def test_star_weight_is_trivial():
    # the flat path ()()...() has only length-one runs, so no gain
    t = star(5)
    stats = run_statistics(tree_to_path(t), J=5)
    assert stats.U == (5, 0, 0, 0, 0)
    assert stats.D == (5, 0, 0, 0, 0)
    z = norm_sequence(corner_profile(8), 5).z
    assert run_z_weight(stats, z, "up") == 1.0
    assert run_z_weight(stats, z, "down") == 1.0


def test_linear_chain_weight_uses_deep_norm():
    stats = run_statistics(tree_to_path(chain(4)), J=4)
    assert stats.U == (0, 0, 0, 1)
    z = np.array([1.0, 0.9, 0.8, 0.7])
    assert run_z_weight(stats, z, "up") == pytest.approx(0.7)


def test_chopping_report_clean_on_corner_profile():
    rep = chopping_bound_check(corner_profile(8), k=5)
    assert rep["k"] == 5
    assert rep["n_trees"] == 42
    assert rep["violations"] == []
    assert 0 < rep["max_slack"] <= 1 + 1e-9
    json.dumps(rep)


def test_chopping_report_constant_profile_slack_is_tight():
    rep = chopping_bound_check(wigner_profile(6), k=4)
    assert rep["violations"] == []
    assert rep["max_slack"] == pytest.approx(1.0, abs=1e-11)


def test_chopping_report_guards():
    with pytest.raises(SizeGuardError):
        chopping_bound_check(corner_profile(8), k=7)
    with pytest.raises(SizeGuardError):
        chopping_bound_check(seeded_profile(9), k=4)


def test_chopping_report_seeded_profiles():
    for seed in (0, 1, 2):
        rep = chopping_bound_check(seeded_profile(7, seed=seed), k=4)
        assert rep["violations"] == []
