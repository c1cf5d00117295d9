import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specbound.bounds import critical_w, support_bound
from specbound.errors import InputError, NumericError
from specbound.linalg import (
    VarianceMatrix,
    NormSequence,
    inf_norm,
    norm_sequence,
    gram_linearize,
    wigner_profile,
    exp_profile,
    random_profile,
    load_dense,
    load_matrix,
    resolve_profile,
)
from specbound.montecarlo import McConfig
from specbound.qve import moment_recursion


def dense_norm_sequence(a, J):
    """Oracle: form the powers explicitly and take max absolute row sums."""
    norm = np.abs(a).sum(axis=1).max()
    p = np.eye(a.shape[0])
    out = []
    for j in range(1, J + 1):
        p = p @ a
        out.append(np.abs(p).sum(axis=1).max() / norm**j)
    return norm, np.array(out)


def symmetric_nonneg(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    a = rng.random((n, n))
    return (a + a.T) / 2 * scale


# ---------------------------------------------------------------- inf_norm

def test_inf_norm_constant_profile():
    s = VarianceMatrix(np.full((4, 4), 0.25))
    assert inf_norm(s) == 1.0


def test_inf_norm_identity_pattern():
    s = VarianceMatrix(np.eye(6))
    assert inf_norm(s) == 1.0


def test_inf_norm_exponential_profile():
    s = exp_profile(500)
    # frozen regression, cross-checked against the closed form of the
    # rank-one profile: norm = v_max * sum(v) / N with v_i = e^(i/N)
    assert abs(inf_norm(s) - 4.65678216901128) < 1e-11
    assert abs(2 * np.sqrt(inf_norm(s)) - 4.3159157401466) < 1e-10


def test_inf_norm_raises_when_a_row_sum_overflows():
    s = VarianceMatrix(np.full((2, 2), 1e308))
    assert s.row_sums.tolist() == [np.inf, np.inf]
    with pytest.raises(NumericError) as err:
        inf_norm(s)
    assert str(err.value) == ("max row sum |S| overflows double precision; "
                              "rescale the profile and retry")
    with pytest.raises(NumericError, match="overflows"):
        norm_sequence(s, 3)


# ---------------------------------------------------------- norm_sequence

def test_norm_sequence_constant_profile_all_ones():
    s = wigner_profile(7)
    ns = norm_sequence(s, 12)
    assert ns.z.shape == (12,)
    np.testing.assert_array_equal(ns.z, np.ones(12))


def test_norm_sequence_z1_is_exactly_one():
    s = VarianceMatrix(symmetric_nonneg(9, seed=3))
    assert norm_sequence(s, 1).z[0] == 1.0


def test_norm_sequence_matches_dense_power_oracle_seeded():
    s = VarianceMatrix(symmetric_nonneg(5, seed=42))
    ns = norm_sequence(s, 5)
    norm, zref = dense_norm_sequence(s.entries, 5)
    assert abs(ns.norm_s - norm) < 1e-12 * norm
    np.testing.assert_allclose(ns.z[1:], zref[1:], rtol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_norm_sequence_oracle_sweep(n, seed):
    s = VarianceMatrix(symmetric_nonneg(n, seed=seed, scale=2.0))
    ns = norm_sequence(s, 10)
    _, zref = dense_norm_sequence(s.entries, 10)
    np.testing.assert_allclose(ns.z, zref, rtol=1e-12)


def test_norm_sequence_zero_matrix_rejected():
    s = VarianceMatrix(np.zeros((3, 3)))
    with pytest.raises(InputError):
        norm_sequence(s, 4)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 10_000), j=st.integers(1, 10))
def test_z_values_in_unit_interval(n, seed, j):
    s = VarianceMatrix(symmetric_nonneg(n, seed=seed) + np.eye(n) * 0.01)
    ns = norm_sequence(s, j)
    assert ns.z[0] == 1.0
    assert np.all(ns.z > 0)
    assert np.all(ns.z <= 1.0)


def test_norm_sequence_scale_invariant():
    a = symmetric_nonneg(6, seed=11)
    z1 = norm_sequence(VarianceMatrix(a), 8).z
    z2 = norm_sequence(VarianceMatrix(3.7 * a), 8).z
    np.testing.assert_allclose(z1, z2, rtol=1e-12)


def test_norm_sequence_type_invariants():
    ns = NormSequence(norm_s=2.0, z=np.array([1.0, 0.5, 0.25]))
    assert ns.J == 3
    with pytest.raises(InputError):
        NormSequence(norm_s=2.0, z=np.array([0.9, 0.5]))
    with pytest.raises(InputError):
        NormSequence(norm_s=0.0, z=np.array([1.0]))
    with pytest.raises(InputError):
        NormSequence(norm_s=1.0, z=np.array([1.0, 1.5]))


def test_norm_sequence_leaves_the_callers_array_writeable():
    z = np.array([1.0, 0.5, 0.25])
    ns = NormSequence(norm_s=1.0, z=z)
    assert z.flags.writeable
    assert not ns.z.flags.writeable
    z[1] = 0.75
    assert ns.z[1] == 0.5


# ------------------------------------------- norm_sequence's certified tail

def full_norm_sequence(s, J):
    """Reference: z from all J products u_j = S u_{j-1} / |S|, with
    norm_sequence's clamp and floor but no early stop."""
    norm = inf_norm(s)
    u, z = np.ones(s.n), np.empty(J)
    for j in range(J):
        u = (s.entries @ u) / norm
        z[j] = min(max(u.max(), np.finfo(float).tiny), 1.0)
    return NormSequence(norm_s=norm, z=z)


def block_union(*blocks):
    """Block-diagonal matrix of the given square blocks: a reducible profile."""
    n = sum(len(b) for b in blocks)
    a, i = np.zeros((n, n)), 0
    for b in blocks:
        a[i:i + len(b), i:i + len(b)] = b
        i += len(b)
    return a


def star_weights(n, seed):
    """Hub-and-spokes matrix with random spoke weights: bipartite."""
    w = np.random.default_rng(seed).random(n - 1) + 0.01
    a = np.zeros((n, n))
    a[0, 1:] = a[1:, 0] = w
    return a


def certificate_profile(kind, n, seed):
    """Nonnegative symmetric matrix of one of the shapes on which the
    certificate stops early (dense), late (zero rows, Gram, star) or
    never (a union of blocks of different radii)."""
    rng = np.random.default_rng(seed)
    if kind == "dense":
        return symmetric_nonneg(n, seed)
    if kind == "zero-rows":
        a = symmetric_nonneg(n, seed)
        dead = rng.random(n) < 0.3
        dead[0] = False
        a[dead] = 0.0
        a[:, dead] = 0.0
        return a
    if kind == "gram":
        return gram_linearize(rng.random((n, int(rng.integers(1, 9))))).entries
    if kind == "star":
        return star_weights(n, seed)
    return block_union(symmetric_nonneg(n, seed), star_weights(n, seed + 1))


KINDS = ["dense", "zero-rows", "gram", "star", "union"]


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(2, 10),
       seed=st.integers(0, 10_000), J=st.integers(1, 40))
def test_certified_tail_matches_every_product(kind, n, seed, J):
    a = certificate_profile(kind, n, seed)
    s = VarianceMatrix(a)
    z = norm_sequence(s, J).z
    _, zref = dense_norm_sequence(a, J)
    np.testing.assert_allclose(z, zref, rtol=1e-12)
    np.testing.assert_allclose(z, full_norm_sequence(s, J).z, rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(2, 10),
       seed=st.integers(0, 10_000), J=st.integers(1, 60),
       log_scale=st.floats(-8.0, 8.0))
def test_norm_sequence_and_bound_are_scale_equivariant(kind, n, seed, J, log_scale):
    # the ratios the certificate compares do not depend on the scale, so
    # neither does the step where it stops
    c = 10.0 ** log_scale
    a = certificate_profile(kind, n, seed)
    s, cs = VarianceMatrix(a), VarianceMatrix(c * a)
    np.testing.assert_allclose(norm_sequence(cs, J).z, norm_sequence(s, J).z,
                               rtol=1e-12)
    assert support_bound(cs, J).improved_bound == pytest.approx(
        np.sqrt(c) * support_bound(s, J).improved_bound, rel=1e-12, abs=0)


def toeplitz_profile(n):
    """S_xy = exp(-|x - y| / (0.1 n)) / n."""
    i = np.arange(n)
    return VarianceMatrix(np.exp(-np.abs(i[:, None] - i) / (0.1 * n)) / n)


# ROADMAP's table of reference profiles, and a star whose z_j reach the
# floor before J = 250
ROADMAP_FAMILIES = {
    "exp500": lambda: exp_profile(500),
    "wigner500": lambda: wigner_profile(500),
    "random100": lambda: random_profile(100, 7),
    "random2000": lambda: random_profile(2000, 7),
    "gram60x120": lambda: gram_linearize(
        np.random.default_rng(0).random((60, 120)) / 120),
    "constant-gram": lambda: gram_linearize(np.full((60, 120), 1 / 120)),
    "toeplitz500": lambda: toeplitz_profile(500),
    "star1000": lambda: VarianceMatrix(star_weights(1000, 0)),
}


@pytest.mark.parametrize("make", ROADMAP_FAMILIES.values(), ids=ROADMAP_FAMILIES)
def test_certified_bound_equals_the_full_loops(make):
    s = make()
    rep = support_bound(s, J=250)
    full = full_norm_sequence(s, 250)
    w_c = critical_w(full)
    assert rep.w_c == pytest.approx(w_c, rel=1e-12, abs=0)
    assert rep.improved_bound == pytest.approx(
        2.0 * np.sqrt(full.norm_s) / w_c, rel=1e-12, abs=0)


def test_certificate_stops_random2000_within_20_products(products):
    s = random_profile(2000, 7)
    products[0] = 0
    norm_sequence(s, 250)
    assert products[0] <= 20


def test_certificate_never_stops_on_a_reducible_union(products):
    # the Gram block's ratios stay at 1/400 and the Wigner block's at 1
    a = block_union(gram_linearize(np.full((1, 400), 1 / 400)).entries,
                    wigner_profile(300).entries)
    s = VarianceMatrix(a)
    products[0] = 0
    inf_norm(s)
    assert products[0] == 0  # |S| is read from the row sums
    z = norm_sequence(s, 50).z
    assert products[0] == 49  # u_1 is read from the row sums too
    np.testing.assert_array_equal(z, full_norm_sequence(s, 50).z)


@pytest.mark.parametrize("make", [
    lambda: random_profile(300, 7), lambda: exp_profile(200),
    lambda: gram_linearize(np.random.default_rng(0).random((60, 120)) / 120)],
    ids=["random300", "exp200", "gram60x120"])
def test_first_terms_are_read_from_the_row_sums(products, make):
    # S 1 is formed once, by VarianceMatrix: the norm sequence's first
    # iterate is row_sums / |S| and the moments' first order is row_sums,
    # bit for bit, so depth 1 makes no product and depth 2 makes one
    s = make()
    r, norm = s.row_sums, inf_norm(s)
    products[0] = 0
    z = norm_sequence(s, 1).z
    table = moment_recursion(s, 1)
    assert products[0] == 0
    assert z.tolist() == [min((r / norm).max(), 1.0)]
    assert np.array_equal(table[:, 1], r)
    z = norm_sequence(s, 2).z
    table = moment_recursion(s, 2)
    assert products[0] == 2
    assert z[1] == min((s.entries @ (r / norm) / norm).max(), 1.0)
    assert np.array_equal(table[:, 2], r * r + s.entries @ r)


# --------------------------------------------------------- gram_linearize

def test_gram_linearize_1x1():
    g = gram_linearize(np.array([[0.7]]))
    np.testing.assert_array_equal(g.entries, [[0.0, 0.7], [0.7, 0.0]])


def test_gram_linearize_block_pattern_row_sums():
    g = gram_linearize(np.ones((2, 3)))
    assert g.n == 5
    np.testing.assert_array_equal(g.entries[:2, 2:], np.ones((2, 3)))
    np.testing.assert_array_equal(g.entries[2:, :2], np.ones((3, 2)))
    np.testing.assert_array_equal(g.entries[:2, :2], np.zeros((2, 2)))
    np.testing.assert_array_equal(g.entries.sum(axis=1), [3, 3, 2, 2, 2])


def test_gram_inf_norm_is_max_of_row_and_column_sums():
    rng = np.random.default_rng(8)
    rect = rng.random((3, 5))
    g = gram_linearize(rect)
    expected = max(rect.sum(axis=1).max(), rect.sum(axis=0).max())
    assert abs(inf_norm(g) - expected) < 1e-14


def test_gram_z2_identity_against_dense_powers():
    # z_2 of the linearization must equal max(|S S^T|, |S^T S|) / |block|^2
    rng = np.random.default_rng(123)
    rect = rng.random((4, 7))
    g = gram_linearize(rect)
    ns = norm_sequence(g, 2)
    upper = np.abs(rect @ rect.T).sum(axis=1).max()
    lower = np.abs(rect.T @ rect).sum(axis=1).max()
    expected = max(upper, lower) / inf_norm(g) ** 2
    assert abs(ns.z[1] - expected) < 1e-12


def test_gram_rejects_negative_entries():
    with pytest.raises(InputError):
        gram_linearize(np.array([[1.0, -0.1]]))


def test_gram_rejects_a_vector():
    with pytest.raises(InputError, match=r"2-d array, got shape \(2,\)"):
        gram_linearize([1.0, 2.0])


# ------------------------------------------------------- VarianceMatrix

def test_constructor_rejects_asymmetry_and_names_indices():
    a = np.array([[0.1, 0.2], [0.3, 0.1]])
    with pytest.raises(InputError) as err:
        VarianceMatrix(a)
    msg = str(err.value)
    assert "0" in msg and "1" in msg  # offending index pair appears


def test_constructor_rejects_negative_entry():
    a = np.array([[0.1, -0.2], [-0.2, 0.1]])
    with pytest.raises(InputError):
        VarianceMatrix(a)


def test_constructor_rejects_non_square_and_nan():
    with pytest.raises(InputError):
        VarianceMatrix(np.zeros((2, 3)))
    bad = np.full((2, 2), np.nan)
    with pytest.raises(InputError):
        VarianceMatrix(bad)
    # the shared matrix gate: a non-finite entry is named as such, not as
    # an asymmetry, and the empty matrix is refused
    for bad in ([[np.nan]], [[np.inf]], [[0, np.inf], [np.inf, 0]]):
        with pytest.raises(InputError, match="NaN or infinite"):
            VarianceMatrix(np.array(bad))
    with pytest.raises(InputError, match="nonempty square"):
        VarianceMatrix(np.zeros((0, 0)))


@pytest.mark.parametrize("build", [VarianceMatrix, gram_linearize],
                         ids=["square", "gram"])
@pytest.mark.parametrize("entries", [
    [[1 + 1j]], [[1, 2], [3]], [["a", "b"], ["c", "d"]],
    np.eye(2, dtype=bool), np.array([[None]]),
], ids=["complex", "ragged", "text", "bool", "object"])
def test_entries_that_are_not_real_numbers_are_input_errors(build, entries):
    # NumPy's own TypeError or ValueError never leaks out
    with pytest.raises(InputError, match="must be real numbers"):
        build(entries)


def test_repair_mode_symmetrizes_and_clamps():
    a = np.array([[0.2, 0.4], [0.2, -0.6]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s = VarianceMatrix(a, repair=True)
    assert len(caught) == 1
    np.testing.assert_allclose(s.entries, [[0.2, 0.3], [0.3, 0.0]])


def test_entries_are_immutable():
    s = wigner_profile(3)
    with pytest.raises(ValueError):
        s.entries[0, 0] = 5.0


def read_only(a):
    a.setflags(write=False)
    return a


class NdarraySubclass(np.ndarray):
    pass


def test_owned_read_only_float64_input_is_adopted():
    a = read_only(symmetric_nonneg(5, seed=1))
    assert VarianceMatrix(a).entries is a


@pytest.mark.parametrize("name,n,seed", [
    ("expprofile", 500, None), ("wigner", 500, None), ("random", 100, 7),
    ("random", 300, 7), ("random", 2000, 7)],
    ids=["exp500", "wigner500", "random100", "random300", "random2000"])
def test_row_sums_are_the_read_only_product_with_ones(name, n, seed):
    # the benchmark's profiles: every layer reads these sums, so they are
    # the BLAS product, bit for bit, and cannot be changed
    s = resolve_profile(name, n, seed)[0]
    assert np.array_equal(s.row_sums, s.entries @ np.ones(n))
    assert not s.row_sums.flags.writeable
    with pytest.raises(ValueError):
        s.row_sums[0] = 1.0
    with pytest.raises(AttributeError):
        s.row_sums = np.zeros(n)


@pytest.mark.parametrize("make", [
    lambda a: a,
    lambda a: read_only(a.view()),
    lambda a: read_only((a * 100).astype(np.int64)),
    lambda a: read_only(np.asfortranarray(a)),
    lambda a: read_only(np.array(a.view(NdarraySubclass), subok=True)),
], ids=["writeable", "read-only-view", "int", "fortran", "subclass"])
def test_other_inputs_are_copied(make):
    a = symmetric_nonneg(5, seed=1)
    given = make(a)
    s = VarianceMatrix(given)
    assert s.entries is not given
    assert type(s.entries) is np.ndarray
    assert s.entries.dtype == np.float64
    kept = np.array(given, dtype=float)
    np.testing.assert_array_equal(s.entries, kept)
    a[0, 0] = 99.0  # the source, or the owner of the view, changes
    np.testing.assert_array_equal(s.entries, kept)


@pytest.mark.parametrize("adopt", [False, True], ids=["writeable", "read-only"])
def test_asymmetry_in_a_far_tile_names_the_first_entry(adopt):
    a = symmetric_nonneg(257, seed=4)
    # the tile walk meets (100, 200) first; the message names the first
    # offending entry in row-major order, as a full comparison would
    a[100, 200] += 0.25
    a[5, 256] += 0.5
    given = read_only(a.copy()) if adopt else a
    with pytest.raises(InputError) as err:
        VarianceMatrix(given)
    assert str(err.value) == (
        f"matrix is not symmetric: entry (5, 256) = {float(a[5, 256])!r} "
        f"but (256, 5) = {float(a[256, 5])!r}"
    )


@pytest.mark.parametrize("adopt", [False, True], ids=["writeable", "read-only"])
def test_repair_of_a_large_input_leaves_the_input_alone(adopt):
    a = symmetric_nonneg(257, seed=4)
    a[5, 256] += 0.5
    a[200, 3] = a[3, 200] = -0.1
    expected = np.clip((a + a.T) / 2, 0.0, None)
    given = read_only(a.copy()) if adopt else a
    kept = given.copy()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s = VarianceMatrix(given, repair=True)
    assert [str(w.message) for w in caught] == [
        "repaired input matrix: symmetrized, clamped negatives to zero"]
    np.testing.assert_array_equal(s.entries, expected)
    np.testing.assert_array_equal(given, kept)


def test_repair_of_finite_entries_near_the_top_of_double_range_stays_finite():
    # a + a.T overflows here; the mean of the two entries does not
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s = VarianceMatrix(np.array([[0.0, 1e308], [1.7e308, 0.0]]), repair=True)
    assert [str(w.message) for w in caught] == ["repaired input matrix: symmetrized"]
    np.testing.assert_array_equal(s.entries, [[0.0, 1.35e308], [1.35e308, 0.0]])


# ------------------------------------------------------------- builders

def test_wigner_profile_entries():
    s = wigner_profile(8)
    np.testing.assert_array_equal(s.entries, np.full((8, 8), 1 / 8))


def test_exp_profile_zero_based_entries():
    s = exp_profile(10)
    assert s.entries[0, 0] == 1 / 10
    assert abs(s.entries[9, 9] - np.exp(18 / 10) / 10) < 1e-15


def old_random_profile(n, seed):
    a = np.random.default_rng(seed).random((n, n))
    return (a + a.T) / 2 * (1.0 / n)


def old_exp_profile(n):
    v = np.exp(np.arange(n) / n)
    return np.outer(v, v) / n


def old_gram_linearize(b):
    m, n = b.shape
    out = np.zeros((m + n, m + n))
    out[:m, m:] = b
    out[m:, :m] = b.T
    return out


# both sides of the tile edge (128) of the in-place builds and the checks
GENERATOR_SIZES = [1, 2, 127, 128, 129, 300]


@pytest.mark.parametrize("n", GENERATOR_SIZES)
@pytest.mark.parametrize("kind", ["wigner", "exp", "random", "gram"])
def test_generators_match_their_one_line_formulas(kind, n):
    """Each generator builds its array in place; the entries must equal
    the plain formula's bit for bit, and the result must be read-only."""
    if kind == "wigner":
        s, ref = wigner_profile(n), np.full((n, n), 1.0 / n)
    elif kind == "exp":
        s, ref = exp_profile(n), old_exp_profile(n)
    elif kind == "random":
        s, ref = random_profile(n, seed=7), old_random_profile(n, 7)
    else:
        rect = np.random.default_rng(n).random((n, n + 1))
        s, ref = gram_linearize(rect), old_gram_linearize(rect)
    assert np.array_equal(s.entries, ref)
    assert not s.entries.flags.writeable
    with pytest.raises(ValueError):
        s.entries[0, 0] = 1.0


def test_random_profile_is_deterministic_and_valid():
    a = random_profile(6, seed=5)
    b = random_profile(6, seed=5)
    np.testing.assert_array_equal(a.entries, b.entries)
    assert np.all(a.entries >= 0)
    np.testing.assert_allclose(a.entries, a.entries.T)


@pytest.mark.parametrize("seed", [-1, 2.0, "7", None, [1, 2]],
                         ids=["negative", "float", "str", "none", "list"])
def test_random_profile_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(InputError, match="seed must be a nonnegative integer"):
        random_profile(3, seed=seed)


@pytest.mark.parametrize("seed", [0, np.int64(7), 2**70],
                         ids=["zero", "np.int64", "2**70"])
def test_random_profile_accepts_every_nonnegative_integer_seed(seed):
    assert np.array_equal(random_profile(5, seed=seed).entries,
                          old_random_profile(5, seed))


# ------------------------------------------------------- integer arguments

@pytest.mark.parametrize("call", [
    lambda: exp_profile(2.5),
    lambda: wigner_profile(2.5),
    lambda: wigner_profile(True),
    lambda: random_profile(2.5, 1),
    lambda: random_profile(3, seed=True),
    lambda: norm_sequence(wigner_profile(3), 2.5),
    lambda: support_bound(wigner_profile(3), J=2.5),
    lambda: moment_recursion(wigner_profile(3), kmax=True),
    lambda: McConfig(trials=True, seed=1),
    lambda: McConfig(trials=1, seed=False),
    lambda: NormSequence(norm_s=np.nan, z=np.ones(1)),
    lambda: NormSequence(norm_s=np.inf, z=np.ones(1)),
    lambda: NormSequence(norm_s=1.0, z=np.array([1.0, np.nan])),
    lambda: NormSequence(1.0, [[1.0]]),
], ids=["exp-float-n", "wigner-float-n", "wigner-bool-n", "random-float-n",
        "random-bool-seed", "float-J", "bound-float-J", "bool-kmax",
        "bool-trials", "bool-mc-seed", "nan-norm", "inf-norm", "nan-z",
        "matrix-z"])
def test_bad_integers_and_non_finite_norms_are_input_errors(call):
    # a float or a bool where an integer belongs is an input error, never
    # a silently rounded size or a raw TypeError; so is a norm sequence
    # that is not finite
    with pytest.raises(InputError):
        call()


def test_random_source_without_a_seed_names_the_seed():
    # rejected by random_profile's seed check; resolve_profile has none
    with pytest.raises(InputError,
                       match="^seed must be a nonnegative integer, got None$"):
        resolve_profile("random", n=4)


def test_moment_depth_may_be_a_numpy_integer():
    s = exp_profile(6)
    assert np.array_equal(moment_recursion(s, np.int64(3)), moment_recursion(s, 3))


# ------------------------------------------------------------- file I/O

def test_load_plain_text(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("2\n0.5 0.25\n0.25 0.125\n")
    s = load_matrix(p)
    np.testing.assert_array_equal(s.entries, [[0.5, 0.25], [0.25, 0.125]])


def test_load_csv_with_header(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("n=3\n1,0,0\n0,2,0\n0,0,3\n")
    s = load_matrix(p)
    np.testing.assert_array_equal(np.diag(s.entries), [1, 2, 3])


def test_load_rectangular_for_gram(tmp_path):
    p = tmp_path / "r.txt"
    p.write_text("2\n1 2 3\n4 5 6\n")
    a = load_dense(p)
    assert a.shape == (2, 3)
    np.testing.assert_array_equal(a, [[1, 2, 3], [4, 5, 6]])


@pytest.mark.parametrize(
    "content",
    [
        b"",                      # empty
        b"x\n1 2\n2 1\n",         # bad header
        b"2\n1 2\n",              # missing row
        b"2\n1 2\n3\n",           # ragged row
        b"2\n1 a\n2 1\n",         # bad token
        b"n=2\n1,2\n",            # csv missing row
        b"\xff\xfe2\n1 2\n",       # not UTF-8
        "\u00b2\n1\n".encode(),     # superscript two: isdigit() but not int()
        b"2\n",                   # header only: no loadtxt empty-input warning
        b"n=2\n\n   \n",           # csv header, then blank lines only
        # entries that float() refuses
        b"1\n0x10\n",
        b"1\n1,\n",
        b"1\n1 #c\n",
        b'1\n"1"\n',
        b"1\nTrue\n",
        b"1\n1j\n",
    ],
)
def test_load_rejects_malformed_files(tmp_path, content):
    p = tmp_path / "bad.txt"
    p.write_bytes(content)
    with pytest.raises(InputError):
        load_dense(p)


# Each entry is read by float(), so what float() accepts is a valid entry;
# rows are split on any whitespace, or on commas after an n= header.
@pytest.mark.parametrize(
    "content,expected",
    [
        ("1\n1_0\n", [[10.0]]),
        ("1\n\u0661\n", [[1.0]]),          # Arabic-Indic digit one
        ("1\n+1.5\n", [[1.5]]),
        ("1\n.5\n", [[0.5]]),
        ("1\n1.\n", [[1.0]]),
        ("1\nInfinity\n", [[np.inf]]),
        ("1\n-nan\n", [[float("-nan")]]),
        ("1\n1e400\n", [[np.inf]]),
        ("2\n1\t2\n3\t4\n", [[1, 2], [3, 4]]),
        ("2\n1\u00a02\n3\u00a04\n", [[1, 2], [3, 4]]),  # no-break space
        ("2\r\n1 2\r\n3 4\r\n", [[1, 2], [3, 4]]),
        ("n = 2\n1,2\n3,4\n", [[1, 2], [3, 4]]),
        ("\n2\n\n1 2\n \t\n3 4\n\n", [[1, 2], [3, 4]]),
        ("  \nn=2\n\n1,2\n   \n3,4\n \n", [[1, 2], [3, 4]]),
    ],
)
def test_load_reads_entries_with_float(tmp_path, content, expected):
    p = tmp_path / "m.txt"
    p.write_bytes(content.encode())
    a = load_dense(p)
    want = np.array(expected, dtype=float)
    assert a.shape == want.shape and a.flags.writeable
    assert a.tobytes() == want.tobytes()  # the sign of -nan included


def test_load_asymmetric_square_raises_with_indices(tmp_path):
    p = tmp_path / "asym.txt"
    p.write_text("2\n0.1 0.9\n0.2 0.1\n")
    with pytest.raises(InputError):
        load_matrix(p)
