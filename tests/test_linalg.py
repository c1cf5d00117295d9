import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specbound.errors import InputError, MatrixFormatError, ZeroMatrixError
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
)


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
    with pytest.raises(ZeroMatrixError):
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


# ------------------------------------------------------------- builders

def test_wigner_profile_entries():
    s = wigner_profile(8)
    np.testing.assert_array_equal(s.entries, np.full((8, 8), 1 / 8))


def test_exp_profile_zero_based_entries():
    s = exp_profile(10)
    assert s.entries[0, 0] == 1 / 10
    assert abs(s.entries[9, 9] - np.exp(18 / 10) / 10) < 1e-15


def test_random_profile_is_deterministic_and_valid():
    a = random_profile(6, seed=5)
    b = random_profile(6, seed=5)
    np.testing.assert_array_equal(a.entries, b.entries)
    assert np.all(a.entries >= 0)
    np.testing.assert_allclose(a.entries, a.entries.T)


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
    ],
)
def test_load_rejects_malformed_files(tmp_path, content):
    p = tmp_path / "bad.txt"
    p.write_bytes(content)
    with pytest.raises(MatrixFormatError):
        load_dense(p)


def test_load_asymmetric_square_raises_with_indices(tmp_path):
    p = tmp_path / "asym.txt"
    p.write_text("2\n0.1 0.9\n0.2 0.1\n")
    with pytest.raises(InputError):
        load_matrix(p)
