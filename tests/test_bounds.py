import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specbound.bounds import critical_w, root_function, support_bound
from specbound.errors import InputError
from specbound.linalg import (
    NormSequence,
    exp_profile,
    gram_linearize,
    norm_sequence,
    random_profile,
    wigner_profile,
)
from specbound.qve import moment_recursion, support_from_moments

# Root of 1 = x + x^2 + 0.5 x^3 + x^4/(1-x) for the sequence z = (1, 0.5),
# i.e. of the quartic x^4 - x^3 + 4x - 2, with w = 2x.  Value computed to
# 50 digits with mpmath by two routes (direct root find and the quartic).
WC_HALF_DECAY = 1.033330823615332880248623

# Exponential profile n=500 reference values (rank-one closed form, see
# test_exp500_matches_rank_one_closed_form for the derivation check).
EXP500_NORM = 4.6567821690112772
EXP500_TRIVIAL = 4.3159157401465924
EXP500_WC_J50 = 1.0783599599601265
EXP500_IMPROVED_J50 = 4.0022959868671108


def ones_sequence(J):
    return NormSequence(norm_s=1.0, z=np.ones(J))


# ------------------------------------------------------------ root_function

def test_root_function_at_zero_is_one():
    assert root_function(0.0, ones_sequence(5)) == 1.0


@pytest.mark.parametrize("w", [0.1, 0.5, 0.9, 1.3, 1.9])
def test_root_function_constant_sequence_closed_form(w):
    # with every z_j = 1 the series telescopes to 1 - (w/2) / (1 - w/2)
    got = root_function(w, ones_sequence(30))
    x = w / 2
    assert abs(got - (1 - x / (1 - x))) < 1e-13


@pytest.mark.parametrize("w", [-0.1, -5.0, 2.0, 2.5, np.inf])
def test_root_function_domain(w):
    with pytest.raises(InputError):
        root_function(w, ones_sequence(3))


def test_root_function_decreasing_in_w():
    ns = NormSequence(norm_s=1.0, z=np.array([1.0, 0.4, 0.2, 0.05]))
    ws = np.linspace(0.0, 1.95, 60)
    vals = [root_function(w, ns) for w in ws]
    assert np.all(np.diff(vals) < 0)


def test_root_function_increasing_when_z_shrinks():
    big = NormSequence(norm_s=1.0, z=np.array([1.0, 0.9, 0.8]))
    small = NormSequence(norm_s=1.0, z=np.array([1.0, 0.3, 0.1]))
    for w in (0.5, 1.0, 1.5):
        assert root_function(w, small) > root_function(w, big)


# -------------------------------------------------------------- critical_w

def test_critical_w_constant_sequence_is_one():
    for J in (1, 2, 10, 60):
        assert abs(critical_w(ones_sequence(J)) - 1.0) < 1e-11


def test_critical_w_half_decay_frozen_value():
    ns = NormSequence(norm_s=1.0, z=np.array([1.0, 0.5]))
    w = critical_w(ns)
    assert abs(w - WC_HALF_DECAY) < 1e-11


def test_critical_w_half_decay_satisfies_quartic():
    # independent algebraic route: clearing denominators in the root
    # equation for z = (1, 0.5) leaves x^4 - x^3 + 4x - 2 = 0 at x = w/2
    x = critical_w(NormSequence(norm_s=1.0, z=np.array([1.0, 0.5]))) / 2
    assert abs(x**4 - x**3 + 4 * x - 2) < 1e-10


def test_critical_w_brackets_a_sign_change():
    ns = norm_sequence(exp_profile(80), 20)
    w = critical_w(ns)
    assert root_function(w - 1e-6, ns) > 0 > root_function(w + 1e-6, ns)


def test_critical_w_tolerance_parameter():
    # the bisection bracket is fixed at 1e-12
    ns = NormSequence(norm_s=1.0, z=np.array([1.0, 0.5]))
    assert abs(critical_w(ns) - WC_HALF_DECAY) < 1e-12


@settings(max_examples=50, deadline=None)
@given(
    vals=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12),
)
def test_critical_w_lands_in_unit_to_two(vals):
    ns = NormSequence(norm_s=1.0, z=np.array([1.0] + vals))
    # the bisection's top end always lies past the root
    assert root_function(2 - 1e-14, ns) < 0
    w = critical_w(ns)
    assert 1.0 - 1e-9 <= w < 2.0
    assert abs(root_function(w, ns)) < 1e-9


def test_critical_w_increases_with_truncation_depth():
    # replacing the all-ones tail by true (smaller) values raises the root
    ns_full = norm_sequence(exp_profile(200), 25)
    roots = [
        critical_w(NormSequence(norm_s=1.0, z=ns_full.z[:J]))
        for J in (1, 2, 5, 10, 25)
    ]
    assert roots[0] == pytest.approx(1.0, abs=1e-11)
    assert np.all(np.diff(roots) > 0)


# ----------------------------------------------------------- support_bound

def test_wigner_report_is_sharp():
    rep = support_bound(wigner_profile(100), J=30)
    assert abs(rep.trivial_bound - 2.0) < 1e-12
    assert abs(rep.improved_bound - 2.0) < 1e-10
    assert abs(rep.w_c - 1.0) < 1e-10
    # the bound stays an upper bound of Wigner's edge 2 after rounding
    for n in (1, 4, 100, 500):
        rep = support_bound(wigner_profile(n))
        assert rep.improved_bound >= 2.0, n
        assert rep.w_c <= 1.0, n


def test_exp500_report_frozen_values():
    rep = support_bound(exp_profile(500), J=50)
    assert rep.n == 500
    assert rep.J == 50
    assert abs(rep.norm_s - EXP500_NORM) < 1e-11
    assert abs(rep.trivial_bound - EXP500_TRIVIAL) < 1e-11
    assert abs(rep.w_c - EXP500_WC_J50) < 1e-11
    assert abs(rep.improved_bound - EXP500_IMPROVED_J50) < 1e-10


def test_exp500_matches_rank_one_closed_form():
    """The exponential profile is rank one, S = v v^T / n, so norms of
    powers factor and z_j = q^(j-1) exactly with q = z_2.  The limiting
    root equation then sums to a quadratic in x = w/2:

        (1 - q) x^2 + (1 + q) x - 1 = 0.
    """
    s = exp_profile(500)
    ns = norm_sequence(s, 50)
    q = ns.z[1]
    np.testing.assert_allclose(ns.z, q ** np.arange(50), rtol=1e-9)
    x = (-(1 + q) + np.sqrt((1 + q) ** 2 + 4 * (1 - q))) / (2 * (1 - q))
    assert abs(critical_w(ns) - 2 * x) < 2e-12


def test_improved_bound_identity_and_ordering():
    rep = support_bound(random_profile(60, seed=9), J=40)
    assert rep.improved_bound == pytest.approx(rep.trivial_bound / rep.w_c)
    assert rep.improved_bound <= rep.trivial_bound + 1e-15
    assert rep.trivial_bound == pytest.approx(2 * np.sqrt(rep.norm_s))


def test_bound_scales_as_sqrt_of_profile_scale():
    from specbound.linalg import VarianceMatrix

    a = random_profile(40, seed=2).entries
    r1 = support_bound(VarianceMatrix(a), J=20)
    r2 = support_bound(VarianceMatrix(a * 4.0), J=20)
    assert r2.trivial_bound == pytest.approx(2 * r1.trivial_bound, rel=1e-12)
    assert r2.improved_bound == pytest.approx(2 * r1.improved_bound, rel=1e-10)
    assert r2.w_c == pytest.approx(r1.w_c, abs=1e-10)


TRIVIAL_FAMILIES = {
    "wigner": lambda: wigner_profile(50),
    "exp": lambda: exp_profile(50),
    "random": lambda: random_profile(50, seed=3),
    "gram": lambda: gram_linearize(np.random.default_rng(5).random((20, 60))),
    "constant-gram": lambda: gram_linearize(np.full((20, 60), 1 / 60)),
}


@pytest.mark.parametrize("make", TRIVIAL_FAMILIES.values(), ids=TRIVIAL_FAMILIES)
def test_trivial_bound_is_twice_the_first_moment_proxy(make):
    # the k = 1 proxy is max_x (S 1)_x ** (1/2) = |S| ** (1/2), and it
    # never exceeds the edge, so trivial <= 2 edge on every profile
    s = make()
    trivial = support_bound(s).trivial_bound
    proxy = support_from_moments(moment_recursion(s, 1))
    assert abs(trivial - 2 * proxy) <= 2 * np.spacing(trivial)


def test_trivial_bound_nearly_reaches_twice_the_edge():
    # constant Gram profile with c = M/N = 1/400: |S| = 1 and the edge
    # is exactly 1 + sqrt(c) = 1.05 (Marchenko-Pastur)
    s = gram_linearize(np.full((1, 400), 1 / 400))
    assert support_bound(s).trivial_bound / 1.05 >= 1.90


# Worst case for the improved bound: the constant Gram profile
# gram_linearize(full((M, N), 1/N)) with c = M/N has |S| = 1, edge
# 1 + sqrt(c) (Marchenko-Pastur) and z_j = c^floor(j/2).
GRAM_WORST = {
    (60, 120): 1.822875656,
    (20, 200): 1.661895004,
    (4, 400): 1.622497216,
    (1, 400): 1.619151464,
}


@pytest.mark.parametrize("shape", GRAM_WORST, ids=[f"{m}x{n}" for m, n in GRAM_WORST])
def test_constant_gram_improved_bound_pinned(shape):
    m, n = shape
    s = gram_linearize(np.full(shape, 1 / n))
    edge = 1 + np.sqrt(m / n)
    for J in (50, 200):
        rep = support_bound(s, J=J)
        assert rep.improved_bound == pytest.approx(GRAM_WORST[shape], abs=1e-6)
        # the paper's bound stays above the edge, the trivial one within 2x
        assert edge < rep.improved_bound < rep.trivial_bound <= 2 * edge


def test_constant_gram_norm_sequence_closed_form():
    c, J = 0.01, 50
    ns = norm_sequence(gram_linearize(np.full((4, 400), 1 / 400)), J)
    assert ns.norm_s == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_allclose(ns.z, c ** (np.arange(1, J + 1) // 2), rtol=1e-12)


def test_constant_gram_bound_tends_to_the_golden_ratio():
    # as c -> 0 the edge tends to 1 and the improved bound to
    # phi = (1 + sqrt 5) / 2, 61.8% above it
    c, J = 1e-12, 200
    tiny = np.finfo(float).tiny  # norm_sequence's floor
    z = np.maximum(c ** (np.arange(1, J + 1) // 2), tiny)
    improved = 2.0 / critical_w(NormSequence(norm_s=1.0, z=z))
    assert abs(improved - (1 + np.sqrt(5)) / 2) <= 1e-12


def star_profile(n):
    """Hub-and-spokes profile S[0, y] = S[y, 0] = 1: z_j decays like
    (n - 1)^(-j/2) and underflows a double near j = 230 at n = 1000."""
    a = np.zeros((n, n))
    a[0, 1:] = a[1:, 0] = 1.0
    return a


def test_deep_truncation_survives_norm_sequence_underflow():
    from specbound.linalg import VarianceMatrix

    s = VarianceMatrix(star_profile(1000))
    shallow = support_bound(s, J=200)
    deep = support_bound(s, J=250)
    assert deep.z.min() > 0
    assert shallow.w_c == pytest.approx(1.23573, abs=1e-5)
    assert abs(deep.w_c - shallow.w_c) <= 1e-12


def test_report_serializes_to_json():
    rep = support_bound(exp_profile(50), J=10)
    blob = json.loads(json.dumps(asdict(rep), default=np.ndarray.tolist))
    for key in ("n", "J", "norm_s", "w_c", "trivial_bound", "improved_bound", "z"):
        assert key in blob
    assert len(blob["z"]) == 10
    assert blob["z"][0] == 1.0
