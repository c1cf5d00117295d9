import cmath
import math
import time
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import specbound.qve as qve
from _dyck import enumerate_trees
from _reductions import rank_one_edge
from _treeval import tree_val_vector
from test_linalg import block_union
from specbound.bounds import support_bound
from specbound.errors import ConvergenceError, InputError, NumericError
from specbound.linalg import (
    VarianceMatrix,
    exp_profile,
    gram_linearize,
    inf_norm,
    random_profile,
    wigner_profile,
)
from specbound.qve import (
    SupportEstimate,
    density,
    density_scan,
    estimate_support,
    moment_recursion,
    support_from_moments,
)
from specbound.qve import _CEILING_WIDTH, _edge_ceiling, _solve_block

# i (sqrt(2) - 1): Stieltjes transform of the semicircle law at z = 2i
WIGNER_M_AT_2I = 0.4142135623730950488j
# i (sqrt(13) - 3) / 2: the constant-row-sum reduction at z = 3i
BLOCK_M_AT_3I = 0.3027756377319946466j
INV_PI = 0.3183098861837906715


def scalar_semicircle(z, r=1.0):
    """Root of r m^2 + z m + 1 = 0 with positive imaginary part."""
    for sign in (1, -1):
        m = (-z + sign * cmath.sqrt(z * z - 4 * r)) / (2 * r)
        if m.imag > 0:
            return m
    raise AssertionError("no upper-half-plane root")


def seeded_profile(n, seed=0, scale=None):
    rng = np.random.default_rng(seed)
    a = rng.random((n, n))
    return VarianceMatrix((a + a.T) / 2 * (scale if scale is not None else 1.0 / n))


# ------------------------------------------------------------------ solver

def solve(s, z, tol, cap):
    """One point through _solve_block, the block path density_scan runs:
    ``(m, sweeps, residual)``, where the residual is the last update norm,
    which is exactly the defect of the returned m."""
    m, sweeps, res = _solve_block(s, np.array([complex(z)]), tol, cap)
    return m[0], sweeps, float(res[0])


def test_constant_profile_matches_semicircle_at_2i():
    m, _, residual = solve(wigner_profile(12), 2j, tol=1e-12, cap=50_000)
    np.testing.assert_allclose(m, np.full(12, WIGNER_M_AT_2I), atol=1e-11)
    assert residual <= 1e-12
    assert np.all(m.imag > 0)


def test_zero_profile_gives_minus_inverse_z():
    s = VarianceMatrix(np.zeros((4, 4)))
    m, _, _ = solve(s, 1.5 + 0.5j, tol=1e-14, cap=100)
    np.testing.assert_allclose(m, np.full(4, -1 / (1.5 + 0.5j)), rtol=1e-14)


def test_two_by_two_block_profile_frozen_value():
    s = VarianceMatrix(np.array([[0.3, 0.7], [0.7, 0.3]]))
    m, _, _ = solve(s, 3j, tol=1e-13, cap=50_000)
    np.testing.assert_allclose(m, np.full(2, BLOCK_M_AT_3I), atol=1e-12)
    # independent route: constant row sums collapse the system to a
    # scalar quadratic solved by the formula
    np.testing.assert_allclose(m, np.full(2, scalar_semicircle(3j)), atol=1e-12)


@pytest.mark.parametrize("z", [2.5j, 1.0 + 1.0j, -0.7 + 0.3j, 4.0 + 0.01j])
def test_reported_residual_is_the_true_defect(z):
    s = exp_profile(30)
    m, sweeps, residual = solve(s, z, tol=1e-10, cap=100_000)
    defect = np.abs(m + 1.0 / (z + s.entries @ m)).max()
    assert defect <= 1e-10
    assert residual <= 1e-10
    assert np.all(m.imag > 0)
    assert sweeps >= 1


def test_solver_deep_inside_support_small_eta():
    # hardest regime: tiny imaginary part inside the spectrum
    s = exp_profile(60)
    z = 0.5 + 1e-4j
    m, _, _ = solve(s, z, tol=1e-9, cap=300_000)
    defect = np.abs(m + 1.0 / (z + s.entries @ m)).max()
    assert defect <= 1e-9
    assert np.all(m.imag > 0)


def test_solver_symmetry_in_z():
    s = exp_profile(40)
    for z in (1.5 + 0.01j, 0.3 + 0.2j, 2.2 + 1e-3j):
        left, _, _ = solve(s, complex(-z.real, z.imag), tol=1e-11, cap=200_000)
        right, _, _ = solve(s, z, tol=1e-11, cap=200_000)
        np.testing.assert_allclose(left, -np.conj(right), atol=1e-9)


def test_solver_converges_fast_at_the_semicircle_edge():
    # plain iteration needs about 2,000 steps here
    z = 1.999 + 1e-6j
    s = wigner_profile(200)
    m, _, _ = solve(s, z, tol=1e-9, cap=500)
    assert np.abs(m + 1.0 / (z + s.entries @ m)).max() <= 1e-9
    np.testing.assert_allclose(m, scalar_semicircle(z), atol=1e-6)


def test_solver_handles_the_atom_of_a_rectangular_gram_profile():
    # at tau = 0 the rows of the wider side carry |m| ~ 1/eta while the
    # others stay of order one
    s = gram_linearize(np.random.default_rng(3).random((30, 50)) / 50)
    for eta in (1e-2, 1e-4, 1e-6):
        z = complex(0.0, eta)
        m, _, _ = solve(s, z, tol=1e-9, cap=2_000)
        assert np.abs(m + 1.0 / (z + s.entries @ m)).max() <= 1e-9
        assert np.all(m.imag > 0)


def test_solver_domain_and_convergence_errors():
    # not a constant-row-sum profile, whose semicircle start is exact
    s = exp_profile(5)
    with pytest.raises(ConvergenceError) as err:
        solve(s, 0.1 + 1e-6j, tol=1e-14, cap=3)
    assert err.value.residual > 0
    assert err.value.iterations == 3


def test_scan_block_and_solver_raise_at_once_on_a_non_finite_update():
    # a NaN point stops the block after one sweep and is named, whether
    # it comes before or after a healthy point
    s = exp_profile(20)
    nan_point = complex(math.nan, 1e-3)
    for zb in ([nan_point, 0.5 + 1e-3j], [0.5 + 1e-3j, nan_point]):
        with np.errstate(invalid="ignore"):
            with pytest.raises(ConvergenceError, match="tau = nan ") as err:
                _solve_block(s, np.array(zb), 1e-9, 1_000)
        assert err.value.iterations == 1
        assert math.isnan(err.value.residual)
    # entries of 1e308 overflow S m in the first sweep
    huge = VarianceMatrix(np.full((2, 2), 1e308))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConvergenceError) as err:
            solve(huge, 1j, tol=1e-9, cap=200_000)
    assert err.value.iterations == 1
    # row sums of 2e308 overflow, so the scan refuses the profile as
    # inf_norm does, before any sweep
    for tau in (0.0, 0.5):
        with pytest.raises(NumericError) as err:
            density_scan(huge, [tau])
        assert str(err.value) == OVERFLOWED_NORM
    # constant row sums of 2e150: the semicircle start is the solution,
    # whose density at the origin is 1 / (pi sqrt(2e150))
    got = density_scan(VarianceMatrix(np.full((2, 2), 1e150)), [0.0])[0]
    assert got == pytest.approx(2.2507907903927653e-76, rel=1e-12)


OVERFLOWED_NORM = ("max row sum |S| overflows double precision; "
                   "rescale the profile and retry")


def test_density_on_an_overflowed_max_row_sum_raises_at_once():
    # the scan's tolerance used to read 0 here, and the point spent the
    # whole sweep budget (27 s) before it raised
    s = VarianceMatrix(np.array([[1.7e308, 1e308], [1e308, 0.0]]))
    began = time.perf_counter()
    with pytest.raises(NumericError) as err:
        density(s, 0.0, 1e112)
    assert time.perf_counter() - began < 1.0
    assert str(err.value) == OVERFLOWED_NORM


def start(s, z):
    """The kernel's start at z: a tolerance no update norm exceeds stops
    every row after one sweep, holding the iterate it started from."""
    return _solve_block(s, np.array([complex(z)]), math.inf, 1)[0][0]


def test_start_is_the_semicircle_of_constant_row_sums():
    for s, z in [(wigner_profile(12), 2j),
                 (VarianceMatrix(np.array([[0.3, 0.7], [0.7, 0.3]])), 3j)]:
        np.testing.assert_allclose(start(s, z), scalar_semicircle(z),
                                   rtol=0, atol=1e-14)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1.7976931348623157e308)),
                     min_size=1, max_size=3),
       tau=st.floats(-1e300, 1e300), eta=st.floats(1e-12, 1e6))
def test_start_lies_in_the_upper_half_plane_or_is_minus_inverse_z(rows, tau, eta):
    # a diagonal profile: each row's start depends on its row sum alone
    z = complex(tau, eta)
    m = start(VarianceMatrix(np.diag(rows)), z)
    cold = -1.0 / np.complex128(z)  # NumPy's division, not Python's
    for x, r in enumerate(rows):
        assert m[x].imag > 0 or m[x] == cold, (r, m[x])
        if r == 0.0:
            assert m[x] == cold


def test_start_neither_overflows_nor_warns_far_out():
    # at |tau| past 1.3e154, z^2 overflows, and 4 r overflows for row sums
    # past 4.5e307; the start forms neither, so no warning is raised
    # (the suite turns warnings into errors) and far from the spectrum
    # the density underflows to 0, as it did from the start -1/z
    assert density_scan(exp_profile(20), [1e200]).tolist() == [0.0]
    assert density_scan(exp_profile(20), [-1e300]).tolist() == [0.0]
    s = VarianceMatrix(np.full((2, 2), 5e307))
    assert density_scan(s, [1e200]).tolist() == [0.0]
    # inside the spectrum of that row sum of 1e308 the start is the
    # solution: density 1 / (pi 1e154)
    assert density_scan(s, [0.0])[0] == pytest.approx(INV_PI * 1e-154, rel=1e-12)


def test_semicircle_start_converges_in_few_sweeps(monkeypatch, wigner500):
    # work guard: each row starts at its own semicircle, so the first
    # block of the qve --csv grid on random300 (tau = 0, 0.05, ...)
    # converges in at most 12 sweeps, and the support scan of wigner500,
    # where the start is exact, in 1; from the start -1/z they take 36
    # and 17
    sweeps = []

    def recording(s, zb, tol, cap):
        out = _solve_block(s, zb, tol, cap)
        sweeps.append(out[1])
        return out

    monkeypatch.setattr(qve, "_solve_block", recording)
    density_scan(random_profile(300, seed=7), np.arange(qve._BLOCK) * 0.05, eta=1e-3)
    assert len(sweeps) == 1 and sweeps[0] <= 12
    sweeps.clear()
    assert estimate_support(wigner500).value == 1.999
    assert sweeps == [1]


# ----------------------------------------------------------------- density

def test_semicircle_density_at_center():
    val = density(wigner_profile(8), 0.0, eta=1e-4)
    assert abs(val - INV_PI) < 1e-3


def test_semicircle_density_outside_support():
    assert density(wigner_profile(8), 3.0, eta=1e-4) < 1e-3


@pytest.mark.parametrize("tau", [0.5, 1.0, 1.5])
def test_semicircle_density_profile(tau):
    val = density(wigner_profile(8), tau, eta=1e-4)
    assert abs(val - math.sqrt(4 - tau**2) / (2 * math.pi)) < 1.5e-3


def test_density_is_nonnegative_on_a_grid():
    s = exp_profile(25)
    taus = np.linspace(0, 5, 41)
    vals = density_scan(s, taus, eta=1e-3)
    assert np.all(vals >= 0)


def test_density_integrates_to_one():
    s = exp_profile(30)
    top = support_bound(s, J=10).trivial_bound
    taus = np.arange(-top - 0.5, top + 0.5, 0.01)
    vals = density_scan(s, taus, eta=1e-3)
    mass = vals.sum() * 0.01
    assert abs(mass - 1.0) < 0.02


def test_density_scan_matches_single_point_calls():
    s = exp_profile(20)
    taus = np.array([0.0, 1.0, 2.5, 4.0])
    vals = density_scan(s, taus, eta=1e-2)
    for t, v in zip(taus, vals):
        assert v == pytest.approx(density(s, float(t), eta=1e-2), abs=1e-6)


def plain_density(s, taus, eta, tol):
    """Reference: plain fixed-point iteration of every point at once."""
    zb = np.asarray(taus, dtype=float) + 1j * eta
    m = np.repeat((-1.0 / zb)[None, :], s.n, axis=0)
    active = np.ones(len(zb), dtype=bool)
    while active.any():
        idx = np.flatnonzero(active)
        fresh = -1.0 / (zb[idx] + s.entries @ m[:, idx])
        res = np.abs(fresh - m[:, idx]).max(axis=0)
        m[:, idx] = fresh
        active[idx[res <= tol]] = False
    return m.imag.mean(axis=0) / math.pi


def test_density_scan_matches_tight_plain_iteration():
    s = exp_profile(30)
    taus = np.arange(0.0, 5.4, 0.15)
    ref = plain_density(s, taus, eta=1e-3, tol=1e-12)
    np.testing.assert_allclose(density_scan(s, taus, eta=1e-3), ref, rtol=0, atol=1e-8)


def test_density_scan_names_an_unconverged_point(monkeypatch):
    import specbound.qve as qve

    monkeypatch.setattr(qve, "_MAX_SWEEPS", 3)
    with pytest.raises(ConvergenceError, match="tau = 0.5 ") as err:
        density_scan(exp_profile(20), [0.5, 1.0], eta=1e-3)
    assert err.value.iterations == 3


@pytest.mark.parametrize("eta", [0.0, math.nan, math.inf])
def test_density_scan_rejects_bad_eta(eta):
    with pytest.raises(InputError, match="eta"):
        density_scan(wigner_profile(5), [0.5], eta=eta)


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
def test_density_scan_rejects_non_finite_taus(tau):
    with pytest.raises(InputError, match="taus"):
        density_scan(wigner_profile(5), [tau, 0.5])


# -------------------------------------------------------- scale covariance

# m_{aS}(z) = m_S(z / sqrt(a)) / sqrt(a) [AEK], and the scans converge to
# an update norm of _TOL / sqrt(|S|), one relative accuracy at every
# scale.  Scaling S by 16^k and z by 4^k is exact in binary, so every
# density moves by exactly 4^-k.
COVARIANT_PROFILES = [exp_profile(20), random_profile(30, seed=7),
                      gram_linearize(np.random.default_rng(0).random((8, 20)) / 20),
                      exp_profile(500)]
COVARIANT_IDS = ["exp20", "random30", "gram8x20", "exp500"]


@pytest.mark.parametrize("s", COVARIANT_PROFILES, ids=COVARIANT_IDS)
def test_density_scan_is_scale_covariant_to_the_bit(monkeypatch, s):
    # an absolute tolerance stalls at small scales; a small budget makes
    # such a kernel fail fast
    monkeypatch.setattr(qve, "_MAX_SWEEPS", 3_000)
    taus = np.arange(0.0, 4.0, 0.25)
    unit = density_scan(s, taus, 1e-3)
    for k in range(-15, 16):
        a = 4.0**k
        got = density_scan(VarianceMatrix(a * a * s.entries), a * taus, a * 1e-3)
        assert np.array_equal(got * a, unit), k


def test_density_scan_converges_far_from_unit_scale(monkeypatch):
    # scales that are not powers of 16: an absolute tolerance of 1e-9
    # accepted the start at 1e40, where |m| is about 1e-20, and read
    # 0.19587; at 1e-24, where |m| is about 1e12, it spent its whole
    # budget and raised
    monkeypatch.setattr(qve, "_MAX_SWEEPS", 3_000)
    s = exp_profile(20)
    unit = pytest.approx(0.2062046479923206, rel=1e-12)
    assert density_scan(s, [0.0], 1e-3)[0] == unit
    big = density_scan(VarianceMatrix(1e40 * s.entries), [0.0], 1e17)[0]
    assert big * 1e20 == unit
    small = density_scan(VarianceMatrix(1e-24 * s.entries), [0.0], 1e-15)[0]
    assert small * 1e-12 == unit


# ---------------------------------------------------------------- support

def test_support_estimate_semicircle_edge():
    est = estimate_support(wigner_profile(8))
    assert isinstance(est, SupportEstimate)
    assert est.found
    assert abs(est.value - 2.0) < 0.05


def test_support_estimate_zero_profile_not_found():
    est = estimate_support(VarianceMatrix(np.zeros((6, 6))))
    assert est.value == 0.0
    assert not est.found
    # the grid still runs to 2 sqrt(|S|) + 1
    assert est.grid_top == 1.0


def test_support_estimate_of_a_density_below_the_threshold_is_not_found():
    # a nonzero profile whose smoothed density never reaches 1: the walk
    # down from the ceiling runs off the bottom of the grid
    est = estimate_support(wigner_profile(20), grid_step=1e-2, threshold=1.0)
    assert est == SupportEstimate(0.0, False, 1e-3, 1e-2, 1.0, 3.0)


def test_support_estimate_stays_below_improved_bound():
    for s in (wigner_profile(8), exp_profile(100), seeded_profile(60, seed=7)):
        est = estimate_support(s)
        rep = support_bound(s, J=50)
        assert est.found
        assert est.value <= rep.improved_bound + est.grid_step


def test_support_estimate_exponential_profile_window():
    # the n=100 profile has nearly the same continuum limit as larger
    # sizes, so the edge must land in a narrow window below the bound
    est = estimate_support(exp_profile(100))
    assert est.found
    assert 3.5 <= est.value <= 3.75


def test_support_estimate_respects_grid_parameters():
    est = estimate_support(wigner_profile(8), grid_step=0.01)
    assert est.grid_step == 0.01
    assert abs(est.value - 2.0) < 0.06
    assert est.value == pytest.approx(round(est.value / 0.01) * 0.01, abs=1e-9)


@pytest.mark.parametrize("name", ["eta", "grid_step", "threshold"])
@pytest.mark.parametrize("value", [0.0, -1e-3, math.nan, math.inf])
def test_support_estimate_rejects_bad_scan_parameters(name, value):
    with pytest.raises(InputError, match=name):
        estimate_support(wigner_profile(5), **{name: value})


def test_support_scan_names_an_unconverged_point(monkeypatch):
    import specbound.qve as qve

    monkeypatch.setattr(qve, "_MAX_SWEEPS", 3)
    with pytest.raises(ConvergenceError, match=r"tau = \d") as err:
        estimate_support(exp_profile(20))
    assert err.value.iterations == 3
    assert err.value.residual > 0


def estimate_support_loop(s, eta=1e-3, grid_step=1e-3, threshold=1e-2,
                          tol=1e-8, max_iter=60_000, block=128):
    """Reference: the support scan by plain fixed-point iteration over
    the whole grid, top down in warm-started blocks.  Its early cut,
    which the library does not have, must not change the answer."""
    norm = inf_norm(s)
    grid_top = 2.0 * math.sqrt(norm) + 1.0
    n_pts = int(math.floor(grid_top / grid_step)) + 1
    taus_desc = np.arange(n_pts - 1, -1, -1, dtype=float) * grid_step
    warm = None
    for start in range(0, n_pts, block):
        tb = taus_desc[start:start + block]
        zb = tb + 1j * eta
        if warm is None:
            m_block = np.repeat((-1.0 / zb)[None, :], s.n, axis=0)
        else:
            m_block = np.repeat(warm[:, None], len(tb), axis=1)
        active = np.ones(len(tb), dtype=bool)
        dens = np.full(len(tb), np.nan)
        for _ in range(max_iter):
            idx = np.flatnonzero(active)
            fresh = -1.0 / (zb[idx][None, :] + s.entries @ m_block[:, idx])
            res = np.abs(fresh - m_block[:, idx]).max(axis=0)
            m_block[:, idx] = fresh
            done = idx[res <= tol]
            active[done] = False
            dens[done] = m_block[:, done].imag.mean(axis=0) / math.pi
            exceed = np.flatnonzero(~active & (dens > threshold))
            if len(exceed):
                j0 = exceed[0]
                if not active[:j0].any():
                    return SupportEstimate(float(tb[j0]), True, eta,
                                           grid_step, threshold, grid_top)
                active[j0 + 1:] = False
            if not active.any():
                break
        assert not active.any(), "reference scan stalled"
        warm = m_block[:, -1]
    return SupportEstimate(0.0, False, eta, grid_step, threshold, grid_top)


def ceiling(s):
    return _edge_ceiling(s, 2 * math.sqrt(inf_norm(s)))


def block_profile(n1, n2, a, b, c):
    """Two-block constant profile [[a, b], [b, c]] with blocks of n1 and
    n2 rows."""
    s = np.empty((n1 + n2, n1 + n2))
    s[:n1, :n1], s[:n1, n1:], s[n1:, :n1], s[n1:, n1:] = a, b, b, c
    return VarianceMatrix(s)


# The last two have the widest gap between B = 2 sqrt(|S|) and the edge
# (0.39 and 0.45), where the edge ceiling moves the scan start most.
SCAN_PROFILES = [wigner_profile(50), exp_profile(100)] + [
    random_profile(60, seed=k) for k in range(5)] + [
    gram_linearize(np.random.default_rng(1).random((20, 60)) / 60),
    block_profile(10, 50, 0.02, 0.02, 0.004)]
SCAN_IDS = ["wigner50", "exp100"] + [f"random60-{k}" for k in range(5)] + [
    "gram20x60", "block10+50"]


@pytest.mark.parametrize("s", SCAN_PROFILES, ids=SCAN_IDS)
def test_scan_profiles_row_sums_are_the_product_with_ones(s):
    # the kernel's starts and the scan's tolerance read these sums
    assert np.array_equal(s.row_sums, s.entries @ np.ones(s.n))
    assert not s.row_sums.flags.writeable


# threshold 1e-3 puts the density at the scan's start above the threshold
# on most profiles, so the scan must walk up from it
@pytest.mark.parametrize("grid_step,threshold", [
    (1e-3, 1e-2), (1e-2, 1e-2), (1e-3, 1e-3)],
    ids=["0.001", "0.01", "0.001-threshold0.001"])
@pytest.mark.parametrize("s", SCAN_PROFILES, ids=SCAN_IDS)
def test_support_estimate_equals_plain_iteration_scan(s, grid_step, threshold):
    assert estimate_support(s, grid_step=grid_step, threshold=threshold) == (
        estimate_support_loop(s, grid_step=grid_step, threshold=threshold))


def scan_start(s, step=1e-3):
    """Highest point the scan converges when the density there is at
    most the threshold: the lowest grid point at or above the ceiling."""
    return math.ceil(ceiling(s) / step) * step


@pytest.mark.parametrize("s", [exp_profile(200), wigner_profile(50)],
                         ids=["exp200", "wigner50"])
def test_support_scan_starts_at_the_ceiling(monkeypatch, s):
    # work guard: the density at the first grid point above the ceiling
    # is below the threshold, so nothing above it is scanned, and the
    # blocks grow from 4 points until the edge is met
    scanned = []

    def recording(s, taus, eta):
        scanned.append(np.array(taus))
        return density_scan(s, taus, eta)

    monkeypatch.setattr(qve, "density_scan", recording)
    est = estimate_support(s)
    assert scanned[0].max() == scan_start(s)
    assert max(taus.max() for taus in scanned) == scan_start(s)
    assert [len(taus) for taus in scanned] == [4, 8, 16, 4, 32][:len(scanned)]
    assert est == estimate_support_loop(s)


def test_support_scan_blocks_end_on_every_multiple_of_the_full_block(monkeypatch):
    # the blocks hold 4, 8, 16 and 4 points, then _BLOCK each, in both
    # walk directions: each multiple of _BLOCK ends a block, so a walk
    # that meets its point at any depth converges no more points than
    # one in blocks of _BLOCK
    assert qve._BLOCK == 32
    for above in (True, False):
        sizes = []

        def never_past(s, taus, eta):
            sizes.append(len(taus))
            return np.full(len(taus), 0.0 if above else 1.0)

        monkeypatch.setattr(qve, "density_scan", never_past)
        assert qve._first_past(None, np.arange(100.0), 1e-3, 1e-2, above) == 100
        assert sizes == [4, 8, 16, 4, 32, 32, 4], above


@pytest.mark.parametrize("s", SCAN_PROFILES, ids=SCAN_IDS)
def test_density_falls_from_the_ceiling_to_its_reach(s):
    # the premise of both of the scan's walks: above the ceiling C >= E
    # the density falls, so the walk down from the first grid point at
    # or above C skips no point above the threshold, and the walk up
    # stops at the first point at or below it; checked from C to the
    # reach of the Cauchy bound eta / (pi ((tau - C)^2 + eta^2))
    eta, step, threshold = 1e-3, 1e-3, 1e-2
    reach = ceiling(s) + math.sqrt(eta / (math.pi * threshold) - eta**2)
    taus = np.arange(round(scan_start(s) / step), math.floor(reach / step) + 1) * step
    assert len(taus) > 100
    assert (np.diff(density_scan(s, taus, eta=eta)) <= 0).all()


FALLBACK_CASES = [(SCAN_PROFILES[0], 1e-3), (SCAN_PROFILES[2], 1e-3),
                  (SCAN_PROFILES[7], 1e-2)]


@pytest.mark.parametrize("s,threshold", FALLBACK_CASES, ids=[
    "wigner50-threshold0.001", "random60-0-threshold0.001", "gram20x60"])
def test_support_scan_walks_up_from_the_ceiling(monkeypatch, s, threshold):
    # work guard of the fallback: the density at the first grid point
    # above the ceiling exceeds the threshold, so the scan walks up from
    # there and converges no point more than one block above its answer
    assert density(s, scan_start(s), eta=1e-3) > threshold
    scanned = []

    def recording(s, taus, eta):
        scanned.append(np.array(taus))
        return density_scan(s, taus, eta)

    monkeypatch.setattr(qve, "density_scan", recording)
    est = estimate_support(s, threshold=threshold)
    step = est.grid_step
    assert scanned[0].max() == scan_start(s)
    highest = max(round(taus.max() / step) for taus in scanned)
    assert highest <= round(est.value / step) + qve._BLOCK
    assert est == estimate_support_loop(s, threshold=threshold)


@pytest.mark.parametrize("s", COVARIANT_PROFILES, ids=COVARIANT_IDS)
def test_support_estimate_is_scale_covariant_to_the_bit(s):
    # eta and grid_step scale with the edge, 4^k, and the threshold with
    # the density, 4^-k.  Only k >= 0: the grid runs to 2 sqrt(|S|) + 1,
    # so at k = -10 it would hold about 1e9 points.
    unit = estimate_support(s).value
    for k in range(13):
        a = 4.0**k
        got = estimate_support(VarianceMatrix(a * a * s.entries), a * 1e-3,
                               a * 1e-3, 1e-2 / a)
        assert got.value == a * unit, k


def test_support_estimate_rejects_a_grid_no_array_can_hold():
    # 2 sqrt(|S|) / grid_step points is past what a float64 array can
    # hold, so the grid is an input error before anything is allocated
    for value in (2e29, 1e306):
        with pytest.raises(InputError, match="points is too large"):
            estimate_support(VarianceMatrix(np.full((2, 2), value)))
    # a step so small that the point count overflows to inf
    with pytest.raises(InputError, match="inf points is too large"):
        estimate_support(wigner_profile(4), grid_step=1e-320)


# ------------------------------------------------------------ edge ceiling

def ternary_min(fn, lo, hi, steps=200):
    """Minimum of a convex function on [lo, hi] by ternary search."""
    for _ in range(steps):
        a, b = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if fn(a) <= fn(b):
            hi = b
        else:
            lo = a
    return fn((lo + hi) / 2)


def two_block_edge(n1, n2, a, b, c):
    """Reference: the edge of block_profile(n1, n2, a, b, c) as the
    minimum over block-constant u = (u1, u2) > 0 of max_i (1/u_i +
    (S u)_i).  Each term is a positive sum of exponentials of
    (log u1, log u2), so their maximum is convex there and nested
    ternary searches over log u find its minimum."""
    def cert(u1, u2):
        return max(1 / u1 + a * n1 * u1 + b * n2 * u2,
                   1 / u2 + b * n1 * u1 + c * n2 * u2)
    return ternary_min(lambda x: ternary_min(
        lambda y: cert(math.exp(x), math.exp(y)), -30, 30), -30, 30)


@pytest.mark.parametrize("n", [1, 7, 50, 500])
def test_edge_ceiling_of_wigner_profile_is_two(n):
    assert ceiling(wigner_profile(n)) == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("rows,cols", [(60, 120), (50, 50), (30, 270), (120, 60)])
def test_edge_ceiling_of_constant_gram_profile_is_marchenko_pastur(rows, cols):
    # entries 1/cols: squared singular values fill [(1 - r)^2, (1 + r)^2]
    # with r = sqrt(rows / cols)
    edge = 1 + math.sqrt(rows / cols)
    got = ceiling(gram_linearize(np.full((rows, cols), 1.0 / cols)))
    assert edge * (1 - 1e-12) <= got <= edge * (1 + _CEILING_WIDTH)


@pytest.mark.parametrize("args", [
    (40, 20, 0.025, 0.025, 0.005), (30, 30, 1 / 30, 0.5 / 30, 0.2 / 30),
    (10, 50, 0.02, 0.02, 0.004), (10, 50, 0.05, 0.02, 0.002),
    (50, 10, 0.02, 0.0, 0.1), (1, 1, 1, 0, 0)])
def test_edge_ceiling_of_two_block_profile(args):
    # the last has a zero row, which takes no part in the ceiling
    edge = two_block_edge(*args)
    got = ceiling(block_profile(*args))
    assert edge * (1 - 1e-12) <= got <= edge * (1 + _CEILING_WIDTH)


def test_edge_ceiling_of_a_union_of_equal_edges():
    # a thin Gram block, edge 1 + sqrt(1/400), beside a Wigner block of
    # row sum 1.05^2 / 4, the same edge: the union's edge is 1.05
    g = gram_linearize(np.full((1, 400), 1 / 400)).entries
    w = 1.05**2 / 4 * wigner_profile(300).entries
    s = VarianceMatrix(np.block([[g, np.zeros((401, 300))],
                                 [np.zeros((300, 401)), w]]))
    assert 1.05 * (1 - 1e-12) <= ceiling(s) <= 1.05 * (1 + _CEILING_WIDTH)


def test_edge_ceiling_that_spends_its_steps_stays_certified():
    # weakly coupled rows: the ascent's bracket does not close within
    # _CEILING_STEPS, so only the certificate is pinned, not the width
    s = block_profile(1, 1, 1.16, 0.057, 1.156)
    got = ceiling(s)
    assert two_block_edge(1, 1, 1.16, 0.057, 1.156) <= got <= 2 * math.sqrt(inf_norm(s))


@pytest.mark.parametrize("profile,most", [
    (lambda: exp_profile(500), 100), (lambda: random_profile(2000, 7), 60),
    (lambda: gram_linearize(np.random.default_rng(0).random((60, 120)) / 120), 100),
    (lambda: wigner_profile(500), 1)], ids=["exp500", "random2000", "gram60x120", "wigner500"])
def test_edge_ceiling_work_guard(products, profile, most):
    # two products per step of the ascent but the first, whose S p is
    # the row sums; on wigner500 p = 1 closes the bracket at once, in
    # one step
    s = profile()
    products[0] = 0
    ceiling(s)
    assert 1 <= products[0] <= most


def dual_lower(a, p):
    """Weak duality's lower side L(p) = 2 sum sqrt(p S p) / sum p of the
    edge of the profile ``a``, in 60-digit decimals, or None where
    S p = 0.  Decimals, as the products can fall below the normal floats:
    on S = [[2.2250738585e-313]] and p = [0.6015625] they round L(p) in
    float64 up past the exact edge 2 sqrt(S) by 5.6e-12 relative."""
    with localcontext() as ctx:
        ctx.prec = 60
        p = [Decimal(v) for v in p]
        sp = [sum(Decimal(v) * w for v, w in zip(row, p)) for row in a.tolist()]
        if not any(sp):
            return None
        return 2 * sum((v * w).sqrt() for v, w in zip(p, sp)) / sum(p)


UNIT = st.one_of(st.just(0.0), st.floats(0.0, 1.0))


def unit_profile(data, n, scale):
    """A drawn symmetric n-by-n array with entries in [0, scale], zeros
    among them."""
    a = np.array(data.draw(st.lists(UNIT, min_size=n * n, max_size=n * n))).reshape(n, n)
    return (a + a.T) / 2 * scale


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 7), log_a=st.floats(-8.0, 8.0))
def test_edge_ceiling_bounds_every_dual_lower_bound(data, n, log_a):
    # weak duality: L(p) <= edge <= ceiling for every p >= 0 with
    # S p != 0, on profiles with zero entries and rows, at every scale
    s = VarianceMatrix(unit_profile(data, n, 10.0**log_a))
    lower = dual_lower(s.entries, data.draw(st.lists(UNIT, min_size=n, max_size=n)))
    assume(lower is not None)
    got = ceiling(s)
    assert lower <= Decimal(got) * (1 + Decimal("1e-12"))
    assert got <= 2 * math.sqrt(inf_norm(s))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), sizes=st.lists(st.integers(1, 4), min_size=2, max_size=3),
       log_scales=st.lists(st.floats(-12.0, 4.0), min_size=3, max_size=3))
def test_edge_ceiling_bounds_every_block_of_a_union(data, sizes, log_scales):
    # a block-diagonal union of blocks at scales 1e-12 to 1e4: its edge is
    # the largest block edge, so the ceiling is at least every block's
    # L(p), for p = 1 and a drawn p on that block, however far the
    # ascent's p drains the other blocks
    blocks = [unit_profile(data, m, 10.0**k) for m, k in zip(sizes, log_scales)]
    s = VarianceMatrix(block_union(*blocks))
    got = ceiling(s)
    for b in blocks:
        for p in (np.ones(len(b)), data.draw(st.lists(UNIT, min_size=len(b),
                                                      max_size=len(b)))):
            lower = dual_lower(b, p)
            assert lower is None or lower <= Decimal(got) * (1 + Decimal("1e-12"))
    assert got <= 2 * math.sqrt(inf_norm(s))


@pytest.mark.parametrize("grid_step", [1e-3, 1e-2])
@pytest.mark.parametrize("s", SCAN_PROFILES, ids=SCAN_IDS)
def test_edge_ceiling_lies_between_the_scan_and_the_row_sum_bound(s, grid_step):
    est = estimate_support(s, grid_step=grid_step)
    got = ceiling(s)
    assert est.value - grid_step <= got <= 2 * math.sqrt(inf_norm(s))


@pytest.mark.parametrize("v", [
    np.exp(np.arange(60) / 60), np.exp(np.arange(500) / 500),
    1 + np.arange(200) / 200, np.random.default_rng(3).random(150) + 0.1,
], ids=["exp60", "exp500", "linear200", "random150"])
def test_rank_one_edge_orders_the_proxy_ceiling_and_bound(v):
    # the moment proxy lies below the exact edge, the certified ceiling
    # above it by at most its bracket width, and the paper's bound above
    s = VarianceMatrix(np.outer(v, v) / len(v))
    edge = rank_one_edge(v)
    proxy = support_from_moments(moment_recursion(s, 100))
    assert proxy <= edge <= ceiling(s) <= edge * (1 + _CEILING_WIDTH)
    assert edge <= support_bound(s).improved_bound


@settings(max_examples=40, deadline=None)
@given(log_a=st.floats(-8.0, 8.0), seed=st.integers(0, 3))
def test_edge_ceiling_is_scale_equivariant(log_a, seed):
    a = 10.0 ** log_a
    s = random_profile(30, seed=seed)
    scaled = VarianceMatrix(a * s.entries)
    assert ceiling(scaled) == pytest.approx(math.sqrt(a) * ceiling(s),
                                            rel=_CEILING_WIDTH)


# ----------------------------------------------------------------- moments

def test_constant_profile_moments_are_catalan():
    table = moment_recursion(wigner_profile(8), kmax=5)
    assert not table.flags.writeable
    for x in range(8):
        assert [table[x, k] for k in range(6)] == [1, 1, 2, 5, 14, 42]


def test_first_moment_is_row_sum():
    s = seeded_profile(6, seed=2, scale=1.0)
    table = moment_recursion(s, kmax=1)
    np.testing.assert_allclose(table[:, 1], s.entries.sum(axis=1), rtol=1e-14)


def test_moment_table_invariants():
    s = exp_profile(12)
    table = moment_recursion(s, kmax=8)
    np.testing.assert_array_equal(table[:, 0], np.ones(12))
    assert np.all(table >= 0)
    assert table.shape == (12, 9)
    with pytest.raises(InputError):
        moment_recursion(s, kmax=-1)


@pytest.mark.parametrize("n,seed", [(6, 0), (6, 1), (8, 5)])
def test_moments_equal_tree_value_sums(n, seed):
    """Exhaustive tree enumeration must reproduce the recursion: the
    k-th moment is the sum of the values of all plane trees with k
    edges, for every root label."""
    s = seeded_profile(n, seed=seed, scale=0.8)
    table = moment_recursion(s, kmax=6)
    for k in range(7):
        total = np.zeros(n)
        for t in enumerate_trees(k):
            total += tree_val_vector(s, t)
        np.testing.assert_allclose(table[:, k], total, rtol=1e-10)


def test_moment_overflow_guard():
    s = VarianceMatrix(np.full((3, 3), 1e80))
    with pytest.raises(NumericError):
        moment_recursion(s, kmax=5)


def moment_recursion_loop(s, kmax):
    """Reference: the recursion with S @ c[:, m] recomputed for every
    (k, m) pair, as written in the formula."""
    c = np.zeros((s.n, kmax + 1))
    c[:, 0] = 1.0
    for k in range(1, kmax + 1):
        acc = np.zeros(s.n)
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(k):
                acc += c[:, k - 1 - m] * (s.entries @ c[:, m])
        if not np.all(np.isfinite(acc)):
            raise NumericError(f"moment overflow at k = {k}")
        c[:, k] = acc
    return c


@pytest.mark.parametrize("s", [
    random_profile(300, seed=7), exp_profile(200), wigner_profile(50),
    random_profile(1, seed=7), random_profile(2, seed=7),
    gram_linearize(np.random.default_rng(0).random((20, 40))),
], ids=["random300", "exp200", "wigner50", "random1", "random2", "gram20x40"])
def test_moment_recursion_equals_reference_loop(s):
    # n = 1 pins the summation order: NumPy sums one-wide rows pairwise
    assert np.array_equal(moment_recursion(s, kmax=60),
                          moment_recursion_loop(s, kmax=60))


@pytest.mark.parametrize("value", [1000.0, 1e80])
def test_moment_overflow_at_same_depth_as_reference_loop(value):
    s = VarianceMatrix(np.full((3, 3), value))
    with pytest.raises(NumericError) as ref:
        moment_recursion_loop(s, kmax=100)
    with pytest.raises(NumericError) as got:
        moment_recursion(s, kmax=100)
    assert str(got.value).startswith(str(ref.value) + ";")


@pytest.mark.parametrize("s", [exp_profile(60), random_profile(40, seed=7)],
                         ids=["exp60", "random40"])
def test_shallower_moment_table_is_a_prefix_of_a_deeper_one(s):
    # why the proxy needs no depth of its own: a shallower proxy is the
    # proxy of a shallower table, whose moments are the deeper table's
    assert np.array_equal(moment_recursion(s, kmax=10),
                          moment_recursion(s, kmax=30)[:, :11])


def test_support_proxy_constant_profile_frozen():
    table = moment_recursion(wigner_profile(8), kmax=20)
    val = support_from_moments(table)
    # Catalan(20) ** (1/40)
    assert val == pytest.approx(1.759662640052093, abs=1e-12)
    assert val == pytest.approx(6564120420 ** (1 / 40), abs=1e-13)


def test_support_proxy_kmax_one_is_sqrt_norm():
    s = seeded_profile(10, seed=4)
    table = moment_recursion(s, kmax=1)
    assert support_from_moments(table) == pytest.approx(
        math.sqrt(s.entries.sum(axis=1).max())
    )


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 20), seed=st.integers(0, 2**32 - 1),
       log_a=st.floats(-2.0, 2.0), kmax=st.integers(1, 20))
def test_support_proxy_is_scale_equivariant(n, seed, log_a, kmax):
    # c_k(aS) = a^k c_k(S); in this range every c_k stays in double range
    a = 10.0 ** log_a
    s = random_profile(n, seed=seed)
    scaled = VarianceMatrix(a * s.entries)
    assert support_from_moments(moment_recursion(scaled, kmax)) == pytest.approx(
        math.sqrt(a) * support_from_moments(moment_recursion(s, kmax)), rel=1e-12)


def test_support_proxy_increases_toward_edge():
    s = exp_profile(60)
    lo = support_from_moments(moment_recursion(s, kmax=10))
    hi = support_from_moments(moment_recursion(s, kmax=30))
    assert hi > lo
    est = estimate_support(s)
    assert hi <= est.value + 0.05


def test_support_proxy_defaults_to_table_depth():
    table = moment_recursion(wigner_profile(4), kmax=7)
    assert support_from_moments(table) == table[:, 7].max() ** (1 / 14)
    with pytest.raises(InputError, match="kmax = 0"):
        support_from_moments(moment_recursion(wigner_profile(4), kmax=0))
    # the depth is read off the table itself
    assert support_from_moments(np.full((3, 3), 4.0)) == 4.0 ** (1 / 4)
