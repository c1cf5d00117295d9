import json
import math
import statistics
import threading
from dataclasses import asdict

import numpy as np
import pytest

from _jacobi import jacobi_eigenvalues, jacobi_spectral_radius
import specbound.montecarlo as montecarlo
from specbound.bounds import support_bound
from specbound.errors import InputError
from specbound.linalg import (
    VarianceMatrix,
    _one_blas_thread,
    _openblas,
    exp_profile,
    gram_linearize,
    random_profile,
    wigner_profile,
)
from specbound.montecarlo import (
    ENSEMBLES,
    McConfig,
    _draw,
    _radius,
    mc_experiment,
    sample_matrix,
    trial_rng,
)


def seeded_profile(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.random((n, n))
    return VarianceMatrix((a + a.T) / 2 / n)


# ------------------------------------------------------------- oracle sanity

def test_jacobi_oracle_against_known_spectra():
    vals = jacobi_eigenvalues(np.diag([3.0, -5.0, 2.0]))
    np.testing.assert_allclose(vals, [-5.0, 2.0, 3.0], atol=1e-13)
    vals = jacobi_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-13)
    # 3x3 with a known closed form: circulant-like chain has 0, +-sqrt(2)
    chain = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    np.testing.assert_allclose(
        jacobi_eigenvalues(chain), [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-12
    )


# ------------------------------------------------------------------ sampling

def test_zero_profile_samples_zero_matrix():
    s = VarianceMatrix(np.zeros((5, 5)))
    for ensemble in ("real-symmetric", "complex-hermitian"):
        h = sample_matrix(s, ensemble, trial_rng(3, 0))
        assert np.all(h == 0)


def test_sampling_is_deterministic_per_stream():
    s = exp_profile(12)
    a = sample_matrix(s, "real-symmetric", trial_rng(42, 7))
    b = sample_matrix(s, "real-symmetric", trial_rng(42, 7))
    c = sample_matrix(s, "real-symmetric", trial_rng(42, 8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_samples_are_exactly_symmetric():
    s = seeded_profile(9, seed=5)
    h = sample_matrix(s, "real-symmetric", trial_rng(0, 0))
    assert np.array_equal(h, h.T)
    assert not np.iscomplexobj(h)
    g = sample_matrix(s, "complex-hermitian", trial_rng(0, 0))
    assert np.array_equal(g, g.conj().T)
    assert np.all(g.imag.diagonal() == 0)


def two_triangle_sample(s, ensemble, rng):
    """Reference sampler: the upper triangle drawn, the lower mirrored."""
    sigma = np.sqrt(s.entries)
    if ensemble == "real-symmetric":
        upper = np.triu(sigma * rng.standard_normal((s.n, s.n)))
        return upper + np.triu(upper, 1).T
    gr = rng.standard_normal((s.n, s.n))
    gi = rng.standard_normal((s.n, s.n))
    upper = np.triu(sigma * (gr + 1j * gi) / math.sqrt(2), 1)
    return upper + upper.conj().T + np.diag(np.diag(sigma) * np.diag(gr))


# zero diagonal blocks and a zero profile put signed zeros in the draws
MC_PROFILES = {
    "exp40": exp_profile(40),
    "random33": random_profile(33, 5),
    "gram12x20": gram_linearize(np.random.default_rng(2).random((12, 20)) / 20),
    "n1": VarianceMatrix(np.array([[0.7]])),
    "zero5": VarianceMatrix(np.zeros((5, 5))),
}


@pytest.mark.parametrize("ensemble", ["real-symmetric", "complex-hermitian"])
@pytest.mark.parametrize("name", MC_PROFILES)
def test_sample_matrix_equals_the_two_triangle_reference(name, ensemble):
    s = MC_PROFILES[name]
    for trial in range(3):
        got = sample_matrix(s, ensemble, trial_rng(8, trial))
        want = two_triangle_sample(s, ensemble, trial_rng(8, trial))
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("ensemble", ["real-symmetric", "complex-hermitian"])
@pytest.mark.parametrize("name", MC_PROFILES)
def test_experiment_equals_radii_of_public_samples(name, ensemble):
    # the experiment's own draw path gives the eigenvalues of the public
    # samples bit for bit
    s = MC_PROFILES[name]
    res = mc_experiment(s, McConfig(trials=4, seed=13, ensemble=ensemble))
    assert res.per_trial == tuple(
        float(np.abs(np.linalg.eigvalsh(
            sample_matrix(s, ensemble, trial_rng(13, trial)))).max())
        for trial in range(4))


def test_unknown_ensemble_rejected():
    with pytest.raises(InputError):
        sample_matrix(wigner_profile(3), "ginibre", trial_rng(0, 0))


@pytest.mark.parametrize("ensemble", ["real-symmetric", "complex-hermitian"])
def test_entry_statistics_match_profile(ensemble):
    """Over many draws each entry must be centered with variance
    E |H_xy|^2 equal to the profile entry.  The profile holds ten copies
    of a 3x3 block on its diagonal, so each draw samples every block
    entry ten times, independently, and every entry off the blocks is 0."""
    block = np.array([[1.0, 0.5, 0.2],
                      [0.5, 2.0, 0.8],
                      [0.2, 0.8, 0.7]])
    copies = 10
    s = VarianceMatrix(np.kron(np.eye(copies), block))
    off_block = np.kron(np.eye(copies), np.ones((3, 3))) == 0
    diag = np.arange(copies)
    rng = trial_rng(2024, 0)
    draws = 10_000
    acc_sq = np.zeros((3, 3))
    acc_mean = np.zeros((3, 3), dtype=complex)
    for _ in range(draws):
        h = sample_matrix(s, ensemble, rng)
        assert not h[off_block].any()
        blocks = h.reshape(copies, 3, copies, 3)[diag, :, diag]  # (copies, 3, 3)
        acc_sq += (np.abs(blocks) ** 2).sum(axis=0)
        acc_mean += blocks.sum(axis=0)
    samples = copies * draws  # 100,000 per block entry
    var = acc_sq / samples
    np.testing.assert_allclose(var, block, rtol=0.03)
    # per-entry mean within 3 standard errors of zero
    err = 3 * np.sqrt(block / samples) + 1e-12
    assert np.all(np.abs(acc_mean / samples) <= err)


# --------------------------------------------------------- spectral radius
# _radius is the package's one radius function: mc_experiment measures
# every trial with it

@pytest.mark.parametrize("n", [1, 2, 37, 500])
def test_radius_equals_eigvalsh_on_one_thread_bit_for_bit(n):
    # LAPACKE's solver is the routine eigvalsh calls, with its workspace;
    # it overwrites the draw it is handed, and only a copy of any other
    s = exp_profile(n)
    for ensemble in ENSEMBLES:
        for trial in range(2):
            h = sample_matrix(s, ensemble, trial_rng(4, trial))
            kept = h.copy()
            draw = _draw(np.sqrt(s.entries), ensemble, trial_rng(4, trial))
            with _one_blas_thread():
                want = float(np.abs(np.linalg.eigvalsh(h)).max())
                assert _radius(h) == want
                assert _radius(draw) == want
            assert np.array_equal(h, kept)


def test_spectral_radius_swap_matrix():
    assert _radius(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(
        1.0, rel=1e-14)


def test_spectral_radius_diagonal():
    assert _radius(np.diag([3.0, -5.0, 2.0])) == pytest.approx(5.0, rel=1e-14)


def test_spectral_radius_zero_matrix():
    value = _radius(np.zeros((4, 4)))
    assert value == 0.0
    assert isinstance(value, float)


def test_spectral_radius_matches_jacobi_oracle():
    rng = np.random.default_rng(11)
    for n in (10, 35, 50):
        g = rng.standard_normal((n, n))
        h = (g + g.T) / 2
        assert _radius(h) == pytest.approx(jacobi_spectral_radius(h), rel=1e-12)


def test_spectral_radius_complex_hermitian_matches_oracle():
    h = sample_matrix(exp_profile(30), "complex-hermitian", trial_rng(8, 1))
    assert _radius(h) == pytest.approx(jacobi_spectral_radius(h), rel=1e-12)


REFUSED = {
    "float seed": lambda: trial_rng(1.5, 0),
    "float trial": lambda: trial_rng(0, 1.5),
    "negative seed": lambda: trial_rng(-1, 0),
    "negative trial": lambda: trial_rng(0, -1),
    "bool seed": lambda: trial_rng(True, 0),
    "bool trial": lambda: trial_rng(0, True),
    "seed of 2**64": lambda: trial_rng(2**64, 0),
}


@pytest.mark.parametrize("call", REFUSED.values(), ids=REFUSED)
def test_trial_rng_refuses_with_input_error(call):
    with pytest.raises(InputError):
        call()


def test_trial_rng_takes_the_largest_seed_and_numpy_integers():
    a = trial_rng(np.uint64(2**64 - 1), np.int64(3)).random()
    assert a == trial_rng(2**64 - 1, 3).random()


# ---------------------------------------------------------------- experiment

def test_config_validation():
    with pytest.raises(InputError):
        McConfig(trials=0, seed=1)
    with pytest.raises(InputError):
        McConfig(trials=2, seed=-1)
    with pytest.raises(InputError):
        McConfig(trials=2, seed=1, ensemble="quaternion")


@pytest.mark.parametrize("kind", [np.int64, np.uint64])
def test_config_accepts_numpy_integers(kind):
    cfg = McConfig(trials=kind(2), seed=kind(7))
    assert type(cfg.trials) is int and type(cfg.seed) is int
    assert cfg == McConfig(trials=2, seed=7)
    res = mc_experiment(wigner_profile(5), cfg)
    assert json.loads(json.dumps(asdict(res)))["seed"] == 7
    top = int(np.iinfo(kind).max)
    assert McConfig(trials=1, seed=kind(top)).seed == top
    with pytest.raises(InputError, match="trials"):
        McConfig(trials=kind(0), seed=1)
    with pytest.raises(InputError, match="seed"):
        McConfig(trials=1, seed=np.int64(-1))
    for seed in (2**64, 2**70):
        with pytest.raises(InputError, match="seed"):
            McConfig(trials=1, seed=seed)


def test_experiment_is_deterministic():
    s = exp_profile(25)
    cfg = McConfig(trials=3, seed=9)
    a = mc_experiment(s, cfg)
    b = mc_experiment(s, cfg)
    assert a == b
    assert a.per_trial == b.per_trial
    assert len(a.per_trial) == 3
    assert all(v >= 0 for v in a.per_trial)


def test_experiment_statistics_recompute():
    res = mc_experiment(seeded_profile(20, seed=3), McConfig(trials=5, seed=17))
    assert res.mean == pytest.approx(statistics.fmean(res.per_trial), rel=1e-15)
    assert res.std == pytest.approx(statistics.stdev(res.per_trial), rel=1e-12)
    assert res.std_defined
    assert res.failures == 0
    assert res.elapsed >= 0


def test_single_trial_zero_profile():
    res = mc_experiment(VarianceMatrix(np.zeros((6, 6))),
                        McConfig(trials=1, seed=0))
    assert res.mean == 0.0
    assert res.std == 0.0
    assert not res.std_defined
    assert res.per_trial == (0.0,)


def test_per_trial_values_are_exact_spectral_radii():
    s = exp_profile(20)
    for ensemble in ("real-symmetric", "complex-hermitian"):
        res = mc_experiment(s, McConfig(trials=3, seed=31, ensemble=ensemble))
        for trial, value in enumerate(res.per_trial):
            h = sample_matrix(s, ensemble, trial_rng(31, trial))
            assert value == pytest.approx(jacobi_spectral_radius(h), rel=1e-12)


def test_failures_are_counted_and_excluded(monkeypatch):
    # a nonzero info from the LAPACKE solver, and a LinAlgError from the
    # eigvalsh fallback where there is no LAPACKE, fail the trial
    calls = []

    def info_one(*args):
        calls.append(args[3])
        return 1

    def fail(h):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    blas = montecarlo._openblas()
    solvers = []
    if blas is not None and blas.dsyevd is not None:
        solvers.append(blas._replace(dsyevd=info_one, zheevd=info_one))
    solvers.append(None)
    for found in solvers:
        monkeypatch.setattr(montecarlo, "_openblas", lambda: found)
        if found is None:
            monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        for ensemble in ENSEMBLES:
            res = mc_experiment(exp_profile(30),
                                McConfig(trials=4, seed=5, ensemble=ensemble))
            assert res.failures == 4
            assert res.per_trial == ()
            assert res.mean == 0.0
            assert not res.std_defined
    assert calls == [30] * 8 * (len(solvers) - 1)


@pytest.mark.parametrize("where", ["every draw", "a helper's draw"])
def test_an_error_in_a_draw_reaches_the_caller(monkeypatch, where):
    # a MemoryError is no failed trial: it reaches the caller once every
    # worker has ended, and the thread count is restored
    blas = _openblas()
    if where != "every draw" and (blas is None or blas.dsyevd is None):
        pytest.skip("one worker only: no OpenBLAS with LAPACKE")
    draw, raised = montecarlo._draw, threading.Event()

    def failing(*args):
        if where == "every draw" or threading.current_thread() is not caller:
            raised.set()
            raise MemoryError("no room for a draw")
        # the caller's first draw waits for the helper's error
        raised.wait(timeout=30)
        return draw(*args)

    caller, alive = threading.current_thread(), threading.active_count()
    monkeypatch.setattr(montecarlo, "_draw", failing)
    threads = None if blas is None else blas.get()
    if blas is not None:
        blas.put(2)
    try:
        with pytest.raises(MemoryError, match="no room for a draw"):
            mc_experiment(exp_profile(30), McConfig(trials=8, seed=5))
        assert threading.active_count() == alive
        if blas is not None:
            assert blas.get() == 2
    finally:
        if blas is not None:
            blas.put(threads)


def test_result_serializes_to_json():
    res = mc_experiment(wigner_profile(15), McConfig(trials=2, seed=23))
    blob = json.loads(json.dumps(asdict(res)))
    assert blob["trials"] == 2
    assert blob["seed"] == 23
    assert blob["ensemble"] == "real-symmetric"
    assert len(blob["per_trial"]) == 2
    assert blob["failures"] == 0
    assert blob["mean"] == pytest.approx(res.mean)
    assert blob["std"] == pytest.approx(res.std)


@pytest.mark.parametrize("profile,seed", [
    ("wigner", 1), ("exp", 2), ("seeded", 3),
])
def test_mean_respects_improved_bound(profile, seed):
    s = {"wigner": wigner_profile(40),
         "exp": exp_profile(40),
         "seeded": seeded_profile(40, seed=12)}[profile]
    res = mc_experiment(s, McConfig(trials=4, seed=seed))
    rep = support_bound(s, J=30)
    assert res.mean <= rep.improved_bound + 3 * res.std / math.sqrt(4) + 0.1


def test_wigner_largest_eigenvalue_near_two():
    res = mc_experiment(wigner_profile(150), McConfig(trials=3, seed=6))
    assert abs(res.mean - 2.0) < 0.15
