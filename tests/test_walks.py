import itertools

import numpy as np
import pytest

from _dyck import SizeGuardError
from _oracles import pbot_probability, stopped_walk_series_exhaustive
from _walks import (
    floor_walk_closed_form,
    floor_walk_step_product,
    stopped_walk_generating_function,
)
from specbound.bounds import critical_w
from specbound.errors import InputError
from specbound.linalg import NormSequence, exp_profile, norm_sequence

WC_HALF_DECAY = 1.033330823615332880248623


def ones_sequence(J):
    return NormSequence(norm_s=1.0, z=np.ones(J))


def half_sequence():
    return NormSequence(norm_s=1.0, z=np.array([1.0, 0.5]))


# ------------------------------------------------- floor walk probabilities

def test_forced_up_step_from_floor():
    assert pbot_probability(0, (1,)) == pytest.approx(1.0, abs=1e-15)


def test_walk_ending_below_floor_has_probability_zero():
    # the last step may dip to -1; it simply carries probability zero
    assert pbot_probability(1, (-1, -1)) == 0.0
    assert floor_walk_closed_form(1, (-1, -1)) == 0.0


def test_closed_form_hand_value():
    # (1/2)^3 * (2 + 1 + 1) / (2 + 1)
    assert floor_walk_closed_form(2, (1, -1, 1)) == pytest.approx(1 / 6)


def test_product_telescopes_to_closed_form_seeded():
    rng = np.random.default_rng(11)
    for _ in range(10):
        h = int(rng.integers(0, 6))
        omega = tuple(int(v) for v in rng.choice([1, -1], size=8))
        heights = np.cumsum((h,) + omega)
        if (heights[:-1] < 0).any():
            continue
        a = floor_walk_step_product(h, omega)
        b = floor_walk_closed_form(h, omega)
        assert abs(a - b) < 1e-14


def test_product_equals_closed_form_exhaustively():
    for n in range(1, 11):
        for h in range(4):
            for omega in itertools.product((1, -1), repeat=n):
                heights = [h]
                for s in omega:
                    heights.append(heights[-1] + s)
                if min(heights[:-1]) < 0:
                    continue
                a = floor_walk_step_product(h, omega)
                b = floor_walk_closed_form(h, omega)
                assert abs(a - b) < 1e-14
                assert pbot_probability(h, omega) == pytest.approx(b, abs=1e-14)


@pytest.mark.parametrize("h", [0, 1, 2, 5])
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_floor_measure_is_normalized(h, n):
    total = 0.0
    for omega in itertools.product((1, -1), repeat=n):
        heights = [h]
        for s in omega:
            heights.append(heights[-1] + s)
        if min(heights[:-1]) < 0:
            continue
        total += pbot_probability(h, omega)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_floor_walk_domain_errors():
    with pytest.raises(InputError):
        floor_walk_step_product(-1, (1,))
    with pytest.raises(InputError):
        floor_walk_closed_form(0, (-1, 1))   # steps again after dipping below
    with pytest.raises(InputError):
        pbot_probability(1, (-1, -1, 1))
    with pytest.raises(InputError):
        pbot_probability(0, (1, 0))


# ------------------------------------------------------ generating function

def test_gf_is_one_at_zero():
    assert stopped_walk_generating_function(half_sequence(), 2, 0.0) == 1.0


def test_gf_constant_weights_give_one():
    ns = ones_sequence(6)
    for w in (0.1, 0.5, 0.9, 0.99):
        assert stopped_walk_generating_function(ns, 6, w) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InputError):
        stopped_walk_generating_function(ns, 6, 1.0)


def test_gf_domain_errors():
    ns = half_sequence()
    with pytest.raises(InputError):
        stopped_walk_generating_function(ns, 2, -0.1)
    with pytest.raises(InputError):
        stopped_walk_generating_function(ns, 2, WC_HALF_DECAY + 1e-3)
    # just below the pole is fine and the value has blown up
    assert stopped_walk_generating_function(ns, 2, WC_HALF_DECAY - 1e-9) < 0


def test_gf_prefix_parameter():
    ns = norm_sequence(exp_profile(60), 10)
    with pytest.raises(InputError):
        stopped_walk_generating_function(ns, 11, 0.5)
    full = stopped_walk_generating_function(ns, 10, 0.5)
    clipped = stopped_walk_generating_function(ns, 2, 0.5)
    assert full != pytest.approx(clipped, abs=1e-6)


def test_exhaustive_series_partial_sums_by_hand():
    """Lengths 0..3 written out: E_0 = 1, E_1 = 1, E_2 = (3 + z2)/4,
    E_3 = (7/8 for z2 = 1/2) since only (+,+,-) and (-,+,+) carry z2
    and the all-up walk is longer than J=2, hence weight one."""
    w = 0.3
    expected = (1 - w) * (1 + w + w**2 * (3.5 / 4) + w**3 * (7 / 8))
    got = stopped_walk_series_exhaustive(half_sequence(), 2, w, n_max=3)
    assert got == pytest.approx(expected, abs=1e-14)


def test_closed_form_matches_exhaustive_series():
    ns = half_sequence()
    closed = stopped_walk_generating_function(ns, 2, 0.5)
    brute = stopped_walk_series_exhaustive(ns, 2, 0.5, n_max=14)
    assert abs(closed - brute) <= 0.5**15 / (1 - 0.5)


@pytest.mark.parametrize("w", [0.2, 0.4, 0.6])
def test_closed_form_matches_series_on_profile_sequence(w):
    ns = norm_sequence(exp_profile(40), 8)
    closed = stopped_walk_generating_function(ns, 8, w)
    brute = stopped_walk_series_exhaustive(ns, 8, w, n_max=14)
    assert abs(closed - brute) <= w**15 / (1 - w) + 1e-12


def test_exhaustive_series_guard():
    with pytest.raises(SizeGuardError):
        stopped_walk_series_exhaustive(half_sequence(), 2, 0.5, n_max=25)


def test_gf_pole_sits_at_critical_w():
    """Bisect the boundary of the admissible w region; it must coincide
    with the root of the denominator found independently by critical_w."""
    ns = half_sequence()

    def admissible(w):
        try:
            stopped_walk_generating_function(ns, 2, w)
            return True
        except InputError:
            return False

    lo, hi = 0.5, 1.9
    assert admissible(lo) and not admissible(hi)
    for _ in range(60):
        mid = (lo + hi) / 2
        if admissible(mid):
            lo = mid
        else:
            hi = mid
    assert abs(lo - critical_w(ns)) < 1e-9
    assert abs(lo - WC_HALF_DECAY) < 1e-9
