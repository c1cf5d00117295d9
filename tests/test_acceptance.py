"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and
prints a single pass/fail line (with the failing sub-checks, if any)
so the verdicts are visible in the raw test log.
"""

import itertools
import time
from fractions import Fraction

import numpy as np

from _dyck import dyck_transition_prob, enumerate_dyck, enumerate_trees
from _oracles import pbot_probability, stopped_walk_series_exhaustive
from _treeval import chopping_bound_check, tree_val_vector
from _walks import (
    floor_walk_closed_form,
    floor_walk_step_product,
    stopped_walk_generating_function,
)
from conftest import ACCEPTANCE_LINES

from specbound.bounds import critical_w, support_bound
from specbound.errors import InputError
from specbound.linalg import NormSequence, random_profile
from specbound.qve import moment_recursion, support_from_moments

SMALL_PROFILES = [(4, 0), (6, 1), (8, 2), (6, 3), (4, 4)]


def _criterion(number, description, checks):
    passed = all(ok for _, ok in checks)
    verdict = "PASS" if passed else "FAIL"
    lines = [f"ACCEPTANCE {number}: {verdict} - {description}"]
    failed = [label for label, ok in checks if not ok]
    lines.extend(f"  failed check: {label}" for label in failed)
    ACCEPTANCE_LINES.extend(lines)
    for line in lines:
        print(line)
    assert passed, f"criterion {number} failed: " + "; ".join(failed)


def _rank_one_references(s):
    """Closed-form (q, w_c, improved bound) of a rank-one profile.

    For S = v v^T / n every power is a multiple of S, so z_j = q^(j-1)
    with q = |S^2| / |S|^2, and the root equation of the bound module
    sums to (1 - q) x^2 + (1 + q) x - 1 = 0 in x = w/2.  Plain numpy on
    the entries, so the references do not come from the program.
    """
    a = s.entries
    norm = a.sum(axis=1).max()
    q = (a @ a).sum(axis=1).max() / norm ** 2
    x = (-(1 + q) + np.sqrt((1 + q) ** 2 + 4 * (1 - q))) / (2 * (1 - q))
    return q, 2 * x, np.sqrt(norm) / x


def test_criterion_1_exponential_profile_reference_values(exp500, exp500_support):
    q, wc_ref, improved_ref = _rank_one_references(exp500)
    start = time.perf_counter()
    rep = support_bound(exp500, J=50)
    elapsed = time.perf_counter() - start
    powers = q ** np.arange(rep.J)
    premise_gap = float(np.max(np.abs(rep.z - powers) / powers))
    edge = exp500_support.value
    _criterion(1, "exponential profile N=500 J=50 against its rank-one closed form", [
        (f"trivial bound {rep.trivial_bound:.4f} within 4.316 +/- 0.01",
         abs(rep.trivial_bound - 4.316) <= 0.01),
        (f"rank-one premise z_j = q^(j-1): worst relative gap "
         f"{premise_gap:.1e} <= 1e-9", premise_gap <= 1e-9),
        (f"critical w {rep.w_c:.4f} within {wc_ref:.4f} +/- 0.005",
         abs(rep.w_c - wc_ref) <= 0.005),
        (f"improved bound {rep.improved_bound:.4f} within "
         f"{improved_ref:.4f} +/- 0.01",
         abs(rep.improved_bound - improved_ref) <= 0.01),
        (f"support edge {edge:.4f} <= improved {rep.improved_bound:.4f} "
         f"<= trivial {rep.trivial_bound:.4f}",
         exp500_support.found
         and edge <= rep.improved_bound <= rep.trivial_bound),
        (f"runtime {elapsed:.2f}s under 10s", elapsed < 10.0),
    ])


def test_criterion_2_exponential_profile_sampling_window(exp500_mc):
    res, elapsed = exp500_mc
    _criterion(2, "exponential profile Monte-Carlo window (10 trials)", [
        (f"mean {res.mean:.4f} in [3.54, 3.82]", 3.54 <= res.mean <= 3.82),
        (f"std {res.std:.4f} in [0.01, 0.12]", 0.01 <= res.std <= 0.12),
        (f"no failed trials ({res.failures})", res.failures == 0),
        (f"runtime {elapsed:.1f}s under 120s", elapsed < 120.0),
    ])


def test_criterion_3_constant_profile_sanity_chain(wigner500, wigner500_support,
                                                   wigner500_mc):
    rep = support_bound(wigner500, J=50)
    est = wigner500_support
    res, _ = wigner500_mc
    table = moment_recursion(wigner500, kmax=20)
    proxy = support_from_moments(table)
    reference = 6564120420 ** (1 / 40)
    _criterion(3, "constant profile sanity chain at N=500", [
        (f"improved bound {rep.improved_bound:.12f} equals 2 up to root tol",
         abs(rep.improved_bound - 2.0) <= 1e-9),
        (f"support estimate {est.value:.4f} within 2 +/- 0.05",
         est.found and abs(est.value - 2.0) <= 0.05),
        (f"sampled mean {res.mean:.4f} within 2 +/- 0.08",
         abs(res.mean - 2.0) <= 0.08),
        (f"moment proxy {proxy:.12f} equals Catalan(20)^(1/40) +/- 1e-10",
         abs(proxy - reference) <= 1e-10),
    ])


def test_criterion_4_moments_equal_tree_sums():
    worst = 0.0
    exceptions = 0
    for n, seed in SMALL_PROFILES:
        s = random_profile(n, seed=seed)
        table = moment_recursion(s, kmax=6)
        for k in range(7):
            total = np.zeros(n)
            for tree in enumerate_trees(k):
                total += tree_val_vector(s, tree)
            gap = np.abs(table[:, k] - total)
            rel = float((gap / np.maximum(np.abs(total), 1e-300)).max())
            worst = max(worst, rel)
            if rel > 1e-10:
                exceptions += 1
    _criterion(4, "moment recursion equals exhaustive tree sums (k <= 6)", [
        (f"worst relative gap {worst:.2e} <= 1e-10 over 5 profiles",
         worst <= 1e-10),
        (f"zero exceptions ({exceptions})", exceptions == 0),
    ])


def test_criterion_5_run_bounds_and_split_monotonicity():
    violations = 0
    worst_slack = 0.0
    trees_checked = 0
    for n, seed in SMALL_PROFILES:
        s = random_profile(n, seed=seed)
        for k in range(7):
            report = chopping_bound_check(s, k)
            violations += len(report["violations"])
            worst_slack = max(worst_slack, report["max_slack"])
            trees_checked += report["n_trees"]
    _criterion(5, "run-weight bounds and split monotonicity (k <= 6)", [
        (f"zero violations ({violations}) over {trees_checked} tree checks",
         violations == 0),
        (f"max value/bound ratio {worst_slack:.6f} <= 1", worst_slack <= 1 + 1e-9),
    ])


def test_criterion_6_walk_kernel_exactness():
    kernel_mismatches = 0
    states_checked = 0
    for k in range(1, 7):
        paths = enumerate_dyck(k)
        counts = {}
        for p in paths:
            heights = p.heights
            for t, step in enumerate(p.steps):
                total, ups = counts.get((t, heights[t]), (0, 0))
                counts[(t, heights[t])] = (total + 1, ups + (step == 1))
        for (t, h), (total, ups) in counts.items():
            states_checked += 1
            if dyck_transition_prob(t, h, k, exact=True) != Fraction(ups, total):
                kernel_mismatches += 1

    product_mismatches = 0
    walks_checked = 0
    for h in range(4):
        for n in range(1, 11):
            for omega in itertools.product((1, -1), repeat=n):
                heights = list(itertools.accumulate(omega, initial=h))
                if min(heights[:-1]) < 0:
                    continue
                walks_checked += 1
                a = floor_walk_step_product(h, omega)
                b = floor_walk_closed_form(h, omega)
                if abs(a - b) > 1e-14:
                    product_mismatches += 1
                pbot_probability(h, omega)
    _criterion(6, "walk kernel and floor-walk product exactness", [
        (f"transition kernel exact on {states_checked} states "
         f"({kernel_mismatches} mismatches)", kernel_mismatches == 0),
        (f"product form exact on {walks_checked} walks "
         f"({product_mismatches} mismatches)", product_mismatches == 0),
    ])


def test_criterion_7_stopped_walk_closed_form_and_pole():
    rng = np.random.default_rng(2024)
    value_failures = []
    pole_failures = []
    for i in range(10):
        length = int(rng.integers(3, 9))
        z = np.concatenate([[1.0], rng.uniform(0.15, 1.0, size=length - 1)])
        ns = NormSequence(norm_s=1.0, z=z)
        w = float(rng.uniform(0.15, 0.85))
        closed = stopped_walk_generating_function(ns, ns.J, w)
        brute = stopped_walk_series_exhaustive(ns, ns.J, w, n_max=14)
        tail = w ** 15 / (1 - w)
        if abs(closed - brute) > tail + 1e-12:
            value_failures.append(i)
        lo, hi = w, 2.0 - 1e-12
        for _ in range(64):
            mid = (lo + hi) / 2
            try:
                stopped_walk_generating_function(ns, ns.J, mid)
                lo = mid
            except InputError:
                hi = mid
        if abs(lo - critical_w(ns)) > 1e-9:
            pole_failures.append(i)
    _criterion(7, "stopped-walk closed form and pole location (10 configs)", [
        (f"closed form within geometric tail for all configs "
         f"(failures: {value_failures})", not value_failures),
        (f"pole matches critical w to 1e-9 for all configs "
         f"(failures: {pole_failures})", not pole_failures),
    ])


def test_criterion_8_end_to_end_ordering(exp500, wigner500, random100,
                                         exp500_support, wigner500_support,
                                         random100_support, exp500_mc,
                                         wigner500_mc, random100_mc):
    cases = [
        ("exponential N=500", exp500, exp500_support, exp500_mc[0]),
        ("constant N=500", wigner500, wigner500_support, wigner500_mc[0]),
        ("random N=100", random100, random100_support, random100_mc[0]),
    ]
    checks = []
    for name, s, est, res in cases:
        rep = support_bound(s, J=50)
        step = est.grid_step
        checks.append((
            f"{name}: support edge detected", est.found))
        checks.append((
            f"{name}: mc mean - 3 std = {res.mean - 3 * res.std:.4f} "
            f"<= support {est.value:.4f} + step",
            res.mean - 3 * res.std <= est.value + step))
        checks.append((
            f"{name}: support {est.value:.4f} <= improved "
            f"{rep.improved_bound:.4f} + step",
            est.value <= rep.improved_bound + step))
        checks.append((
            f"{name}: improved {rep.improved_bound:.4f} <= trivial "
            f"{rep.trivial_bound:.4f}",
            rep.improved_bound <= rep.trivial_bound + 1e-12))
    est = exp500_support
    # 3.870 is the improved bound the paper reports for exp500; criterion 1
    # no longer pins it (see README "Tests"). The 3.669 +/- 0.002 line
    # right after it is the binding check on this edge.
    checks.append((
        f"exponential N=500: support {est.value:.4f} <= 3.870 + step",
        est.value <= 3.870 + est.grid_step))
    checks.append((
        f"exponential N=500: support regression {est.value:.4f} "
        f"within 3.669 +/- 0.002",
        abs(est.value - 3.669) <= 0.002))
    _criterion(8, "end-to-end ordering of all estimates", checks)


def test_criterion_9_improvement_monotone_in_depth(exp500):
    depths = (1, 2, 5, 10, 25, 50)
    values = [support_bound(exp500, J=j).improved_bound for j in depths]
    pairs = list(zip(values, values[1:]))
    nonincreasing = all(b <= a + 1e-12 for a, b in pairs)
    strict = any(b < a - 1e-9 for a, b in pairs)
    rendered = ", ".join(f"J={j}: {v:.6f}" for j, v in zip(depths, values))
    _criterion(9, "bound improvement monotone in truncation depth", [
        (f"nonincreasing chain ({rendered})", nonincreasing),
        ("strict decrease somewhere in the chain", strict),
    ])
