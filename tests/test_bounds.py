import csv
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    _fill_by_lp,
    descending,
    identity_hierarchy,
    random_orthogonal,
    sup_oracle,
    system_of,
)
from msrom import (
    GramDecomposition,
    SolverOptions,
    SubspaceHierarchy,
    assemble,
    decompose,
    error_norm,
    example1,
    example2,
    ms_bound,
    parse_config,
    run_experiment,
    run_instance,
    solve_pg,
    synth_prescribed,
    water_filling,
)
from msrom.cli import _build_instance
from msrom.problems import PROFILE_LIMIT


def diag_decomp(sigma):
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.shape[0]
    return GramDecomposition(G=np.diag(sigma), U=np.eye(n), X=np.eye(n), sigma=sigma)


def diag_system(sigma, hierarchy=None):
    """An assembly around ``diag_decomp(sigma)``, on unit widths unless ``hierarchy`` is given."""
    decomp = diag_decomp(sigma)
    if hierarchy is None:
        hierarchy = identity_hierarchy(np.ones(decomp.sigma.size + 1))
    return system_of(decomp, hierarchy)


def random_tuple(rng, n):
    """Random (delta, sigma, budget) with the degenerate corners mixed in.

    The budget is ms_bound's ``4 gamma**2 tau_n**2`` of a random gamma and
    tau_n, zero for about one draw in seven.
    """
    delta = rng.uniform(0.0, 2.0, size=n)
    if rng.random() < 0.2:
        delta[int(rng.integers(0, n))] = 0.0
    sigma = np.sort(rng.uniform(0.0, 1.0, size=n))[::-1]
    if rng.random() < 0.2:
        sigma[int(rng.integers(0, n)) :] = 0.0
    if rng.random() < 0.15 and n >= 2:
        sigma[: int(rng.integers(2, n + 1))] = sigma[0]  # repeated leading value
    gam = 0.0 if rng.random() < 0.15 else float(rng.uniform(0.0, 1.2))
    tau_n = float(rng.uniform(0.0, 1.5))
    return delta, sigma, 4.0 * gam * gam * tau_n * tau_n


# --------------------------------------------------------------------- babuska


def babuska(sigma, tau_n):
    """``ms_bound``'s quotient bound on ``diag_system(sigma)`` with distance
    ``tau_n``, which is None exactly when the assembly is singular."""
    n = len(sigma)
    assembly = diag_system(sigma, identity_hierarchy(np.ones(n + 1), np.full(n + 1, tau_n)))
    report = ms_bound(assembly)
    assert (report.babuska is None) == assembly.singular
    return report.babuska


def test_babuska_unit_conditioning():
    assert babuska(np.ones(4), 0.3) == pytest.approx(0.3)


def test_babuska_quotient():
    assert babuska([1.0, 0.25], 0.5) == pytest.approx(2.0)
    # the constant is the representer-family norm, not sigma_1
    assert babuska([0.5, 0.25], 0.5) == pytest.approx(2.0)


def test_babuska_singular():
    assert babuska([1.0, 0.5, 0.0], 0.1) is None
    # zero up to rounding: sigma_n is a tenth of sigma_1, but both are
    # rounding against the representer-family norm 1
    assert babuska([2.2e-16, 2.1e-17], 0.1) is None


def test_babuska_rejects_bad_distance():
    # ms_bound reads tau_n from the hierarchy, which refuses a bad distance
    for bad in [-0.1, np.nan]:
        with pytest.raises(ValueError, match="tau entries must be nonnegative"):
            identity_hierarchy(np.ones(3), [1.0, 0.5, bad])
    # and has at least one direction, so there is no empty decomposition to bound
    with pytest.raises(ValueError, match="at least one trial direction, got n = 0"):
        diag_system(np.zeros(0))


# --------------------------------------------------------------- water filling


def test_water_filling_frozen_tuple():
    # delta = (1, 1), sigma = (1, 1/2), budget 1/4; costs are (1, 1/4)
    # the last coordinate alone exhausts the budget exactly, so ell = 2
    # (1-based), rho = 1, and the attained value is delta_2^2 = 1
    wf = water_filling(np.array([1.0, 1.0]), np.array([1.0, 0.5]), 0.25)
    assert wf.ell == 2
    assert wf.rho == pytest.approx(1.0)
    assert wf.sup_value == pytest.approx(1.0)
    assert sup_oracle(np.array([1.0, 1.0]), np.array([1.0, 0.5]), 0.25) == pytest.approx(1.0)


def test_water_filling_inactive():
    # total cost 0.05 < budget: every coordinate saturates; an infinite
    # budget, what a finite gamma * tau_n that overflows gives, never binds
    for budget in (4.0, np.inf):
        wf = water_filling(np.array([1.0, 2.0]), np.array([0.1, 0.1]), budget)
        assert wf.ell is None and wf.rho is None
        assert wf.sup_value == 5.0


def test_water_filling_all_zero_spectrum():
    # first constraint vacuous: inactive even with a zero budget
    wf = water_filling(np.array([1.0, 2.0]), np.zeros(2), 1.0)
    assert wf.ell is None
    assert wf.sup_value == pytest.approx(5.0)


def test_water_filling_zero_budget_counts_costless_tail():
    # a zero budget with positive costs: only coordinates after the last
    # paying one may saturate; here sigma_3 = 0 frees delta_3, and ell is the
    # last paying coordinate, filled to rho = 0
    delta = np.array([1.0, 1.0, 2.0])
    sigma = np.array([1.0, 0.5, 0.0])
    wf = water_filling(delta, sigma, 0.0)
    assert (wf.ell, wf.rho) == (2, 0.0)
    assert wf.sup_value == pytest.approx(4.0)
    assert sup_oracle(delta, sigma, 0.0) == pytest.approx(4.0)


def test_water_filling_zero_budget_all_paying():
    wf = water_filling(np.array([1.0, 1.0]), np.array([1.0, 0.5]), 0.0)
    assert (wf.ell, wf.rho) == (2, 0.0)
    assert wf.sup_value == 0.0


def test_water_filling_zero_budget_is_the_limit_of_small_budgets():
    # with a cost-free tail, a zero budget reports the ell of a tiny positive
    # one, where the fill fraction vanishes, and the LP oracle labels it alike
    rng = np.random.default_rng(28)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        delta = rng.uniform(0.1, 2.0, size=n)
        sigma = descending(rng, n, 0.1, 1.0)
        sigma[int(rng.integers(1, n)) :] = 0.0
        zero, tiny = water_filling(delta, sigma, 0.0), water_filling(delta, sigma, 1e-300)
        assert zero.rho == 0.0 and zero.ell == tiny.ell
        assert zero.sup_value == pytest.approx(tiny.sup_value, rel=1e-12)
        ell, rho, sup = _fill_by_lp(delta, sigma, 0.0)
        assert (ell, rho) == (zero.ell, 0.0)
        assert sup == pytest.approx(zero.sup_value, rel=1e-12)


def test_water_filling_single_term_edge():
    # even the last term exceeds the budget: ell = n and rho is fractional
    delta = np.array([1.0, 2.0])
    sigma = np.array([1.0, 1.0])
    wf = water_filling(delta, sigma, 0.25)  # costs (1, 4)
    assert wf.ell == 2
    assert wf.rho == pytest.approx(0.25 / 4.0)
    assert wf.sup_value == pytest.approx(0.25)
    assert sup_oracle(delta, sigma, 0.25) == pytest.approx(0.25)


def test_water_filling_interior_fraction():
    # budget 1 sits strictly between the two suffix sums (1.25 and 0.25):
    # the tail coordinate saturates and the head one fills to rho = 3/4
    delta = np.array([1.0, 1.0])
    sigma = np.array([1.0, 0.5])
    wf = water_filling(delta, sigma, 1.0)
    assert wf.ell == 1
    assert wf.rho == pytest.approx(0.75)
    assert wf.sup_value == pytest.approx(1.75)
    assert sup_oracle(delta, sigma, 1.0) == pytest.approx(1.75)


def test_water_filling_empty():
    wf = water_filling(np.zeros(0), np.zeros(0), 4.0)
    assert wf.sup_value == 0.0
    assert wf.ell is None


def test_water_filling_input_validation():
    with pytest.raises(ValueError, match="entries must be finite and nonnegative"):
        water_filling(np.array([-1.0]), np.array([1.0]), 4.0)
    with pytest.raises(ValueError, match="sigma must be nonincreasing"):
        water_filling(np.array([1.0, 1.0]), np.array([0.5, 1.0]), 4.0)
    for budget in (-1.0, np.nan):
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            water_filling(np.array([1.0]), np.array([1.0]), budget)
    with pytest.raises(ValueError, match="1-d with equal length"):
        water_filling(np.array([1.0, 1.0]), np.array([1.0]), 4.0)


def test_sup_oracle_dimension_cap():
    with pytest.raises(ValueError, match="enumeration limited to n <= 6"):
        sup_oracle(np.ones(7), np.ones(7), 4.0)


def test_water_filling_active_invariants():
    rng = np.random.default_rng(0)
    seen_active = 0
    for _ in range(300):
        n = int(rng.integers(1, 6))
        delta, sigma, budget = random_tuple(rng, n)
        wf = water_filling(delta, sigma, budget)
        cost = sigma**2 * delta**2
        if wf.ell is None:
            assert wf.sup_value == pytest.approx(float(np.sum(delta**2)))
            assert float(np.sum(cost)) < budget or float(np.sum(cost)) == 0.0
            continue
        seen_active += 1
        ell = wf.ell  # 1-based
        assert 1 <= ell <= n
        assert 0.0 <= wf.rho <= 1.0
        # ell pays, its suffix meets the budget, and the one after it does
        # not, or is cost-free at a zero budget
        assert cost[ell - 1] > 0.0
        assert float(np.sum(cost[ell - 1 :])) >= budget * (1.0 - 1e-12)
        if ell < n:
            after = float(np.sum(cost[ell:]))
            assert after < budget or after == budget == 0.0
        if budget > 0.0:
            spent = wf.rho * cost[ell - 1] + float(np.sum(cost[ell:]))
            assert abs(spent - budget) <= 1e-10 * max(budget, 1.0)
    assert seen_active > 50


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_water_filling_matches_oracle(seed, n):
    rng = np.random.default_rng(seed)
    delta, sigma, budget = random_tuple(rng, n)
    closed = water_filling(delta, sigma, budget).sup_value
    brute = sup_oracle(delta, sigma, budget)
    assert abs(closed - brute) <= 1e-9 * max(closed, brute, 1e-12)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_water_filling_monotone_in_delta(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    delta, sigma, budget = random_tuple(rng, n)
    base = water_filling(delta, sigma, budget).sup_value
    smaller = delta * rng.uniform(0.0, 1.0, size=n)
    shrunk = water_filling(smaller, sigma, budget).sup_value
    assert shrunk <= base + 1e-12 * max(1.0, base)


def test_water_filling_branch_continuity():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        delta = rng.uniform(0.1, 2.0, size=n)
        sigma = descending(rng, n, 0.1, 1.0)
        total = float(np.sum(sigma**2 * delta**2))
        values = []
        for wiggle in (1.0 - 2e-9, 1.0 + 2e-9):
            wf = water_filling(delta, sigma, total * wiggle)
            values.append(wf.sup_value)
        assert abs(values[0] - values[1]) <= 1e-6 * max(values)


def test_water_filling_budget_between_summation_orders():
    # the pairwise and the tail-first sums of the costs differ in the last
    # bit here, and the budget equals the larger, pairwise one
    args = ([1.992, 0.486, 0.514], [0.763, 0.258, 0.073], 2.327213901844001)
    wf = water_filling(*args)
    assert wf.sup_value == pytest.approx(4.468456, abs=5e-7)
    assert abs(wf.sup_value - sup_oracle(*args)) <= 1e-9 * wf.sup_value


def steps(x, k):
    """The floats within k ulps of x, ascending."""
    below, above = [x], [x]
    for _ in range(k):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_water_filling_budget_at_cost_total(seed, n):
    # budgets equal to the cost total summed in either order, and one ulp
    # either side
    rng = np.random.default_rng(seed)
    delta, sigma, _ = random_tuple(rng, n)
    cost = sigma * sigma * delta * delta
    totals = {float(np.sum(cost)), float(np.cumsum(cost[::-1])[-1])}
    assume(min(totals) > 0.0)
    for budget in {b for total in totals for b in steps(total, 1)}:
        closed = water_filling(delta, sigma, budget).sup_value
        brute = sup_oracle(delta, sigma, budget)
        assert abs(closed - brute) <= 1e-9 * max(closed, brute, 1e-12)


# -------------------------------------------------------------------- ms_bound


def test_ms_bound_squares_to_sup_plus_tau():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        sigma = descending(rng, n, 0.0, 1.0)
        X = random_orthogonal(rng, n)
        decomp = GramDecomposition(G=(X * sigma) @ X.T, U=X.copy(), X=X, sigma=sigma)
        widths = descending(rng, n + 1, 0.0, 1.5)
        distances = np.minimum(descending(rng, n + 1, 0.0, 1.5), widths)
        gam = float(rng.uniform(0.0, 1.0))
        # sigma_1 <= 1, so 1 is a representer-family norm these spectra admit
        report = ms_bound(system_of(decomp, identity_hierarchy(widths, distances), gam))
        assert report.intermediates.gamma == gam
        tau_n = distances[-1]
        lhs = report.ms_bound**2
        rhs = report.water_filling.sup_value + tau_n**2
        assert abs(lhs - rhs) <= 1e-10 * max(lhs, 1e-12)
        if sigma[-1] > 1e-12:
            assert report.babuska == pytest.approx(1.0 / sigma[-1] * tau_n)
        else:
            assert report.babuska is None


def test_ms_bound_zero_case():
    zeros = np.zeros(3)
    report = ms_bound(diag_system(np.array([0.5, 0.2]), identity_hierarchy(zeros, zeros)))
    assert report.ms_bound == 0.0


def test_ms_bound_validation():
    widths = np.array([1.0, 0.5, 0.2])
    with pytest.raises(ValueError, match="'guessed'"):
        ms_bound(diag_system([1.0, 0.5], identity_hierarchy(widths, widths)), "guessed")
    # "known" reads the true distances, which every hierarchy carries
    basis = identity_hierarchy(widths).basis
    with pytest.raises(TypeError, match="distances"):
        SubspaceHierarchy(basis, widths=widths)
    with pytest.raises(ValueError, match=r"^tau must have length n\+1 = 3, got shape \(\)$"):
        SubspaceHierarchy(basis, widths=widths, distances=None)


def test_ms_bound_hierarchy_consistency():
    # the bound reads the hierarchy the assembly carries; a hierarchy of
    # another size never gets that far (test_spectral::test_assembly_checks_the_hierarchy_size)
    narrow, wide = np.array([1.0, 0.5, 0.2]), np.array([2.0, 1.0, 0.2])
    for widths in (narrow, wide):
        report = ms_bound(diag_system([1.0, 0.5], identity_hierarchy(widths)), "practitioner")
        assert np.array_equal(report.intermediates.delta, 2.0 * widths[:2])
        assert report.ms_bound > 0.0


def test_ms_bound_practitioner_reads_the_widths_as_distances():
    # "practitioner" feeds the widths where "known" feeds the distances
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        sigma = descending(rng, n, 0.0, 1.0)
        X = random_orthogonal(rng, n)
        decomp = GramDecomposition(G=(X * sigma) @ X.T, U=X.copy(), X=X, sigma=sigma)
        widths = descending(rng, n + 1, 0.0, 1.5)
        distances = np.minimum(descending(rng, n + 1, 0.0, 1.5), widths)
        practitioner = ms_bound(
            system_of(decomp, identity_hierarchy(widths, distances), 0.7), "practitioner"
        )
        known = ms_bound(system_of(decomp, identity_hierarchy(widths), 0.7))
        assert practitioner.ms_bound == known.ms_bound
        assert practitioner.babuska == known.babuska
        assert practitioner.water_filling == known.water_filling
        assert np.array_equal(practitioner.intermediates.delta, known.intermediates.delta)


def test_ms_bound_reads_the_profile_values_not_their_layout():
    # the random sweep draws its distances as a reversed view; delta = |X|^T v
    # must not round differently for a contiguous copy of the same values
    # (sweep seed 2038 is a row whose ms_bound once moved with the layout)
    cfg = parse_config(json.dumps({"mode": "random-sweep", "n_min": 3, "n_max": 10, "seed": 0}))
    problem, hierarchy, tests = _build_instance(cfg, 2038)
    contiguous = np.array(hierarchy.distances)
    view = contiguous[::-1].copy()[::-1]
    reports = []
    for distances in (view, contiguous):
        rebuilt = SubspaceHierarchy(hierarchy.basis, widths=contiguous, distances=distances)
        report = ms_bound(assemble(problem, rebuilt, tests))
        wf = report.water_filling
        reports.append((wf.ell, wf.rho, wf.sup_value, report.ms_bound))
    assert reports[0] == reports[1]


def test_ms_bound_fills_at_its_budget():
    # ms_bound's fill is water_filling at the budget 4 gamma^2 tau_n^2, on
    # the singular values the solvers keep, bit for bit
    doc = {"mode": "random-sweep", "n_min": 3, "n_max": 10, "seed": 2026, "repetitions": 100}
    cfg = parse_config(json.dumps(doc))  # scripts/configs/sweep.json
    for seed in range(cfg.seed, cfg.seed + cfg.repetitions):
        assembly = assemble(*_build_instance(cfg, seed))
        report, decomp = ms_bound(assembly), assembly.decomp
        gam, tau_n = report.intermediates.gamma, float(assembly.hierarchy.distances[-1])
        sigma = decomp.sigma * decomp.nonzero(assembly.norm)
        wf = water_filling(report.intermediates.delta, sigma, 4.0 * gam * gam * tau_n * tau_n)
        got = report.water_filling
        assert (got.ell, got.rho, got.sup_value) == (wf.ell, wf.rho, wf.sup_value), seed


def test_ms_bound_carries_actual_errors():
    # ms_bound leaves the actual errors empty; run_instance fills them from
    # the two solves on the same assembly
    problem, hierarchy, tests = synth_prescribed(
        3, 4, 10, [1.0, 0.5, 0.2], np.eye(3), [0.8, 0.4, 0.2, 0.1], [0.9, 0.5, 0.3, 0.1], 1
    )
    assembly = assemble(problem, hierarchy, tests)
    bare = ms_bound(assembly)
    assert (bare.actual_pg_error, bare.actual_ms_error) == (None, None)
    report, solution, _ = run_instance(problem, hierarchy, tests, SolverOptions())
    assert report.actual_pg_error == error_norm(solve_pg(assembly)[0], problem)
    assert report.actual_ms_error == error_norm(solution.point, problem)
    assert report.ms_bound == bare.ms_bound


@pytest.mark.parametrize(
    "widths", [[0.8, np.inf, 0.2, 0.1], [np.inf, 0.4, 0.2, 0.1], [np.inf] * 4]
)
def test_ms_bound_is_finite_on_widths_at_the_profile_limit(widths):
    # an infinite width is refused when the hierarchy is built; in its place
    # the largest width a profile may carry never binds the solve, and the
    # bound stays finite and valid
    problem, hierarchy, tests = synth_prescribed(
        3, 3, 9, [1.0, 0.5, 0.2], np.eye(3), [0.8, 0.4, 0.2, 0.1], [0.8, 0.4, 0.2, 0.1], 1
    )
    with pytest.raises(ValueError, match="finite and at most"):
        SubspaceHierarchy(hierarchy.basis, np.array(widths), hierarchy.distances)
    at_limit = np.where(np.isinf(widths), PROFILE_LIMIT, widths)
    hierarchy = SubspaceHierarchy(hierarchy.basis, at_limit, hierarchy.distances)
    report, solution, decomp = run_instance(problem, hierarchy, tests, SolverOptions())
    assert np.isfinite(report.ms_bound) and np.isfinite(report.water_filling.sup_value)
    assert report.actual_ms_error <= report.ms_bound
    if np.all(np.isinf(widths)):
        # every delta_j is PROFILE_LIMIT: the budget goes to the cheapest,
        # sigma_n, and spreads over the huge delta_j as a vanishing rho
        gam, tau_n, sigma_n = report.intermediates.gamma, 0.1, decomp.sigma[-1]
        want = math.sqrt(4.0 * gam**2 * tau_n**2 / sigma_n**2 + tau_n**2)
        assert report.ms_bound == pytest.approx(want, rel=1e-12)
        assert report.ms_bound == pytest.approx(0.98488578, abs=5e-9)
        wf = report.water_filling
        assert wf.rho == pytest.approx(wf.sup_value / PROFILE_LIMIT**2, rel=1e-12)


def test_ms_bound_prices_sub_cutoff_singular_values_as_zero():
    # at tau = 1e-24 sigma_n falls below the cutoff of decomp.nonzero, where
    # the solve drops its direction; a fill that priced the raw sigma_n would
    # read ms_bound 3.5e-8 against actual_ms_error 1.0 on seeds 0 and 4
    doc = {"mode": "example1", "seed": 0, "tau": 1e-24, "n": 10, "N": 30, "repetitions": 5}
    cfg = parse_config(json.dumps(doc))
    for seed in range(cfg.seed, cfg.seed + cfg.repetitions):
        problem, hierarchy, tests = _build_instance(cfg, seed)
        report, solution, decomp = run_instance(problem, hierarchy, tests, SolverOptions())
        assert report.babuska is None and solution.converged
        assert report.actual_ms_error <= report.ms_bound
        gam, delta = report.intermediates.gamma, report.intermediates.delta
        tau_n = hierarchy.distances[-1]
        raw = water_filling(delta, decomp.sigma, 4.0 * gam * gam * tau_n * tau_n)
        assert report.water_filling.sup_value >= raw.sup_value


def run_on(instance, widths, tau_mode):
    """``run_instance``'s report and solution on ``instance`` with ``widths`` for its own."""
    problem, hierarchy, tests = instance
    variant = dataclasses.replace(hierarchy, widths=widths)
    return run_instance(problem, variant, tests, SolverOptions(), tau_mode)[:2]


def test_repeating_the_previous_width_states_no_prior():
    # the solve reads only strict falls of the running minimum, so a repeated
    # width solves bit-identically to one raised to PROFILE_LIMIT, while its
    # smaller delta gives a bound no larger
    cfg = parse_config(json.dumps({"mode": "random-sweep", "n_min": 3, "n_max": 8, "seed": 0}))
    cases = [_build_instance(cfg, seed) for seed in range(4)]
    cases += [example1(1e-4, 10, 40, 17), example2(0.05, 4, 16, 3)]
    for instance in cases:
        widths = instance[1].widths
        for k in range(1, widths.size - 1):
            repeated, raised = widths.copy(), widths.copy()
            repeated[k], raised[k] = widths[k - 1], PROFILE_LIMIT
            for tau_mode in ("known", "practitioner"):
                (low, same), (high, other) = (
                    run_on(instance, w, tau_mode) for w in (repeated, raised)
                )
                assert np.array_equal(same.coeffs, other.coeffs)
                assert same.iterations == other.iterations
                # the fill is monotone in delta up to the rounding of its sums
                assert low.ms_bound <= high.ms_bound * (1.0 + 1e-12)


@pytest.mark.parametrize(
    "mode, tau, n, N",
    [("example1", 1e-4, n, 5 * n) for n in (100, 200, 400)] + [("example2", 1e-3, 64, 256)],
    ids=["example1-100", "example1-200", "example1-400", "example2-64"],
)
def test_bounds_hold_at_scale(tmp_path, mode, tau, n, N):
    # every written row converges, satisfies ms_bound^2 = sup_value + tau_n^2
    # to 1e-9 relative, and stays within the slice bound and, where both are
    # defined, the quotient bound
    out = tmp_path / "scale.csv"
    doc = {"mode": mode, "tau": tau, "n": n, "N": N, "seed": 0, "repetitions": 2}
    cfg = dataclasses.replace(parse_config(json.dumps(doc)), output_path=str(out))
    assert run_experiment(cfg, quiet=True) == 0
    with out.open() as handle:
        rows = list(csv.DictReader(handle))
    assert [row["seed"] for row in rows] == ["0", "1"]
    for row in rows:
        assert row["converged"] == "true", row["seed"]
        bound, sup, tau_n = (float(row[k]) for k in ("ms_bound", "sup_value", "tau_n"))
        assert abs(bound * bound - (sup + tau_n * tau_n)) <= 1e-9 * bound * bound, row["seed"]
        assert float(row["actual_ms_error"]) <= bound + 1e-9, row["seed"]
        if "undefined" not in (row["actual_pg_error"], row["babuska_bound"]):
            assert float(row["actual_pg_error"]) <= float(row["babuska_bound"]), row["seed"]


def test_water_filling_overflowing_cost_takes_what_the_budget_leaves():
    # delta_1 is finite, but its cost sigma_1^2 delta_1^2 overflows: it takes
    # what the budget 0.64 leaves after delta_2's cost 0.25, at the price
    # sigma_1^2 = 1 per unit of beta_1^2
    args = ([1e200, 1.0], [1.0, 0.5], 0.64)
    wf = water_filling(*args)
    assert (wf.ell, wf.rho) == (1, 0.0)
    assert wf.sup_value == pytest.approx(1.0 + (0.64 - 0.25), rel=1e-12)
    assert sup_oracle(*args) == pytest.approx(wf.sup_value, rel=1e-12)
    # a finite cost 1e200 whose reward delta_1^2 overflows is priced alike,
    # at zero budget too
    for budget, sup in ((1.0, 1e200), (0.0, 0.0)):
        wf = water_filling([1e200], [1e-100], budget)
        assert (wf.ell, wf.rho, wf.sup_value) == (1, 0.0, sup)
        assert sup_oracle([1e200], [1e-100], budget) == sup
    # a cost whose price sigma_1^2 = 1e320 overflows buys 1 / 1e320, a subnormal
    wf = water_filling([1.0], [1e160], 1.0)
    assert (wf.ell, wf.rho) == (1, 0.0)
    assert wf.sup_value == pytest.approx(1e-320, rel=1e-3)
    assert sup_oracle([1.0], [1e160], 1.0) == wf.sup_value


def test_decomposed_identity_round_trip():
    # the assembled report is consistent when fed a real decomposition
    rng = np.random.default_rng(3)
    G = rng.standard_normal((5, 3))
    widths = descending(rng, 4, 0.1, 1.0)
    report = ms_bound(system_of(decompose(G), identity_hierarchy(widths), 0.5), "practitioner")
    assert report.ms_bound >= widths[-1]
