import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import descending, identity_hierarchy, random_orthogonal, system_of
from msrom import (
    GramDecomposition,
    InvalidInput,
    SingularGram,
    TooLarge,
    babuska_bound,
    decompose,
    ms_bound,
    sup_oracle,
    water_filling,
)


def diag_decomp(sigma):
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.shape[0]
    return GramDecomposition(G=np.diag(sigma), U=np.eye(n), X=np.eye(n), sigma=sigma)


def diag_system(sigma):
    return system_of(diag_decomp(sigma))


def random_tuple(rng, n):
    """Random (delta, sigma, gamma, tau_n) with the degenerate corners mixed in."""
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
    return delta, sigma, gam, tau_n


# --------------------------------------------------------------------- babuska


def test_babuska_unit_conditioning():
    assert babuska_bound(diag_system(np.ones(4)), 0.3) == pytest.approx(0.3)


def test_babuska_quotient():
    assert babuska_bound(diag_system([1.0, 0.25]), 0.5) == pytest.approx(2.0)
    # the constant is the representer-family norm, not sigma_1
    assert babuska_bound(diag_system([0.5, 0.25]), 0.5) == pytest.approx(2.0)


def test_babuska_singular():
    with pytest.raises(SingularGram):
        babuska_bound(diag_system([1.0, 0.5, 0.0]), 0.1)
    # zero up to rounding: sigma_n is a tenth of sigma_1, but both are
    # rounding against the representer-family norm 1
    with pytest.raises(SingularGram, match=r"\|\|R\|\|_2"):
        babuska_bound(diag_system([2.2e-16, 2.1e-17]), 0.1)


def test_babuska_rejects_bad_distance():
    with pytest.raises(InvalidInput):
        babuska_bound(diag_system(np.ones(2)), -0.1)
    with pytest.raises(InvalidInput):
        babuska_bound(diag_system(np.ones(2)), np.nan)
    with pytest.raises(InvalidInput, match="empty decomposition"):
        babuska_bound(diag_system(np.zeros(0)), 0.1)


# --------------------------------------------------------------- water filling


def test_water_filling_frozen_tuple():
    # delta = (1, 1), sigma = (1, 1/2), gamma = 1, tau_n = 1/4
    # budget = 4 * tau_n^2 = 1/4; costs are (1, 1/4)
    # the last coordinate alone exhausts the budget exactly, so ell = 2
    # (1-based), rho = 1, and the attained value is delta_2^2 = 1
    wf = water_filling(np.array([1.0, 1.0]), np.array([1.0, 0.5]), 1.0, 0.25)
    assert wf.ell == 2
    assert wf.rho == pytest.approx(1.0)
    assert wf.sup_value == pytest.approx(1.0)
    assert sup_oracle(np.array([1.0, 1.0]), np.array([1.0, 0.5]), 1.0, 0.25) == pytest.approx(1.0)


def test_water_filling_inactive():
    # total cost 0.05 < budget 4: every coordinate saturates
    wf = water_filling(np.array([1.0, 2.0]), np.array([0.1, 0.1]), 1.0, 1.0)
    assert wf.ell is None and wf.rho is None
    assert wf.sup_value == pytest.approx(5.0)


def test_water_filling_all_zero_spectrum():
    # first constraint vacuous: inactive even with a zero budget
    wf = water_filling(np.array([1.0, 2.0]), np.zeros(2), 1.0, 0.5)
    assert wf.ell is None
    assert wf.sup_value == pytest.approx(5.0)


def test_water_filling_zero_budget_counts_costless_tail():
    # gamma = 0 with positive costs: only coordinates after the last paying
    # one may saturate; here sigma_3 = 0 frees delta_3
    delta = np.array([1.0, 1.0, 2.0])
    sigma = np.array([1.0, 0.5, 0.0])
    wf = water_filling(delta, sigma, 0.0, 0.7)
    assert wf.ell == 3
    assert wf.rho == 0.0
    assert wf.sup_value == pytest.approx(4.0)
    assert sup_oracle(delta, sigma, 0.0, 0.7) == pytest.approx(4.0)


def test_water_filling_zero_budget_all_paying():
    wf = water_filling(np.array([1.0, 1.0]), np.array([1.0, 0.5]), 0.0, 0.7)
    assert wf.ell is not None
    assert wf.sup_value == 0.0


def test_water_filling_single_term_edge():
    # even the last term exceeds the budget: ell = n and rho is fractional
    delta = np.array([1.0, 2.0])
    sigma = np.array([1.0, 1.0])
    wf = water_filling(delta, sigma, 0.5, 0.5)  # budget 0.25, costs (1, 4)
    assert wf.ell == 2
    assert wf.rho == pytest.approx(0.25 / 4.0)
    assert wf.sup_value == pytest.approx(0.25)
    assert sup_oracle(delta, sigma, 0.5, 0.5) == pytest.approx(0.25)


def test_water_filling_interior_fraction():
    # budget 1 sits strictly between the two suffix sums (1.25 and 0.25):
    # the tail coordinate saturates and the head one fills to rho = 3/4
    delta = np.array([1.0, 1.0])
    sigma = np.array([1.0, 0.5])
    wf = water_filling(delta, sigma, 1.0, 0.5)
    assert wf.ell == 1
    assert wf.rho == pytest.approx(0.75)
    assert wf.sup_value == pytest.approx(1.75)
    assert sup_oracle(delta, sigma, 1.0, 0.5) == pytest.approx(1.75)


def test_water_filling_empty():
    wf = water_filling(np.zeros(0), np.zeros(0), 1.0, 1.0)
    assert wf.sup_value == 0.0
    assert wf.ell is None


def test_water_filling_input_validation():
    with pytest.raises(InvalidInput):
        water_filling(np.array([-1.0]), np.array([1.0]), 1.0, 1.0)
    with pytest.raises(InvalidInput):
        water_filling(np.array([1.0, 1.0]), np.array([0.5, 1.0]), 1.0, 1.0)
    with pytest.raises(InvalidInput):
        water_filling(np.array([1.0]), np.array([1.0]), -0.5, 1.0)
    with pytest.raises(InvalidInput):
        water_filling(np.array([1.0]), np.array([1.0]), 1.0, np.inf)
    with pytest.raises(InvalidInput):
        water_filling(np.array([1.0, 1.0]), np.array([1.0]), 1.0, 1.0)


def test_sup_oracle_dimension_cap():
    with pytest.raises(TooLarge):
        sup_oracle(np.ones(7), np.ones(7), 1.0, 1.0)


def test_water_filling_active_invariants():
    rng = np.random.default_rng(0)
    seen_active = 0
    for _ in range(300):
        n = int(rng.integers(1, 6))
        delta, sigma, gam, tau_n = random_tuple(rng, n)
        wf = water_filling(delta, sigma, gam, tau_n)
        budget = 4.0 * gam**2 * tau_n**2
        cost = sigma**2 * delta**2
        if wf.ell is None:
            assert wf.sup_value == pytest.approx(float(np.sum(delta**2)))
            assert float(np.sum(cost)) < budget or float(np.sum(cost)) == 0.0
            continue
        seen_active += 1
        ell = wf.ell  # 1-based
        assert 1 <= ell <= n
        assert 0.0 <= wf.rho <= 1.0
        # the suffix from ell meets the budget, the one after it does not
        assert float(np.sum(cost[ell - 1 :])) >= budget * (1.0 - 1e-12)
        if ell < n:
            assert float(np.sum(cost[ell:])) < budget
        if budget > 0.0:
            spent = wf.rho * cost[ell - 1] + float(np.sum(cost[ell:]))
            assert abs(spent - budget) <= 1e-10 * max(budget, 1.0)
    assert seen_active > 50


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_water_filling_matches_oracle(seed, n):
    rng = np.random.default_rng(seed)
    delta, sigma, gam, tau_n = random_tuple(rng, n)
    closed = water_filling(delta, sigma, gam, tau_n).sup_value
    brute = sup_oracle(delta, sigma, gam, tau_n)
    assert abs(closed - brute) <= 1e-9 * max(closed, brute, 1e-12)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_water_filling_monotone_in_delta(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    delta, sigma, gam, tau_n = random_tuple(rng, n)
    base = water_filling(delta, sigma, gam, tau_n).sup_value
    smaller = delta * rng.uniform(0.0, 1.0, size=n)
    shrunk = water_filling(smaller, sigma, gam, tau_n).sup_value
    assert shrunk <= base + 1e-12 * max(1.0, base)


def test_water_filling_branch_continuity():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        delta = rng.uniform(0.1, 2.0, size=n)
        sigma = descending(rng, n, 0.1, 1.0)
        gam = float(rng.uniform(0.1, 1.0))
        total = float(np.sum(sigma**2 * delta**2))
        tau_star = np.sqrt(total / (4.0 * gam**2))
        values = []
        for wiggle in (1.0 - 1e-9, 1.0 + 1e-9):
            wf = water_filling(delta, sigma, gam, tau_star * wiggle)
            values.append(wf.sup_value)
        assert abs(values[0] - values[1]) <= 1e-6 * max(values)


def test_water_filling_budget_between_summation_orders():
    # the pairwise and the tail-first sums of the costs differ in the last
    # bit here, and the budget lies between them
    args = ([1.992, 0.486, 0.514], [0.763, 0.258, 0.073], 0.5, 1.5255208624741914)
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
    # either side, found by searching gamma and tau_n near the exact solution
    rng = np.random.default_rng(seed)
    delta, sigma, gam, _ = random_tuple(rng, n)
    gam = gam or 0.5
    cost = sigma * sigma * delta * delta
    totals = {float(np.sum(cost)), float(np.cumsum(cost[::-1])[-1])}
    assume(min(totals) > 0.0)
    for target in {b for total in totals for b in steps(total, 1)}:
        tau_n = math.sqrt(target) / (2.0 * gam)
        for g, t in itertools.product(steps(gam, 3), steps(tau_n, 3)):
            if 4.0 * g * g * t * t == target:
                closed = water_filling(delta, sigma, g, t).sup_value
                brute = sup_oracle(delta, sigma, g, t)
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
        report = ms_bound(system_of(decomp, gam), identity_hierarchy(widths, distances))
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
    report = ms_bound(diag_system(np.array([0.5, 0.2])), identity_hierarchy(zeros, zeros))
    assert report.ms_bound == 0.0


def test_ms_bound_validation():
    system = diag_system(np.array([1.0, 0.5]))
    widths = np.array([1.0, 0.5, 0.2])
    with pytest.raises(InvalidInput, match="'guessed'"):
        ms_bound(system, identity_hierarchy(widths, widths), "guessed")
    # "known" needs the true distances, which this hierarchy does not know
    with pytest.raises(InvalidInput, match="true distance profile"):
        ms_bound(system, identity_hierarchy(widths))


def test_ms_bound_hierarchy_consistency():
    system = diag_system(np.array([1.0, 0.5]))
    widths = np.array([1.0, 0.5, 0.2])
    assert ms_bound(system, identity_hierarchy(widths), "practitioner").ms_bound > 0.0
    with pytest.raises(ValueError, match="decomposition size 2"):
        ms_bound(system, identity_hierarchy(np.array([1.0, 0.5])), "practitioner")


def test_ms_bound_practitioner_label():
    widths = np.array([1.0, 0.5, 0.2])
    report = ms_bound(diag_system(np.array([1.0, 0.5])), identity_hierarchy(widths), "practitioner")
    assert report.tau_source == "practitioner"


def test_ms_bound_practitioner_reads_the_widths_as_distances():
    # "practitioner" feeds the widths where "known" feeds the distances
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        sigma = descending(rng, n, 0.0, 1.0)
        X = random_orthogonal(rng, n)
        system = system_of(GramDecomposition(G=(X * sigma) @ X.T, U=X.copy(), X=X, sigma=sigma), 0.7)
        widths = descending(rng, n + 1, 0.0, 1.5)
        distances = np.minimum(descending(rng, n + 1, 0.0, 1.5), widths)
        practitioner = ms_bound(system, identity_hierarchy(widths, distances), "practitioner")
        # the widths array itself: |X|^T v of a contiguous copy of this reversed
        # view can differ in the last bit
        known = ms_bound(system, identity_hierarchy(widths, widths))
        assert (practitioner.tau_source, known.tau_source) == ("practitioner", "known")
        assert practitioner.ms_bound == known.ms_bound
        assert practitioner.babuska == known.babuska
        assert practitioner.water_filling == known.water_filling
        assert np.array_equal(practitioner.intermediates.delta, known.intermediates.delta)


def test_ms_bound_carries_actual_errors():
    report = ms_bound(
        diag_system(np.array([1.0, 0.5])),
        identity_hierarchy(np.array([1.0, 0.5, 0.2])),
        "practitioner",
        actual_pg_error=0.1,
        actual_ms_error=0.05,
    )
    assert report.actual_pg_error == 0.1
    assert report.actual_ms_error == 0.05


def test_decomposed_identity_round_trip():
    # the assembled report is consistent when fed a real decomposition
    rng = np.random.default_rng(3)
    G = rng.standard_normal((5, 3))
    widths = descending(rng, 4, 0.1, 1.0)
    report = ms_bound(system_of(decompose(G), 0.5), identity_hierarchy(widths), "practitioner")
    assert report.ms_bound >= widths[-1]
