import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bad_profiles,
    brute_force_ms,
    brute_force_projection,
    clip_to_feasible,
    descending,
    dykstra_projection,
    gram_and_load,
    random_feasible,
    random_orthogonal,
    random_spd,
    slice_hierarchy,
    square_instance,
    sweep_instance,
)
from msrom import (
    GramDecomposition,
    OrthonormalFrame,
    ProblemInstance,
    SolverOptions,
    SubspaceHierarchy,
    assemble,
    decompose,
    error_norm,
    example1,
    ms_bound,
    project_slices,
    run_instance,
    solve_ms,
    solve_pg,
    synth_prescribed,
)
from msrom.cli import _build_instance, parse_config
from msrom.problems import PROFILE_LIMIT
from msrom.spectral import SINGULAR_REL_TOL


def tail_norms(c):
    n = c.shape[0]
    return np.array([np.linalg.norm(c[k:]) for k in range(n)])


def tightened(problem, hierarchy, tests, rng, low=0.35, high=1.1):
    """Rebuild the hierarchy with widths that actually bite."""
    G, d = gram_and_load(problem, hierarchy, tests)
    c_ls = np.linalg.lstsq(G, d, rcond=None)[0]
    n = hierarchy.n
    factors = rng.uniform(low, high, size=n)
    widths = np.empty(n + 1)
    widths[:n] = tail_norms(c_ls) * factors
    widths[n] = 0.0
    return slice_hierarchy(hierarchy.basis, widths), G, d


# ---------------------------------------------------------------- projection


def test_project_slices_feasible_input_unchanged():
    rng = np.random.default_rng(0)
    n = 5
    widths = descending(rng, n + 1, 0.5, 2.0)
    c = random_feasible(rng, widths, n)
    out = project_slices(c, widths)
    assert np.max(np.abs(out - c)) <= 1e-12


def test_project_slices_single_cylinder():
    # only the k = 2 constraint is active: its tail block rescales, the head stays
    c = np.array([3.0, -2.0, 1.0, 1.0])
    widths = np.array([100.0, 100.0, 1.0, 100.0, 100.0])
    out = project_slices(c, widths)
    t = np.linalg.norm(c[2:])
    expected = c.copy()
    expected[2:] *= 1.0 / t
    assert np.allclose(out, expected, atol=1e-12)


def test_project_slices_full_norm_ball():
    c = np.array([3.0, 4.0])
    widths = np.array([1.0, 1.0, 1.0])
    out = project_slices(c, widths)
    assert np.allclose(out, c / 5.0, atol=1e-12)


def test_project_slices_matches_brute_force_n2():
    rng = np.random.default_rng(1)
    for _ in range(15):
        c = rng.standard_normal(2) * 2.0
        widths = rng.uniform(0.1, 2.0, size=3)
        out = project_slices(c, widths)
        ref = brute_force_projection(c, widths, rng)
        assert np.linalg.norm(out - c) <= np.linalg.norm(ref - c) + 1e-6
        assert np.max(np.abs(out - ref)) <= 1e-6


def test_project_slices_rejects_bad_widths():
    for widths, message in bad_profiles([1.0, 0.5, 0.2]):
        with pytest.raises(ValueError, match=message):
            project_slices(np.ones(2), widths)
    with pytest.raises(ValueError, match=r"\(2, 1\)"):
        project_slices(np.ones((2, 1)), np.array([1.0, 0.5, 0.2]))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_project_slices_output_feasible(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    widths = np.sort(rng.uniform(0.0, 3.0, size=n + 1))[::-1]
    c = rng.standard_normal(n) * float(rng.uniform(0.1, 4.0))
    out = project_slices(c, widths)
    assert np.all(tail_norms(out) <= widths[:n] + 1e-10)
    # projecting the output again moves nothing
    again = project_slices(out, widths)
    assert np.max(np.abs(again - out)) <= 1e-10


def slice_case(rng, n):
    """A point and n + 1 unsorted widths that bite, some loose (above ||c||), some zero."""
    c = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
    c[rng.random(n) < 0.15] = 0.0
    widths = np.append(tail_norms(c) * rng.uniform(0.0, 1.3, size=n), rng.uniform(0.0, 1.0))
    widths[rng.random(n + 1) < 0.15] = 2.0 * np.linalg.norm(c) + 1.0
    widths[rng.random(n + 1) < 0.08] = 0.0
    return c, widths


def test_project_slices_matches_dykstra_oracle():
    rng = np.random.default_rng(19)
    cases = [slice_case(rng, int(rng.integers(1, 14))) for _ in range(2000)]
    # one large case without zero widths, which would pin most of it
    c = rng.standard_normal(200)
    widths = np.append(tail_norms(c) * rng.uniform(0.3, 1.2, size=200), 0.0)
    widths[rng.random(201) < 0.1] = 2.0 * np.linalg.norm(c)
    cases.append((c, widths))
    for c, widths in cases:
        n = c.shape[0]
        scale = max(1.0, float(np.max(np.abs(c))))
        out = project_slices(c, widths)
        ref = dykstra_projection(c, widths)
        assert np.max(np.abs(out - ref)) <= 1e-10 * scale
        assert np.all(tail_norms(out) <= widths[:n] + 1e-14 * scale)
        # the oracle is feasible, so only rounding may put it nearer to c
        assert np.linalg.norm(out - c) <= np.linalg.norm(ref - c) + 1e-14 * scale


# ------------------------------------------------------------------ plain PG


def test_solve_pg_defining_equations():
    rng = np.random.default_rng(2)
    problem, hierarchy, tests = square_instance(rng)
    point, coeffs = solve_pg(assemble(problem, hierarchy, tests))
    _, d = gram_and_load(problem, hierarchy, tests)
    scale = np.linalg.norm(d)
    R, Z = problem.factors
    A = R @ Z.T  # a(v, z) = v^T A z
    for j in range(tests.n_columns):
        z_j = tests.columns[:, j]
        gap = point @ A @ z_j - problem.z_true @ A @ z_j
        assert abs(gap) <= 1e-8 * max(scale, 1e-12)


def test_solve_pg_recovers_truth_inside_trial():
    rng = np.random.default_rng(3)
    n = 5
    sigma = descending(rng, n, 0.3, 1.0)
    tau = np.array([1.0, 0.8, 0.5, 0.3, 0.1, 0.0])  # tau_n = 0: truth in V_n
    problem, hierarchy, tests = synth_prescribed(
        n, n, 2 * n + 2, sigma, random_orthogonal(rng, n), tau, tau, seed=13
    )
    point, _ = solve_pg(assemble(problem, hierarchy, tests))
    assert np.linalg.norm(point - problem.z_true) <= 1e-8


def test_solve_pg_zero_rhs():
    rng = np.random.default_rng(4)
    problem, hierarchy, tests = square_instance(rng)
    silent = ProblemInstance(np.zeros(problem.z_true.size), factors=problem.factors)
    point, coeffs = solve_pg(assemble(silent, hierarchy, tests))
    assert np.allclose(point, 0.0)
    assert np.allclose(coeffs, 0.0)


def test_solve_pg_singular_system():
    # a square singular system returns the truncated least-squares solution,
    # as a tall one does; the row reports no PG error for it
    rng = np.random.default_rng(5)
    n = 3
    sigma = np.array([1.0, 0.5, 0.0])
    tau = descending(rng, n + 1, 0.05, 1.0)
    problem, hierarchy, tests = synth_prescribed(
        n, n, 2 * n + 2, sigma, np.eye(n), tau, tau, seed=23
    )
    assembly = assemble(problem, hierarchy, tests)
    assert assembly.singular
    _, coeffs = solve_pg(assembly)
    G, d = gram_and_load(problem, hierarchy, tests)
    want = np.linalg.lstsq(G, d, rcond=SINGULAR_REL_TOL)[0]
    assert np.max(np.abs(coeffs - want)) <= 1e-9 * np.max(np.abs(want))
    assert run_instance(problem, hierarchy, tests, SolverOptions())[0].actual_pg_error is None


def test_solve_pg_least_squares_when_overdetermined():
    rng = np.random.default_rng(6)
    problem, hierarchy, tests = sweep_instance(rng, n_low=3, n_high=5)
    while tests.n_columns == hierarchy.n:
        problem, hierarchy, tests = sweep_instance(rng, n_low=3, n_high=5)
    _, coeffs = solve_pg(assemble(problem, hierarchy, tests))
    G, d = gram_and_load(problem, hierarchy, tests)
    # normal equations of the least-squares formulation
    grad = G.T @ (G @ coeffs - d)
    assert np.max(np.abs(grad)) <= 1e-9 * max(1.0, np.linalg.norm(d))


@pytest.mark.parametrize("m, sigma_n", [(5, 1e-6), (8, 0.0), (5, 0.0)])
def test_solve_pg_matches_lstsq_near_and_at_rank_loss(m, sigma_n):
    # tall or square, PG is the minimum-norm least-squares solution that
    # drops what counts as zero
    rng = np.random.default_rng(7)
    n = 5
    sigma = np.array([1.0, 0.6, 0.3, 0.1, sigma_n])
    tau = descending(rng, n + 1, 1e-3, 1.2)
    problem, hierarchy, tests = synth_prescribed(
        n, m, n + m + 3, sigma, random_orthogonal(rng, n), tau, tau, seed=9
    )
    _, coeffs = solve_pg(assemble(problem, hierarchy, tests))
    G, d = gram_and_load(problem, hierarchy, tests)
    want = np.linalg.lstsq(G, d, rcond=SINGULAR_REL_TOL)[0]
    assert np.max(np.abs(coeffs - want)) <= 1e-8 * np.max(np.abs(want))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("m", [5, 3])
def test_a_singular_value_the_decomposition_calls_zero_is_zero_for_pg_and_ms(m, seed):
    # sigma_3 = 1e-13 against the representer norm 1 makes the quotient
    # bound undefined, so the row reports no PG error, tall or square, and
    # the pseudo-inverse and MS's least-squares shortcut drop sigma_3 too;
    # inverting it put actual_pg_error near 1e11 on the tall rows
    config = {
        "mode": "prescribed", "n": 3, "m": m, "N": 11, "seed": seed,
        "sigma": [1.0, 0.5, 1e-13],
        "tau": [0.5, 0.3, 0.2, 0.1],
        "widths": [0.6, 0.4, 0.25, 0.1],
    }
    problem, hierarchy, tests = _build_instance(parse_config(json.dumps(config)), seed)
    report, solution, _ = run_instance(problem, hierarchy, tests, SolverOptions())
    assembly = assemble(problem, hierarchy, tests)
    assert assembly.singular and report.babuska is None
    G, d = gram_and_load(problem, hierarchy, tests)
    want = np.linalg.lstsq(G, d, rcond=SINGULAR_REL_TOL)[0]
    assert report.actual_pg_error is None
    # tall or square, the library solve is the truncated least-squares solution
    _, coeffs = solve_pg(assembly)
    assert np.max(np.abs(coeffs - want)) <= 1e-9 * np.max(np.abs(want))
    residual = G @ want - d
    assert solution.iterations == 0 and solution.converged
    assert solution.cost == pytest.approx(residual @ residual, rel=1e-12)


def test_rejects_fewer_tests_than_trial_directions():
    rng = np.random.default_rng(7)
    problem, hierarchy, tests = square_instance(rng, n_low=4, n_high=4)
    short = OrthonormalFrame(tests.columns[:, :2])
    with pytest.raises(ValueError, match="at least as many tests as trial directions"):
        assemble(problem, hierarchy, short)


# ------------------------------------------------------------ slice-constrained


def test_solve_ms_inactive_constraints_match_pg():
    rng = np.random.default_rng(8)
    problem, hierarchy, tests = square_instance(rng)
    G, d = gram_and_load(problem, hierarchy, tests)
    sigma_min = np.linalg.svd(G, compute_uv=False)[-1]
    bound = 10.0 * np.linalg.norm(d) / sigma_min
    n = hierarchy.n
    roomy = slice_hierarchy(hierarchy.basis, np.full(n + 1, bound))
    assembly = assemble(problem, hierarchy, tests)
    pg_point, _ = solve_pg(assembly)
    solution = solve_ms(dataclasses.replace(assembly, hierarchy=roomy))
    assert solution.converged
    assert np.linalg.norm(solution.point - pg_point) <= 1e-8


def test_solve_ms_all_zero_widths():
    rng = np.random.default_rng(9)
    problem, hierarchy, tests = square_instance(rng)
    n = hierarchy.n
    pinched = slice_hierarchy(hierarchy.basis, np.zeros(n + 1))
    solution = solve_ms(assemble(problem, pinched, tests))
    assert solution.converged
    assert np.allclose(solution.coeffs, 0.0)
    assert np.allclose(solution.point, 0.0)


def test_solve_ms_zero_width_pins_tail():
    rng = np.random.default_rng(10)
    problem, hierarchy, tests = square_instance(rng, n_low=5, n_high=5)
    widths = hierarchy.widths.copy()
    widths[3:] = 0.0
    cut = slice_hierarchy(hierarchy.basis, widths)
    solution = solve_ms(assemble(problem, cut, tests))
    assert solution.converged
    assert np.all(solution.coeffs[3:] == 0.0)
    assert np.all(tail_norms(solution.coeffs) <= widths[:5] + 1e-8)


def test_solve_ms_certificate_and_feasibility():
    rng = np.random.default_rng(11)
    for _ in range(8):
        problem, hierarchy, tests = sweep_instance(rng, n_high=8)
        tight, G, d = tightened(problem, hierarchy, tests, rng)
        solution = solve_ms(assemble(problem, tight, tests))
        assert solution.converged
        # the returned point really lives in the trial span
        W = hierarchy.basis.columns
        assert np.linalg.norm(solution.point - W @ (W.T @ solution.point)) <= 1e-9
        assert np.all(tail_norms(solution.coeffs) <= tight.widths[: hierarchy.n] + 1e-8)
        cert = max(1e-8, 1e-6 * np.linalg.norm(2.0 * G.T @ d))
        assert solution.kkt_residual <= cert
        # reported cost is the actual cost at the returned coefficients
        r = G @ solution.coeffs - d
        assert abs(solution.cost - float(r @ r)) <= 1e-12 * max(1.0, solution.cost)


def test_solve_ms_beats_random_feasible_points():
    rng = np.random.default_rng(12)
    problem, hierarchy, tests = sweep_instance(rng, n_high=7)
    tight, G, d = tightened(problem, hierarchy, tests, rng)
    solution = solve_ms(assemble(problem, tight, tests))

    def cost(c):
        r = G @ c - d
        return float(r @ r)

    for _ in range(100):
        c = random_feasible(rng, tight.widths, hierarchy.n, scale=float(tight.widths[0]))
        assert solution.cost <= cost(c) + 1e-9


def test_solve_ms_matches_brute_force_small():
    rng = np.random.default_rng(13)
    for _ in range(5):
        problem, hierarchy, tests = sweep_instance(rng, n_low=4, n_high=4)
        tight, G, d = tightened(problem, hierarchy, tests, rng)
        solution = solve_ms(assemble(problem, tight, tests))
        assert solution.converged
        ref_cost, _ = brute_force_ms(G, d, tight.widths, rng)
        slack = max(1e-9, 1e-7 * max(solution.cost, ref_cost))
        assert solution.cost <= ref_cost + slack
        assert ref_cost <= solution.cost + 1e-6 * max(1.0, ref_cost)


def test_solve_ms_newton_converges_in_few_evaluations():
    # an inexact Newton Jacobian still reaches the same point, only slower:
    # with the exact one the median solve takes about ten evaluations
    rng = np.random.default_rng(5)
    counts = []
    for _ in range(40):
        problem, hierarchy, tests = sweep_instance(rng, n_high=10)
        tight, _, _ = tightened(problem, hierarchy, tests, rng)
        solution = solve_ms(assemble(problem, tight, tests))
        assert solution.converged
        counts.append(solution.iterations)
    assert np.median(counts) <= 15


def test_solve_ms_truth_projection_chain():
    # f(z_MS) <= f(P(z*)) <= gamma^2 tau_n^2, and P(z*) is feasible
    rng = np.random.default_rng(15)
    for _ in range(6):
        problem, hierarchy, tests = sweep_instance(rng, n_high=8)
        G, d = gram_and_load(problem, hierarchy, tests)
        trial = hierarchy.basis
        assembly = assemble(problem, hierarchy, tests)
        solution = solve_ms(assembly)
        c_star = trial.columns.T @ problem.z_true
        assert np.all(tail_norms(c_star) <= hierarchy.widths[: hierarchy.n] + 1e-10)
        r_star = G @ c_star - d
        f_star = float(r_star @ r_star)
        assert solution.cost <= f_star + 1e-9
        gam = assembly.gamma
        tau_n = hierarchy.distances[-1]
        assert f_star <= gam**2 * tau_n**2 + 1e-9


def test_solve_ms_flags_non_unique_spectrum():
    rng = np.random.default_rng(16)
    n = 3
    sigma = np.array([1.0, 0.5, 0.0])
    tau = descending(rng, n + 1, 0.05, 1.0)
    problem, hierarchy, tests = synth_prescribed(
        n, n, 8, sigma, np.eye(n), tau, tau, seed=3
    )
    assembly = assemble(problem, hierarchy, tests)
    assert assembly.singular  # what the row shows as babuska_bound = undefined
    assert solve_ms(assembly).converged


def test_solve_ms_singular_gram_with_biting_widths():
    # sigma_n = 0 (or two zeros) and widths below the least-squares tail
    # norms: the dual Newton must start off the singular H = G^T G
    for seed in range(70):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        m = n + int(rng.integers(0, 3))
        sigma = descending(rng, n, 0.05, 1.0)
        sigma[0] = 1.0
        sigma[-int(rng.integers(1, 3)) :] = 0.0
        tau = descending(rng, n + 1, 1e-3, 1.2)
        problem, hierarchy, tests = synth_prescribed(
            n, m, n + m + 4, sigma, random_orthogonal(rng, n), tau, tau, seed=seed
        )
        G, d = gram_and_load(problem, hierarchy, tests)
        c_ls = np.linalg.lstsq(G, d, rcond=None)[0]
        widths = np.append(tail_norms(c_ls) * rng.uniform(0.3, 1.0, n), 0.0)
        biting = slice_hierarchy(hierarchy.basis, widths)
        assembly = assemble(problem, biting, tests)
        assert assembly.singular, seed
        solution = solve_ms(assembly)
        assert solution.converged, seed
        assert np.all(tail_norms(solution.coeffs) <= widths[:n] * (1.0 + 1e-8) + 1e-12), seed
        if n <= 4:
            ref_cost, _ = brute_force_ms(G, d, widths, rng)
            assert solution.cost <= ref_cost + max(1e-9, 1e-7 * ref_cost), seed


def test_hierarchy_is_frozen_so_solve_ms_reads_checked_widths():
    # solve_ms reads hierarchy.widths unchecked: construction checked them,
    # and no assignment can replace them afterwards
    rng = np.random.default_rng(17)
    _, hierarchy, _ = square_instance(rng)
    for widths, _ in bad_profiles(hierarchy.widths):
        with pytest.raises(dataclasses.FrozenInstanceError):
            hierarchy.widths = widths


def threaded_instance(kind):
    """One instance per path of the shared assembly, by ``kind``."""
    rng = np.random.default_rng(sum(map(ord, kind)))
    n = 6
    m = 9 if kind == "tall" else n
    N = n + m + 4
    sigma = descending(rng, n, 0.05, 1.0)
    sigma[0] = 1.0
    if kind == "singular":
        sigma[-1] = 0.0
    tau = descending(rng, n + 1, 1e-3, 1.2)
    if kind == "zero_width":
        tau[3:] = 0.0  # widths equal distances, so eps_3 = 0 pins the tail
    metric = random_spd(rng, N) if kind == "metric" else None
    return synth_prescribed(
        n, m, N, sigma, random_orthogonal(rng, n), tau, tau, seed=5, metric=metric
    )


@pytest.mark.parametrize("kind", ["square", "tall", "singular", "zero_width", "metric"])
def test_run_instance_matches_standalone_solvers(kind, monkeypatch):
    import msrom.solvers as solvers_module
    import msrom.spectral as spectral_module

    problem, hierarchy, tests = threaded_instance(kind)
    shapes = []
    for module in (spectral_module, solvers_module):
        monkeypatch.setattr(module, "decompose", lambda G: shapes.append(G.shape) or decompose(G))
    report, solution, _ = run_instance(problem, hierarchy, tests, SolverOptions())
    # one SVD of G per instance, plus the reduced matrix's when a width is zero
    assert [n for _, n in shapes] == ([6, 3] if kind == "zero_width" else [6])
    monkeypatch.undo()
    assembly = assemble(problem, hierarchy, tests)
    alone = solve_ms(assembly)
    scale = max(1.0, float(np.max(np.abs(alone.coeffs))))
    assert np.max(np.abs(solution.coeffs - alone.coeffs)) <= 1e-12 * scale
    assert solution.cost == pytest.approx(alone.cost, rel=1e-12, abs=1e-300)
    assert assembly.singular == (kind == "singular")
    point, _ = solve_pg(assembly)
    if kind == "singular":
        assert report.actual_pg_error is None
    else:
        assert report.actual_pg_error == pytest.approx(error_norm(point, problem), rel=1e-12)
    if kind == "zero_width":
        assert np.all(solution.coeffs[3:] == 0.0)


@pytest.mark.parametrize("kind", ["square", "tall", "singular", "zero_width", "metric"])
def test_no_output_reads_the_signs_of_the_singular_vectors(kind):
    # the projectors read U and X in matched pairs, X diag(sigma)^+ U^T d, and
    # the bound reads |X|; so flipping paired columns, an SVD as valid as
    # LAPACK's, moves no bit of either solve or of any field of the bound
    problem, hierarchy, tests = threaded_instance(kind)
    assembly = assemble(problem, hierarchy, tests)
    decomp, n = assembly.decomp, hierarchy.n
    pg = solve_pg(assembly)
    ms, bound = solve_ms(assembly), ms_bound(assembly)
    rng = np.random.default_rng(sum(map(ord, kind)))
    for _ in range(4):
        signs = rng.choice([-1.0, 1.0], size=n)
        signs[rng.integers(n)] = -1.0
        # elementwise products keep each factor's memory layout, so every
        # matrix product below runs the same kernel in the same order
        flipped = GramDecomposition(
            G=decomp.G,
            U=decomp.U * np.append(signs, np.ones(decomp.U.shape[1] - n)),
            X=decomp.X * signs,
            sigma=decomp.sigma,
        )
        other = dataclasses.replace(assembly, decomp=flipped)
        for want, got in zip(pg, solve_pg(other)):
            assert got.tobytes() == want.tobytes()
        got = solve_ms(other)
        assert got.coeffs.tobytes() == ms.coeffs.tobytes()
        assert (got.cost, got.iterations, got.converged) == (ms.cost, ms.iterations, ms.converged)
        report = ms_bound(other)
        assert (report.babuska, report.ms_bound) == (bound.babuska, bound.ms_bound)
        assert report.water_filling == bound.water_filling
        assert report.intermediates.gamma == bound.intermediates.gamma
        assert report.intermediates.delta.tobytes() == bound.intermediates.delta.tobytes()
        assert report.actual_pg_error is report.actual_ms_error is None


def dominated(widths):
    """Indices k < n whose width is no lower than some earlier width."""
    head = widths[:-1]
    return [k for k in range(1, head.size) if head[k] >= np.min(head[:k])]


def counting_projection(monkeypatch):
    """Count the calls ``solve_ms`` makes to ``project_slices``."""
    import msrom.solvers as solvers_module

    calls = []
    monkeypatch.setattr(
        solvers_module, "project_slices", lambda c, w: calls.append(1) or project_slices(c, w)
    )
    return calls


def plateau_case(rng, metric):
    """An instance with biting widths, ties, infinite widths and maybe a zero width."""
    n = int(rng.integers(6, 11))
    sigma = descending(rng, n, 0.01, 1.0)
    tau = descending(rng, n + 1, 1e-3, 1.2)
    N = 2 * n + 3
    X = random_orthogonal(rng, n)
    spd = random_spd(rng, N) if metric else None
    seed = int(rng.integers(2**31))
    problem, hierarchy, tests = synth_prescribed(
        n, n, N, sigma, X, tau, tau, seed=seed, metric=spd
    )
    G, d = gram_and_load(problem, hierarchy, tests)
    widths = np.append(tail_norms(np.linalg.lstsq(G, d, rcond=None)[0]), 0.0)
    widths[:n] *= rng.uniform(0.3, 1.1, size=n)
    # plateaus of ties, and rises slight or far above the running minimum
    for k in range(1, n):
        draw = rng.random()
        if draw < 0.3:
            widths[k] = np.min(widths[:k])
        elif draw < 0.45:
            widths[k] = np.min(widths[:k]) * rng.uniform(1.0, 3.0)
        elif draw < 0.55:
            widths[k] = np.min(widths[:k]) * 1e6
    if rng.random() < 0.4:
        widths[int(rng.integers(2, n - 1))] = 0.0
    return problem, hierarchy.basis, tests, widths


@pytest.mark.parametrize("metric", [False, True])
def test_solve_ms_ignores_dominated_widths(metric):
    # nested trial spaces: a width at or above an earlier one cannot bind, so
    # raising it to PROFILE_LIMIT or anywhere above the running minimum changes nothing
    rng = np.random.default_rng(41 + metric)
    cases = [plateau_case(rng, metric) for _ in range(12)]
    if not metric:
        problem, hierarchy, tests = example1(1e-4, 10, 40, 17)
        cases.append((problem, hierarchy.basis, tests, hierarchy.widths.copy()))
    for problem, basis, tests, widths in cases:
        assembly = assemble(problem, slice_hierarchy(basis, widths), tests)
        base = solve_ms(assembly)
        assert base.converged
        assert np.all(tail_norms(base.coeffs) <= widths[:-1] * (1.0 + 1e-8) + 1e-12)
        drop = dominated(widths)
        assert drop, "every case has at least one dominated width"
        raised = widths.copy()
        raised[drop] = PROFILE_LIMIT
        lifted = widths.copy()
        lifted[drop] = [np.min(widths[:k]) * rng.uniform(1.0, 4.0) for k in drop]
        scale = max(1.0, float(np.max(np.abs(base.coeffs))))
        for variant in (raised, lifted):
            variant_hierarchy = slice_hierarchy(basis, variant)
            other = solve_ms(dataclasses.replace(assembly, hierarchy=variant_hierarchy))
            assert other.converged
            assert np.max(np.abs(other.coeffs - base.coeffs)) <= 1e-10 * scale


@pytest.mark.parametrize("seed", [17, 58, 117])
def test_example1_plateau_widths_skip_the_fallback(seed, monkeypatch):
    # the tied widths (1, ..., 1, sqrt(tau), sqrt(tau)), all in the working
    # set, make near-duplicate constraints, a singular Newton system and
    # hundreds of fallback projections; with only the binding widths the
    # solve projects once for the point and once for its certificate
    calls = counting_projection(monkeypatch)
    problem, hierarchy, tests = example1(1e-4, 10, 40, seed)
    solution = solve_ms(assemble(problem, hierarchy, tests))
    assert solution.converged
    assert len(calls) <= 2


# random-sweep seeds (n 3-10) whose solves reached the projected-gradient
# fallback of the former grow-only active-set solver
FALLBACK_SWEEP_SEEDS = [59, 204, 265, 594, 697, 1095, 1382, 1445]


def test_fallback_stress_corpus(monkeypatch):
    cfg = parse_config(json.dumps({"mode": "random-sweep", "n_min": 3, "n_max": 10, "seed": 0}))
    rng = np.random.default_rng(43)
    fallback_runs = 0
    for seed in FALLBACK_SWEEP_SEEDS:
        problem, hierarchy, tests = _build_instance(cfg, seed)
        n = hierarchy.n
        calls = counting_projection(monkeypatch)
        report, solution, _ = run_instance(problem, hierarchy, tests, SolverOptions())
        monkeypatch.undo()
        fallback_runs += len(calls) > 2
        widths = hierarchy.widths
        assert solution.converged, seed
        assert np.all(tail_norms(solution.coeffs) <= widths[:n] * (1.0 + 1e-8) + 1e-12), seed
        G, d = gram_and_load(problem, hierarchy, tests)
        assert solution.kkt_residual <= max(1e-8, 1e-6 * np.linalg.norm(2.0 * G.T @ d)), seed
        assert report.actual_ms_error <= report.ms_bound, seed

        def cost(c):
            r = G @ c - d
            return float(r @ r)

        for _ in range(200):
            c = random_feasible(rng, widths, n, scale=float(widths[0]))
            assert solution.cost <= cost(c) + 1e-12 * max(1.0, cost(c)), seed
    # the dual Newton certifies every seed with no iterative projection loop:
    # two project_slices calls, for the point and its certificate
    assert fallback_runs == 0


def biting_instance(seed, n_high=8):
    """A sweep instance whose widths all cut the least-squares tail norms."""
    rng = np.random.default_rng(seed)
    problem, hierarchy, tests = sweep_instance(rng, n_high=n_high)
    tight, G, d = tightened(problem, hierarchy, tests, rng, high=0.9)
    return problem, tight, tests, G, d


def test_solve_ms_reports_non_convergence_when_the_budget_runs_out():
    # one evaluation stops the dual Newton at lam = 0, far from the answer;
    # the solve must say so and still return a point within the widths
    for seed in range(6):
        problem, tight, tests, G, d = biting_instance(80 + seed)
        assembly = assemble(problem, tight, tests)
        solution = solve_ms(assembly, SolverOptions(max_iterations=1))
        assert solution.converged is False
        assert solution.iterations == 1
        cert = max(1e-8, 1e-6 * np.linalg.norm(2.0 * G.T @ d))
        assert solution.kkt_residual > cert
        n = tight.n
        assert np.all(tail_norms(solution.coeffs) <= tight.widths[:n] * (1.0 + 1e-8) + 1e-12)


def scaled(problem, hierarchy, s):
    """The same instance with the truth, the widths and the distances times s."""
    return (
        ProblemInstance(s * problem.z_true, factors=problem.factors),
        SubspaceHierarchy(
            hierarchy.basis,
            s * hierarchy.widths,
            s * hierarchy.distances,
        ),
    )


@pytest.mark.parametrize("scale", [1e-100, 1e-20, 1e-16, 1e-12, 1e-6, 1e6, "limit"])
def test_scaling_truth_and_widths_scales_solution_and_bounds(scale):
    # metamorphic: G does not change, d, the widths and the minimizer scale
    # by s; the solve's floors scale with the problem, so this holds far below
    # unit scale (absolute floors once certified answers 2-22% off at 1e-20).
    # "limit" scales the largest width or distance to the largest one that
    # check_profile accepts
    cfg = parse_config(json.dumps({"mode": "random-sweep", "n_min": 3, "n_max": 10, "seed": 0}))
    cases = [_build_instance(cfg, seed) for seed in FALLBACK_SWEEP_SEEDS]
    cases.append(example1(1e-4, 10, 40, 17))
    for problem, hierarchy, tests in cases:
        s = scale
        if scale == "limit":
            s = PROFILE_LIMIT / max(np.max(hierarchy.widths), np.max(hierarchy.distances))
            with pytest.raises(ValueError, match="entries must be finite and at most"):
                scaled(problem, hierarchy, 1.01 * s)
        base_report, base, _ = run_instance(problem, hierarchy, tests, SolverOptions())
        report, solution, _ = run_instance(*scaled(problem, hierarchy, s), tests, SolverOptions())
        assert base.converged and solution.converged
        gap = np.linalg.norm(solution.coeffs - s * base.coeffs)
        assert gap <= 1e-9 * s * np.linalg.norm(base.coeffs)
        assert report.ms_bound == pytest.approx(s * base_report.ms_bound, rel=1e-9)
        assert report.babuska == pytest.approx(s * base_report.babuska, rel=1e-9)


def test_solve_ms_certificate_floor_scales_with_the_problem():
    # at 1e-20 every prox residual is tiny in absolute terms: one evaluation
    # leaves the point far off, and only a floor relative to the problem's
    # scale tells (an absolute floor max(1e-8, ...) certifies all six)
    for seed in range(6):
        problem, tight, tests, _, _ = biting_instance(80 + seed)
        problem, tight = scaled(problem, tight, 1e-20)
        assembly = assemble(problem, tight, tests)
        solution = solve_ms(assembly, SolverOptions(max_iterations=1))
        assert solution.converged is False, seed


def test_solve_ms_ridges_an_exactly_singular_lagrangian_system(monkeypatch):
    # G = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]: c_0 costs nothing and only the
    # loose width eps_0 = 10 covers it, so K = H + diag(tails^T lam) (3 x 3)
    # keeps an exact zero pivot while its multiplier is zero
    E = np.eye(6)
    A = np.zeros((6, 6))
    A[1, 3] = A[2, 4] = A[3, 5] = 1.0
    problem = ProblemInstance(np.array([0.3, 0.8, -0.6, 0.2, 0.0, 0.0]), factors=(A, E))
    trial = OrthonormalFrame(E[:, :3])
    tests = OrthonormalFrame(E[:, 3:])
    hierarchy = slice_hierarchy(trial, np.array([10.0, 0.5, 0.3, 0.0]))
    raised, solve = [], np.linalg.solve

    def counting_solve(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            raised.append(np.shape(a))
            raise

    assembly = assemble(problem, hierarchy, tests)
    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    solution = solve_ms(assembly)
    monkeypatch.undo()
    assert (3, 3) in raised
    assert solution.converged
    assert np.max(np.abs(solution.coeffs - [0.0, 0.4, -0.3])) <= 1e-9


def test_solve_ms_flat_cost_returns_the_origin():
    # a zero operator makes G = 0 (sigma_1 = 0), and unit representers that
    # meet the trial span only at 1e-17 make G zero up to rounding (sigma_j
    # = 1e-17 against ||R||_2 = 1): every point costs ||d||^2, and the
    # origin, feasible for any widths, is returned without iterating.  The load
    # is set directly, d = (1, 2, 0)
    E = np.eye(6)
    hierarchy = slice_hierarchy(OrthonormalFrame(E[:, :3]), np.array([1.0, 0.5, 0.2, 0.1]))
    tests = OrthonormalFrame(E[:, 3:])
    rounding = np.zeros((6, 6))
    rounding[3:, 3:] = np.eye(3)  # A z_j = z_j + 1e-17 w_j
    rounding[:3, 3:] = 1e-17 * np.eye(3)
    for operator in (np.zeros((6, 6)), rounding):
        problem = ProblemInstance(np.zeros(6), factors=(operator, E))
        assembly = dataclasses.replace(
            assemble(problem, hierarchy, tests), d=np.array([1.0, 2.0, 0.0])
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solution = solve_ms(assembly)
        assert np.array_equal(solution.coeffs, np.zeros(3))
        assert solution.converged and solution.iterations == 0
        assert solution.cost == 5.0
        assert assembly.singular


def test_solve_ms_falls_back_to_lstsq_for_a_singular_free_block(monkeypatch):
    # G = diag(1, 0.5, 0.25) and d = (1, 0, 1): c_1 = 0 at the solution, so its
    # tail column of the dual Hessian vanishes and the free block is singular
    E = np.eye(8)
    A = np.zeros((8, 8))
    for j, a in enumerate((1.0, 0.5, 0.25)):
        A[j, 3 + j] = a
    problem = ProblemInstance(np.zeros(8), factors=(A, E))
    trial = OrthonormalFrame(E[:, :3])
    hierarchy = slice_hierarchy(trial, np.array([2.0, 1.0, 0.5, 0.1]))
    tests = OrthonormalFrame(E[:, 3:6])
    calls, lstsq = [], np.linalg.lstsq

    def counting_lstsq(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return lstsq(*args, **kwargs)

    assembly = dataclasses.replace(
        assemble(problem, hierarchy, tests), d=np.array([1.0, 0.0, 1.0])
    )
    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    solution = solve_ms(assembly)
    monkeypatch.undo()
    assert len(calls) == 2
    assert solution.converged and solution.iterations == 4
    assert np.max(np.abs(solution.coeffs - [1.0, 0.0, 0.5])) <= 1e-9


def test_solve_ms_stall_returns_a_feasible_uncertified_point(monkeypatch):
    # a stall tolerance of 1 ends the dual Newton at its first damped step
    import msrom.solvers as solvers_module

    cfg = parse_config(json.dumps({"mode": "random-sweep", "n_min": 3, "n_max": 10, "seed": 0}))
    for seed in (2, 3, 44):
        problem, hierarchy, tests = _build_instance(cfg, seed)
        n = hierarchy.n
        assembly = assemble(problem, hierarchy, tests)
        full = solve_ms(assembly)
        monkeypatch.setattr(solvers_module, "STALL_REL_TOL", 1.0)
        stalled = solve_ms(assembly)
        monkeypatch.undo()
        assert full.converged and stalled.converged is False, seed
        assert stalled.iterations < full.iterations, seed
        assert np.all(tail_norms(stalled.coeffs) <= hierarchy.widths[:n] * (1.0 + 1e-14)), seed


def test_solve_ms_points_lie_within_the_widths():
    # every exit returns the projection onto the widths, never a point
    # outside them by the KKT slack
    cfg = parse_config(json.dumps({"mode": "random-sweep", "n_min": 3, "n_max": 10, "seed": 0}))
    for seed in range(3000):
        problem, hierarchy, tests = _build_instance(cfg, seed)
        n = hierarchy.n
        _, solution, _ = run_instance(problem, hierarchy, tests, SolverOptions())
        assert np.all(tail_norms(solution.coeffs) <= hierarchy.widths[:n] * (1.0 + 1e-14)), seed


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(max_iterations=0)
    # the integer rule of the dimensions: a NaN cap compared false with
    # every count and stopped the dual Newton after one evaluation
    for cap in [float("nan"), 2.5, float("inf"), True, np.float64(5.0), "5"]:
        with pytest.raises(ValueError, match="max_iterations must be a positive integer"):
            SolverOptions(max_iterations=cap)
    problem, hierarchy, tests = example1(1e-4, 10, 40, 7)
    assembly = assemble(problem, hierarchy, tests)
    default = solve_ms(assembly)
    numpy_cap = solve_ms(assembly, SolverOptions(max_iterations=np.int64(50_000)))
    assert default.converged and default.iterations == 5
    assert numpy_cap.coeffs.tobytes() == default.coeffs.tobytes()
    with pytest.raises(TypeError):  # the stall tolerance is no option
        SolverOptions(gradient_tolerance=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_solve_ms_properties(seed):
    rng = np.random.default_rng(seed)
    problem, hierarchy, tests = sweep_instance(rng, n_high=7)
    solution = solve_ms(assemble(problem, hierarchy, tests))
    assert solution.converged
    n = hierarchy.n
    assert np.all(tail_norms(solution.coeffs) <= hierarchy.widths[:n] + 1e-8)
    W = hierarchy.basis.columns
    assert np.linalg.norm(solution.point - W @ (W.T @ solution.point)) <= 1e-9
    assert solution.cost >= 0.0


# ----------------------------------------------------------------- error norm


def test_error_norm_cases():
    problem = ProblemInstance(np.array([1.0, 0.0]), factors=(np.eye(2), np.eye(2)))
    assert error_norm(problem.z_true, problem) == 0.0
    assert error_norm(np.array([0.0, 1.0]), problem) == pytest.approx(np.sqrt(2.0))


def test_error_norm_matches_metric_formula():
    # points and truth written in the metric M = L L^T, mapped to orthonormal
    # coordinates by L^T: the error norm there is the metric norm
    rng = np.random.default_rng(18)
    M = random_spd(rng, 4)
    Lt = np.linalg.cholesky(M).T
    z = rng.standard_normal(4)
    problem = ProblemInstance(Lt @ z, factors=(np.eye(4), np.eye(4)))
    p = rng.standard_normal(4)
    want = float(np.sqrt((z - p) @ M @ (z - p)))
    assert error_norm(Lt @ p, problem) == pytest.approx(want, rel=1e-12)

