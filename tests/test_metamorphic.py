"""Metamorphic tests of the whole pipeline: a metric instance against the
Euclidean image of the same instance built in the metric by Gram-Schmidt, a
rotated test basis against the original one, a nearly
symmetric metric against its symmetrization, trial vectors with flipped
signs against the original ones, and the paper examples' singular vectors
rotated inside a tie of sigma against LAPACK's."""

import dataclasses
import json

import numpy as np
import pytest

from helpers import metric_draws, random_orthogonal, random_spd
from msrom import (
    GramDecomposition,
    OrthonormalFrame,
    ProblemInstance,
    SolverOptions,
    SubspaceHierarchy,
    assemble,
    ms_bound,
    run_instance,
    solve_pg,
    synth_prescribed,
)
from msrom.cli import _build_instance, parse_config

REL = 1e-10
CASES = [(None, 8), ("spd", 8), ("spd", 11)]  # (metric, m) with n = 8


def example1_inputs(n, tau):
    """example1's spectrum and profile, so that the widths bite."""
    root = float(np.sqrt(tau))
    sigma = np.array([1.0] * (n - 3) + [root, root, tau])
    return sigma, np.array([1.0] * (n - 2) + [root, root, tau])


def instance(metric, m, n=8, N=40, seed=5, tau=1e-3):
    """An instance on example1's inputs, and its metric (None for the Euclidean one)."""
    sigma, profile = example1_inputs(n, tau)
    M = None if metric is None else random_spd(np.random.default_rng(seed), N, spread=10.0)
    return synth_prescribed(n, m, N, sigma, np.eye(n), profile, profile, seed, metric=M), M


def outcome(problem, hierarchy, tests):
    report, solution, decomp = run_instance(problem, hierarchy, tests, SolverOptions())
    assert solution.converged
    _, pg_coeffs = solve_pg(assemble(problem, hierarchy, tests))
    return {
        "sigma": decomp.sigma,
        "gamma": report.intermediates.gamma,
        "sup_value": report.water_filling.sup_value,
        "ms_bound": report.ms_bound,
        "babuska": report.babuska,
        "actual_pg_error": report.actual_pg_error,
        "actual_ms_error": report.actual_ms_error,
        "pg_coeffs": pg_coeffs,
        "ms_coeffs": solution.coeffs,
        "ms_iterations": solution.iterations,
    }


def assert_same(got, want, keys):
    for key in keys:
        scale = np.max(np.abs(want[key]))
        assert np.max(np.abs(np.asarray(got[key]) - want[key])) <= REL * scale, key


@pytest.mark.parametrize("metric,m", CASES)
def test_metric_instance_equals_its_euclidean_image(metric, m):
    # the instance built in the metric M itself, from the generator's draws by
    # metric Gram-Schmidt: frames W and Z, representers R, the operator A = R
    # (M Z)^T and the truth z_true.  x -> L^T x, with M = L L^T, is an isometry
    # onto the Euclidean R^N; it maps the frames to L^T W and L^T Z, the
    # operator to (L^T R)(L^T Z)^T and the truth to L^T z_true, and every number
    # a run reports is defined by inner products alone.  The generator returns
    # that image, so both instances report the same numbers
    n, N, seed = 8, 40, 5
    (problem, hierarchy, tests), M = instance(metric, m)
    M = np.eye(N) if M is None else M
    base, u = metric_draws(n, m, N, seed, M)
    W, Q = base[:, :n], base[:, n:]
    sigma, _ = example1_inputs(n, 1e-3)
    R = np.hstack([W * sigma + Q[:, :n] * np.sqrt(1.0 - sigma**2), Q[:, n:]])
    tau = hierarchy.distances
    z_true = W @ np.sqrt(tau[:-1] ** 2 - tau[1:] ** 2) + tau[-1] * u
    Lt = np.linalg.cholesky(M).T
    LZ = Lt @ base[:, :m]
    image = (
        ProblemInstance(Lt @ z_true, factors=(Lt @ R, LZ)),
        SubspaceHierarchy(OrthonormalFrame(Lt @ W), hierarchy.widths, hierarchy.distances),
        OrthonormalFrame(LZ),
    )
    want = outcome(problem, hierarchy, tests)
    assert want["ms_iterations"] > 0  # the widths bite: MS is not the LS solution
    got = outcome(*image)
    assert_same(got, want, [key for key in want if key != "ms_iterations"])


@pytest.mark.parametrize("metric,m", CASES)
def test_rotated_test_basis_leaves_solutions_and_bounds(metric, m):
    # Z -> Z O turns G into O^T G and d into O^T d: the residual norm, hence
    # both projections, and the singular values and gamma do not change
    (problem, hierarchy, tests), _ = instance(metric, m)
    O = random_orthogonal(np.random.default_rng(17), m)
    rotated = OrthonormalFrame(tests.columns @ O)
    want = outcome(problem, hierarchy, tests)
    got = outcome(problem, hierarchy, rotated)
    assert_same(got, want, ["pg_coeffs", "ms_coeffs", "ms_bound", "babuska"])


def row(problem, hierarchy, tests):
    """The numbers of a CSV row that depend on the instance."""
    report, solution, decomp = run_instance(problem, hierarchy, tests, SolverOptions())
    wf = report.water_filling
    return {
        "sigma_1": decomp.sigma[0],
        "sigma_n": decomp.sigma[-1],
        "gamma": report.intermediates.gamma,
        "ell": wf.ell,
        "rho": wf.rho,
        "sup_value": wf.sup_value,
        "babuska_bound": report.babuska,
        "ms_bound": report.ms_bound,
        "actual_pg_error": report.actual_pg_error,
        "actual_ms_error": report.actual_ms_error,
        "ms_cost": solution.cost,
        "ms_iterations": solution.iterations,
        "converged": solution.converged,
    }


def assert_same_row(got, want, skip=()):
    for key, value in want.items():
        if key in skip:
            continue
        if value is None or isinstance(value, (bool, int)):
            assert got[key] == value, key
        else:
            assert abs(got[key] - value) <= 1e-12 * abs(value), (key, got[key], value)


def example1_in_metric(M, seed, n, tau):
    """example1's spectrum and profile at m = n in the metric M."""
    sigma, profile = example1_inputs(n, tau)
    return synth_prescribed(n, n, len(M), sigma, np.eye(n), profile, profile, seed, metric=M)


def test_nearly_symmetric_metric_gives_the_rows_of_its_symmetrization():
    rng = np.random.default_rng(31)
    M = random_spd(rng, 40, spread=10.0)
    S = rng.standard_normal((40, 40))
    skewed = M + 1e-14 * np.max(np.abs(M)) * (S - S.T)
    rows = [
        row(*example1_in_metric(A, 5, n=8, tau=1e-3))
        for A in (skewed, 0.5 * (skewed + skewed.T))
    ]
    assert_same_row(*rows)


def metric_instances(seeds, n=40, N=200):
    """The benchmark's metric instance: example1 in the metric M = B B^T / N + I."""
    for seed in seeds:
        B = np.random.default_rng([seed, 1]).standard_normal((N, N))
        yield example1_in_metric(B @ B.T / N + np.eye(N), seed, n, tau=1e-4)


def config_instances(doc, seeds):
    cfg = parse_config(json.dumps(doc))
    for seed in seeds:
        yield _build_instance(cfg, seed)


SIGN_FLIP_CORPUS = {
    "sweep": lambda: config_instances(
        {"mode": "random-sweep", "n_min": 3, "n_max": 10, "seed": 0}, range(200)
    ),
    "example1": lambda: config_instances(
        {"mode": "example1", "tau": 1e-4, "n": 10, "m": 10, "N": 40, "seed": 0}, range(7, 27)
    ),
    "example2": lambda: config_instances(
        {"mode": "example2", "tau": 1e-3, "n": 16, "m": 16, "N": 64, "seed": 0}, range(7, 27)
    ),
    "large": lambda: config_instances(
        {"mode": "example1", "tau": 1e-4, "n": 100, "m": 100, "N": 500, "seed": 0}, range(7, 10)
    ),
    "metric": lambda: metric_instances(range(7, 12)),
}


@pytest.mark.parametrize("corpus", sorted(SIGN_FLIP_CORPUS))
def test_flipped_trial_signs_leave_the_rows(corpus):
    # the nested V_k fix each trial vector up to its sign, so flipping a
    # random subset turns G into G S and X into S X, S = diag(+-1): |X| and
    # sigma, hence every bound, do not change.  Where sigma repeats, LAPACK's
    # basis inside the tie can move with S, and with it ell and rho; sweep
    # rows have no ties, so there they must not move at all.
    rng = np.random.default_rng(41)
    for problem, hierarchy, tests in SIGN_FLIP_CORPUS[corpus]():
        signs = np.where(rng.random(hierarchy.n) < 0.5, -1.0, 1.0)
        flipped = SubspaceHierarchy(
            OrthonormalFrame(hierarchy.basis.columns * signs),
            hierarchy.widths,
            hierarchy.distances,
        )
        want = row(problem, hierarchy, tests)
        got = row(problem, flipped, tests)
        if corpus == "sweep":
            assert (got["ell"], got["rho"]) == (want["ell"], want["rho"])
        assert_same_row(got, want, skip=("ell", "rho"))


@pytest.mark.parametrize(
    "doc",
    [
        {"mode": "example1", "tau": 1e-4, "n": 10, "N": 40, "seed": 0},
        {"mode": "example2", "tau": 1e-3, "n": 16, "N": 64, "seed": 0},
    ],
    ids=["example1", "example2"],
)
def test_rotations_inside_a_tie_leave_the_paper_examples_bounds(doc):
    # inside a cluster of sigma equal to 1e-12 sigma_1, U Q and X Q are SVD
    # bases too for any orthogonal Q.  On both paper examples sup_value and
    # ms_bound do not depend on that choice (ell and rho may); on other tied
    # instances they can (ROADMAP item 2), so this is the floor a canonical
    # basis must keep
    rng = np.random.default_rng(29)
    for problem, hierarchy, tests in config_instances(doc, range(7, 10)):
        assembly = assemble(problem, hierarchy, tests)
        want = ms_bound(assembly)
        decomp = assembly.decomp
        s = decomp.sigma
        blocks = np.split(np.arange(s.size), np.flatnonzero(s[:-1] - s[1:] > 1e-12 * s[0]) + 1)
        assert max(map(len, blocks)) > 1
        for _ in range(5):
            U, X = decomp.U.copy(), decomp.X.copy()
            for block in blocks:
                Q = random_orthogonal(rng, len(block))
                U[:, block], X[:, block] = U[:, block] @ Q, X[:, block] @ Q
            rotated = GramDecomposition(G=decomp.G, U=U, X=X, sigma=s)
            got = ms_bound(dataclasses.replace(assembly, decomp=rotated))
            for other, value in [
                (got.water_filling.sup_value, want.water_filling.sup_value),
                (got.ms_bound, want.ms_bound),
            ]:
                assert abs(other - value) <= 1e-12 * value, (other, value)
