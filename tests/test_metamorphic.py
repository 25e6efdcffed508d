"""Metamorphic tests of the whole pipeline: a metric instance against its
Euclidean image, and a rotated test basis against the original one."""

import numpy as np
import pytest

from helpers import random_orthogonal, random_spd
from msrom import (
    AmbientSpace,
    OrthonormalFrame,
    ProblemInstance,
    SolverOptions,
    SubspaceHierarchy,
    TestSpace,
    run_instance,
    solve_pg,
    synth_prescribed,
)

REL = 1e-10
CASES = [(None, 8), ("spd", 8), ("spd", 11)]  # (metric, m) with n = 8


def instance(metric, m, n=8, N=40, seed=5, tau=1e-3):
    """example1's spectrum and profile, so that the widths bite."""
    root = float(np.sqrt(tau))
    sigma = np.array([1.0] * (n - 3) + [root, root, tau])
    profile = np.array([1.0] * (n - 2) + [root, root, tau])
    M = None if metric is None else random_spd(np.random.default_rng(seed), N, spread=10.0)
    return synth_prescribed(n, m, N, sigma, np.eye(n), profile, profile.copy(), seed, metric=M)


def outcome(problem, hierarchy, tests):
    report, solution, decomp = run_instance(problem, hierarchy, tests, SolverOptions())
    assert solution.converged
    _, pg_coeffs = solve_pg(problem, hierarchy.basis, tests)
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
    # x -> L^T x, with M = L L^T, is an isometry onto the Euclidean R^N; it
    # maps the frames to L^T W and L^T Z, the operator A = R (M Z)^T to
    # (L^T R)(L^T Z)^T and the truth to L^T z_true, and every number a run
    # reports is defined by inner products alone
    problem, hierarchy, tests = instance(metric, m)
    space = problem.space
    L = np.eye(space.dim) if space.euclidean else space.cholesky
    R, _ = problem.factors
    flat = AmbientSpace(space.dim)
    LZ = L.T @ tests.basis.columns
    image = (
        ProblemInstance(flat, z_true=L.T @ problem.z_true, factors=(L.T @ R, LZ)),
        SubspaceHierarchy(
            OrthonormalFrame(flat, L.T @ hierarchy.basis.columns),
            hierarchy.widths,
            hierarchy.distances,
        ),
        TestSpace(OrthonormalFrame(flat, LZ)),
    )
    want = outcome(problem, hierarchy, tests)
    assert want["ms_iterations"] > 0  # the widths bite: MS is not the LS solution
    got = outcome(*image)
    assert_same(got, want, [key for key in want if key != "ms_iterations"])


@pytest.mark.parametrize("metric,m", CASES)
def test_rotated_test_basis_leaves_solutions_and_bounds(metric, m):
    # Z -> Z O turns G into O^T G and d into O^T d: the residual norm, hence
    # both projections, and the singular values and gamma do not change
    problem, hierarchy, tests = instance(metric, m)
    O = random_orthogonal(np.random.default_rng(17), m)
    rotated = TestSpace(OrthonormalFrame(problem.space, tests.basis.columns @ O))
    want = outcome(problem, hierarchy, tests)
    got = outcome(problem, hierarchy, rotated)
    assert_same(got, want, ["pg_coeffs", "ms_coeffs", "ms_bound", "babuska"])
