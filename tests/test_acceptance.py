"""Acceptance gate: one test per advertised guarantee of the package.

Run with ``pytest -v tests/test_acceptance.py``; each test line is the
pass/fail verdict for the corresponding numbered criterion.  The tests also
print a short PASS summary (visible under ``-s`` or ``-rP``).
"""

import dataclasses
import json
import secrets
import time

import numpy as np

from helpers import (
    bound_step_ratios,
    brute_force_ms,
    descending,
    gram_and_load,
    random_orthogonal,
    slice_hierarchy,
    square_instance,
    sup_oracle,
    sweep_instance,
)
from msrom import (
    SolverOptions,
    assemble,
    error_norm,
    example1,
    example2,
    main,
    ms_bound,
    parse_config,
    riesz_representers,
    run_experiment,
    run_instance,
    solve_ms,
    solve_pg,
    synth_prescribed,
    water_filling,
)
from msrom.cli import CSV_COLUMNS


def run_example_row(mode, tau, n, N, seed, out_path):
    doc = {
        "mode": mode,
        "tau": tau,
        "n": n,
        "m": n,
        "N": N,
        "seed": seed,
        "output_path": str(out_path),
    }
    cfg = parse_config(json.dumps(doc))
    start = time.perf_counter()
    code = run_experiment(cfg, quiet=True)
    elapsed = time.perf_counter() - start
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    return dict(zip(CSV_COLUMNS, lines[1].split(","))), elapsed


def test_criterion_1_first_example_reproduction(tmp_path):
    seed = secrets.randbelow(2**31)
    row, elapsed = run_example_row("example1", 1e-4, 10, 40, seed, tmp_path / "e1.csv")
    babuska = float(row["babuska_bound"])
    bound = float(row["ms_bound"])
    actual = float(row["actual_ms_error"])
    assert abs(babuska - 1.0) <= 1e-9
    assert bound <= 0.03
    assert actual <= bound
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE 1: PASS - seed={seed} babuska={babuska} "
        f"ms_bound={bound:.6f}<=0.03 actual={actual:.2e}<=bound {elapsed:.2f}s"
    )


def test_criterion_2_second_example_reproduction(tmp_path):
    seed = secrets.randbelow(2**31)
    row, elapsed = run_example_row("example2", 1e-3, 16, 64, seed, tmp_path / "e2.csv")
    babuska = float(row["babuska_bound"])
    bound = float(row["ms_bound"])
    actual = float(row["actual_ms_error"])
    assert abs(babuska - 1000.0) <= 1e-6 * 1000.0
    assert bound <= 0.75
    assert actual <= bound
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE 2: PASS - seed={seed} babuska={babuska} "
        f"ms_bound={bound:.6f}<=0.75 actual={actual:.2e}<=bound {elapsed:.2f}s"
    )


def test_criterion_3_worst_case_bound_validity_sweep():
    rng = np.random.default_rng(31003)
    options = SolverOptions()
    start = time.perf_counter()
    margin, steps = np.inf, (0.0, 0.0)
    for _ in range(100):
        problem, hierarchy, tests = sweep_instance(rng)
        report, solution, decomp = run_instance(problem, hierarchy, tests, options)
        assert solution.converged
        assert report.actual_ms_error <= report.ms_bound + 1e-9
        margin = min(margin, report.ms_bound - report.actual_ms_error)
        ratios = bound_step_ratios(problem, hierarchy, decomp, report, solution.coeffs)
        steps = tuple(map(max, steps, ratios))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"ACCEPTANCE 3: PASS - 100 instances, min slack {margin:.3e}, largest "
        f"|beta|/delta {steps[0]:.3f} and cost/budget {steps[1]:.3f}, {elapsed:.1f}s"
    )


def test_criterion_4_quotient_bound_validity_sweep():
    rng = np.random.default_rng(41004)
    start = time.perf_counter()
    margin = np.inf
    for _ in range(100):
        problem, hierarchy, tests = square_instance(rng)
        assembly = assemble(problem, hierarchy, tests)
        assert assembly.decomp.sigma[-1] >= 0.05
        bound = ms_bound(assembly).babuska
        point, _ = solve_pg(assembly)
        err = error_norm(point, problem)
        assert err <= bound + 1e-9
        margin = min(margin, bound - err)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 4: PASS - 100 instances, min slack {margin:.3e}, {elapsed:.1f}s")


def test_criterion_4_quotient_bound_validity_below_a_unit_sigma_1():
    # sigma_1 = top * U(0.05, 1) stays below the representer-family norm 1,
    # which is the quotient bound's constant; m ranges over n..2n
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    margin, steps = np.inf, (0.0, 0.0)
    for _ in range(300):
        n = int(rng.integers(3, 8))
        m = int(rng.integers(n, 2 * n + 1))
        top = rng.uniform(0.05, 1.0)
        sigma = top * np.sort(rng.uniform(0.05, 1.0, size=n))[::-1]
        tau = np.sort(rng.uniform(0.0, 1.0, size=n + 1))[::-1]
        X = random_orthogonal(rng, n)
        seed = int(rng.integers(0, 2**31))
        problem, hierarchy, tests = synth_prescribed(n, m, n + m + 3, sigma, X, tau, tau, seed)
        report, solution, decomp = run_instance(problem, hierarchy, tests, SolverOptions())
        assert report.actual_pg_error <= report.babuska, seed
        assert report.actual_ms_error <= report.ms_bound + 1e-12, seed
        margin = min(margin, report.babuska - report.actual_pg_error)
        ratios = bound_step_ratios(problem, hierarchy, decomp, report, solution.coeffs)
        steps = tuple(map(max, steps, ratios))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        f"ACCEPTANCE 4: PASS - 300 instances below sigma_1 = 1, min slack {margin:.3e}, "
        f"largest |beta|/delta {steps[0]:.3f} and cost/budget {steps[1]:.3f}"
    )


def test_criterion_5_water_filling_matches_enumeration_oracle():
    rng = np.random.default_rng(51005)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        delta = rng.uniform(0.0, 2.0, size=n)
        sigma = np.sort(rng.uniform(0.0, 1.0, size=n))[::-1]
        if n > 1 and rng.uniform() < 0.2:
            sigma[-1] = 0.0
        gam = 0.0 if rng.uniform() < 0.2 else float(rng.uniform(0.0, 1.2))
        tau_n = float(rng.uniform(0.0, 1.5))
        budget = 4.0 * gam * gam * tau_n * tau_n
        closed = water_filling(delta, sigma, budget).sup_value
        brute = sup_oracle(delta, sigma, budget)
        scale = max(closed, brute, 1e-12)
        worst = max(worst, abs(closed - brute) / scale)
        assert abs(closed - brute) <= 1e-9 * scale
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 5: PASS - 200 tuples, max rel deviation {worst:.3e}, {elapsed:.1f}s")


def _tightened_instance(rng):
    """n = 4, m = 6 instance whose widths pinch the unconstrained solution."""
    sigma = descending(rng, 4, 0.05, 1.0)
    tau = descending(rng, 5, 1e-3, 1.0)
    X = random_orthogonal(rng, 4)
    seed = int(rng.integers(0, 2**31))
    problem, hierarchy, tests = synth_prescribed(4, 6, 13, sigma, X, tau, tau, seed)
    G, d = gram_and_load(problem, hierarchy, tests)
    c_ls = np.linalg.lstsq(G, d, rcond=None)[0]
    tails = np.array([float(np.linalg.norm(c_ls[k:])) for k in range(4)] + [0.0])
    widths = tails * rng.uniform(0.35, 1.1, size=5)
    return assemble(problem, slice_hierarchy(hierarchy.basis, widths), tests), G, d


def test_criterion_6_solver_cross_validation():
    rng = np.random.default_rng(61006)
    options = SolverOptions()
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        assembly, G, d = _tightened_instance(rng)
        solution = solve_ms(assembly, options)
        assert solution.converged
        ref_cost, _ = brute_force_ms(G, d, assembly.hierarchy.widths, rng)
        scale = max(solution.cost, ref_cost)
        assert abs(solution.cost - ref_cost) <= 1e-6 * scale + 1e-12
        worst = max(worst, abs(solution.cost - ref_cost) / max(scale, 1e-12))

        # roomy widths turn the constraints off and the two projectors agree
        sigma_n = np.linalg.svd(G, compute_uv=False)[-1]
        roomy = np.full(5, 10.0 * float(np.linalg.norm(d)) / sigma_n)
        loose = slice_hierarchy(assembly.hierarchy.basis, roomy)
        ms = solve_ms(dataclasses.replace(assembly, hierarchy=loose), options)
        _, pg_coeffs = solve_pg(assembly)
        assert float(np.linalg.norm(ms.coeffs - pg_coeffs)) <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 6: PASS - 50 instances, max rel cost gap {worst:.3e}, {elapsed:.1f}s")


def test_criterion_7_structural_property_suite():
    rng = np.random.default_rng(71007)
    instances = [sweep_instance(rng) for _ in range(12)]
    instances.append(example1(1e-4, 10, 40, seed=3))
    instances.append(example2(1e-3, 16, 64, seed=3))
    options = SolverOptions()
    steps = (0.0, 0.0)
    for problem, hierarchy, tests in instances:
        trial = hierarchy.basis
        assembly = assemble(problem, hierarchy, tests)
        decomp = assembly.decomp
        # the rotated bases R U and W X couple diagonally: U^T G X = diag(sigma)
        G = riesz_representers(problem, tests).T @ trial
        coupling = decomp.U.T @ G @ decomp.X
        target = np.zeros_like(coupling)
        np.fill_diagonal(target, decomp.sigma)
        assert float(np.max(np.abs(coupling - target))) <= 1e-9

        gam = assembly.gamma
        assert gam <= 1.0 + 1e-10

        # the trial-space projection of the truth satisfies every slice bound
        c_star = trial.T @ problem.z_true
        n = hierarchy.n
        for k in range(n):
            assert float(np.linalg.norm(c_star[k:])) <= hierarchy.widths[k] + 1e-10

        solution = solve_ms(assembly, options)
        tau_n = float(hierarchy.distances[-1])
        assert solution.cost <= gam * gam * tau_n * tau_n + 1e-9
        report = ms_bound(assembly)
        ratios = bound_step_ratios(problem, hierarchy, decomp, report, solution.coeffs)
        steps = tuple(map(max, steps, ratios))

        projected = trial @ c_star
        lhs = error_norm(solution.point, problem) ** 2
        rhs = np.linalg.norm(projected - solution.point) ** 2 + tau_n * tau_n
        assert abs(lhs - rhs) <= 1e-9 * max(lhs, rhs)
    print(
        f"ACCEPTANCE 7: PASS - structural invariants on {len(instances)} instances, "
        f"largest |beta|/delta {steps[0]:.3f} and cost/budget {steps[1]:.3f}"
    )


def test_criterion_8_byte_identical_reruns(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    doc = {
        "mode": "random-sweep",
        "n_min": 3,
        "n_max": 7,
        "seed": 99,
        "repetitions": 5,
    }
    cfg_path.write_text(json.dumps(doc))
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert main(["run", str(cfg_path), "--output", str(first), "--quiet"]) == 0
    assert main(["run", str(cfg_path), "--output", str(second), "--quiet"]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert len(first.read_text().splitlines()) == 6
    print("ACCEPTANCE 8: PASS - identical bytes across consecutive runs")
