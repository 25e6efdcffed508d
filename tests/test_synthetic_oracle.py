"""Every predictable column of a synthetic row against helpers.synthetic_row.

The oracle reads only the generator's inputs and the instance's public
arrays, so agreement checks the whole pipeline (assembly, SVD, gamma,
delta, the fill, the classical solve) end to end.  Where singular values
repeat, ``ell`` and ``rho`` are not unique (README, CSV schema) and are left
unasserted; ``sup_value`` and ``ms_bound`` are asserted on every row.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from helpers import random_orthogonal, synthetic_row
from msrom import SolverOptions, flat_orthogonal, synth_prescribed
from msrom.cli import _build_instance, parse_config, run_instance

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"
REL_TOL = 1e-9
SWEEP = {"mode": "random-sweep", "n_min": 3, "n_max": 10, "seed": 0}


def generator_inputs(cfg, seed):
    """``(sigma, X, tau, widths)`` that ``_build_instance(cfg, seed)`` hands the generator."""
    n = cfg.n
    if cfg.mode == "example1":
        root = float(np.sqrt(cfg.tau))
        sigma = np.array([1.0] * (n - 3) + [root, root, cfg.tau])
        profile = np.array([1.0] * (n - 2) + [root, root, cfg.tau])
        return sigma, np.eye(n), profile, profile
    if cfg.mode == "example2":
        sigma = np.full(n, cfg.tau * np.sqrt(n - cfg.tau**2))
        sigma[-1] = cfg.tau**2
        sigma[0] = 1.0
        profile = np.array([0.5] + [1 / (2 * (n - 1))] * (n - 1) + [cfg.tau])
        return sigma, flat_orthogonal(n), profile, profile
    if cfg.mode == "prescribed":
        return cfg.sigma, np.eye(n), cfg.distances, cfg.widths
    rng = np.random.default_rng(seed)  # random-sweep: the same draws in the same order
    n = int(rng.integers(cfg.n_min, cfg.n_max + 1))
    rng.integers(n, 2 * n + 1)
    sigma = np.sort(rng.uniform(0.05, 1.0, size=n))[::-1]
    sigma[0] = 1.0
    tau = np.sort(rng.uniform(0.0, 1.0, size=n + 1))[::-1]
    return sigma, random_orthogonal(rng, n), tau, tau


def library_row(problem, hierarchy, tests, tau_mode="known"):
    report, _, decomp = run_instance(problem, hierarchy, tests, SolverOptions(), tau_mode)
    wf = report.water_filling
    return {
        "sigma_1": float(decomp.sigma[0]),
        "sigma_n": float(decomp.sigma[-1]),
        "gamma": report.intermediates.gamma,
        "ell": wf.ell,
        "rho": wf.rho,
        "sup_value": wf.sup_value,
        "tau_n": float(hierarchy.profile(tau_mode)[-1]),
        "ms_bound": report.ms_bound,
        "babuska_bound": report.babuska,
        "actual_pg_error": report.actual_pg_error,
    }


def assert_matches_oracle(instance, sigma, X, tau, widths, metric=None, tau_mode="known"):
    """The library's row of ``instance`` against the oracle's.  With a metric
    M = L L^T the instance is in orthonormal coordinates, and the oracle reads
    its arrays mapped back by L^-T, in the coordinates of M."""
    problem, hierarchy, tests = instance
    arrays = [problem.factors[0], hierarchy.basis.columns, problem.z_true]
    if metric is not None:
        Lt = np.linalg.cholesky(metric).T
        arrays = [np.linalg.solve(Lt, a) for a in arrays]
    want = synthetic_row(sigma, X, tau, widths, *arrays, metric, tau_mode)
    got = library_row(problem, hierarchy, tests, tau_mode)
    tied = bool(np.any(np.diff(sigma) == 0.0))
    for key, value in want.items():
        if tied and key in ("ell", "rho"):
            continue
        if value is None or isinstance(value, int):
            assert got[key] == value, key
        else:
            assert abs(got[key] - value) <= REL_TOL * abs(value), (key, got[key], value)


def check_config(doc, seeds):
    cfg = parse_config(json.dumps(doc))
    for seed in seeds:
        problem, hierarchy, tests = _build_instance(cfg, seed)
        sigma, X, tau, widths = generator_inputs(cfg, seed)
        assert_matches_oracle(
            (problem, hierarchy, tests), sigma, X, tau, widths, tau_mode=cfg.tau_mode
        )


@pytest.mark.parametrize("tau_mode", ["known", "practitioner"])
def test_sweep_rows_match_the_oracle(tau_mode):
    check_config(dict(SWEEP, tau_mode=tau_mode), range(200))


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_checked_in_config_rows_match_the_oracle(path):
    doc = json.loads(path.read_text())
    check_config(doc, range(doc["seed"], doc["seed"] + doc.get("repetitions", 1)))


@pytest.mark.parametrize(
    "doc, seeds",
    [
        ({"mode": "example1", "tau": 1e-4, "n": 100, "m": 100, "N": 500, "seed": 0}, range(7, 10)),
        ({"mode": "example1", "tau": 1e-4, "n": 10, "m": 40, "N": 60, "seed": 0}, range(10)),
        ({"mode": "example1", "tau": 1e-4, "n": 400, "m": 400, "N": 2000, "seed": 0}, [7]),
    ],
    ids=["large", "example1-m40", "example1-n400"],
)
def test_example_rows_match_the_oracle(doc, seeds):
    check_config(doc, seeds)


@pytest.mark.parametrize("seed", range(7, 12))
def test_metric_rows_match_the_oracle(seed):
    # the benchmark's metric instance: example1's spectrum, n = m = 40, M = B B^T / N + I
    n, N, tau = 40, 200, 1e-4
    cfg = parse_config(json.dumps({"mode": "example1", "tau": tau, "n": n, "N": N, "seed": seed}))
    sigma, X, profile, widths = generator_inputs(cfg, seed)
    B = np.random.default_rng([seed, 1]).standard_normal((N, N))
    metric = B @ B.T / N + np.eye(N)
    instance = synth_prescribed(n, n, N, sigma, X, profile, widths, seed, metric=metric)
    assert_matches_oracle(instance, sigma, X, profile, widths, metric)
