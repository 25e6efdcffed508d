"""Experiment driver: instance sweeps and CSV reports of a validated config
(:mod:`msrom.config`).

Every run is reproducible: instances are rebuilt from the config seed
(repetition i uses seed + i) and floats are written in shortest round-trip
form, so identical configs produce byte-identical CSV.
"""

from __future__ import annotations

import sys

import numpy as np

from .bounds import ms_bound
# re-exported in __all__, so msrom.cli names the config API as well
from .config import ExperimentConfig, ValidationError, main, parse_config
from .problems import ProblemInstance, SubspaceHierarchy, example1, example2, synth_prescribed
from .solvers import SolverOptions, error_norm, solve_ms, solve_pg
from .spaces import OrthonormalFrame
from .spectral import assemble

__all__ = [
    "ValidationError",
    "ExperimentConfig",
    "parse_config",
    "run_experiment",
    "run_instance",
    "main",
]

CSV_COLUMNS = (
    "mode",
    "seed",
    "n",
    "m",
    "N",
    "tau_input",
    "sigma_1",
    "sigma_n",
    "gamma",
    "ell",
    "rho",
    "sup_value",
    "tau_n",
    "babuska_bound",
    "ms_bound",
    "actual_pg_error",
    "actual_ms_error",
    "ms_cost",
    "ms_iterations",
    "converged",
)


def _random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _build_instance(
    cfg: ExperimentConfig, rep_seed: int
) -> tuple[ProblemInstance, SubspaceHierarchy, OrthonormalFrame]:
    """Materialize one instance: the generator's (problem, hierarchy, tests)."""
    if cfg.mode == "example1":
        return example1(cfg.tau, cfg.n, cfg.N, rep_seed, m=cfg.m)
    if cfg.mode == "example2":
        return example2(cfg.tau, cfg.n, cfg.N, rep_seed, m=cfg.m)
    if cfg.mode == "prescribed":
        return synth_prescribed(
            cfg.n,
            cfg.m,
            cfg.N,
            cfg.sigma,
            np.eye(cfg.n),
            cfg.distances,
            cfg.widths,
            rep_seed,
        )
    # random-sweep: orthonormal representers, sigma_1 pinned to 1 (their
    # norm), widths equal to the true distances
    rng = np.random.default_rng(rep_seed)
    n = int(rng.integers(cfg.n_min, cfg.n_max + 1))
    m = int(rng.integers(n, 2 * n + 1))
    N = n + m + 3
    sigma = np.sort(rng.uniform(0.05, 1.0, size=n))[::-1]
    sigma[0] = 1.0
    tau_prof = np.sort(rng.uniform(0.0, 1.0, size=n + 1))[::-1]
    X = _random_orthogonal(rng, n)
    child_seed = int(rng.integers(0, 2**31))
    return synth_prescribed(n, m, N, sigma, X, tau_prof, tau_prof, child_seed)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def run_instance(
    problem: ProblemInstance,
    hierarchy: SubspaceHierarchy,
    tests: OrthonormalFrame,
    options: SolverOptions,
    tau_mode: str = "known",
):
    """Run both projectors and both bounds on one instance.

    Returns ``(report, solution, decomp)``: the BoundReport, with both actual
    errors (the PG error None on a singular Gram), the MultiSliceSolution, and
    the Gram decomposition used for the bounds.  An unknown ``tau_mode``
    raises :func:`ms_bound`'s ``ValueError``.
    """
    # one assembly and one SVD of G serve the bounds and both projectors
    assembly = assemble(problem, hierarchy, tests)
    # the one place that decides PG: no error on a singular Gram, as no quotient bound
    actual_pg = None
    if not assembly.singular:
        actual_pg = error_norm(solve_pg(assembly)[0], problem)
    solution = solve_ms(assembly, options)
    report = ms_bound(assembly, tau_mode)
    report.actual_pg_error, report.actual_ms_error = actual_pg, error_norm(solution.point, problem)
    return report, solution, assembly.decomp


def run_experiment(cfg: ExperimentConfig, quiet: bool = False) -> int:
    """Execute all repetitions and write the CSV report to
    ``cfg.output_path``, or to stdout when it is None.

    Returns the process exit code: 0, or 2 when any solve failed to
    converge; unless ``quiet``, the stderr summary counts those rows.
    Runtime failures are raised by the callees.
    """
    lines = [",".join(CSV_COLUMNS)]
    unconverged = 0
    for i in range(cfg.repetitions):
        rep_seed = cfg.seed + i
        problem, hierarchy, tests = _build_instance(cfg, rep_seed)
        report, solution, decomp = run_instance(
            problem, hierarchy, tests, SolverOptions(), cfg.tau_mode
        )
        unconverged += not solution.converged
        wf = report.water_filling
        cells = [
            cfg.mode,
            rep_seed,
            hierarchy.n,
            tests.n_columns,
            problem.z_true.size,
            hierarchy.distances[-1],
            float(decomp.sigma[0]),
            float(decomp.sigma[-1]),
            float(report.intermediates.gamma),
            "inactive" if wf.ell is None else wf.ell,
            "" if wf.rho is None else wf.rho,
            wf.sup_value,
            hierarchy.profile(cfg.tau_mode)[-1],
            "undefined" if report.babuska is None else report.babuska,
            report.ms_bound,
            "undefined" if report.actual_pg_error is None else report.actual_pg_error,
            report.actual_ms_error,
            solution.cost,
            solution.iterations,
            "true" if solution.converged else "false",
        ]
        lines.append(",".join(_fmt(c) for c in cells))
    text = "\n".join(lines) + "\n"

    if cfg.output_path is None:
        sys.stdout.write(text)
    else:
        with open(cfg.output_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    if not quiet:
        print(
            f"rows={cfg.repetitions} unconverged={unconverged} "
            f"output={cfg.output_path or '<stdout>'}",
            file=sys.stderr,
        )
    return 2 if unconverged else 0
