"""Experiment driver: instance sweeps and CSV reports of a validated config
(:mod:`msrom.config`).

Every run is reproducible: instances are rebuilt from the config seed
(repetition i uses seed + i) and floats are written in shortest round-trip
form, so identical configs produce byte-identical CSV.
"""

from __future__ import annotations

import contextlib
import sys

import numpy as np

from .bounds import ms_bound
from .config import ExperimentConfig
from .problems import Instance, ProblemInstance, SubspaceHierarchy, example1, example2
from .problems import random_instance, synth_prescribed
from .solvers import SolverOptions, error_norm, solve_ms, solve_pg
from .spectral import assemble

__all__ = ["run_experiment", "run_instance"]

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


def _prescribed(n, m, N, sigma, tau, widths, seed):
    return synth_prescribed(n, m, N, sigma, np.eye(n), tau, widths, seed)


# Each mode's generator; a config's ``instance`` holds its arguments besides the seed.
GENERATORS = {
    "example1": example1,
    "example2": example2,
    "prescribed": _prescribed,
    "random-sweep": random_instance,
}


def _build_instance(cfg: ExperimentConfig, rep_seed: int) -> Instance:
    """Materialize one instance: the generator's (problem, hierarchy, tests)."""
    return GENERATORS[cfg.mode](**cfg.instance, seed=rep_seed)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def run_instance(
    problem: ProblemInstance,
    hierarchy: SubspaceHierarchy,
    tests: np.ndarray,
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
    ``cfg.output_path``, or to stdout when it is None.  The destination opens
    before the first instance and takes each row as it is formed, so a run
    stopped by an exception keeps the header and its finished rows.

    Returns the process exit code: 0, or 2 when any solve failed to
    converge; unless ``quiet``, the stderr summary counts those rows.
    Runtime failures are raised by the callees.
    """
    unconverged = 0
    sink = (
        contextlib.nullcontext(sys.stdout) if cfg.output_path is None
        else open(cfg.output_path, "w", encoding="utf-8", newline="\n")
    )
    with sink as out:
        out.write(",".join(CSV_COLUMNS) + "\n")
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
                tests.shape[1],
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
            out.write(",".join(_fmt(c) for c in cells) + "\n")
    if not quiet:
        print(
            f"rows={cfg.repetitions} unconverged={unconverged} "
            f"output={cfg.output_path or '<stdout>'}",
            file=sys.stderr,
        )
    return 2 if unconverged else 0
