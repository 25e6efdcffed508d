"""Experiment driver: config parsing, instance sweeps, CSV reports.

Configs are strict JSON documents; unknown keys are rejected so sweep
definitions fail loudly on typos.  Every run is reproducible: instances are
rebuilt from the config seed (repetition i uses seed + i) and floats are
written in shortest round-trip form, so identical configs produce
byte-identical CSV.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .bounds import ms_bound
from .problems import (
    ProblemInstance,
    SubspaceHierarchy,
    check_dimensions,
    check_example1,
    check_example2,
    check_profile,
    check_spectrum,
    example1,
    example2,
    synth_prescribed,
)
from .solvers import SolverOptions, error_norm, solve_ms, solve_pg
from .spaces import OrthonormalFrame, is_integer
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

_COMMON_KEYS = {"mode", "seed", "output_path", "tau_mode", "repetitions"}
_MODE_KEYS = {
    "example1": {"tau", "n", "m", "N"},
    "example2": {"tau", "n", "m", "N"},
    "prescribed": {"n", "m", "N", "sigma", "tau", "widths"},
    "random-sweep": {"n_min", "n_max"},
}
MODES = tuple(_MODE_KEYS)


class ValidationError(ValueError):
    """A config document is malformed JSON or violates a field constraint."""


@dataclass(eq=False)
class ExperimentConfig:
    """Fully validated experiment description; mode-specific fields are None
    when they do not apply (a random sweep draws n and m per instance, with
    N = n + m + 3).  Runs solve with the default :class:`SolverOptions`."""

    mode: str
    seed: int
    repetitions: int = 1
    tau_mode: str = "known"
    output_path: str | None = None
    tau: float | None = None
    n: int | None = None
    m: int | None = None
    N: int | None = None
    sigma: np.ndarray | None = None
    distances: np.ndarray | None = None
    widths: np.ndarray | None = None
    n_min: int | None = None
    n_max: int | None = None


def _require(doc, key):
    if key not in doc:
        raise ValidationError(f"missing required field {key!r}")
    return doc[key]


def _require_int(doc, key, minimum=None):
    value = _require(doc, key)
    if not is_integer(value):
        raise ValidationError(f"field {key!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"field {key!r} must be >= {minimum}, got {value}")
    return value


def _require_float(doc, key):
    value = _require(doc, key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"field {key!r} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(f"field {key!r}: non-finite number is not allowed")
    return number


def _require_float_list(doc, key):
    value = _require(doc, key)
    if not isinstance(value, list):
        raise ValidationError(f"field {key!r} must be a list of numbers")
    entries = {f"{key}[{i}]": v for i, v in enumerate(value)}
    return np.array([_require_float(entries, k) for k in entries], dtype=float)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a JSON config document.

    Raises :class:`ValidationError` on malformed JSON and on any constraint
    violation (naming the offending field); the generator preconditions are
    the check functions of :mod:`msrom.problems`.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("config must be a JSON object")
    mode = doc.get("mode")
    if mode not in MODES:
        raise ValidationError(f"field 'mode' must be one of {MODES}, got {mode!r}")
    allowed = _COMMON_KEYS | _MODE_KEYS[mode]
    unknown = set(doc) - allowed
    if unknown:
        raise ValidationError(
            f"unknown field(s) for mode {mode!r}: {sorted(unknown)}"
        )

    seed = _require_int(doc, "seed", minimum=0)
    repetitions = (
        _require_int(doc, "repetitions", minimum=1) if "repetitions" in doc else 1
    )
    tau_mode = doc.get("tau_mode", "known")
    if tau_mode not in ("known", "practitioner"):
        raise ValidationError(
            f"field 'tau_mode' must be 'known' or 'practitioner', got {tau_mode!r}"
        )
    output_path = doc.get("output_path")
    if output_path is not None and not isinstance(output_path, str):
        raise ValidationError("field 'output_path' must be a string")
    cfg = ExperimentConfig(
        mode=mode,
        seed=seed,
        repetitions=repetitions,
        tau_mode=tau_mode,
        output_path=output_path,
    )

    if mode == "random-sweep":
        cfg.n_min = _require_int(doc, "n_min", minimum=1)
        cfg.n_max = _require_int(doc, "n_max", minimum=cfg.n_min)
        return cfg
    cfg.n, cfg.N = _require_int(doc, "n"), _require_int(doc, "N")
    cfg.m = _require_int(doc, "m") if "m" in doc or mode == "prescribed" else cfg.n
    if mode == "prescribed":
        cfg.sigma, cfg.distances, cfg.widths = (
            _require_float_list(doc, key) for key in ("sigma", "tau", "widths")
        )
    else:
        cfg.tau = _require_float(doc, "tau")
    try:  # the generators' own preconditions, with their messages
        check_dimensions(cfg.n, cfg.m, cfg.N)
        if mode == "prescribed":
            check_spectrum(cfg.n, cfg.sigma)
            check_profile(cfg.n, cfg.widths, cfg.distances)
        else:
            (check_example1 if mode == "example1" else check_example2)(cfg.tau, cfg.n)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    return cfg


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


def main(argv=None) -> int:
    import argparse  # here, so `import msrom` loads neither argparse nor gettext
    parser = argparse.ArgumentParser(
        prog="msrom",
        description="Slice-constrained projection experiments with error bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config and emit CSV")
    run_p.add_argument("config", help="path to a JSON config")
    run_p.add_argument("--output", default=None, help="override the config output path")
    run_p.add_argument("--quiet", action="store_true", help="suppress the summary line")

    val_p = sub.add_parser("validate", help="check a config without running it")
    val_p.add_argument("config", help="path to a JSON config")

    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            cfg = parse_config(handle.read())
        if args.command == "run":
            if args.output is not None:
                cfg = replace(cfg, output_path=args.output)
            return run_experiment(cfg, quiet=args.quiet)
    except (OSError, UnicodeDecodeError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("ok")
    return 0

