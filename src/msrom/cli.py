"""Experiment driver: config parsing, instance sweeps, CSV reports.

Configs are strict JSON documents; unknown keys are rejected so sweep
definitions fail loudly on typos.  Every run is reproducible: instances are
rebuilt from the config seed (repetition i uses seed + i) and floats are
written in shortest round-trip form, so identical configs produce
byte-identical CSV.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .bounds import ms_bound, sup_oracle, water_filling
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
from .spaces import OrthonormalFrame
from .spectral import assemble

__all__ = [
    "ParseError",
    "ValidationError",
    "ExperimentConfig",
    "parse_config",
    "run_experiment",
    "run_instance",
    "oracle_sweep",
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

MODES = ("example1", "example2", "prescribed", "random-sweep")

_COMMON_KEYS = {"mode", "seed", "output_path", "tau_mode", "repetitions", "solver"}
_MODE_KEYS = {
    "example1": {"tau", "n", "m", "N"},
    "example2": {"tau", "n", "m", "N"},
    "prescribed": {"n", "m", "N", "sigma", "tau", "widths"},
    "random-sweep": {"n_min", "n_max", "N"},
}

ORACLE_SWEEP_SIZE = 200
ORACLE_REL_TOL = 1e-9


class ParseError(ValueError):
    """Config document is not well-formed JSON."""


class ValidationError(ValueError):
    """Config contents violate a field constraint."""


@dataclass(eq=False)
class ExperimentConfig:
    """Fully validated experiment description; mode-specific fields are None
    when they do not apply."""

    mode: str
    seed: int
    repetitions: int = 1
    tau_mode: str = "known"
    output_path: str | None = None
    solver: SolverOptions = field(default_factory=SolverOptions)
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
    if isinstance(value, bool) or not isinstance(value, int):
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


def _solver_options(doc) -> SolverOptions:
    raw = doc.get("solver", {})
    if not isinstance(raw, dict):
        raise ValidationError("field 'solver' must be an object")
    readers = {"max_iterations": _require_int}
    unknown = set(raw) - set(readers)
    if unknown:
        raise ValidationError(f"unknown solver option(s): {sorted(unknown)}")
    options = {key: readers[key](raw, key) for key in raw}
    try:
        return SolverOptions(**options)
    except ValueError as exc:
        raise ValidationError(f"invalid solver options: {exc}") from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a JSON config document.

    Raises :class:`ParseError` on malformed JSON and :class:`ValidationError`
    (naming the offending field) on any constraint violation; the generator
    preconditions are the check functions of :mod:`msrom.problems`.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc
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
    solver = _solver_options(doc)
    cfg = ExperimentConfig(
        mode=mode,
        seed=seed,
        repetitions=repetitions,
        tau_mode=tau_mode,
        output_path=output_path,
        solver=solver,
    )

    if mode == "random-sweep":
        cfg.n_min = _require_int(doc, "n_min", minimum=1)
        cfg.n_max = _require_int(doc, "n_max", minimum=cfg.n_min)
        if "N" in doc:
            cfg.N = _require_int(doc, "N", minimum=3 * cfg.n_max)
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
    N = cfg.N if cfg.N is not None else n + m + 3
    sigma = np.sort(rng.uniform(0.05, 1.0, size=n))[::-1]
    sigma[0] = 1.0
    tau_prof = np.sort(rng.uniform(0.0, 1.0, size=n + 1))[::-1]
    X = _random_orthogonal(rng, n)
    child_seed = int(rng.integers(0, 2**31))
    return synth_prescribed(n, m, N, sigma, X, tau_prof, tau_prof.copy(), child_seed)


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

    Returns ``(report, solution, decomp)``: the BoundReport, the
    MultiSliceSolution, and the Gram decomposition used for the bounds.
    """
    try:  # before any assembly
        hierarchy.profile(tau_mode)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    trial = hierarchy.basis
    # one assembly and one SVD of G serve the bounds and both projectors
    assembly = assemble(problem, trial, tests)
    # PG is defined where the quotient bound is: not on a singular Gram, tall or square
    actual_pg = None
    if not assembly.singular:
        actual_pg = error_norm(solve_pg(assembly, trial)[0], problem)
    solution = solve_ms(assembly, hierarchy, options)
    actual_ms = error_norm(solution.point, problem)
    report = ms_bound(
        assembly, hierarchy, tau_mode, actual_pg_error=actual_pg, actual_ms_error=actual_ms
    )
    return report, solution, assembly.decomp


def run_experiment(
    cfg: ExperimentConfig, output_override: str | None = None, quiet: bool = False
) -> int:
    """Execute all repetitions and write the CSV report.

    Returns the process exit code: 0 on success, 2 when any solve failed to
    converge, 1 on runtime failure (raised as exceptions by callees).
    """
    lines = [",".join(CSV_COLUMNS)]
    any_unconverged = False
    for i in range(cfg.repetitions):
        rep_seed = cfg.seed + i
        problem, hierarchy, tests = _build_instance(cfg, rep_seed)
        report, solution, decomp = run_instance(
            problem, hierarchy, tests, cfg.solver, cfg.tau_mode
        )
        if not solution.converged:
            any_unconverged = True
        wf = report.water_filling
        cells = [
            cfg.mode,
            rep_seed,
            hierarchy.n,
            tests.n_columns,
            problem.space.dim,
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
            "undefined" if report.actual_ms_error is None else report.actual_ms_error,
            solution.cost,
            solution.iterations,
            "true" if solution.converged else "false",
        ]
        lines.append(",".join(_fmt(c) for c in cells))
    text = "\n".join(lines) + "\n"

    destination = output_override if output_override is not None else cfg.output_path
    if destination is None:
        sys.stdout.write(text)
        shown = "<stdout>"
    else:
        with open(destination, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        shown = destination
    if not quiet:
        print(
            f"rows={cfg.repetitions} unconverged={int(any_unconverged)} output={shown}",
            file=sys.stderr,
        )
    return 2 if any_unconverged else 0


def _random_fill_tuple(rng: np.random.Generator, n: int):
    delta = rng.uniform(0.0, 2.0, size=n)
    if rng.random() < 0.2:
        delta[int(rng.integers(0, n))] = 0.0
    sigma = np.sort(rng.uniform(0.0, 1.0, size=n))[::-1]
    if rng.random() < 0.2:
        sigma[int(rng.integers(0, n)) :] = 0.0
    gam = 0.0 if rng.random() < 0.15 else float(rng.uniform(0.0, 1.0))
    tau_n = float(rng.uniform(0.0, 1.5))
    return delta, sigma, gam, tau_n


def oracle_sweep(n: int, seed: int, count: int = ORACLE_SWEEP_SIZE) -> float:
    """Compare the closed-form fill against the enumeration oracle.

    Returns the maximum relative deviation over ``count`` random tuples.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        delta, sigma, gam, tau_n = _random_fill_tuple(rng, n)
        closed = water_filling(delta, sigma, gam, tau_n).sup_value
        brute = sup_oracle(delta, sigma, gam, tau_n)
        scale = max(abs(closed), abs(brute), 1e-30)
        worst = max(worst, abs(closed - brute) / scale)
    return worst


def main(argv=None) -> int:
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

    orc_p = sub.add_parser(
        "oracle", help="compare the closed-form fill against the enumeration oracle"
    )
    orc_p.add_argument("n", type=int, help="tuple dimension (at most 6)")
    orc_p.add_argument("seed", type=int, help="random seed for the tuple sweep")

    args = parser.parse_args(argv)

    if args.command in ("run", "validate"):
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        try:
            cfg = parse_config(text)
        except (ParseError, ValidationError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.command == "validate":
            print("ok")
            return 0
        try:
            return run_experiment(cfg, output_override=args.output, quiet=args.quiet)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    # oracle
    if not 1 <= args.n <= 6:
        print("error: oracle dimension must lie in [1, 6]", file=sys.stderr)
        return 1
    if args.seed < 0:
        print("error: seed must be nonnegative", file=sys.stderr)
        return 1
    worst = oracle_sweep(args.n, args.seed)
    print(
        f"n={args.n} tuples={ORACLE_SWEEP_SIZE} max_relative_deviation={worst:.3e}"
    )
    return 0 if worst <= ORACLE_REL_TOL else 1


if __name__ == "__main__":
    sys.exit(main())
