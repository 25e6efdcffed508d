"""Experiment configs: parsing, validation and the command line.

Configs are strict JSON documents; unknown keys are rejected so sweep
definitions fail loudly on typos.  The checks here are the generators' own
preconditions, written without numpy, so that ``import msrom`` and
``msrom validate`` load no numeric code: only a ``prescribed`` config, whose
spectrum and profile are arrays, imports :mod:`msrom.problems` to check
them, and only ``msrom run`` imports the experiment driver :mod:`msrom.cli`.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, replace

__all__ = ["ValidationError", "ExperimentConfig", "parse_config", "main"]

_COMMON_KEYS = {"mode", "seed", "output_path", "tau_mode", "repetitions"}
_MODE_KEYS = {
    "example1": {"tau", "n", "m", "N"},
    "example2": {"tau", "n", "m", "N"},
    "prescribed": {"n", "m", "N", "sigma", "tau", "widths"},
    "random-sweep": {"n_min", "n_max"},
}
MODES = tuple(_MODE_KEYS)


def is_integer(value) -> bool:
    """The one integer rule of dimensions and counts: a Python or numpy
    integer, never a bool or a float to truncate."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(q: int) -> bool:
    """Miller-Rabin on the primes to 41: exact below 3.3e24 (past any buildable order), fast."""
    if q < 2 or any(q % p == 0 for p in _PRIME_BASES):
        return q in _PRIME_BASES
    s = ((q - 1) & (1 - q)).bit_length() - 1  # q - 1 = d * 2**s with d odd
    d = (q - 1) >> s
    for a in _PRIME_BASES:
        x = pow(a, d, q)
        if x != 1 and all(pow(x, 2**r, q) != q - 1 for r in range(s)):
            return False
    return True


def hadamard_available(n: int) -> bool:
    """Whether :func:`msrom.problems.flat_orthogonal` can build order ``n``:
    ``2**k`` or ``2**k * (q + 1)`` with ``q`` a prime congruent to 3 mod 4."""
    while n >= 1:
        if n <= 2 or (n % 4 == 0 and _is_prime(n - 1)):
            return True
        if n % 2:
            return False
        n //= 2
    return False


# Generator preconditions.  Each message names the parameter by its config
# key, so parse_config can pass it on unchanged.
def check_dimensions(n: int, m: int, N: int) -> None:
    """Room for n trial directions, m >= n tests and their complement; each
    dimension an integer (:func:`is_integer`)."""
    if not all(is_integer(v) for v in (n, m, N)):
        raise ValueError(f"n, m and N must be integers, got {n!r}, {m!r} and {N!r}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if m < n:
        raise ValueError(f"m must be >= n = {n}, got {m}")
    if N < n + m:
        raise ValueError(f"N must be >= n + m = {n + m}, got {N}")


def check_example1(tau: float, n: int) -> None:
    """Ranges of ``tau`` and ``n`` in :func:`msrom.problems.example1` (dimensions:
    :func:`check_dimensions`)."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1) for example1")
    if n < 4:
        raise ValueError(f"n must be at least 4 for example1, got {n}")


def check_example2(tau: float, n: int) -> float:
    """Parameter ranges of :func:`msrom.problems.example2`; returns the plateau 1/(2(n-1))."""
    if n < 2:
        raise ValueError(f"n must be at least 2 for example2, got {n}")
    limit = 1 / (2 * (n - 1))  # int / int: correctly rounded, no OverflowError for huge n
    if not 0.0 < tau <= limit:
        raise ValueError(
            f"tau must lie in (0, 1/(2(n-1))] = (0, {limit}] for n = {n}, got {tau}"
        )
    if not hadamard_available(n):
        raise ValueError(f"n = {n} has no flat orthogonal matrix construction")
    return limit


class ValidationError(ValueError):
    """A config document is malformed JSON or violates a field constraint."""


@dataclass(eq=False)
class ExperimentConfig:
    """Fully validated experiment description.  ``instance`` holds exactly the
    mode's keys, the keyword arguments besides ``seed`` of the mode's generator
    (``msrom.cli.GENERATORS``); a random sweep draws n and m per instance, with
    N = n + m + 3.  Runs solve with the default
    :class:`msrom.solvers.SolverOptions`.  Construction, ``dataclasses.replace``
    included, refuses an ``output_path`` other than None or a non-empty string."""

    mode: str
    seed: int
    instance: dict
    repetitions: int = 1
    tau_mode: str = "known"
    output_path: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.output_path, (str, type(None))) or self.output_path == "":
            raise ValidationError("field 'output_path' must be a non-empty string")


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
    return [_require_float(entries, k) for k in entries]


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a JSON config document.

    Raises :class:`ValidationError` on malformed JSON and on any constraint
    violation (naming the offending field); the generator preconditions are
    the check functions of this module and, for a ``prescribed`` spectrum
    and profile, of :mod:`msrom.problems`.
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

    if mode == "random-sweep":
        n_min = _require_int(doc, "n_min", minimum=1)
        instance = {"n_min": n_min, "n_max": _require_int(doc, "n_max", minimum=n_min)}
        return ExperimentConfig(mode, seed, instance, repetitions, tau_mode, output_path)
    n, N = _require_int(doc, "n"), _require_int(doc, "N")
    m = _require_int(doc, "m") if "m" in doc or mode == "prescribed" else n
    if mode == "prescribed":
        sigma, tau, widths = (_require_float_list(doc, key) for key in ("sigma", "tau", "widths"))
    else:
        tau = _require_float(doc, "tau")
    try:  # the generators' own preconditions, with their messages
        check_dimensions(n, m, N)
        if mode == "prescribed":
            from .problems import check_profile, check_spectrum  # numpy, for arrays only

            sigma = check_spectrum(n, sigma)
            widths, tau = check_profile(n, widths, tau)
            instance = {"n": n, "m": m, "N": N, "sigma": sigma, "tau": tau, "widths": widths}
        else:
            (check_example1 if mode == "example1" else check_example2)(tau, n)
            instance = {"tau": tau, "n": n, "m": m, "N": N}
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    return ExperimentConfig(mode, seed, instance, repetitions, tau_mode, output_path)


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
    if args.command == "run":
        # one BLAS thread, so that a run's bytes do not depend on the host's
        # cores; set before a prescribed config loads numpy, unless the user did
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
            os.environ.setdefault(var, "1")

    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            cfg = parse_config(handle.read())
        if args.command == "run":
            from .cli import run_experiment  # here, so `validate` loads no numpy

            if args.output is not None:
                cfg = replace(cfg, output_path=args.output)  # refuses '' as the field does
            return run_experiment(cfg, quiet=args.quiet)
    except (OSError, UnicodeDecodeError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("ok")
    return 0
