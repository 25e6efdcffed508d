"""Workload requests: inputs from a base seed, one msrom instance per request.

Instance ``i`` of a run uses seed ``base + i``.  ``prepare`` makes what must
exist before the timed region (a config, or a seeded metric); ``request`` is
the timed call into msrom and returns the instance's output row.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json

import numpy as np

import msrom
from spec import EXAMPLE1_TAU, config_doc

# Tolerances of the per-row checks.
BOUND_SLACK = 1e-9  # actual_ms_error may exceed ms_bound by at most this
IDENTITY_REL_TOL = 1e-9  # ms_bound^2 = sup_value + tau_n^2, relative

# Warm-up instances use seeds this far past the base, outside any timed range.
WARMUP_OFFSET = 10**6


class CliWorkload:
    """``run_experiment`` on one config, one repetition per request."""

    def __init__(self, doc: dict) -> None:
        self.cfg = msrom.parse_config(json.dumps(doc))

    def prepare(self, seed: int):
        return dataclasses.replace(self.cfg, seed=seed, repetitions=1)

    def request(self, cfg) -> tuple[str, dict]:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            msrom.run_experiment(cfg, quiet=True)
        header, line = buffer.getvalue().splitlines()
        return line, dict(zip(header.split(","), line.split(",")))


class MetricWorkload:
    """example1's spectrum and profile with a seeded SPD metric ``BB^T/N + I``."""

    def __init__(self, doc: dict) -> None:
        msrom.parse_config(json.dumps(doc))
        self.n, self.N = doc["n"], doc["N"]
        root = float(np.sqrt(EXAMPLE1_TAU))
        tail = [root, root, EXAMPLE1_TAU]
        self.sigma = np.array([1.0] * (self.n - 3) + tail)
        self.profile = np.array([1.0] * (self.n - 2) + tail)
        self.options = msrom.SolverOptions()

    def prepare(self, seed: int):
        B = np.random.default_rng([seed, 1]).standard_normal((self.N, self.N))
        return seed, B @ B.T / self.N + np.eye(self.N)

    def request(self, prepared) -> tuple[str, dict]:
        seed, metric = prepared
        n = self.n
        problem, hierarchy, tests = msrom.synth_prescribed(
            n, n, self.N, self.sigma, np.eye(n), self.profile, self.profile.copy(), seed,
            metric=metric,
        )
        report, solution, decomp = msrom.run_instance(problem, hierarchy, tests, self.options)
        wf = report.water_filling
        fields = {
            "seed": seed,
            "sigma_1": decomp.sigma[0],
            "sigma_n": decomp.sigma[-1],
            "gamma": report.intermediates.gamma,
            "sup_value": wf.sup_value,
            "tau_n": hierarchy.distances[-1],
            "babuska_bound": report.babuska,
            "ms_bound": report.ms_bound,
            "actual_pg_error": report.actual_pg_error,
            "actual_ms_error": report.actual_ms_error,
            "ms_cost": solution.cost,
            "ms_iterations": solution.iterations,
            "converged": "true" if solution.converged else "false",
        }
        row = {key: _fmt(value) for key, value in fields.items()}
        return ",".join(row.values()), row


def _fmt(value) -> str:
    """Shortest round-trip text, as the CLI writes its CSV cells."""
    if value is None or isinstance(value, str):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def make(name: str, tiny: bool = False):
    """The request machinery of a workload; the base seed enters per request."""
    doc = config_doc(name, 0, tiny)
    return MetricWorkload(doc) if name == "metric" else CliWorkload(doc)


def check_row(row: dict) -> tuple[str, str] | None:
    """``(kind, reason)`` when an instance's output row fails, else None.

    ``kind`` is "wrong" for a row whose numbers break the bound's guarantees
    and "unconverged" for a consistent row whose solve reports no convergence.
    """
    try:
        converged = row["converged"]
        actual = float(row["actual_ms_error"])
        bound = float(row["ms_bound"])
        squared = float(row["sup_value"]) + float(row["tau_n"]) ** 2
    except (KeyError, ValueError) as exc:
        return "wrong", f"malformed row: {exc!r}"
    if not actual <= bound + BOUND_SLACK:
        return "wrong", f"actual_ms_error {actual!r} exceeds ms_bound {bound!r}"
    if not abs(bound * bound - squared) <= IDENTITY_REL_TOL * max(bound * bound, squared):
        return "wrong", f"ms_bound^2 {bound * bound!r} != sup_value + tau_n^2 {squared!r}"
    if converged != "true":
        return "unconverged", "solve_ms did not converge"
    return None


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
