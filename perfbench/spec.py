"""What the benchmark measures: workloads, metrics and their expected effects.

This module is the single source of the names, units and directions that
``BENCHMARK.json`` lists; ``test_perfbench.py`` checks that the two agree.
It imports nothing heavy, so the parent process of ``run.py`` can read it
without loading numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

EXAMPLE1_TAU = 1e-4

# name -> (why, default base seed)
WORKLOADS = {
    "sweep": (
        "many small random-sweep instances (n 3-10, sweep.json traffic); call "
        "overhead and the rare projected-gradient fallback in solvers dominate",
        2026,
    ),
    "large": (
        "example1 at n=m=100, N=500; spaces.complement_frame inside spectral.gamma "
        "dominates and solvers take under 2%, so solver changes are bypassed",
        7,
    ),
    "metric": (
        "example1 spectrum at n=m=40, N=200 with a seeded SPD metric via the library; "
        "the metric branch of spaces and spectral, where a Euclidean-only rewrite shows",
        7,
    ),
}

# Rows covered by the reported output digest; every run completes at least
# this many instances, so two runs with one seed digest the same rows.
DIGEST_INSTANCES = {"sweep": 200, "large": 3, "metric": 5}

# Instances per pass of an untraced run, which repeats its passes until its
# time is up; None runs new instances to the end.  Instance cost varies with
# the seed (n, and whether a solve takes the projected-gradient fallback), so
# the median follows the seeds a run covers: over 200 sweep seeds it moves by
# about 8% (standard deviation), over 800 by about 3%.  large and metric take
# as many seeds as fit; sweep, which fits thousands, stays on 800 so that its
# seed range, and the chance of meeting a seed whose solve does not converge,
# stays small.
PASS_INSTANCES = {"sweep": 800, "large": None, "metric": None}

# Per-instance sizes.  "tiny" sizes exist only for the benchmark's own tests.
SIZES = {
    "sweep": {"n_min": 3, "n_max": 10},
    "large": {"n": 100, "N": 500},
    "metric": {"n": 40, "N": 200},
}
TINY_SIZES = {
    "sweep": {"n_min": 3, "n_max": 5},
    "large": {"n": 8, "N": 40},
    "metric": {"n": 6, "N": 30},
}


def config_doc(workload: str, seed: int, tiny: bool = False) -> dict:
    """The msrom config a workload's requests are built from.

    ``sweep`` mirrors ``scripts/configs/sweep.json`` (one repetition per
    request).  ``metric`` has no CLI form, because the CLI cannot build a
    non-Euclidean instance; its config is the Euclidean example1 document of
    the same size, which set-up validates.
    """
    size = (TINY_SIZES if tiny else SIZES)[workload]
    if workload == "sweep":
        return {"mode": "random-sweep", **size, "seed": seed}
    n = size["n"]
    return {"mode": "example1", "tau": EXAMPLE1_TAU, "n": n, "m": n, "N": size["N"], "seed": seed}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None
    moves: str = ""


# The times that BENCHMARK.json bounds are scaled by the host's speed (see
# hostspeed.py): contention from other tenants moves plain wall time on a
# shared host by more than any allowed bound, within one run and between runs.
# The plain wall times are printed and saved beside them.
END_TO_END = (
    Metric("instance_s_p50", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("setup_s", "s", "lower", 0.25),
)

# Printed and saved with every untraced run, but not in BENCHMARK.json, which
# bounds each of its end-to-end metrics on every workload:
# - the wall times of instances and of set-up, as above;
# - instances_per_s (instance runs over the sum of their wall times) swings
#   by more than any allowed bound on sweep, where about 1% of the instances
#   take the projected-gradient fallback and 40-50% of the time;
# - instance_s_p90 exists only with 100 or more instance runs, which large
#   and metric do not reach in a run;
# - failed_frac is 0 on large and metric, and a bound relative to 0 is void.
REPORTED = (
    Metric("instance_wall_s_p50", "s", "lower"),
    Metric("setup_wall_s", "s", "lower"),
    Metric("instances_per_s", "1/s", "higher"),
    Metric("instance_s_p90", "s", "lower"),
    Metric("failed_frac", "ratio", "lower"),
)

# Self times and call counts are per timed instance; *_calls_max is per solve.
_BIG = "instance_s_p50 and instances_per_s on large and metric; 10% or less on sweep"
_BUILD = "instance_s_p50 on large and metric (16-20% there); less on sweep"
_SOLVE = "instances_per_s and instance_s_p90 on sweep; none on large and metric"
_CALLS = "instance_s_p50 on sweep (small-matrix call overhead); none on large"
_SMALL = "stays under about 2% on every workload; tracked so moved work shows"
PER_LAYER = (
    Metric("spaces.complement_frame_s", "s", "lower", moves=_BIG),
    Metric("spectral.gamma_s", "s", "lower", moves=_BIG),
    Metric("spaces.orthonormalize_s", "s", "lower", moves=_BUILD),
    Metric("spaces.orthonormalize_calls", "count", "lower", moves=_BUILD),
    Metric("problems.build_s", "s", "lower", moves=_BUILD),
    Metric("problems.rhs_s", "s", "lower", moves=_BUILD),
    Metric("problems.rhs_calls", "count", "lower", moves=_BUILD),
    Metric("solvers.project_slices_s", "s", "lower", moves=_SOLVE),
    Metric("solvers.project_slices_calls", "count", "lower", moves=_SOLVE),
    Metric("solvers.project_slices_calls_max", "count", "lower", moves=_SOLVE),
    Metric("solvers.solve_ms_s", "s", "lower", moves=_SOLVE),
    Metric("solvers.ms_iterations", "count", "lower", moves=_SOLVE),
    Metric("spectral.svd_calls", "count", "lower", moves=_CALLS),
    Metric("solvers.svd_calls", "count", "lower", moves=_CALLS),
    Metric("solvers.lstsq_calls", "count", "lower", moves=_CALLS),
    Metric("spectral.gram_calls", "count", "lower", moves=_CALLS),
    Metric("problems.riesz_calls", "count", "lower", moves=_CALLS),
    Metric("solvers.solve_pg_s", "s", "lower", moves=_SMALL),
    Metric("spectral.decompose_s", "s", "lower", moves=_SMALL),
    Metric("spectral.deltas_s", "s", "lower", moves=_SMALL),
    Metric("bounds.ms_bound_s", "s", "lower", moves=_SMALL),
    Metric("cli.self_s", "s", "lower", moves=_SMALL),
    Metric(
        "trace.rate_ratio",
        "ratio",
        "higher",
        moves="traced instances_per_s over untraced on the same instances: tracing overhead",
    ),
)
