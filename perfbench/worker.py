"""One benchmark measurement: a single caller running instances in a closed loop.

Run by ``run.py`` in a fresh process whose BLAS thread count is pinned; it
prints one JSON object.  ``measure`` is also called in-process by the tests.

    python3 perfbench/worker.py --workload sweep --seed 2026 --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import workloads
from hostspeed import HostSpeed
from spec import DIGEST_INSTANCES, PASS_INSTANCES
from tracing import Tracer

MAX_FAILURES_SHOWN = 5

# The untraced measurement times the host-speed reference between instances
# at least this often (seconds); see hostspeed.py.
REFERENCE_PERIOD_S = 0.25


@dataclass
class Run:
    """Outcome of a closed loop: instance i used seed base + i."""

    times: list = field(default_factory=list)
    brackets: list = field(default_factory=list)  # HostSpeed bracket per instance
    lines: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (kind, message)
    iterations: int = 0

    @property
    def attempted(self) -> int:
        return len(self.times)

    def summary(self) -> dict:
        ok = self.attempted - len(self.failures)
        out = {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "wrong": sum(kind != "unconverged" for kind, _ in self.failures),
            "instances_per_s": ok / sum(self.times),
            "instance_s_p50": statistics.median(self.times),
            "samples": self.attempted,
        }
        # a 90th percentile needs at least ten samples beyond it
        if self.attempted >= 100:
            out["instance_s_p90"] = statistics.quantiles(self.times, n=10)[-1]
        return out


def closed_loop(wl, base, *, count=None, deadline=None, minimum=0, tracer=None, host=None) -> Run:
    """Run instances back to back until ``count`` are done or the clock passes
    ``deadline`` (``time.perf_counter``), whichever is first, but never fewer
    than ``minimum``.  With ``host`` (a ``HostSpeed``), its reference runs
    between instances, outside their timed regions."""
    run = Run()
    clock = time.perf_counter
    i = 0
    while i < minimum or (
        (count is None or i < count) and (deadline is None or clock() < deadline)
    ):
        prepared = wl.prepare(base + i)
        if tracer is not None:
            tracer.instance = i
        if host is not None:
            run.brackets.append(host.tick())
        start = clock()
        try:
            line, row = wl.request(prepared)
        except Exception as exc:  # a raising instance is a counted failure
            run.times.append(clock() - start)
            line = f"raised {exc!r}"
            failure = ("raised", line)
        else:
            run.times.append(clock() - start)
            failure = workloads.check_row(row)
            if failure is None or failure[0] == "unconverged":
                run.iterations += int(row["ms_iterations"])
        if failure is not None:
            kind, reason = failure
            run.failures.append((kind, f"instance {i} (seed {base + i}): {reason}"))
        run.lines.append(line)
        i += 1
    return run


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def measure(workload, seed, seconds, trace, *, tiny=False, spans_path=None) -> dict:
    """Warm up once, then measure; with ``trace`` measure a traced pass instead."""
    wl = workloads.make(workload, tiny)
    wl.request(wl.prepare(seed + workloads.WARMUP_OFFSET))
    minimum = DIGEST_INSTANCES[workload]
    out = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    host = None if trace else HostSpeed(REFERENCE_PERIOD_S)
    start = time.perf_counter()
    if not trace:
        # Passes over the same instances until the time is up; every time is
        # scaled by the host's speed around it.
        count, deadline = PASS_INSTANCES[workload], start + seconds
        passes = [
            closed_loop(wl, seed, count=count, deadline=deadline, minimum=minimum, host=host)
        ]
        while time.perf_counter() < deadline:
            passes.append(closed_loop(wl, seed, count=count, deadline=deadline, host=host))
        host.sample()
        first = passes[0]
        every = Run(
            times=[t for p in passes for t in p.times],
            failures=[failure for p in passes for failure in p.failures],
        )
        out.update(every.summary())
        out["instance_wall_s_p50"] = out.pop("instance_s_p50")
        out["instance_s_p50"] = statistics.median(
            t * host.factor(b) for p in passes for t, b in zip(p.times, p.brackets)
        )
        out["reference_samples"] = len(host.samples)
        out["reference_s_p50"] = statistics.median(host.samples)
        out["passes"] = len(passes)
        out["passes_match"] = all(p.lines == first.lines[: p.attempted] for p in passes)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        # Untraced for half the time, then the same instances traced.
        first = closed_loop(wl, seed, deadline=start + seconds / 2, minimum=minimum)
        tracer = Tracer()
        with tracer.installed():
            traced = closed_loop(wl, seed, count=first.attempted, tracer=tracer)
        passes = [first, traced]
        out["untraced"], out["traced"] = first.summary(), traced.summary()
        layers = tracer.layer_metrics(traced.attempted)
        layers["solvers.ms_iterations"] = traced.iterations / traced.attempted
        layers["trace.rate_ratio"] = (
            out["traced"]["instances_per_s"] / out["untraced"]["instances_per_s"]
        )
        out["per_layer"] = layers
        out["traced_matches_untraced"] = traced.lines == first.lines
        if spans_path is not None:
            tracer.write_spans(spans_path)
    failures = [failure for p in passes for failure in p.failures]
    out["attempted"] = sum(p.attempted for p in passes)
    out["failed"] = len(failures)
    out["wrong"] = sum(kind != "unconverged" for kind, _ in failures)
    out["failures"] = [message for _, message in failures[:MAX_FAILURES_SHOWN]]
    out["digest"] = workloads.digest(first.lines[:minimum])
    out["digest_instances"] = minimum
    out["machine"] = machine()
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", default=None, help="where the traced run writes its spans")
    args = parser.parse_args()
    result = measure(args.workload, args.seed, args.seconds, args.trace, spans_path=args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
