"""Benchmark of msrom: time per instance, set-up time and memory, and a traced
per-layer breakdown, on the workloads named in ``spec.py``.

    python3 perfbench/run.py --workload sweep --seed 2026 --seconds 10 --trace 0

Run from anywhere; msrom is imported from ``src/`` beside this directory.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Every metric is printed with its unit; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  An instance fails when it raises, when its row
breaks ``actual_ms_error <= ms_bound`` or ``ms_bound^2 = sup_value +
tau_n^2``, or when its solve did not converge.  The exit code is 1 when an
instance raised or gave a wrong row, 0 otherwise (an unconverged solve is
counted in ``failed`` but leaves ``correct`` true), and 2 when the benchmark
could not run (then no result line is printed).  A full report, and the spans of a traced run,
are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import END_TO_END, PER_LAYER, REPORTED, WORKLOADS, config_doc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# One caller, one BLAS thread: pinned in every process that runs msrom.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

SETUP_REPEATS = 9  # timed set-ups per run, after one untimed one
TIME_LIMIT_S = 175.0  # the whole run, set-up and worker included

# Set-up as a user pays it: a fresh process imports msrom and validates the
# workload's config.  It prints that wall time and the time scaled by the
# host's speed just after it (see hostspeed.py).
SETUP_CODE = """\
import sys, time
start = time.perf_counter()
import msrom
msrom.parse_config(sys.argv[1])
wall = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
import hostspeed
print(repr(wall), repr(hostspeed.scaled(wall)))
"""


class BenchmarkError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(BLAS_THREAD_VARS, BLAS_THREADS))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, deadline: float) -> str:
    """Run a child process to completion before ``deadline`` (monotonic)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before starting " + argv[1])
    try:
        proc = subprocess.run(
            argv, env=child_env(), capture_output=True, text=True, timeout=timeout, check=False
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{argv[1]} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{argv[1]} exited with {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def setup_times(doc: dict, deadline: float) -> list[tuple[float, float]]:
    """``(wall, scaled)`` seconds of each timed set-up."""
    argv = [sys.executable, "-c", SETUP_CODE, json.dumps(doc), str(HERE)]
    run_child(argv, deadline)  # compiles bytecode and warms the file cache
    return [
        tuple(map(float, run_child(argv, deadline).split())) for _ in range(SETUP_REPEATS)
    ]


def commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, naming the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def benchmark(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Returns ``(result line, full report)``."""
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (SRC / "msrom" / "__init__.py").is_file():
        raise BenchmarkError(f"msrom sources not found under {SRC}")
    OUT.mkdir(exist_ok=True)
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    metrics = {}
    if not trace:
        setups = setup_times(config_doc(workload, seed), deadline)
        report["setup_samples"] = setups
        report["setup_wall_s"] = statistics.median(wall for wall, _ in setups)
        metrics["setup_s"] = statistics.median(scaled for _, scaled in setups)
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--spans", str(spans),
    ]
    stdout = run_child(argv, deadline)
    try:
        worker = json.loads(stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchmarkError(f"worker printed no result:\n{stdout[-2000:]}") from exc
    report.update(worker)
    report["machine"].update(
        blas_threads_pinned=BLAS_THREADS, commit=commit(), src_sha256=source_digest()
    )
    report["failed_frac"] = worker["failed"] / worker["attempted"]
    # An unconverged solve is a failed instance, counted in "failed", but its
    # row is consistent; only wrong rows and raised instances make the output
    # incorrect.
    correct = worker["wrong"] == 0
    if trace:
        correct = correct and worker["traced_matches_untraced"]
        metrics.update(worker["per_layer"])
        wanted = PER_LAYER
        report["spans"] = str(spans.relative_to(ROOT))
    else:
        correct = correct and worker["passes_match"]
        metrics.update({m: worker[m] for m in ("instance_s_p50", "peak_rss_mb")})
        wanted = END_TO_END
    report["correct"] = correct
    result = {
        "correct": correct,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit} for m in wanted},
    }
    report["metrics"] = result["metrics"]
    name = f"{workload}-seed{seed}-trace{trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return result, report


def show(report: dict, trace: int) -> None:
    """Print every metric by name with its unit, then the checks and the machine."""
    print(f"workload {report['workload']}  seed {report['seed']}  seconds {report['seconds']}")
    rows = [(m, report["metrics"][m.name]["value"]) for m in (PER_LAYER if trace else END_TO_END)]
    if not trace:
        rows += [(m, report[m.name]) for m in REPORTED if m.name in report]
    for metric, value in rows:
        note = f"  -> {metric.moves}" if metric.moves else ""
        print(f"  {metric.name:34s} {value:14.6g} {metric.unit:6s} ({metric.better} is better){note}")
    if trace:
        for phase in ("untraced", "traced"):
            run = report[phase]
            print(f"  {phase} instances_per_s {run['instances_per_s']:.6g} 1/s (samples {run['samples']})")
        print(f"  traced rows match untraced rows: {report['traced_matches_untraced']}")
    else:
        print(
            f"  samples: {report['samples']} instance runs in {report['passes']} passes;"
            f" {len(report['setup_samples'])} set-ups; {report['reference_samples']}"
            f" host-speed references, median {report['reference_s_p50']:.6g} s"
        )
        if "instance_s_p90" not in report:
            print("  instance_s_p90 not reported: fewer than 100 instances")
    print(f"  {report['failed']} of {report['attempted']} instance runs failed, {report['wrong']} wrong or raised")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    print(f"  digest of the first {report['digest_instances']} rows {report['digest']}")
    print("  machine " + json.dumps(report["machine"], sort_keys=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="base seed (default per workload)")
    parser.add_argument("--seconds", type=float, default=10.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seed = WORKLOADS[args.workload][1] if args.seed is None else args.seed
    if seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    try:
        result, report = benchmark(args.workload, seed, args.seconds, args.trace)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    show(report, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
