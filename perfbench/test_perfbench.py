"""Tests of the benchmark itself, kept out of the package's test suite.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import msrom  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
def test_tiny_smoke_run(name):
    seed = spec.WORKLOADS[name][1]
    plain = worker.measure(name, seed, 0.05, False, tiny=True)
    assert plain["failed"] == 0
    assert plain["attempted"] >= spec.DIGEST_INSTANCES[name]
    assert plain["instances_per_s"] > 0 and plain["instance_s_p50"] > 0
    assert plain["peak_rss_mb"] > 0
    assert plain["passes_match"]

    traced = worker.measure(name, seed, 0.05, True, tiny=True)
    assert traced["failed"] == 0
    assert set(traced["per_layer"]) == {m.name for m in spec.PER_LAYER}
    assert traced["per_layer"]["spectral.svd_calls"] == 2
    assert traced["per_layer"]["solvers.svd_calls"] == 3
    # a singular Newton system in the active-set solve adds lstsq calls
    assert traced["per_layer"]["solvers.lstsq_calls"] >= 2
    assert traced["per_layer"]["spectral.gram_calls"] == 3
    assert traced["per_layer"]["problems.riesz_calls"] == 3


def test_host_speed_scales_by_the_references_around_an_instance():
    host = hostspeed.HostSpeed(period=3600.0)
    assert host.tick() == 0 and host.tick() == 0  # one sample per period
    host.samples = [0.01, 0.03, 0.06]
    assert host.factor(0) == pytest.approx(hostspeed.NOMINAL_S / 0.02)
    assert host.factor(1) == pytest.approx(hostspeed.NOMINAL_S / 0.045)
    run = worker.closed_loop(workloads.make("large", tiny=True), 7, count=3, host=host)
    assert run.brackets == [2, 2, 2]


def test_digest_repeats_and_traced_rows_match_untraced():
    first = worker.measure("large", 7, 0.01, False, tiny=True)
    second = worker.measure("large", 7, 0.01, False, tiny=True)
    traced = worker.measure("large", 7, 0.01, True, tiny=True)
    assert first["digest"] == second["digest"] == traced["digest"]
    assert traced["traced_matches_untraced"]
    other_seed = worker.measure("large", 8, 0.01, False, tiny=True)
    assert other_seed["digest"] != first["digest"]


def _good_row():
    wl = workloads.make("sweep", tiny=True)
    return wl.request(wl.prepare(2026))[1]


@pytest.mark.parametrize(
    "corrupt",
    [
        {"converged": "false"},
        {"actual_ms_error": "1e3"},
        {"ms_bound": "0.5", "actual_ms_error": "0.0"},
        {"sup_value": "nan"},
        {"actual_ms_error": "undefined"},
    ],
)
def test_check_row_rejects_corrupted_rows(corrupt):
    row = _good_row()
    assert workloads.check_row(row) is None
    row.update(corrupt)
    kind, _ = workloads.check_row(row)
    assert kind == ("unconverged" if corrupt == {"converged": "false"} else "wrong")


def test_corrupted_and_raising_instances_count_as_failed():
    class Corrupting:
        def __init__(self):
            self.inner = workloads.make("sweep", tiny=True)
            self.calls = 0

        def prepare(self, seed):
            return self.inner.prepare(seed)

        def request(self, prepared):
            self.calls += 1
            if self.calls == 2:
                raise RuntimeError("boom")
            line, row = self.inner.request(prepared)
            if self.calls == 3:
                row["ms_bound"] = repr(float(row["ms_bound"]) * 1.5)
            return line, row

    run = worker.closed_loop(Corrupting(), 2026, count=4)
    assert [kind for kind, _ in run.failures] == ["raised", "wrong"]
    summary = run.summary()
    assert summary["attempted"] == 4 and summary["failed"] == 2 and summary["wrong"] == 2


def _namespace_snapshot():
    return {
        module.__name__: dict(vars(module)) for module in tracing._namespaces()
    } | {"numpy.linalg": {k: getattr(np.linalg, k) for k in tracing.COUNTED}}


def test_wrappers_are_installed_and_restored():
    before = _namespace_snapshot()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert msrom.problems.orthonormalize is not before["msrom.problems"]["orthonormalize"]
            assert msrom.solvers.gram_matrix is not before["msrom.solvers"]["gram_matrix"]
            assert msrom.solvers.rhs_vector is not before["msrom.solvers"]["rhs_vector"]
            assert np.linalg.svd is not before["numpy.linalg"]["svd"]
            msrom.decompose(np.eye(3))
            raise RuntimeError("traced code failed")
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys()
        for key, value in attrs.items():
            assert after[name][key] is value, f"{name}.{key} not restored"
    assert [span[0] for span in tracer.spans] == ["spectral.decompose"]
    assert tracer.numpy_calls == {("spectral.decompose", "svd"): 1}


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["cli.run_instance", 0.0, 10.0, -1, 0],
        ["spectral.gamma", 1.0, 5.0, 0, 0],
        ["spaces.complement_frame", 2.0, 4.0, 1, 0],
        ["solvers.solve_ms", 6.0, 9.0, 0, 0],
    ]
    assert tracer.self_times() == [3.0, 2.0, 2.0, 3.0]
    metrics = tracer.layer_metrics(instances=2)
    assert metrics["spectral.gamma_s"] == 1.0
    assert metrics["spaces.complement_frame_s"] == 1.0
    assert metrics["cli.self_s"] == 1.5


def test_spec_matches_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: why for name, (why, _) in spec.WORKLOADS.items()
    }
    assert bench["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END
    ]
    assert bench["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in spec.PER_LAYER
    ]


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def test_command_prints_result_line():
    proc = _run(ROOT, "--workload", "sweep", "--seed", "11", "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m.name for m in spec.END_TO_END]
    for metric in spec.END_TO_END:
        assert result["metrics"][metric.name]["unit"] == metric.unit
        assert result["metrics"][metric.name]["value"] > 0


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_unconverged_sweep_instance_counts_as_failed():
    # random-sweep seed 3463 ends its projected-gradient fallback on a stall
    # with the KKT residual above the certificate: a real solver failure.
    run = worker.closed_loop(workloads.make("sweep"), 3463, count=1)
    assert [kind for kind, _ in run.failures] == ["unconverged"]
    assert run.summary()["wrong"] == 0
