import csv
import dataclasses
import inspect
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import package_env

import msrom
from msrom import SolverOptions, SubspaceHierarchy
from msrom.cli import CSV_COLUMNS, GENERATORS, _build_instance, run_experiment, run_instance
from msrom.config import (
    _COMMON_KEYS,
    _MODE_KEYS,
    MODES,
    ExperimentConfig,
    ValidationError,
    is_integer,
    main,
    parse_config,
)
from msrom.solvers import MultiSliceSolution

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "scripts" / "configs").glob("*.json"))


def example1_doc(**overrides):
    doc = {"mode": "example1", "tau": 1e-4, "n": 10, "N": 40, "seed": 7}
    doc.update(overrides)
    return json.dumps(doc)


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    return [dict(zip(CSV_COLUMNS, line.split(","))) for line in lines[1:]]


# ------------------------------------------------------------------- parsing


def test_parse_minimal_example1():
    cfg = parse_config(example1_doc(output_path="out.csv"))
    assert cfg.mode == "example1"
    assert cfg.instance == {"tau": 1e-4, "n": 10, "m": 10, "N": 40}
    assert cfg.seed == 7
    assert cfg.repetitions == 1
    assert cfg.tau_mode == "known"
    assert cfg.output_path == "out.csv"


def test_parse_rejects_unknown_key():
    with pytest.raises(ValidationError, match="unknown field"):
        parse_config(example1_doc(typo_key=3))


def test_parse_rejects_bad_mode():
    with pytest.raises(ValidationError, match="mode"):
        parse_config(json.dumps({"mode": "bogus"}))
    with pytest.raises(ValidationError, match="mode"):
        parse_config(json.dumps({"seed": 1}))


def test_parse_names_a_missing_required_field():
    for key in ("seed", "tau", "n", "N"):
        doc = json.loads(example1_doc())
        del doc[key]
        with pytest.raises(ValidationError, match=f"missing required field '{key}'"):
            parse_config(json.dumps(doc))


def test_parse_malformed_document():
    with pytest.raises(ValidationError, match="malformed JSON"):
        parse_config("{not json")
    with pytest.raises(ValidationError):
        parse_config(json.dumps([1, 2, 3]))


def test_parse_rejects_non_finite_numbers():
    text = '{"mode": "example1", "tau": NaN, "n": 10, "N": 40, "seed": 1}'
    with pytest.raises(ValidationError, match="non-finite"):
        parse_config(text)


PRESCRIBED = {
    "mode": "prescribed",
    "n": 2,
    "m": 2,
    "N": 4,
    "seed": 0,
    "sigma": [0.9, 0.5],
    "tau": [0.4, 0.2, 0.1],
    "widths": [0.5, 0.3, 0.15],
}
HUGE = "1" + "0" * 400  # a 401-digit integer: beyond the float range


@pytest.mark.parametrize(
    "text",
    [
        # parses to inf; used to validate and then fail the run
        json.dumps(PRESCRIBED).replace("[0.4,", "[1e400,").replace("[0.5,", "[1e400,"),
        example1_doc(tau=0.5).replace("0.5", "-1e400"),
        example1_doc(tau=0.5).replace("0.5", HUGE),
        json.dumps(PRESCRIBED).replace("0.9", HUGE),
        json.dumps(PRESCRIBED).replace("0.15", HUGE),
    ],
)
def test_parse_rejects_numbers_beyond_the_float_range(text, tmp_path, capsys):
    with pytest.raises(ValidationError, match="non-finite number"):
        parse_config(text)
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    assert "non-finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, values",
    [("tau", [1e200, 0.2, 0.1]), ("widths", [0.5, 0.3, 2e154]), ("widths", [0.5, 0.3, 1e126])],
)
def test_parse_rejects_profiles_beyond_the_limit(key, values, tmp_path, capsys):
    # squared, 1e200 is inf: such a config used to validate and then write
    # nan rows after a solve that could not converge; 2e154 has a finite
    # square but overflows the sums the solve forms; from 1e126 on, a tau_0
    # over a sigma_n near the zero cutoff overflows the dual Newton's squares
    doc = dict(PRESCRIBED, **{key: values})
    if key == "tau":
        doc["widths"] = [1e200, 0.3, 0.15]
    text = json.dumps(doc)
    with pytest.raises(ValidationError, match=f"{key} entries must be finite and at most 1e\\+125"):
        parse_config(text)
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    assert "at most 1e+125" in capsys.readouterr().err
    # the limit itself still validates
    parse_config(json.dumps(dict(PRESCRIBED, widths=[1e125, 0.3, 0.15])))


# tau_0 = 1e150 over sigma_n = 1e-11: the trial coefficients reach
# tau_0 / sigma_n = 1e161, whose square project_slices cannot form
OVERFLOW_AT_THE_OLD_LIMIT = {
    "mode": "prescribed",
    "n": 2,
    "m": 2,
    "N": 6,
    "sigma": [1.0, 1e-11],
    "tau": [1e150] * 3,
    "widths": [1e150] * 3,
    "seed": 1,
}


def test_profile_limit_keeps_the_solve_finite(tmp_path, capsys):
    path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    path.write_text(json.dumps(OVERFLOW_AT_THE_OLD_LIMIT))
    assert main(["validate", str(path)]) == 1
    assert "tau entries must be finite and at most 1e+125" in capsys.readouterr().err
    # the same instance at the limit runs and converges, with no RuntimeWarning
    at_limit = dict(OVERFLOW_AT_THE_OLD_LIMIT, tau=[1e125] * 3, widths=[1e125] * 3, repetitions=3)
    path.write_text(json.dumps(at_limit))
    assert main(["run", str(path), "--output", str(out), "--quiet"]) == 0
    with out.open() as handle:
        rows = list(csv.DictReader(handle))
    for row in rows:
        assert float(row["actual_ms_error"]) <= float(row["ms_bound"])
        assert float(row["actual_pg_error"]) <= float(row["babuska_bound"])


@pytest.mark.parametrize(
    "text, match",
    [
        (example1_doc(tau="0.1"), "field 'tau' must be a number"),
        (example1_doc(tau=True), "field 'tau' must be a number"),
        (json.dumps(dict(PRESCRIBED, sigma=[0.9, "0.5"])), r"field 'sigma\[1\]' must be a number"),
        (json.dumps(dict(PRESCRIBED, widths=0.5)), "field 'widths' must be a list of numbers"),
    ],
    ids=["string", "bool", "list-entry", "not-a-list"],
)
def test_parse_rejects_fields_that_are_not_numbers(text, match):
    with pytest.raises(ValidationError, match=match):
        parse_config(text)


def test_parse_rejects_unreadable_integers_and_nesting():
    with pytest.raises(ValidationError, match="malformed JSON"):
        parse_config(example1_doc(tau=0.5).replace("0.5", "1" * 5000))
    with pytest.raises(ValidationError, match="malformed JSON"):
        parse_config("[" * 100_000)


def test_parse_example2_width_limit():
    doc = json.dumps({"mode": "example2", "tau": 0.2, "n": 16, "N": 64, "seed": 1})
    with pytest.raises(ValidationError, match=r"1/\(2\(n-1\)\)"):
        parse_config(doc)


def test_parse_example2_flat_matrix_gate():
    doc = json.dumps({"mode": "example2", "tau": 1e-3, "n": 28, "N": 120, "seed": 1})
    with pytest.raises(ValidationError, match="n"):
        parse_config(doc)


def test_parse_example2_large_order_allocates_no_matrix():
    n = 2**16
    doc = json.dumps({"mode": "example2", "tau": 0.25 / (n - 1), "n": n, "N": 2 * n, "seed": 1})
    tracemalloc.start()
    try:
        cfg = parse_config(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cfg.instance["n"] == n
    assert peak < 1_000_000


def test_parse_rejects_bool_as_int():
    with pytest.raises(ValidationError, match="integer"):
        parse_config(example1_doc(n=True))


def test_parse_example1_preconditions():
    with pytest.raises(ValidationError, match="n"):
        parse_config(example1_doc(n=3, N=40))
    with pytest.raises(ValidationError, match="tau"):
        parse_config(example1_doc(tau=1.0))
    with pytest.raises(ValidationError, match="N"):
        parse_config(example1_doc(N=12))
    with pytest.raises(ValidationError, match="m"):
        parse_config(example1_doc(m=5))


def test_parse_repetitions_and_seed_bounds():
    with pytest.raises(ValidationError, match="repetitions"):
        parse_config(example1_doc(repetitions=0))
    with pytest.raises(ValidationError, match="seed"):
        parse_config(example1_doc(seed=-1))


def test_parse_tau_mode_values():
    cfg = parse_config(example1_doc(tau_mode="practitioner"))
    assert cfg.tau_mode == "practitioner"
    with pytest.raises(ValidationError, match="tau_mode"):
        parse_config(example1_doc(tau_mode="guessed"))


def test_parse_solver_overrides():
    # a config sets no solver option: a run solves with the default SolverOptions,
    # and a library caller caps a solve through run_instance's options
    unknown = r"^unknown field\(s\) for mode 'example1': \['solver'\]$"
    solvers = ({"max_iterations": 1000}, {"gradient_tolerance": 1e-8}, {"step_size": 0.1}, {})
    for solver in solvers + ({"max_iterations": 0}, {"max_iterations": "5"}, 5):
        with pytest.raises(ValidationError, match=unknown):
            parse_config(example1_doc(solver=solver))


def test_parse_prescribed():
    doc = {
        "mode": "prescribed",
        "n": 3,
        "m": 4,
        "N": 9,
        "seed": 2,
        "sigma": [0.9, 0.5, 0.25],
        "tau": [0.4, 0.2, 0.1, 0.05],
        "widths": [0.5, 0.3, 0.15, 0.08],
    }
    cfg = parse_config(json.dumps(doc))
    assert np.allclose(cfg.instance["sigma"], [0.9, 0.5, 0.25])
    assert np.allclose(cfg.instance["tau"], [0.4, 0.2, 0.1, 0.05])
    assert np.allclose(cfg.instance["widths"], [0.5, 0.3, 0.15, 0.08])

    bad = dict(doc, sigma=[0.5, 0.9, 0.25])
    with pytest.raises(ValidationError, match="sigma"):
        parse_config(json.dumps(bad))
    bad = dict(doc, widths=[0.3, 0.1, 0.05, 0.01])
    with pytest.raises(ValidationError, match="widths"):
        parse_config(json.dumps(bad))
    bad = dict(doc, sigma=[0.9, 0.5])
    with pytest.raises(ValidationError, match="length"):
        parse_config(json.dumps(bad))
    bad = dict(doc, N=5)
    with pytest.raises(ValidationError, match="N"):
        parse_config(json.dumps(bad))


@pytest.mark.parametrize("mode", MODES)
def test_mode_keys_are_the_generator_arguments(mode):
    # a config holds exactly the keyword arguments of its mode's generator
    parameters = set(inspect.signature(GENERATORS[mode]).parameters)
    assert parameters - {"seed"} == _MODE_KEYS[mode]
    docs = [json.loads(path.read_text()) for path in CONFIGS] + [PRESCRIBED]
    for doc in (doc for doc in docs if doc["mode"] == mode):
        assert set(parse_config(json.dumps(doc)).instance) == _MODE_KEYS[mode]


def test_parse_random_sweep():
    sweep = {"mode": "random-sweep", "n_min": 3, "n_max": 6, "seed": 1}
    cfg = parse_config(json.dumps(sweep))
    assert cfg.instance == {"n_min": 3, "n_max": 6}
    # the sweep draws N = n + m + 3 per instance; a config does not set it
    unknown = r"^unknown field\(s\) for mode 'random-sweep': \['N'\]$"
    for N in (10, 30):
        with pytest.raises(ValidationError, match=unknown):
            parse_config(json.dumps(dict(sweep, N=N)))
    with pytest.raises(ValidationError, match="n_min"):
        parse_config(json.dumps({"mode": "random-sweep", "n_min": 0, "n_max": 4, "seed": 1}))
    with pytest.raises(ValidationError, match="n_max"):
        parse_config(json.dumps({"mode": "random-sweep", "n_min": 5, "n_max": 4, "seed": 1}))


_JUNK = st.one_of(
    st.integers(),
    st.integers(10**300, 10**420),
    st.floats(),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
)
_SCALAR = st.one_of(st.integers(-2, 42), st.floats(-0.5, 1.5), _JUNK)
# integers past the float range get a branch of their own: they once escaped
# parse_config as OverflowError
_CORRUPT = st.one_of(
    _SCALAR, st.integers(10**300, 10**420), st.lists(_SCALAR, max_size=6), st.just(KeyError)
)


def _descending(draw, size):
    return sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)), reverse=True)


@st.composite
def _documents(draw):
    """A well-formed document of a random mode with up to three fields corrupted:
    replaced by a junk value, one list entry replaced, or (``KeyError``) dropped."""
    mode = draw(st.sampled_from(MODES))
    n = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 16, 20]))
    m = n + draw(st.integers(0, 3))
    n_min = draw(st.integers(1, 4))
    n_max = n_min + draw(st.integers(0, 6))
    frac = draw(st.floats(0.0, 1.0))
    tau = _descending(draw, n + 1)
    doc = {
        "mode": mode,
        "seed": draw(st.integers(0, 2**40)),
        "repetitions": draw(st.integers(1, 3)),
        "tau_mode": draw(st.sampled_from(["known", "practitioner"])),
        "n": n,
        "m": m,
        "N": n + m + draw(st.integers(0, 4)),
        "tau": {"example1": frac, "example2": frac / (2 * max(n - 1, 1))}.get(mode, tau),
        "sigma": _descending(draw, n),
        "widths": [t + draw(st.floats(0.0, 0.5)) for t in tau],
        "n_min": n_min,
        "n_max": n_max,
    }
    doc = {key: doc[key] for key in doc if key in _COMMON_KEYS | _MODE_KEYS[mode]}
    for key in draw(st.sets(st.sampled_from(sorted(_COMMON_KEYS | _MODE_KEYS[mode])), max_size=3)):
        value = draw(_CORRUPT)
        if value is KeyError:
            doc.pop(key, None)
        elif isinstance(doc.get(key), list) and draw(st.booleans()):
            doc[key][draw(st.integers(0, len(doc[key]) - 1))] = value
        else:
            doc[key] = value
    return doc


@settings(max_examples=400, deadline=None)
@given(_documents())
def test_parse_config_fuzz(doc):
    # any document yields a config or a ValidationError, and an accepted one
    # of modest size builds its first instance
    try:
        cfg = parse_config(json.dumps(doc))
    except ValidationError:
        return
    assert isinstance(cfg, ExperimentConfig)
    sizes = [cfg.instance.get(key) for key in ("n", "n_max", "N")]
    if all(size is None or size <= 40 for size in sizes):
        problem, hierarchy, tests = _build_instance(cfg, cfg.seed)
        assert tests.shape[1] >= hierarchy.n


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_checked_in_configs_validate_and_build(path, capsys):
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "ok"
    cfg = parse_config(path.read_text())
    problem, hierarchy, tests = _build_instance(cfg, cfg.seed)
    assert tests.shape[1] >= hierarchy.n
    if "n" in cfg.instance:
        sizes = (hierarchy.n, tests.shape[1], problem.z_true.size)
        assert sizes == tuple(cfg.instance[key] for key in ("n", "m", "N"))


def test_module_form_validates_without_warnings():
    # `python -m msrom` runs msrom/__main__.py, the module form of the console script
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "msrom", "validate",
         str(root / "scripts" / "configs" / "example1.json")],
        capture_output=True, text=True, env=package_env(), cwd=root, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")


def test_import_leaves_argparse_unloaded():
    # only `main` parses arguments, and only a run or a prescribed spectrum
    # needs arrays: importing msrom and checking a config of the other modes
    # loads neither argparse nor numpy
    docs = [
        example1_doc(),
        json.dumps({"mode": "example2", "tau": 1e-3, "n": 16, "N": 64, "seed": 7}),
        json.dumps({"mode": "random-sweep", "n_min": 3, "n_max": 10, "seed": 1}),
    ]
    code = (
        "import sys, msrom\n"
        "for doc in sys.argv[1:]:\n"
        "    msrom.parse_config(doc)\n"
        "print(sorted({'argparse', 'numpy'} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *docs],
        capture_output=True, text=True, env=package_env(), timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_validate_loads_no_numpy(path):
    # `-X importtime` lists on stderr every module the command imports
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "msrom", "validate", str(path)],
        capture_output=True, text=True, env=package_env(), timeout=60,
    )
    imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
    assert (done.returncode, done.stdout) == (0, "ok\n")
    assert "msrom.config" in imported and "argparse" in imported
    assert not {"numpy", "msrom.cli", "msrom.problems"} & imported


def test_prescribed_config_validates_with_the_array_checks():
    # the one mode whose checks need numpy loads it, and keeps checked arrays
    doc = json.dumps({
        "mode": "prescribed", "n": 2, "m": 2, "N": 6, "seed": 0,
        "sigma": [1.0, 0.5], "tau": [1.0, 0.5, 0.2], "widths": [1.0, 0.6, 0.2],
    })
    code = (
        "import sys, msrom\n"
        "cfg = msrom.parse_config(sys.argv[1])\n"
        "print('numpy' in sys.modules, type(cfg.instance['sigma']).__name__,"
        " cfg.instance['widths'].tolist())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, doc],
        capture_output=True, text=True, env=package_env(), timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "True ndarray [1.0, 0.6, 0.2]\n", ""
    )


def test_is_integer_takes_python_and_numpy_integers_only():
    for value in (3, -2, 2**80, np.int64(3), np.uint8(3)):
        assert is_integer(value), value
    for value in (True, np.True_, 3.0, np.float64(3), "3", None):
        assert not is_integer(value), value


def test_scripts_run_cleanly(tmp_path):
    # both scripts under scripts/ finish without a bound violation, write the
    # run's CSV columns, and raise no RuntimeWarning (overflow, invalid value)
    root = Path(__file__).resolve().parents[1]
    sweep = tmp_path / "sweep.csv"
    commands = [
        ["run_examples.py", "--outdir", str(tmp_path)],
        ["bound_vs_error_sweep.py", "--repetitions", "20", "--output", str(sweep)],
    ]
    output = ""
    for script, *args in commands:
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", str(root / "scripts" / script), *args],
            capture_output=True, text=True, env=package_env(), cwd=tmp_path, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        output += done.stdout
    assert "violations   0" in output
    for name in ("example1.csv", "example2.csv", "sweep.csv"):
        assert (tmp_path / name).read_text().splitlines()[0] == ",".join(CSV_COLUMNS)


# ---------------------------------------------------------------- experiments


def test_run_example1_rows(tmp_path):
    out = tmp_path / "out.csv"
    cfg = parse_config(example1_doc(output_path=str(out), repetitions=2))
    assert run_experiment(cfg, quiet=True) == 0
    rows = read_rows(out)
    assert len(rows) == 2
    assert [r["seed"] for r in rows] == ["7", "8"]
    for row in rows:
        assert row["mode"] == "example1"
        assert row["n"] == "10" and row["m"] == "10" and row["N"] == "40"
        assert row["converged"] == "true"
        assert abs(float(row["babuska_bound"]) - 1.0) <= 1e-9
        assert float(row["ms_bound"]) <= 0.03
        assert float(row["actual_ms_error"]) <= float(row["ms_bound"])
        # every row is internally consistent
        lhs = float(row["ms_bound"]) ** 2
        rhs = float(row["sup_value"]) + float(row["tau_n"]) ** 2
        assert abs(lhs - rhs) <= 1e-9 * max(lhs, 1e-12)


def test_run_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg = parse_config(example1_doc(repetitions=3))
    for out in (a, b):
        run_experiment(dataclasses.replace(cfg, output_path=str(out)), quiet=True)
    assert a.read_bytes() == b.read_bytes()


BLAS_THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def test_run_bytes_do_not_depend_on_the_blas_threads(tmp_path):
    # a threaded BLAS rounds this instance's 500 x 100 products differently
    # from one thread, from CSV line 2 on; `msrom run` pins one thread unless
    # the caller chose, so a run with the variables unset writes the same bytes
    doc = {"mode": "example1", "tau": 1e-4, "n": 100, "m": 100, "N": 500,
           "seed": 7, "repetitions": 3}
    path = tmp_path / "large.json"
    path.write_text(json.dumps(doc))
    unset = {k: v for k, v in package_env().items() if k not in BLAS_THREAD_VARIABLES}
    outputs = []
    for env in (unset, {**unset, "OPENBLAS_NUM_THREADS": "1"}):
        done = subprocess.run(
            [sys.executable, "-m", "msrom", "run", str(path), "--quiet"],
            capture_output=True, env=env, timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        outputs.append(done.stdout)
    assert outputs[0].count(b"\n") == 4 and outputs[0] == outputs[1]


def test_run_random_sweep_bound_holds(tmp_path):
    out = tmp_path / "sweep.csv"
    doc = {
        "mode": "random-sweep",
        "n_min": 3,
        "n_max": 6,
        "seed": 42,
        "repetitions": 8,
        "output_path": str(out),
    }
    assert run_experiment(parse_config(json.dumps(doc)), quiet=True) == 0
    rows = read_rows(out)
    assert len(rows) == 8
    for row in rows:
        assert float(row["actual_ms_error"]) <= float(row["ms_bound"]) + 1e-9
        assert row["ell"] == "inactive" or 1 <= int(row["ell"]) <= int(row["n"])
        if row["ell"] == "inactive":
            assert row["rho"] == ""
        assert row["converged"] == "true"
        assert int(row["N"]) == int(row["n"]) + int(row["m"]) + 3


@pytest.mark.parametrize(
    "doc",
    [
        {"mode": "example1", "tau": 1e-4, "n": 10, "m": 40, "N": 60, "seed": 0},
        {"mode": "example2", "tau": 1e-3, "n": 8, "m": 32, "N": 48, "seed": 0},
    ],
    ids=lambda doc: doc["mode"],
)
def test_bound_holds_with_many_more_tests_than_trial_directions(doc):
    cfg = parse_config(json.dumps(doc))
    for seed in range(100):
        problem, hierarchy, tests = _build_instance(cfg, seed)
        report, solution, _ = run_instance(problem, hierarchy, tests, SolverOptions())
        tau_n = float(hierarchy.distances[-1])
        assert solution.converged, seed
        assert report.actual_ms_error <= report.ms_bound, seed
        assert report.ms_bound**2 == pytest.approx(
            report.water_filling.sup_value + tau_n**2, rel=1e-12
        ), seed


def test_run_writes_stdout_without_path(capsys):
    cfg = parse_config(example1_doc())
    assert run_experiment(cfg, quiet=True) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(",".join(CSV_COLUMNS))


def test_run_summary_line(tmp_path, capsys):
    out = tmp_path / "o.csv"
    cfg = parse_config(example1_doc(output_path=str(out)))
    run_experiment(cfg)
    captured = capsys.readouterr()
    assert "rows=1" in captured.err
    assert "unconverged=0" in captured.err


def test_run_practitioner_mode(tmp_path):
    out = tmp_path / "p.csv"
    doc = {
        "mode": "prescribed",
        "n": 3,
        "m": 3,
        "N": 8,
        "seed": 5,
        "sigma": [0.9, 0.5, 0.25],
        "tau": [0.4, 0.2, 0.1, 0.05],
        "widths": [0.5, 0.3, 0.15, 0.08],
        "tau_mode": "practitioner",
        "output_path": str(out),
    }
    assert run_experiment(parse_config(json.dumps(doc)), quiet=True) == 0
    (row,) = read_rows(out)
    # the bound runs on the widths, the input tau is still reported
    assert float(row["tau_input"]) == 0.05
    assert float(row["tau_n"]) == 0.08
    assert float(row["ms_bound"]) >= 0.08


def test_exit_code_two_when_not_converged(tmp_path, monkeypatch):
    import msrom.cli as cli_module

    def stuck(assembly, options=None):
        n = assembly.hierarchy.n
        return MultiSliceSolution(
            point=np.zeros(assembly.hierarchy.basis.shape[0]),
            coeffs=np.zeros(n),
            cost=1.0,
            iterations=options.max_iterations if options else 0,
            converged=False,
            kkt_residual=1.0,
        )

    monkeypatch.setattr(cli_module, "solve_ms", stuck)
    out = tmp_path / "stuck.csv"
    cfg = parse_config(example1_doc(output_path=str(out)))
    assert run_experiment(cfg, quiet=True) == 2
    (row,) = read_rows(out)
    assert row["converged"] == "false"


def test_run_summary_counts_unconverged_rows(tmp_path, monkeypatch, capsys):
    # one Newton evaluation leaves most sweep instances uncertified
    import msrom.cli as cli_module

    monkeypatch.setattr(cli_module, "SolverOptions", lambda: SolverOptions(max_iterations=1))
    out = tmp_path / "capped.csv"
    doc = {"mode": "random-sweep", "n_min": 3, "n_max": 10, "seed": 2026, "repetitions": 10}
    cfg = parse_config(json.dumps(dict(doc, output_path=str(out))))
    assert run_experiment(cfg) == 2
    count = sum(row["converged"] == "false" for row in read_rows(out))
    assert 2 <= count < 10
    assert f"rows=10 unconverged={count} output=" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [3463, 6339, 6662])
def test_sweep_seeds_that_stalled_the_fallback_converge(tmp_path, seed):
    # with an inexact projection these solves ended on a stalled fallback
    out = tmp_path / "sweep.csv"
    doc = {"mode": "random-sweep", "n_min": 3, "n_max": 10, "seed": seed, "output_path": str(out)}
    cfg = parse_config(json.dumps(doc))
    assert run_experiment(cfg, quiet=True) == 0
    (row,) = read_rows(out)
    assert row["converged"] == "true"
    assert float(row["actual_ms_error"]) <= float(row["ms_bound"])


def run_through_main(tmp_path, doc):
    """``(exit code, rows)`` of ``msrom run`` on the config document."""
    cfg_path, out_path = tmp_path / "cfg.json", tmp_path / "out.csv"
    cfg_path.write_text(json.dumps(doc))
    code = main(["run", str(cfg_path), "--output", str(out_path), "--quiet"])
    return code, read_rows(out_path)


def test_main_zero_smallest_singular_value(tmp_path):
    # a square system with sigma_3 = 0, and a tall one (m = 5) with sigma_3 = 1e-13
    # against ||R||_2 = 1, which no checked-in config reaches
    square = {
        "mode": "prescribed", "n": 3, "m": 3, "N": 10, "sigma": [1.0, 0.5, 0.0],
        "tau": [0.8, 0.4, 0.2, 0.1], "widths": [1.0, 0.5, 0.3, 0.2], "seed": 3, "repetitions": 3,
    }
    tall = {
        "mode": "prescribed", "n": 3, "m": 5, "N": 11, "sigma": [1.0, 0.5, 1e-13],
        "tau": [0.5, 0.3, 0.2, 0.1], "widths": [0.6, 0.4, 0.25, 0.1], "seed": 1, "repetitions": 3,
    }
    for doc in (square, tall):
        code, rows = run_through_main(tmp_path, doc)
        first = (tmp_path / "out.csv").read_bytes()
        assert code == 0 and run_through_main(tmp_path, doc)[0] == 0
        assert (tmp_path / "out.csv").read_bytes() == first
        assert [r["seed"] for r in rows] == [str(doc["seed"] + i) for i in range(3)]
        for row in rows:
            # the system is singular: no classical bound and no classical solution
            assert row["babuska_bound"] == "undefined"
            assert row["actual_pg_error"] == "undefined"
            assert row["converged"] == "true"
            assert float(row["actual_ms_error"]) <= float(row["ms_bound"])


@pytest.mark.parametrize("sigma", [[0.0, 0.0], [1e-13, 0.0]])
def test_main_gram_zero_up_to_rounding_is_singular(tmp_path, sigma):
    # the Gram reads sigma of about 1e-16 (and 1e-13), which is rounding
    # against the representers' norm 1; measured against sigma_1, itself
    # rounding, these rows wrote babuska_bound near 1e16 and a PG error near 1e15
    doc = {
        "mode": "prescribed", "n": 2, "m": 2, "N": 6, "sigma": sigma,
        "tau": [0.5, 0.3, 0.2], "widths": [0.6, 0.4, 0.25], "seed": 1, "repetitions": 5,
    }
    code, rows = run_through_main(tmp_path, doc)
    assert code == 0
    assert [r["seed"] for r in rows] == ["1", "2", "3", "4", "5"]
    for row in rows:
        assert row["babuska_bound"] == "undefined"
        assert row["actual_pg_error"] == "undefined"
        # every singular value counts as zero: MS returns the origin, whose
        # error is the norm tau_0 of the truth
        assert row["ms_iterations"] == "0" and row["converged"] == "true"
        assert float(row["actual_ms_error"]) == pytest.approx(0.5, rel=1e-12)
        assert float(row["actual_ms_error"]) <= float(row["ms_bound"])


def test_main_zero_widths_confine_the_solution(tmp_path):
    # widths vanish from V_2 on and the truth lies in V_2: the bound is exactly 0,
    # and the realized error is 0 up to rounding
    doc = {
        "mode": "prescribed", "n": 4, "m": 5, "N": 14, "sigma": [1.0, 0.6, 0.4, 0.2],
        "tau": [0.8, 0.4, 0.0, 0.0, 0.0], "widths": [1.0, 0.5, 0.0, 0.0, 0.0],
        "seed": 3, "repetitions": 3,
    }
    code, rows = run_through_main(tmp_path, doc)
    assert code == 0
    for row in rows:
        assert row["ms_bound"] == "0.0"
        assert row["ms_iterations"] == "0"
        assert row["converged"] == "true"
        assert float(row["actual_ms_error"]) <= float(row["ms_bound"]) + 1e-12 * doc["tau"][0]


@pytest.mark.parametrize(
    "doc",
    [
        {"mode": "example2", "tau": 0.1, "n": 2, "N": 12, "seed": 0, "repetitions": 50},
        {
            "mode": "prescribed", "n": 4, "m": 4, "N": 12, "sigma": [0.5, 0.5, 0.5, 0.5],
            "tau": [0.8, 0.4, 0.2, 0.1, 0.05], "widths": [1.0, 0.5, 0.3, 0.2, 0.1],
            "seed": 3, "repetitions": 20,
        },
    ],
    ids=["example2-n2", "prescribed-flat-half"],
)
def test_main_quotient_bound_holds_with_sigma_1_below_one(tmp_path, doc):
    # sigma_1 < 1 = ||R||: the quotient bound's constant is the norm of the
    # (orthonormal) representers, so it reads tau_n / sigma_n
    code, rows = run_through_main(tmp_path, doc)
    assert code == 0
    assert len(rows) == doc["repetitions"]
    for row in rows:
        assert float(row["sigma_1"]) < 0.6
        assert float(row["actual_pg_error"]) <= float(row["babuska_bound"]), row["seed"]
        assert float(row["babuska_bound"]) == pytest.approx(
            float(row["tau_n"]) / float(row["sigma_n"]), rel=1e-12
        )
        assert float(row["actual_ms_error"]) <= float(row["ms_bound"]), row["seed"]


def test_run_instance_known_tau_needs_distances():
    cfg = parse_config(example1_doc())
    problem, known, tests = _build_instance(cfg, cfg.seed)
    # every hierarchy carries its distances: one without them is not built
    with pytest.raises(TypeError, match="distances"):
        SubspaceHierarchy(known.basis, widths=known.widths)
    hierarchy = SubspaceHierarchy(known.basis, widths=known.widths, distances=known.distances)
    # a library call, not a config: ms_bound's ValueError for an unknown mode
    with pytest.raises(ValueError, match="tau_mode must be"):
        run_instance(problem, known, tests, SolverOptions(), "exact")
    report, _, _ = run_instance(problem, hierarchy, tests, SolverOptions(), "practitioner")
    assembly = msrom.assemble(problem, hierarchy, tests)
    assert report.ms_bound == msrom.ms_bound(assembly, "practitioner").ms_bound


# ------------------------------------------------------------------ CLI shell


def test_main_validate_and_run(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    out_path = tmp_path / "cli.csv"
    cfg_path.write_text(example1_doc())
    assert main(["validate", str(cfg_path)]) == 0
    assert capsys.readouterr().out.strip() == "ok"
    assert main(["run", str(cfg_path), "--output", str(out_path), "--quiet"]) == 0
    assert out_path.exists()
    assert read_rows(out_path)[0]["mode"] == "example1"


def test_main_reports_missing_file(capsys):
    assert main(["run", "/no/such/config.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_main_reports_unwritable_output(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(example1_doc())
    out_path = tmp_path / "no-such-dir" / "out.csv"
    assert main(["run", str(cfg_path), "--output", str(out_path), "--quiet"]) == 1
    assert "error" in capsys.readouterr().err
    assert not out_path.exists()


def test_run_into_a_missing_directory_builds_no_instance(tmp_path, monkeypatch, capsys):
    # the destination opens before the first instance, not after the last
    built = []
    monkeypatch.setattr("msrom.cli._build_instance", lambda cfg, seed: built.append(seed))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(example1_doc(repetitions=60))
    out_path = tmp_path / "no-such-dir" / "out.csv"
    assert main(["run", str(cfg_path), "--output", str(out_path), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")
    assert built == []


def test_run_keeps_the_rows_before_a_failure(tmp_path, monkeypatch):
    # each row is written as it is formed: a run stopped at repetition 3
    # leaves the header and the two finished rows
    import msrom.cli as cli_module

    def build(cfg, seed):
        if seed == cfg.seed + 2:
            raise RuntimeError("stopped")
        return real(cfg, seed)

    real = cli_module._build_instance
    monkeypatch.setattr(cli_module, "_build_instance", build)
    out = tmp_path / "partial.csv"
    cfg = parse_config(example1_doc(output_path=str(out), repetitions=5))
    with pytest.raises(RuntimeError, match="stopped"):
        run_experiment(cfg, quiet=True)
    assert [row["seed"] for row in read_rows(out)] == ["7", "8"]


def test_validate_refuses_an_empty_output_path(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    for value in ("", 3):
        cfg_path.write_text(example1_doc(output_path=value))
        assert main(["validate", str(cfg_path)]) == 1
        assert capsys.readouterr().err == "error: field 'output_path' must be a non-empty string\n"
    # `run --output ''` meets the same rule, over the document's destination
    # or stdout, and writes nothing
    for doc in (example1_doc(), example1_doc(output_path=str(tmp_path / "out.csv"))):
        cfg_path.write_text(doc)
        assert main(["run", str(cfg_path), "--output", ""]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: field 'output_path' must be a non-empty string\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_main_reports_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text("{oops")
    assert main(["run", str(cfg_path)] ) == 1
    assert "error" in capsys.readouterr().err
    cfg_path.write_text(json.dumps({"mode": "bogus"}))
    assert main(["validate", str(cfg_path)]) == 1
    # the removed run inputs: a solver block and a random sweep's N
    sweep = {"mode": "random-sweep", "n_min": 3, "n_max": 4, "seed": 0}
    for doc in (json.loads(example1_doc(solver={"max_iterations": 5})), dict(sweep, N=30)):
        cfg_path.write_text(json.dumps(doc))
        for command in ("validate", "run"):
            assert main([command, str(cfg_path)]) == 1
            assert "unknown field(s)" in capsys.readouterr().err


def test_main_reports_undecodable_config(tmp_path, capsys):
    # a file that is not UTF-8 is refused like an unreadable one, without a traceback
    cfg_path = tmp_path / "latin.json"
    cfg_path.write_bytes(b'\xff\xfe{"mode":1}')
    for command in ("validate", "run"):
        assert main([command, str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode byte 0xff")


def test_main_has_only_run_and_validate(capsys):
    # the enumeration oracle is a test helper, not a command
    with pytest.raises(SystemExit) as exit_info:
        main(["oracle", "3", "11"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'oracle'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert "{run,validate}" in capsys.readouterr().out
