"""Every entry point refuses a non-finite width, distance, fill input, singular
value, point, vector, frame column, truth or operator factor, at its own check
and without a warning on the way; the test helper's enumeration oracle refuses
non-finite fill inputs as well."""

import json
import warnings

import numpy as np
import pytest

from helpers import sup_oracle
from msrom import (
    GramDecomposition,
    OrthonormalFrame,
    ProblemInstance,
    SubspaceHierarchy,
    ValidationError,
    orthonormalize,
    parse_config,
    project_slices,
    synth_prescribed,
    water_filling,
)
from msrom.problems import check_profile

WIDTHS = np.array([1.0, 0.6, 0.3, 0.2])
TAU = np.array([0.8, 0.4, 0.2, 0.1])
BASIS = OrthonormalFrame(np.eye(4)[:, :3])
DELTA, SIGMA = np.array([1.0, 1.0]), np.array([1.0, 0.5])
# the two factors of an operator and the truth of a problem on R^4
FACTOR, TRUTH = np.arange(8.0).reshape(4, 2), np.ones(4)


def spoiled(good, bad):
    """``good`` with ``bad`` at the head, inside, at the tail and everywhere."""
    out = []
    for index in (0, 1, -1, slice(None)):
        v = np.array(good, dtype=float)
        v[index] = bad
        out.append(v)
    return out


def prescribed(tau, widths):
    return synth_prescribed(3, 3, 9, [1.0, 0.5, 0.2], np.eye(3), tau, widths, 1)


def config(tau, widths):
    """A prescribed config's text, with an infinite entry written as the literal
    1e999, which Python's JSON parser reads as inf (NaN stays the literal NaN)."""
    doc = {"mode": "prescribed", "n": 3, "m": 3, "N": 9, "seed": 1, "sigma": [1.0, 0.5, 0.2]}
    doc.update(tau=np.asarray(tau).tolist(), widths=np.asarray(widths).tolist())
    return json.dumps(doc).replace("Infinity", "1e999")


# name -> (the good input, the call on a spoiled copy, the exception it raises,
# a fragment of the refusing check's message)
WIDTHS_REFUSED = (ValueError, "widths entries must be")
TAU_REFUSED = (ValueError, "tau entries must be")
FILL_REFUSED = (ValueError, "delta and sigma entries must be finite and nonnegative")
ORACLE_REFUSED = (ValueError, "must be finite and nonnegative")
CONFIG_REFUSED = (ValidationError, "non-finite number is not allowed")
PROBLEM_REFUSED = (ValueError, "factors and z_true must have finite entries")
ENTRY_POINTS = {
    "hierarchy-widths": (
        WIDTHS, lambda v: SubspaceHierarchy(BASIS, widths=v, distances=TAU), *WIDTHS_REFUSED
    ),
    "hierarchy-distances": (
        TAU, lambda v: SubspaceHierarchy(BASIS, widths=WIDTHS, distances=v), *TAU_REFUSED
    ),
    "check_profile-widths": (WIDTHS, lambda v: check_profile(3, v, TAU), *WIDTHS_REFUSED),
    "check_profile-tau": (TAU, lambda v: check_profile(3, WIDTHS, v), *TAU_REFUSED),
    "project_slices-widths": (WIDTHS, lambda v: project_slices(np.ones(3), v), *WIDTHS_REFUSED),
    "synth_prescribed-widths": (WIDTHS, lambda v: prescribed(TAU, v), *WIDTHS_REFUSED),
    "synth_prescribed-tau": (TAU, lambda v: prescribed(v, WIDTHS), *TAU_REFUSED),
    "parse_config-widths": (WIDTHS, lambda v: parse_config(config(TAU, v)), *CONFIG_REFUSED),
    "parse_config-tau": (TAU, lambda v: parse_config(config(v, WIDTHS)), *CONFIG_REFUSED),
    "water_filling-delta": (DELTA, lambda v: water_filling(v, SIGMA, 0.04), *FILL_REFUSED),
    "water_filling-sigma": (SIGMA, lambda v: water_filling(DELTA, v, 0.04), *FILL_REFUSED),
    "sup_oracle-delta": (DELTA, lambda v: sup_oracle(v, SIGMA, 0.04), *ORACLE_REFUSED),
    "sup_oracle-sigma": (SIGMA, lambda v: sup_oracle(DELTA, v, 0.04), *ORACLE_REFUSED),
    "decomposition-sigma": (
        SIGMA,
        lambda v: GramDecomposition(G=np.ones((3, 2)), U=np.eye(3), X=np.eye(2), sigma=v),
        ValueError,
        "singular values must be finite",
    ),
    "project_slices-point": (
        np.ones(3), lambda v: project_slices(v, WIDTHS), ValueError, "c entries must be finite"
    ),
    "orthonormalize-vectors": (
        BASIS.columns,
        orthonormalize,
        ValueError,
        "vectors must have finite entries",
    ),
    "frame-columns": (
        BASIS.columns,
        OrthonormalFrame,
        ValueError,
        "columns must have finite entries",
    ),
    "problem-z_true": (
        TRUTH, lambda v: ProblemInstance(v, factors=(FACTOR, FACTOR)), *PROBLEM_REFUSED
    ),
    "problem-factors": (
        FACTOR, lambda v: ProblemInstance(TRUTH, factors=(v, FACTOR)), *PROBLEM_REFUSED
    ),
    "problem-factors-MZ": (
        FACTOR, lambda v: ProblemInstance(TRUTH, factors=(FACTOR, v)), *PROBLEM_REFUSED
    ),
}


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_finite_entries_are_refused(entry, bad):
    good, call, kind, message = ENTRY_POINTS[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(good)
        for v in spoiled(good, bad):
            with pytest.raises(kind, match=message):
                call(v)


@pytest.mark.parametrize(
    "point", [[1e200, 1.0], [1.0, -1e200], [1e154, 1e154, 1e154]], ids=["head", "tail", "sum"]
)
def test_project_slices_refuses_a_point_whose_squares_overflow(point):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="sum of their squares"):
            project_slices(point, np.ones(len(point) + 1))
