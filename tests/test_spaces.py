import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import complement_frame, mgs_orthonormalize, random_spd
from msrom import (
    OrthonormalFrame,
    orthonormalize,
    synth_prescribed,
)


def frame_gram(frame):
    return frame.columns.T @ frame.columns


def in_metric(M, N=None):
    """A one-direction instance of ``synth_prescribed`` in R^N (N = len(M) by
    default, at least 2) with the metric M."""
    N = len(M) if N is None else N
    return synth_prescribed(1, 1, N, [1.0], np.eye(1), [1.0, 0.5], [1.0, 0.5], 0, metric=M)


def image(V, M):
    """The columns of V, written in the metric M = L L^T, in orthonormal coordinates: L^T V."""
    return np.linalg.cholesky(M).T @ V


def test_metric_must_be_symmetric():
    M = np.eye(3)
    M[0, 1] = 0.5
    with pytest.raises(ValueError, match="^metric must be symmetric$"):
        in_metric(M)


def test_metric_must_be_positive_definite():
    with pytest.raises(ValueError, match="^metric must be positive definite$"):
        in_metric(np.diag([1.0, -1.0]))


def test_metric_must_not_be_only_semidefinite():
    with pytest.raises(ValueError, match="positive definite"):
        in_metric(np.diag([1.0, 0.0]))


def nan_off_diagonal_pair():
    M = np.eye(3)
    M[0, 1] = M[1, 0] = np.nan
    return M


@pytest.mark.parametrize(
    "M",
    [
        np.full((3, 3), np.nan),
        np.diag([1.0, np.nan, 1.0]),
        np.diag([1.0, np.inf, 1.0]),
        nan_off_diagonal_pair(),
    ],
    ids=["all-nan", "nan-diagonal", "inf-diagonal", "nan-off-diagonal-pair"],
)
def test_metric_must_be_finite(M):
    # numpy's cholesky returns NaN factors for these instead of raising
    with pytest.raises(ValueError, match="finite"):
        in_metric(M)


def test_zero_metric_is_not_positive_definite():
    with pytest.raises(ValueError, match="positive definite"):
        in_metric(np.zeros((3, 3)))


def test_nearly_symmetric_metric_is_symmetrized():
    rng = np.random.default_rng(22)
    M = random_spd(rng, 6)
    S = rng.standard_normal((6, 6))
    skewed = M + 1e-14 * np.max(np.abs(M)) * (S - S.T)
    assert not np.array_equal(skewed, skewed.T)
    (problem, hierarchy, _), (sym_problem, sym_hierarchy, _) = (
        in_metric(A) for A in (skewed, 0.5 * (skewed + skewed.T))
    )
    assert np.array_equal(hierarchy.basis.columns, sym_hierarchy.basis.columns)
    assert np.array_equal(problem.z_true, sym_problem.z_true)
    assert all(map(np.array_equal, problem.factors, sym_problem.factors))


def test_orthonormalize_identity_columns_unchanged():
    frame = orthonormalize(np.eye(3))
    assert np.allclose(frame.columns, np.eye(3))


def test_orthonormalize_forced_order():
    # Gram-Schmidt on [(1,0), (1,1)] has only one possible answer
    frame = orthonormalize(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert np.allclose(frame.columns, np.eye(2), atol=1e-14)


def test_orthonormalize_random_metric():
    # the image of M-independent vectors is orthonormalized, and mapped back by
    # L^-T its frame is M-orthonormal
    rng = np.random.default_rng(1)
    M = random_spd(rng, 8)
    frame = orthonormalize(image(rng.standard_normal((8, 5)), M))
    assert np.max(np.abs(frame_gram(frame) - np.eye(5))) <= 1e-10
    back = np.linalg.solve(np.linalg.cholesky(M).T, frame.columns)
    assert np.max(np.abs(back.T @ M @ back - np.eye(5))) <= 1e-10


def test_orthonormalize_rejects_dependent_input():
    v = np.array([1.0, 2.0, 0.0])
    with pytest.raises(ValueError, match="input vector 1 is numerically dependent"):
        orthonormalize(np.column_stack([v, 2.0 * v]))


@pytest.mark.parametrize("with_metric", [False, True])
def test_orthonormalize_matches_gram_schmidt_reference(with_metric):
    # with a metric M = L L^T, orthonormalizing the image L^T V gives the image
    # of the metric Gram-Schmidt of V: x -> L^T x is an isometry
    rng = np.random.default_rng(7 if with_metric else 8)
    for _ in range(20):
        N = int(rng.integers(1, 13))
        k = int(rng.integers(1, N + 1))
        M = random_spd(rng, N) if with_metric else np.eye(N)
        V = rng.standard_normal((N, k)) * float(rng.uniform(0.1, 10.0))
        frame = orthonormalize(image(V, M))
        assert np.max(np.abs(frame.columns - image(mgs_orthonormalize(V, M), M))) <= 1e-12


@pytest.mark.parametrize("spread,tol", [(4.0, 1e-13), (1e2, 1e-13), (1e4, 1e-10), (1e6, 1e-8)])
def test_orthonormalize_ill_conditioned_metric(spread, tol):
    # cond(M) = spread^2, and cond(L^T V) up to spread times cond(V); the
    # Householder QR of the image stays orthonormal to rounding, and the
    # metric Gram-Schmidt oracle loses up to cond(M) eps
    rng = np.random.default_rng(11)
    N, k = 60, 20
    M = random_spd(rng, N, spread=spread)
    V = rng.standard_normal((N, k))
    Q = orthonormalize(image(V, M)).columns
    assert np.max(np.abs(frame_gram(OrthonormalFrame(Q)) - np.eye(k))) <= 1e-13
    assert np.max(np.abs(Q - image(mgs_orthonormalize(V, M), M))) <= tol * np.max(np.abs(Q))


@pytest.mark.parametrize("with_metric", [False, True])
def test_orthonormalize_near_dependence(with_metric):
    # a column 1e-9 (relative) off its predecessor is independent, one 1e-12
    # off is not: RANK_TOL = 1e-10 sits between them, also for the image of
    # the columns in a metric
    rng = np.random.default_rng(12)
    N = 9
    M = random_spd(rng, N) if with_metric else np.eye(N)
    a, b, e = rng.standard_normal((3, N))
    e /= np.linalg.norm(e)
    close = np.column_stack([a, b, b + 1e-9 * np.linalg.norm(b) * e])
    frame = orthonormalize(image(close, M))
    assert np.max(np.abs(frame_gram(frame) - np.eye(3))) <= 1e-12
    with pytest.raises(ValueError, match="input vector 2 "):
        orthonormalize(image(np.column_stack([a, b, b + 1e-12 * np.linalg.norm(b) * e]), M))


def test_orthonormalize_euclidean_is_signed_householder_qr():
    rng = np.random.default_rng(13)
    V = rng.standard_normal((30, 12))
    Q, R = np.linalg.qr(V)
    Q *= np.where(np.diag(R) < 0.0, -1.0, 1.0)
    assert np.array_equal(orthonormalize(V).columns, Q)


def test_orthonormalize_reports_first_dependent_index():
    rng = np.random.default_rng(9)
    a, b, c = rng.standard_normal((3, 5))
    with pytest.raises(ValueError, match="input vector 2 "):
        orthonormalize(np.column_stack([a, b, a + b, c]))


def test_orthonormalize_rejects_more_vectors_than_dimensions():
    rng = np.random.default_rng(10)
    with pytest.raises(ValueError, match=r"\(4 vectors in R\^3\)"):
        orthonormalize(rng.standard_normal((3, 4)))


def test_orthonormalize_no_vectors_gives_empty_frame():
    frame = orthonormalize(np.zeros((4, 0)))
    assert frame.n_columns == 0
    assert frame.columns.shape == (4, 0)


def test_orthonormalize_preserves_span():
    rng = np.random.default_rng(2)
    V = rng.standard_normal((6, 3))
    Q = orthonormalize(V).columns
    # every input vector projects onto the frame with zero residual
    residuals = np.linalg.norm(V - Q @ (Q.T @ V), axis=0)
    assert np.all(residuals <= 1e-10 * np.linalg.norm(V, axis=0))


def test_complement_of_e1_in_r3():
    frame = orthonormalize(np.eye(3)[:, :1])
    comp = complement_frame(frame)
    assert comp.n_columns == 2
    # projector onto the complement equals the projector onto span{e2, e3}
    P = comp.columns @ comp.columns.T
    assert np.allclose(P, np.diag([0.0, 1.0, 1.0]), atol=1e-12)


def test_complement_involution_at_projector_level():
    rng = np.random.default_rng(4)
    frame = orthonormalize(rng.standard_normal((6, 2)))
    twice = complement_frame(complement_frame(frame))
    P_orig = frame.columns @ frame.columns.T
    P_twice = twice.columns @ twice.columns.T
    assert np.max(np.abs(P_orig - P_twice)) <= 1e-10


def test_complement_concatenation_is_full_basis():
    rng = np.random.default_rng(5)
    frame = orthonormalize(rng.standard_normal((7, 3)))
    comp = complement_frame(frame)
    assert comp.n_columns == 4
    full = np.hstack([frame.columns, comp.columns])
    assert np.max(np.abs(full.T @ full - np.eye(7))) <= 1e-9


def test_complement_of_full_space_is_empty():
    frame = orthonormalize(np.eye(3))
    comp = complement_frame(frame)
    assert comp.n_columns == 0
    assert comp.columns.shape == (3, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_projector_sum_is_identity(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(2, 8))
    k = int(rng.integers(1, N))
    frame = orthonormalize(rng.standard_normal((N, k)))
    comp = complement_frame(frame)
    P = frame.columns @ frame.columns.T + comp.columns @ comp.columns.T
    assert np.max(np.abs(P - np.eye(N))) <= 1e-9


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: in_metric(np.eye(2), N=3), "^metric must be 3x3, got \\(2, 2\\)$"),
        (lambda: OrthonormalFrame(np.ones(3)), r"columns must have shape \(N, k\)"),
        (lambda: orthonormalize(np.ones((3, 2, 2))), "2-d array of columns"),
    ],
    ids=[
        "metric-shape",
        "frame-one-dimensional",
        "orthonormalize-three-dimensional",
    ],
)
def test_shape_checks(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_orthonormalize_single_vector():
    # one vector is one column; a 1-d array is refused, not read as a column
    frame = orthonormalize(np.array([[3.0], [0.0], [-4.0]]))
    assert frame.columns.shape == (3, 1)
    assert np.allclose(frame.columns[:, 0], [0.6, 0.0, -0.8], atol=1e-15)
    with pytest.raises(ValueError, match="2-d array of columns"):
        orthonormalize(np.array([3.0, 0.0, -4.0]))
