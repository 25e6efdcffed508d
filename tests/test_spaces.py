import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import complement_frame, mgs_orthonormalize, random_spd
from msrom import (
    ProblemInstance,
    SubspaceHierarchy,
    assemble,
    orthonormalize,
    synth_prescribed,
)
from msrom.spaces import ORTHONORMAL_TOL


def frame_gram(frame):
    return frame.T @ frame


def in_metric(M, N=None):
    """A one-direction instance of ``synth_prescribed`` in R^N (N = len(M) by
    default, at least 2) with the metric M."""
    N = len(M) if N is None else N
    return synth_prescribed(1, 1, N, [1.0], np.eye(1), [1.0, 0.5], [1.0, 0.5], 0, metric=M)


def image(V, M):
    """The columns of V, written in the metric M = L L^T, in orthonormal coordinates: L^T V."""
    return np.linalg.cholesky(M).T @ V


def hierarchy_on(basis):
    """A hierarchy on ``basis``, whose widths and distances fit any number of columns."""
    n = np.shape(basis)[-1]
    return SubspaceHierarchy(basis, widths=np.ones(n + 1), distances=np.zeros(n + 1))


def assemble_with(tests):
    """``assemble`` on a valid problem and hierarchy in R^4, tested against ``tests``."""
    problem = ProblemInstance(np.ones(4), factors=(np.eye(4), np.eye(4)))
    return assemble(problem, hierarchy_on(np.eye(4)[:, :2]), tests)


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
    assert np.array_equal(hierarchy.basis, sym_hierarchy.basis)
    assert np.array_equal(problem.z_true, sym_problem.z_true)
    assert all(map(np.array_equal, problem.factors, sym_problem.factors))


def test_orthonormalize_identity_columns_unchanged():
    frame = orthonormalize(np.eye(3))
    assert np.allclose(frame, np.eye(3))


def test_orthonormalize_forced_order():
    # Gram-Schmidt on [(1,0), (1,1)] has only one possible answer
    frame = orthonormalize(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert np.allclose(frame, np.eye(2), atol=1e-14)


def test_orthonormalize_random_metric():
    # the image of M-independent vectors is orthonormalized, and mapped back by
    # L^-T its frame is M-orthonormal
    rng = np.random.default_rng(1)
    M = random_spd(rng, 8)
    frame = orthonormalize(image(rng.standard_normal((8, 5)), M))
    assert np.max(np.abs(frame_gram(frame) - np.eye(5))) <= 1e-10
    back = np.linalg.solve(np.linalg.cholesky(M).T, frame)
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
        assert np.max(np.abs(frame - image(mgs_orthonormalize(V, M), M))) <= 1e-12


@pytest.mark.parametrize("spread,tol", [(4.0, 1e-13), (1e2, 1e-13), (1e4, 1e-10), (1e6, 1e-8)])
def test_orthonormalize_ill_conditioned_metric(spread, tol):
    # cond(M) = spread^2, and cond(L^T V) up to spread times cond(V); the
    # Householder QR of the image stays orthonormal to rounding, and the
    # metric Gram-Schmidt oracle loses up to cond(M) eps
    rng = np.random.default_rng(11)
    N, k = 60, 20
    M = random_spd(rng, N, spread=spread)
    V = rng.standard_normal((N, k))
    Q = orthonormalize(image(V, M))
    assert np.max(np.abs(frame_gram(Q) - np.eye(k))) <= 1e-13
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
    assert np.array_equal(orthonormalize(V), Q)


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
    assert frame.shape == (4, 0)


def test_orthonormalize_preserves_span():
    rng = np.random.default_rng(2)
    V = rng.standard_normal((6, 3))
    Q = orthonormalize(V)
    # every input vector projects onto the frame with zero residual
    residuals = np.linalg.norm(V - Q @ (Q.T @ V), axis=0)
    assert np.all(residuals <= 1e-10 * np.linalg.norm(V, axis=0))


def test_complement_of_e1_in_r3():
    frame = orthonormalize(np.eye(3)[:, :1])
    comp = complement_frame(frame)
    assert comp.shape[1] == 2
    # projector onto the complement equals the projector onto span{e2, e3}
    P = comp @ comp.T
    assert np.allclose(P, np.diag([0.0, 1.0, 1.0]), atol=1e-12)


def test_complement_involution_at_projector_level():
    rng = np.random.default_rng(4)
    frame = orthonormalize(rng.standard_normal((6, 2)))
    twice = complement_frame(complement_frame(frame))
    P_orig = frame @ frame.T
    P_twice = twice @ twice.T
    assert np.max(np.abs(P_orig - P_twice)) <= 1e-10


def test_complement_concatenation_is_full_basis():
    rng = np.random.default_rng(5)
    frame = orthonormalize(rng.standard_normal((7, 3)))
    comp = complement_frame(frame)
    assert comp.shape[1] == 4
    full = np.hstack([frame, comp])
    assert np.max(np.abs(full.T @ full - np.eye(7))) <= 1e-9


def test_complement_of_full_space_is_empty():
    frame = orthonormalize(np.eye(3))
    comp = complement_frame(frame)
    assert comp.shape == (3, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_projector_sum_is_identity(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(2, 8))
    k = int(rng.integers(1, N))
    frame = orthonormalize(rng.standard_normal((N, k)))
    comp = complement_frame(frame)
    P = frame @ frame.T + comp @ comp.T
    assert np.max(np.abs(P - np.eye(N))) <= 1e-9


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: in_metric(np.eye(2), N=3), "^metric must be 3x3, got \\(2, 2\\)$"),
        (lambda: hierarchy_on(np.ones(3)), r"^the trial frame must be an \(N, k\) array"),
        (lambda: assemble_with(np.ones(3)), r"^the test frame must be an \(N, k\) array"),
        (lambda: orthonormalize(np.ones((3, 2, 2))), "2-d array of columns"),
    ],
    ids=[
        "metric-shape",
        "frame-one-dimensional",
        "test-frame-one-dimensional",
        "orthonormalize-three-dimensional",
    ],
)
def test_shape_checks(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_orthonormalize_single_vector():
    # one vector is one column; a 1-d array is refused, not read as a column
    frame = orthonormalize(np.array([[3.0], [0.0], [-4.0]]))
    assert frame.shape == (3, 1)
    assert np.allclose(frame[:, 0], [0.6, 0.0, -0.8], atol=1e-15)
    with pytest.raises(ValueError, match="2-d array of columns"):
        orthonormalize(np.array([3.0, 0.0, -4.0]))


def sheared(k, shear):
    """The first k coordinate directions of R^4 with column 1 tilted by ``shear``
    towards column 0: unit norms, and columns 0 and 1 at inner product ``shear``."""
    W = np.eye(4)[:, :k]
    W[:, 1] = np.sqrt(1.0 - shear**2) * W[:, 1] + shear * W[:, 0]
    return W


@pytest.mark.parametrize(
    "frame",
    [2.0 * np.eye(4)[:, :2], sheared(2, 0.1), sheared(3, 1e-9), np.ones((4, 2)) / 2.0],
    ids=["scaled", "sheared", "barely-sheared", "parallel"],
)
def test_frames_must_be_orthonormal(frame):
    # gamma reads the complement of the trial span and the slice widths read
    # tail norms of coefficients, both only right for orthonormal columns
    with pytest.raises(ValueError, match="^the trial frame must have finite, orthonormal columns$"):
        hierarchy_on(frame)
    with pytest.raises(ValueError, match="^the test frame must have finite, orthonormal columns$"):
        assemble_with(frame)


def test_frame_tolerance_and_the_callers_array():
    # a Gram off the identity by a tenth of ORTHONORMAL_TOL passes, by ten
    # times it fails; an accepted float array is kept, not copied
    close = sheared(2, 0.1 * ORTHONORMAL_TOL)
    assert hierarchy_on(close).basis is close
    assemble_with(close)
    with pytest.raises(ValueError, match="orthonormal columns"):
        hierarchy_on(sheared(2, 10.0 * ORTHONORMAL_TOL))
