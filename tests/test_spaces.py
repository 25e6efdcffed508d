import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import complement_frame, mgs_orthonormalize, random_spd
from msrom import (
    AmbientSpace,
    OrthonormalFrame,
    RankDeficient,
    orthonormalize,
    project,
)


def frame_gram(frame):
    M = frame.space.metric if frame.space.metric is not None else np.eye(frame.space.dim)
    return frame.columns.T @ M @ frame.columns


def test_metric_must_be_symmetric():
    M = np.eye(3)
    M[0, 1] = 0.5
    with pytest.raises(ValueError):
        AmbientSpace(3, M)


def test_metric_must_be_positive_definite():
    with pytest.raises(ValueError):
        AmbientSpace(2, np.diag([1.0, -1.0]))


def test_metric_must_not_be_only_semidefinite():
    with pytest.raises(ValueError, match="positive definite"):
        AmbientSpace(2, np.diag([1.0, 0.0]))


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
        AmbientSpace(3, M)


def test_zero_metric_is_not_positive_definite():
    with pytest.raises(ValueError, match="positive definite"):
        AmbientSpace(3, np.zeros((3, 3)))


def test_exactly_symmetric_metric_is_kept_as_a_private_copy():
    B = np.random.default_rng(21).standard_normal((6, 6))
    M = B @ B.T / 6 + np.eye(6)  # the metric workload's form
    assert np.array_equal(M, M.T)
    space = AmbientSpace(6, M)
    assert space.metric is not M
    assert np.array_equal(space.metric, M)
    # the symmetrization it skips would return M bit for bit
    assert np.array_equal(space.cholesky, np.linalg.cholesky(0.5 * (M + M.T)))
    kept = M.copy()
    M[0, 0] = 1e6
    assert np.array_equal(space.metric, kept)


def test_nearly_symmetric_metric_is_symmetrized():
    rng = np.random.default_rng(22)
    M = random_spd(rng, 6)
    S = rng.standard_normal((6, 6))
    skewed = M + 1e-14 * np.max(np.abs(M)) * (S - S.T)
    assert not np.array_equal(skewed, skewed.T)
    space = AmbientSpace(6, skewed)
    assert np.array_equal(space.metric, 0.5 * (skewed + skewed.T))


@pytest.mark.parametrize("with_metric", [False, True])
def test_metric_image_is_formed_once(with_metric):
    rng = np.random.default_rng(23)
    space = AmbientSpace(7, random_spd(rng, 7) if with_metric else None)
    frame = orthonormalize(rng.standard_normal((7, 3)), space)
    image = frame.metric_image
    assert frame.metric_image is image
    if with_metric:
        assert np.array_equal(image, space.metric @ frame.columns)
    else:
        assert image is frame.columns


def test_metric_cholesky_factor():
    rng = np.random.default_rng(6)
    M = random_spd(rng, 5)
    L = AmbientSpace(5, M).cholesky
    assert np.allclose(L, np.tril(L))
    assert np.max(np.abs(L @ L.T - M)) <= 1e-12 * np.max(np.abs(M))
    assert AmbientSpace(5).cholesky is None


def test_norm_zero_only_at_zero():
    rng = np.random.default_rng(0)
    space = AmbientSpace(4, random_spd(rng, 4))
    assert space.norm(np.zeros(4)) == 0.0
    v = rng.standard_normal(4)
    assert space.norm(v) > 0.0


def test_orthonormalize_identity_columns_unchanged():
    space = AmbientSpace(3)
    frame = orthonormalize(np.eye(3), space)
    assert np.allclose(frame.columns, np.eye(3))


def test_orthonormalize_forced_order():
    # Gram-Schmidt on [(1,0), (1,1)] has only one possible answer
    space = AmbientSpace(2)
    frame = orthonormalize([np.array([1.0, 0.0]), np.array([1.0, 1.0])], space)
    assert np.allclose(frame.columns, np.eye(2), atol=1e-14)


def test_orthonormalize_random_metric():
    rng = np.random.default_rng(1)
    space = AmbientSpace(8, random_spd(rng, 8))
    frame = orthonormalize(rng.standard_normal((8, 5)), space)
    assert np.max(np.abs(frame_gram(frame) - np.eye(5))) <= 1e-10


def test_orthonormalize_rejects_dependent_input():
    space = AmbientSpace(3)
    v = np.array([1.0, 2.0, 0.0])
    with pytest.raises(RankDeficient):
        orthonormalize([v, 2.0 * v], space)


@pytest.mark.parametrize("with_metric", [False, True])
def test_orthonormalize_matches_gram_schmidt_reference(with_metric):
    rng = np.random.default_rng(7 if with_metric else 8)
    for _ in range(20):
        N = int(rng.integers(1, 13))
        k = int(rng.integers(1, N + 1))
        space = AmbientSpace(N, random_spd(rng, N) if with_metric else None)
        V = rng.standard_normal((N, k)) * float(rng.uniform(0.1, 10.0))
        frame = orthonormalize(V, space)
        assert np.max(np.abs(frame.columns - mgs_orthonormalize(V, space))) <= 1e-12


@pytest.mark.parametrize("spread,tol", [(4.0, 1e-13), (1e2, 1e-13), (1e4, 1e-10), (1e6, 1e-8)])
def test_orthonormalize_ill_conditioned_metric(spread, tol):
    # cond(M) = spread^2; the k x k Gram of the Householder factor is no worse
    rng = np.random.default_rng(11)
    N, k = 60, 20
    space = AmbientSpace(N, random_spd(rng, N, spread=spread))
    V = rng.standard_normal((N, k))
    Q = orthonormalize(V, space).columns
    assert np.max(np.abs(frame_gram(OrthonormalFrame(space, Q)) - np.eye(k))) <= tol
    assert np.max(np.abs(Q - mgs_orthonormalize(V, space))) <= tol * np.max(np.abs(Q))


@pytest.mark.parametrize("with_metric", [False, True])
def test_orthonormalize_near_dependence(with_metric):
    # a column 1e-9 (relative) off its predecessor is independent, one 1e-12
    # off is not: RANK_TOL = 1e-10 sits between them
    rng = np.random.default_rng(12)
    N = 9
    space = AmbientSpace(N, random_spd(rng, N) if with_metric else None)
    a, b, e = rng.standard_normal((3, N))
    e /= np.linalg.norm(e)
    close = [a, b, b + 1e-9 * np.linalg.norm(b) * e]
    frame = orthonormalize(close, space)
    assert np.max(np.abs(frame_gram(frame) - np.eye(3))) <= 1e-12
    with pytest.raises(RankDeficient, match="input vector 2 "):
        orthonormalize([a, b, b + 1e-12 * np.linalg.norm(b) * e], space)


def test_orthonormalize_euclidean_is_signed_householder_qr():
    rng = np.random.default_rng(13)
    V = rng.standard_normal((30, 12))
    Q, R = np.linalg.qr(V)
    Q *= np.where(np.diag(R) < 0.0, -1.0, 1.0)
    assert np.array_equal(orthonormalize(V, AmbientSpace(30)).columns, Q)


def test_orthonormalize_metric_factors_only_k_by_k(monkeypatch):
    # the metric's N x N Cholesky factor is not needed: every factorization
    # is of the k x k Gram of the Householder factor
    rng = np.random.default_rng(14)
    N, k = 60, 5
    space = AmbientSpace(N, random_spd(rng, N))
    shapes = []
    for name in ("solve", "inv", "cholesky"):
        routine = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda a, *rest, f=routine: shapes.append(np.shape(a)) or f(a, *rest)
        )
    frame = orthonormalize(rng.standard_normal((N, k)), space)
    monkeypatch.undo()
    assert shapes and all(max(shape) <= k for shape in shapes), shapes
    assert np.max(np.abs(frame_gram(frame) - np.eye(k))) <= 1e-13


def test_orthonormalize_reports_first_dependent_index():
    rng = np.random.default_rng(9)
    a, b, c = rng.standard_normal((3, 5))
    for metric in (None, random_spd(rng, 5)):
        with pytest.raises(RankDeficient, match="input vector 2 "):
            orthonormalize([a, b, a + b, c], AmbientSpace(5, metric))


def test_orthonormalize_rejects_more_vectors_than_dimensions():
    rng = np.random.default_rng(10)
    with pytest.raises(RankDeficient):
        orthonormalize(rng.standard_normal((3, 4)), AmbientSpace(3))


def test_orthonormalize_no_vectors_gives_empty_frame():
    frame = orthonormalize(np.zeros((4, 0)), AmbientSpace(4))
    assert frame.n_columns == 0
    assert frame.columns.shape == (4, 0)


def test_orthonormalize_preserves_span():
    rng = np.random.default_rng(2)
    space = AmbientSpace(6)
    V = rng.standard_normal((6, 3))
    frame = orthonormalize(V, space)
    # every input vector projects onto the frame with zero residual
    for j in range(3):
        _, res = project(V[:, j], frame)
        assert res <= 1e-10 * np.linalg.norm(V[:, j])


def test_project_vector_in_span():
    rng = np.random.default_rng(3)
    space = AmbientSpace(5)
    frame = orthonormalize(rng.standard_normal((5, 2)), space)
    v = frame.columns @ np.array([0.7, -1.3])
    inside, res = project(v, frame)
    assert np.allclose(inside, v, atol=1e-12)
    assert res <= 1e-10


def test_project_orthogonal_vector():
    space = AmbientSpace(3)
    frame = orthonormalize(np.eye(3)[:, :1], space)
    v = np.array([0.0, 2.0, 0.0])
    inside, res = project(v, frame)
    assert np.allclose(inside, 0.0)
    assert res == pytest.approx(2.0)


def test_project_hand_computed():
    space = AmbientSpace(2)
    frame = OrthonormalFrame(space, np.array([[1.0], [0.0]]))
    inside, res = project(np.array([3.0, 4.0]), frame)
    assert np.allclose(inside, [3.0, 0.0])
    assert res == pytest.approx(4.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_project_pythagoras_and_idempotence(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(2, 9))
    k = int(rng.integers(1, N))
    metric = random_spd(rng, N) if rng.random() < 0.5 else None
    space = AmbientSpace(N, metric)
    frame = orthonormalize(rng.standard_normal((N, k)), space)
    v = rng.standard_normal(N) * float(rng.uniform(0.1, 5.0))
    inside, res = project(v, frame)
    lhs = space.norm(v) ** 2
    rhs = space.norm(inside) ** 2 + res**2
    assert abs(lhs - rhs) <= 1e-9 * max(lhs, 1e-12)
    again, res2 = project(inside, frame)
    assert np.max(np.abs(again - inside)) <= 1e-9 * max(1.0, np.max(np.abs(inside)))
    assert res2 <= 1e-9 * max(1.0, space.norm(inside))


def test_complement_of_e1_in_r3():
    space = AmbientSpace(3)
    frame = orthonormalize(np.eye(3)[:, :1], space)
    comp = complement_frame(frame)
    assert comp.n_columns == 2
    # projector onto the complement equals the projector onto span{e2, e3}
    P = comp.columns @ comp.columns.T
    assert np.allclose(P, np.diag([0.0, 1.0, 1.0]), atol=1e-12)


def test_complement_involution_at_projector_level():
    rng = np.random.default_rng(4)
    space = AmbientSpace(6)
    frame = orthonormalize(rng.standard_normal((6, 2)), space)
    twice = complement_frame(complement_frame(frame))
    P_orig = frame.columns @ frame.columns.T
    P_twice = twice.columns @ twice.columns.T
    assert np.max(np.abs(P_orig - P_twice)) <= 1e-10


def test_complement_concatenation_is_full_basis():
    rng = np.random.default_rng(5)
    M = random_spd(rng, 7)
    space = AmbientSpace(7, M)
    frame = orthonormalize(rng.standard_normal((7, 3)), space)
    comp = complement_frame(frame)
    assert comp.n_columns == 4
    full = np.hstack([frame.columns, comp.columns])
    assert np.max(np.abs(full.T @ M @ full - np.eye(7))) <= 1e-9


def test_complement_of_full_space_is_empty():
    space = AmbientSpace(3)
    frame = orthonormalize(np.eye(3), space)
    comp = complement_frame(frame)
    assert comp.n_columns == 0
    assert comp.columns.shape == (3, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_projector_sum_is_identity(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(2, 8))
    k = int(rng.integers(1, N))
    metric = random_spd(rng, N) if rng.random() < 0.5 else None
    space = AmbientSpace(N, metric)
    frame = orthonormalize(rng.standard_normal((N, k)), space)
    comp = complement_frame(frame)
    M = metric if metric is not None else np.eye(N)
    P = frame.columns @ frame.columns.T @ M + comp.columns @ comp.columns.T @ M
    assert np.max(np.abs(P - np.eye(N))) <= 1e-9


def test_frame_prefix():
    space = AmbientSpace(4)
    frame = orthonormalize(np.eye(4)[:, :3], space)
    assert frame.prefix(2).n_columns == 2
    with pytest.raises(ValueError):
        frame.prefix(5)


E3 = AmbientSpace(3)


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: AmbientSpace(0), "dim must be a positive integer"),
        (lambda: AmbientSpace(3, np.eye(2)), "metric must be 3x3"),
        (lambda: OrthonormalFrame(E3, np.eye(4)[:, :2]), r"columns must have shape \(3, k\)"),
        (lambda: OrthonormalFrame(E3, np.ones(3)), r"columns must have shape \(3, k\)"),
        (lambda: orthonormalize(np.ones((3, 2, 2)), E3), "2-d array of columns"),
        (lambda: orthonormalize(np.ones((4, 2)), E3), "space has dim 3"),
        (lambda: project(np.ones(4), orthonormalize(np.eye(3)[:, :1], E3)), r"shape \(3,\)"),
    ],
    ids=[
        "space-dim-zero",
        "metric-shape",
        "frame-rows",
        "frame-one-dimensional",
        "orthonormalize-three-dimensional",
        "orthonormalize-dimension",
        "project-shape",
    ],
)
def test_shape_checks(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_orthonormalize_single_vector():
    frame = orthonormalize(np.array([3.0, 0.0, -4.0]), E3)
    assert frame.columns.shape == (3, 1)
    assert np.allclose(frame.columns[:, 0], [0.6, 0.0, -0.8], atol=1e-15)
