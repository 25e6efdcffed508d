import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bad_profiles,
    complement_frame,
    descending,
    gamma_of,
    identity_hierarchy,
    metric_example1,
    random_orthogonal,
    random_spd,
    sweep_instance,
    system_of,
)
from msrom import (
    Assembly,
    GramDecomposition,
    OrthonormalFrame,
    SubspaceHierarchy,
    assemble,
    decompose,
    flat_orthogonal,
    gram_matrix,
    ms_bound,
    orthonormalize,
    riesz_representers,
    synth_prescribed,
)


def metric_root(rng, N, metric):
    """``L^T`` for a random SPD metric ``M = L L^T`` (the identity when not
    ``metric``): it maps vectors written in M to orthonormal coordinates."""
    return np.linalg.cholesky(random_spd(rng, N)).T if metric else np.eye(N)


def reconstruction_error(decomp):
    m, n = decomp.G.shape
    Lam = np.zeros((m, n))
    Lam[:n, :n] = np.diag(decomp.sigma)
    scale = max(np.max(np.abs(decomp.G)), 1e-30)
    return np.max(np.abs(decomp.G - decomp.U @ Lam @ decomp.X.T)) / scale


def test_gram_matrix_self():
    rng = np.random.default_rng(0)
    trial = orthonormalize(rng.standard_normal((5, 3)))
    riesz = trial.columns.copy()
    assert np.allclose(gram_matrix(riesz, trial), np.eye(3), atol=1e-12)


def test_gram_matrix_orthogonal_representers():
    trial = orthonormalize(np.eye(4)[:, :2])
    riesz = np.eye(4)[:, 2:]
    assert np.allclose(gram_matrix(riesz, trial), 0.0)


def test_decompose_identity():
    # every orthogonal X with U = X is an SVD of I; no sign or basis is promised
    decomp = decompose(np.eye(4))
    assert np.allclose(decomp.sigma, 1.0)
    assert np.allclose(decomp.U, decomp.X)
    assert np.allclose(decomp.X.T @ decomp.X, np.eye(4))


def test_decompose_padded_diagonal():
    G = np.vstack([np.diag([3.0, 2.0, 1.0]), np.zeros((2, 3))])
    decomp = decompose(G)
    assert np.allclose(decomp.sigma, [3.0, 2.0, 1.0])
    assert reconstruction_error(decomp) <= 1e-10


def test_decompose_random_rectangular():
    rng = np.random.default_rng(1)
    G = rng.standard_normal((7, 4))
    decomp = decompose(G)
    assert reconstruction_error(decomp) <= 1e-10
    assert np.all(np.diff(decomp.sigma) <= 0.0)
    assert np.max(np.abs(decomp.X.T @ decomp.X - np.eye(4))) <= 1e-12
    assert np.max(np.abs(decomp.U.T @ decomp.U - np.eye(7))) <= 1e-12


def test_decompose_is_deterministic():
    rng = np.random.default_rng(2)
    G = rng.standard_normal((6, 6))
    a, b = decompose(G), decompose(G.copy())
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.U, b.U)
    assert np.array_equal(a.sigma, b.sigma)


def test_decompose_shapes_and_padding():
    rng = np.random.default_rng(3)
    H = flat_orthogonal(4)
    cases = [
        rng.standard_normal((5, 5)),
        rng.standard_normal((9, 4)),
        # right singular vectors with tied magnitudes 1/2
        random_orthogonal(rng, 4) @ np.diag([4.0, 3.0, 2.0, 1.0]) @ H.T,
        np.ones((3, 2)),
        -np.eye(3),
        np.zeros((4, 0)),  # n = 0, the reduced system of a zero first width
        np.zeros((0, 0)),
    ]
    for G in cases:
        m, n = G.shape
        decomp = decompose(G)
        assert (decomp.U.shape, decomp.X.shape, decomp.sigma.shape) == ((m, m), (n, n), (n,))
        scale = max(1.0, float(np.max(np.abs(G), initial=0.0)))
        singular_values = np.linalg.svd(G, compute_uv=False)
        assert np.allclose(decomp.sigma, singular_values, rtol=0, atol=1e-12 * scale)
        if n > 0:
            assert reconstruction_error(decomp) <= 1e-10
    # m < n: refused, not padded with zeros to length n
    with pytest.raises(ValueError, match=r"at least as many tests as trial directions \(m=3, n=6\)"):
        decompose(rng.standard_normal((3, 6)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_decompose_reconstruction_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    m = int(rng.integers(n, n + 5))
    G = rng.standard_normal((m, n)) * float(rng.uniform(0.01, 100.0))
    assert reconstruction_error(decompose(G)) <= 1e-10


@pytest.mark.parametrize(
    "fields, match",
    [
        ({"U": np.eye(2)}, "inconsistent factor shapes"),
        ({"X": np.eye(3)}, "inconsistent factor shapes"),
        ({"sigma": np.ones(3)}, "inconsistent factor shapes"),
        ({"sigma": np.array([0.5, 1.0])}, "nonincreasing"),
        ({"sigma": np.array([1.0, -0.5])}, "nonnegative"),
        (  # consistent factors of a wide G
            {"G": np.ones((2, 3)), "U": np.eye(2), "X": np.eye(3), "sigma": np.array([1.0, 0.5, 0.0])},
            r"at least as many tests as trial directions \(m=2, n=3\)",
        ),
    ],
    ids=["U", "X", "sigma-length", "sigma-unsorted", "sigma-negative", "wide"],
)
def test_gram_decomposition_checks(fields, match):
    parts = {"G": np.ones((3, 2)), "U": np.eye(3), "X": np.eye(2), "sigma": np.array([1.0, 0.5])}
    with pytest.raises(ValueError, match=match):
        GramDecomposition(**{**parts, **fields})


def test_gamma_zero_when_representers_in_span():
    rng = np.random.default_rng(6)
    trial = orthonormalize(rng.standard_normal((6, 3)))
    riesz = trial.columns @ rng.standard_normal((3, 4))
    assert gamma_of(riesz, trial)[0] <= 1e-12


def test_gamma_matches_complement_basis_oracle():
    rng = np.random.default_rng(12)
    for _ in range(40):
        N = int(rng.integers(2, 13))
        n = int(rng.integers(1, N))
        m = int(rng.integers(1, 7))
        trial = orthonormalize(rng.standard_normal((N, n)))
        riesz = rng.standard_normal((N, m))
        comp = complement_frame(trial)
        C = riesz.T @ comp.columns
        want = np.linalg.svd(C, compute_uv=False)[0]
        assert abs(gamma_of(riesz, trial)[0] - want) <= 1e-12 * want


@pytest.mark.parametrize("metric", [False, True])
def test_gamma_scales_with_extreme_representers(metric):
    rng = np.random.default_rng(14)
    root = metric_root(rng, 9, metric)
    trial = orthonormalize(root @ rng.standard_normal((9, 3)))
    R = root @ rng.standard_normal((9, 4))
    g, norm = gamma_of(R, trial)
    for c in (1e-200, 1e200):
        g_c, norm_c = gamma_of(c * R, trial)
        assert abs(g_c - c * g) <= 1e-12 * c * g
        assert abs(norm_c - c * norm) <= 1e-12 * c * norm


@pytest.mark.parametrize("metric", [False, True])
def test_gamma_in_span_is_rounding_sized(metric):
    rng = np.random.default_rng(15)
    trial = orthonormalize(metric_root(rng, 8, metric) @ rng.standard_normal((8, 4)))
    B = trial.columns @ rng.standard_normal((4, 5))
    for c in (1e-200, 1.0, 1e200):
        g = gamma_of(c * B, trial)[0]
        assert np.isfinite(g)
        assert 0.0 <= g <= 1e-12 * c * np.linalg.norm(B)  # ||c B|| itself would underflow


@pytest.mark.parametrize("metric", [False, True])
def test_gamma_large_matches_svd_of_complement_component(metric):
    N = 500
    rng = np.random.default_rng(16)
    problem, hierarchy, tests = metric_example1(100, N, 16, random_spd(rng, N) if metric else None)
    W = hierarchy.basis.columns
    R = riesz_representers(problem, tests)
    P = R - W @ (W.T @ R)  # in the orthonormal coordinates the generator returns
    want = np.linalg.svd(P, compute_uv=False)[0]
    assert abs(gamma_of(R, hierarchy.basis)[0] - want) <= 1e-12 * want


def test_gamma_zero_without_complement_or_representers():
    rng = np.random.default_rng(13)
    full = orthonormalize(rng.standard_normal((4, 4)))
    assert gamma_of(rng.standard_normal((4, 3)), full)[0] == 0.0
    trial = orthonormalize(rng.standard_normal((4, 2)))
    assert gamma_of(np.zeros((4, 0)), trial)[0] == 0.0
    assert gamma_of(np.zeros((4, 2)), trial) == (0.0, 0.0)
    # coordinate trial vectors make P = R - W (W^T R) exactly zero
    coordinates = OrthonormalFrame(np.eye(6)[:, :3])
    R = np.zeros((6, 4))
    R[:3] = rng.standard_normal((3, 4))
    g, norm = gamma_of(R, coordinates)
    assert g == 0.0
    assert abs(norm - np.linalg.norm(R, 2)) <= 1e-14 * norm


@pytest.mark.parametrize("metric", [False, True])
def test_gamma_norm_matches_svd_of_the_family(metric):
    # ||R||_2 in the metric M = L L^T is the top singular value of the image L^T R
    rng = np.random.default_rng(18)
    for N, n, m in ((9, 3, 4), (7, 0, 3), (5, 5, 2), (12, 4, 8)):
        root = metric_root(rng, N, metric)
        trial = orthonormalize(root @ rng.standard_normal((N, n)))
        R = root @ rng.standard_normal((N, m))
        want = np.linalg.svd(R, compute_uv=False)[0]
        g, norm = gamma_of(R, trial)
        assert abs(norm - want) <= 1e-12 * want, (N, n, m)
        assert g <= norm * (1.0 + 1e-12)
        if n:
            assert np.linalg.svd(gram_matrix(R, trial), compute_uv=False)[0] <= norm * (1.0 + 1e-12)


def test_gamma_orthonormal_representers_bounded_by_one():
    rng = np.random.default_rng(7)
    for _ in range(5):
        problem, hierarchy, tests = sweep_instance(rng, n_high=8)
        riesz = riesz_representers(problem, tests)
        g, norm = gamma_of(riesz, hierarchy.basis)
        assert g <= 1.0 + 1e-10
        assert abs(norm - 1.0) <= 1e-12


def test_gamma_square_case_closed_form():
    # with m = n the complement weight of representer j is sqrt(1 - sigma_j^2)
    rng = np.random.default_rng(8)
    n = 4
    sigma = descending(rng, n, 0.05, 0.95)
    tau = descending(rng, n + 1, 0.05, 1.0)
    problem, hierarchy, tests = synth_prescribed(
        n, n, 2 * n + 4, sigma, random_orthogonal(rng, n), tau, tau, seed=17
    )
    riesz = riesz_representers(problem, tests)
    g = gamma_of(riesz, hierarchy.basis)[0]
    assert abs(g - np.sqrt(1.0 - sigma[-1] ** 2)) <= 1e-8


def test_gamma_extra_representers_reach_one():
    rng = np.random.default_rng(9)
    n, m = 3, 6
    sigma = descending(rng, n, 0.2, 0.9)
    tau = descending(rng, n + 1, 0.05, 1.0)
    problem, hierarchy, tests = synth_prescribed(
        n, m, n + m + 2, sigma, random_orthogonal(rng, n), tau, tau, seed=27
    )
    riesz = riesz_representers(problem, tests)
    assert abs(gamma_of(riesz, hierarchy.basis)[0] - 1.0) <= 1e-9


def test_gamma_dominates_random_complement_samples():
    rng = np.random.default_rng(10)
    problem, hierarchy, tests = sweep_instance(rng, n_high=6)
    trial = hierarchy.basis
    riesz = riesz_representers(problem, tests)
    g = gamma_of(riesz, trial)[0]
    comp = complement_frame(trial)
    coefs = rng.standard_normal((comp.n_columns, 10_000))
    coefs /= np.linalg.norm(coefs, axis=0)
    V = comp.columns @ coefs
    vals = np.linalg.norm(riesz.T @ V, axis=0)
    assert np.all(vals <= g + 1e-9)


def test_gamma_matches_sampled_supremum_on_plane_complement():
    # a 2-dim complement lets stratified angles cover the unit circle densely
    # enough that the sampled supremum must land within 1e-6 of the norm
    rng = np.random.default_rng(11)
    trial = orthonormalize(rng.standard_normal((6, 4)))
    riesz = 0.5 * rng.standard_normal((6, 3))
    g = gamma_of(riesz, trial)[0]
    comp = complement_frame(trial)
    K = 10_000
    theta = (np.arange(K) + rng.random(K)) * (2.0 * np.pi / K)
    V = comp.columns @ np.vstack([np.cos(theta), np.sin(theta)])
    vals = np.linalg.norm(riesz.T @ V, axis=0)
    assert np.all(vals <= g + 1e-9)
    assert vals.max() >= g - 1e-6


# delta_j = sum_i |x_ij| (profile + widths)[i-1], read off ms_bound's report


def test_deltas_identity_rotation():
    widths = np.array([0.9, 0.5, 0.3, 0.2])
    distances = np.array([0.8, 0.4, 0.2, 0.1])
    hierarchy = identity_hierarchy(widths, distances)
    G = np.diag([0.9, 0.6, 0.3])
    decomp = GramDecomposition(G=G, U=np.eye(3), X=np.eye(3), sigma=np.array([0.9, 0.6, 0.3]))
    inter = ms_bound(system_of(decomp, hierarchy, gamma=0.4)).intermediates
    assert np.allclose(inter.delta, distances[:3] + widths[:3])
    assert inter.gamma == 0.4


def test_deltas_flat_rotation_collapses_profile():
    # a flat X spreads every profile entry evenly: delta_j = 2 / sqrt(n) when
    # the first n widths and distances sum to 1 each
    n = 8
    limit = 1.0 / (2.0 * (n - 1))
    profile = np.array([0.5] + [limit] * (n - 1) + [1e-3])
    X = flat_orthogonal(n)
    sigma = np.linspace(1.0, 0.1, n)
    decomp = GramDecomposition(G=(X * sigma) @ X.T, U=X.copy(), X=X, sigma=sigma)
    hierarchy = identity_hierarchy(profile)
    inter = ms_bound(system_of(decomp, hierarchy)).intermediates
    assert np.allclose(inter.delta, 2.0 * n**-0.5, atol=1e-12)


def test_deltas_all_zero_profile():
    n = 3
    zeros = np.zeros(n + 1)
    hierarchy = identity_hierarchy(zeros)
    decomp = decompose(np.eye(n))
    assert np.allclose(ms_bound(system_of(decomp, hierarchy)).intermediates.delta, 0.0)


def test_deltas_length_checks():
    # a bad distance profile never reaches the bound: the hierarchy refuses it
    # (a decomposition of another size: test_assembly_checks_the_hierarchy_size)
    widths = np.array([1.0, 0.5, 0.3, 0.2])
    for distances, message in bad_profiles(widths, "tau"):
        with pytest.raises(ValueError, match=message):
            identity_hierarchy(widths, distances)


def test_assembly_checks_the_hierarchy_size():
    # every assembly, assembled, built by hand or replaced, pairs a
    # decomposition with a hierarchy of its size n
    widths = np.array([1.0, 0.5, 0.3, 0.2])
    hierarchy = identity_hierarchy(widths)
    mismatch = "decomposition size {} does not match the hierarchy's n = 3"
    with pytest.raises(ValueError, match=f"^{mismatch.format(4)}$"):
        system_of(decompose(np.eye(4)), hierarchy)
    problem, other, tests = synth_prescribed(
        2, 2, 6, [1.0, 0.5], np.eye(2), [0.5, 0.3, 0.2], [0.6, 0.4, 0.25], 1
    )
    assembly = assemble(problem, other, tests)
    assert assembly.hierarchy is other
    with pytest.raises(ValueError, match=f"^{mismatch.format(2)}$"):
        dataclasses.replace(assembly, hierarchy=hierarchy)
    profile = np.array([1.0, 0.5, 0.3])
    same_n = SubspaceHierarchy(other.basis, widths=profile, distances=profile)
    assert dataclasses.replace(assembly, hierarchy=same_n).hierarchy is same_n


def test_deltas_requires_gamma():
    # a silent gamma = 0 would drop the complement term from the bound: the
    # assembly that ms_bound reads it from has no default for it
    hierarchy = identity_hierarchy(np.ones(4))
    with pytest.raises(TypeError, match="gamma"):
        Assembly(hierarchy, d=np.zeros(3), decomp=decompose(np.eye(3)), norm=1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_deltas_monotone_in_profiles(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    X = random_orthogonal(rng, n)
    sigma = descending(rng, n, 0.0, 1.0)
    decomp = GramDecomposition(G=(X * sigma) @ X.T, U=X.copy(), X=X, sigma=sigma)
    widths = descending(rng, n + 1, 0.0, 2.0)
    distances = np.minimum(descending(rng, n + 1, 0.0, 2.0), widths)
    hierarchy = identity_hierarchy(widths, distances)
    base = ms_bound(system_of(decomp, hierarchy)).intermediates
    assert np.allclose(base.delta, np.abs(X).T @ (distances[:n] + widths[:n]))
    assert np.all(base.delta >= 0.0)
    # growing one width entry never shrinks any delta
    k = int(rng.integers(0, n + 1))
    wider = widths.copy()
    wider[: k + 1] += 0.5  # keep the profile nonincreasing
    grown = ms_bound(system_of(decomp, identity_hierarchy(wider, distances))).intermediates
    assert np.all(grown.delta >= base.delta - 1e-12)
