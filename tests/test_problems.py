import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bad_profiles,
    descending,
    gamma_of,
    metric_draws,
    metric_example1,
    random_orthogonal,
    random_spd,
)
from msrom import (
    ProblemInstance,
    SolverOptions,
    SubspaceHierarchy,
    assemble,
    example1,
    example2,
    flat_orthogonal,
    gram_matrix,
    orthonormalize,
    random_instance,
    riesz_representers,
    rhs_vector,
    run_instance,
    synth_prescribed,
)
from msrom.problems import (
    check_dimensions,
    check_example1,
    check_example2,
    check_profile,
    check_spectrum,
    hadamard_available,
)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (
            {"factors": (np.eye(2), np.eye(2)), "z_true": np.ones(3)},
            r"factors must be two \(3, k\) matrices",
        ),
        (
            {"factors": (np.ones((3, 2)), np.ones((3, 1))), "z_true": np.ones(3)},
            r"factors must be two \(3, k\) matrices",
        ),
        (
            {"factors": (np.eye(3), np.eye(3)), "z_true": np.ones((3, 1))},
            r"z_true must be a vector, got shape \(3, 1\)",
        ),
    ],
    ids=["operator", "factors", "z_true"],
)
def test_problem_rejects_wrong_shapes(kwargs, match):
    # R^N is the truth's: the factors must have N rows
    with pytest.raises(ValueError, match=match):
        ProblemInstance(**kwargs)


def relative_gap(got, want):
    return np.linalg.norm(np.asarray(got) - want) / np.linalg.norm(want)


@pytest.mark.parametrize("metric", [False, True])
def test_factored_operator_matches_dense(metric):
    rng = np.random.default_rng(6)
    n, m, N = 4, 6, 17
    sigma = descending(rng, n, 0.05, 1.0)
    tau = descending(rng, n + 1, 0.01, 1.0)
    problem, _, tests = synth_prescribed(
        n, m, N, sigma, random_orthogonal(rng, n), tau, tau, seed=31,
        metric=random_spd(rng, N) if metric else None,
    )
    R, Z = problem.factors
    A = R @ Z.T
    frames = [
        tests,
        tests @ random_orthogonal(rng, m),
        orthonormalize(rng.standard_normal((N, 5))),
    ]
    for Y in frames:
        assert relative_gap(riesz_representers(problem, Y), A @ Y) <= 1e-13
        assert relative_gap(rhs_vector(problem, Y), Y.T @ A.T @ problem.z_true) <= 1e-13


@pytest.mark.parametrize("metric", [False, True])
def test_dense_rebuild_reproduces_run_instance(metric):
    rng = np.random.default_rng(7)
    problem, hierarchy, tests = metric_example1(
        8, 40, 41, random_spd(rng, 40) if metric else None
    )
    R, Z = problem.factors
    dense = ProblemInstance(problem.z_true, factors=(R @ Z.T, np.eye(problem.z_true.size)))
    options = SolverOptions()
    (a, sol_a, dec_a), (b, sol_b, dec_b) = (
        run_instance(p, hierarchy, tests, options) for p in (problem, dense)
    )
    pairs = [
        (a.intermediates.gamma, b.intermediates.gamma),
        (a.water_filling.sup_value, b.water_filling.sup_value),
        (a.ms_bound, b.ms_bound),
        (a.babuska, b.babuska),
        (a.actual_pg_error, b.actual_pg_error),
        (a.actual_ms_error, b.actual_ms_error),
        (sol_a.cost, sol_b.cost),
    ]
    for got, want in pairs:
        assert abs(got - want) <= 1e-10 * abs(want)
    assert np.max(np.abs(dec_a.sigma - dec_b.sigma)) <= 1e-10 * dec_b.sigma[0]


def test_synthetic_rhs_identity():
    # d_j = b(z_j) = a(z_true, z_j) = z_true^T A z_j for a dense A
    rng = np.random.default_rng(0)
    A = rng.standard_normal((5, 5))
    z = rng.standard_normal(5)
    problem = ProblemInstance(z, factors=(A, np.eye(5)))
    tests = orthonormalize(rng.standard_normal((5, 4)))
    d = rhs_vector(problem, tests)
    for j in range(4):
        b = z @ A @ tests[:, j]
        assert abs(d[j] - b) <= 1e-9 * max(1.0, abs(b))


def test_riesz_identity_operator():
    rng = np.random.default_rng(2)
    Z = orthonormalize(rng.standard_normal((4, 3)))
    problem = ProblemInstance(np.zeros(4), factors=(np.eye(4), np.eye(4)))
    family = riesz_representers(problem, Z)
    assert np.allclose(family, Z)


def test_riesz_zero_operator():
    Z = orthonormalize(np.eye(3)[:, :2])
    problem = ProblemInstance(np.zeros(3), factors=(np.zeros((3, 3)), np.eye(3)))
    family = riesz_representers(problem, Z)
    assert np.allclose(family, 0.0)


def test_riesz_defining_identity_random_metric():
    # a form v^T M A z in the metric M = L L^T is, in the coordinates x -> L^T x,
    # the form with operator L^T A L^-T; its representers, mapped back by
    # L^-T, satisfy <r_j, v>_M = a(v, z_j) for the test vectors z_j mapped back
    rng = np.random.default_rng(3)
    M = random_spd(rng, 6)
    Lt = np.linalg.cholesky(M).T
    A = rng.standard_normal((6, 6))
    Z = orthonormalize(rng.standard_normal((6, 6)))
    problem = ProblemInstance(np.zeros(6), factors=(Lt @ A @ np.linalg.inv(Lt), np.eye(6)))
    family = np.linalg.solve(Lt, riesz_representers(problem, Z))
    tests = np.linalg.solve(Lt, Z)
    for _ in range(20):
        v = rng.standard_normal(6)
        for j in range(6):
            lhs = family[:, j] @ M @ v  # <r_j, v> = a(v, z_j) = v^T M A z_j
            rhs = v @ M @ A @ tests[:, j]
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_hierarchy_validation():
    basis = orthonormalize(np.eye(4)[:, :2])
    zeros = np.zeros(3)
    with pytest.raises(ValueError, match="widths must have length"):
        SubspaceHierarchy(basis, widths=np.array([1.0, 0.5]), distances=zeros)  # wrong length
    with pytest.raises(ValueError, match="widths entries must be nonnegative"):
        SubspaceHierarchy(basis, widths=np.array([1.0, -0.5, 0.1]), distances=zeros)
    with pytest.raises(ValueError, match="tau must be nonincreasing"):
        SubspaceHierarchy(
            basis,
            widths=np.array([1.0, 0.5, 0.1]),
            distances=np.array([0.4, 0.5, 0.1]),  # not nonincreasing
        )
    with pytest.raises(ValueError, match="widths must dominate tau"):
        SubspaceHierarchy(
            basis,
            widths=np.array([1.0, 0.5, 0.1]),
            distances=np.array([1.0, 0.6, 0.1]),  # exceeds a width
        )
    # no hierarchy without a trial direction: every bound and solve reads sigma_n
    empty = np.zeros((4, 0))
    with pytest.raises(ValueError, match="^a hierarchy needs at least one trial direction"):
        SubspaceHierarchy(empty, widths=np.ones(1), distances=np.ones(1))


def test_hierarchy_keeps_private_copies_of_the_profile():
    # the record is checked once and frozen, so the caller's later writes must
    # not reach it; one array passed as both profiles gives two copies
    basis = orthonormalize(np.eye(4)[:, :2])
    w, t = np.array([1.0, 0.5, 0.2]), np.array([0.8, 0.4, 0.1])
    hierarchy = SubspaceHierarchy(basis, widths=w, distances=t)
    w[0], t[1] = -5.0, np.nan
    assert hierarchy.widths.tolist() == [1.0, 0.5, 0.2]
    assert hierarchy.distances.tolist() == [0.8, 0.4, 0.1]
    profile = np.array([1.0, 0.5, 0.2])
    shared = SubspaceHierarchy(basis, widths=profile, distances=profile)
    assert not np.shares_memory(shared.widths, shared.distances)
    assert not np.shares_memory(shared.widths, profile)


@pytest.mark.parametrize("spot", [0, 1, 2])
def test_hierarchy_rejects_nan_distances(spot):
    # every other distance check is a comparison, which NaN passes
    basis = orthonormalize(np.eye(4)[:, :2])
    distances = np.array([1.0, 0.5, 0.1])
    distances[spot] = np.nan
    with pytest.raises(ValueError, match="tau entries must be nonnegative"):
        SubspaceHierarchy(basis, widths=np.array([1.0, 0.5, 0.1]), distances=distances)


def test_flat_orthogonal_available_orders():
    for n in (1, 2, 4, 8, 12, 16, 20, 24):
        X = flat_orthogonal(n)
        assert np.max(np.abs(X.T @ X - np.eye(n))) <= 1e-12
        assert np.allclose(np.abs(X), n**-0.5)


def test_flat_orthogonal_unavailable_orders():
    # 28 = 4 * 7 is out of reach for doubling, and 27 has no residue table
    for n in (3, 5, 6, 28):
        with pytest.raises(ValueError, match=f"n = {n} has no flat orthogonal matrix"):
            flat_orthogonal(n)
    with pytest.raises(ValueError, match="order must be positive"):
        flat_orthogonal(0)


def test_synth_degenerate_truth():
    # unit spectrum, identity X, zero distances: G = I padded, z_true = 0
    n, m, N = 3, 5, 9
    zeros = np.zeros(n + 1)
    problem, hierarchy, tests = synth_prescribed(
        n, m, N, np.ones(n), np.eye(n), zeros, zeros, seed=11
    )
    G = gram_matrix(riesz_representers(problem, tests), hierarchy.basis)
    expected = np.vstack([np.eye(n), np.zeros((m - n, n))])
    assert np.max(np.abs(G - expected)) <= 1e-9
    assert np.linalg.norm(problem.z_true) <= 1e-12


def test_synth_prescribed_round_trip_spectrum():
    rng = np.random.default_rng(4)
    n, m, N = 5, 8, 16
    sigma = descending(rng, n, 0.05, 1.0)
    tau = descending(rng, n + 1, 0.01, 1.0)
    problem, hierarchy, tests = synth_prescribed(
        n, m, N, sigma, random_orthogonal(rng, n), tau, tau, seed=21
    )
    G = gram_matrix(riesz_representers(problem, tests), hierarchy.basis)
    s = np.linalg.svd(G, compute_uv=False)
    assert np.max(np.abs(s - sigma)) <= 1e-9


def test_synth_prescribed_exact_distances():
    rng = np.random.default_rng(5)
    n, m, N = 4, 6, 13
    sigma = descending(rng, n, 0.1, 1.0)
    tau = descending(rng, n + 1, 0.05, 2.0)
    problem, hierarchy, tests = synth_prescribed(
        n, m, N, sigma, random_orthogonal(rng, n), tau, tau, seed=31
    )
    z, W = problem.z_true, hierarchy.basis
    for k in range(n + 1):
        res = np.linalg.norm(z - W[:, :k] @ (W[:, :k].T @ z))
        assert abs(res - tau[k]) <= 1e-9


def test_synth_prescribed_orthonormal_representers():
    rng = np.random.default_rng(6)
    n, m, N = 4, 7, 14
    sigma = descending(rng, n, 0.0, 1.0)
    tau = descending(rng, n + 1, 0.0, 1.0)
    problem, hierarchy, tests = synth_prescribed(
        n, m, N, sigma, random_orthogonal(rng, n), tau, tau, seed=41
    )
    R = riesz_representers(problem, tests)
    assert np.max(np.abs(R.T @ R - np.eye(m))) <= 1e-9


def test_synth_prescribed_with_metric():
    rng = np.random.default_rng(7)
    n, m, N = 3, 4, 9
    sigma = np.array([0.9, 0.5, 0.2])
    tau = np.array([1.0, 0.6, 0.3, 0.1])
    problem, hierarchy, tests = synth_prescribed(
        n, m, N, sigma, np.eye(n), tau, tau, seed=51, metric=random_spd(rng, N)
    )
    G = gram_matrix(riesz_representers(problem, tests), hierarchy.basis)
    s = np.linalg.svd(G, compute_uv=False)
    assert np.max(np.abs(s - sigma)) <= 1e-9
    # the instance is returned in orthonormal coordinates
    z, W = problem.z_true, hierarchy.basis
    assert np.max(np.abs(W.T @ W - np.eye(n))) <= 1e-12
    assert abs(np.linalg.norm(z - W @ (W.T @ z)) - tau[-1]) <= 1e-9


@pytest.mark.parametrize("metric", [False, True])
def test_test_basis_is_the_leading_base_frame(metric):
    rng = np.random.default_rng(12)
    n, N = 4, 17
    sigma = descending(rng, n, 0.05, 1.0)
    tau = descending(rng, n + 1, 0.01, 1.0)
    X = random_orthogonal(rng, n)
    M = random_spd(rng, N) if metric else None
    _, hierarchy, tests = synth_prescribed(n, n, N, sigma, X, tau, tau, 5, metric=M)
    assert np.array_equal(tests, hierarchy.basis)
    m = 9
    problem, hierarchy, Z = synth_prescribed(n, m, N, sigma, X, tau, tau, 5, metric=M)
    assert np.array_equal(Z[:, :n], hierarchy.basis)
    assert np.max(np.abs(Z.T @ Z - np.eye(m))) <= 1e-12


@pytest.mark.parametrize("metric", [False, True])
def test_square_instance_shares_the_trial_frame(metric):
    # at m = n the test basis is the trial frame, and its columns are the
    # operator's second factor
    rng = np.random.default_rng(14)
    n, N = 5, 16
    sigma = descending(rng, n, 0.05, 1.0)
    tau = descending(rng, n + 1, 0.01, 1.0)
    M = random_spd(rng, N) if metric else None
    problem, hierarchy, tests = synth_prescribed(
        n, n, N, sigma, random_orthogonal(rng, n), tau, tau, 3, metric=M
    )
    # the same view of the same memory, so the same rounding as the trial frame
    assert tests.__array_interface__ == hierarchy.basis.__array_interface__
    assert problem.factors[1] is tests


@pytest.mark.parametrize("metric", [False, True])
def test_truth_rebuilt_from_the_seed(metric):
    # the generator's draws, in order: the base frame's normals, then u
    rng = np.random.default_rng(13)
    n, m, N, seed = 4, 6, 15, 77
    sigma = descending(rng, n, 0.05, 1.0)
    tau = descending(rng, n + 1, 0.01, 1.0)
    M = random_spd(rng, N) if metric else None
    problem, _, _ = synth_prescribed(
        n, m, N, sigma, random_orthogonal(rng, n), tau, tau, seed, metric=M
    )
    M = np.eye(N) if M is None else M
    base, u = metric_draws(n, m, N, seed, M)
    want = base[:, :n] @ np.sqrt(tau[:-1] ** 2 - tau[1:] ** 2) + tau[-1] * u
    want = np.linalg.cholesky(M).T @ want  # the image in orthonormal coordinates
    assert np.linalg.norm(problem.z_true - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("spread", [10.0, 1e3, 1e5])
def test_metric_frames_are_the_image_of_metric_gram_schmidt(spread):
    # with metric=M = L L^T the generator's trial and test frames are L^T times
    # the metric Gram-Schmidt frame of its seeded draws
    rng = np.random.default_rng(15)
    n, m, N, seed = 6, 9, 30, 23
    sigma = descending(rng, n, 0.05, 1.0)
    tau = descending(rng, n + 1, 0.01, 1.0)
    M = random_spd(rng, N, spread=spread)
    _, hierarchy, tests = synth_prescribed(
        n, m, N, sigma, random_orthogonal(rng, n), tau, tau, seed, metric=M
    )
    base, _ = metric_draws(n, m, N, seed, M)
    image = np.linalg.cholesky(M).T @ base
    assert np.max(np.abs(hierarchy.basis - image[:, :n])) <= 1e-10
    assert np.max(np.abs(tests - image[:, :m])) <= 1e-10


def test_frame_and_problem_of_different_dimension_are_refused():
    # nothing holds an ambient dimension: the products of a frame in R^N with a
    # problem in another R^N' refuse the pair, and assemble names the frame
    problem, hierarchy, tests = synth_prescribed(
        2, 3, 8, [1.0, 0.5], np.eye(2), [1.0, 0.5, 0.2], [1.0, 0.5, 0.2], 0
    )
    other = orthonormalize(np.eye(9)[:, :3])
    longer = SubspaceHierarchy(
        orthonormalize(np.eye(9)[:, :2]), hierarchy.widths, hierarchy.distances
    )
    for call in (
        lambda: riesz_representers(problem, other),
        lambda: rhs_vector(problem, other),
    ):
        with pytest.raises(ValueError):
            call()
    with pytest.raises(ValueError, match=r"^the test frame lies in R\^9, the problem in R\^8$"):
        assemble(problem, hierarchy, other)
    with pytest.raises(ValueError, match=r"^the trial frame lies in R\^9, the problem in R\^8$"):
        assemble(problem, longer, tests)


def test_generator_frames_are_orthonormal_far_inside_the_tolerance():
    # the trial and test frames enter the system through check_frame, which
    # refuses a Gram off the identity by more than ORTHONORMAL_TOL = 1e-10;
    # every generator's frames sit three decades inside it
    instances = [random_instance(3, 10, seed) for seed in range(2026, 2034)]
    instances += [example1(1e-4, 10, 40, seed=3, m=20), example2(1e-3, 16, 64, seed=3)]
    for seed in range(3):
        B = np.random.default_rng([seed, 1]).standard_normal((60, 60))
        instances.append(metric_example1(12, 60, seed, B @ B.T / 60 + np.eye(60)))
    for _, hierarchy, tests in instances:
        for frame in (hierarchy.basis, tests):
            assert np.max(np.abs(frame.T @ frame - np.eye(frame.shape[1]))) <= 1e-13


def test_hadamard_available_matches_flat_orthogonal():
    for n in range(-1, 257):
        try:
            flat_orthogonal(n)
            built = True
        except ValueError:  # no construction, or a nonpositive order
            built = False
        assert hadamard_available(n) == built, n


def test_hadamard_available_decides_large_orders():
    # answered without building anything: 1000000007 is a prime = 3 mod 4;
    # for 4 * 1000000009 neither 4000000035 = 5 * 800000007 nor the odd
    # part 1000000009 gives a quadratic-residue matrix
    assert hadamard_available(2**40)
    assert hadamard_available(4 * 1_000_000_008)
    assert not hadamard_available(4 * 1_000_000_009)
    assert not hadamard_available(3**40)  # odd orders above 2 never qualify


def test_check_messages_name_config_keys():
    cases = [
        (lambda: check_dimensions(0, 1, 2), "n must"),
        (lambda: check_dimensions(3, 2, 9), "m must"),
        (lambda: check_dimensions(3, 3, 5), "N must"),
        (lambda: check_spectrum(2, [0.5]), "sigma must have length"),
        (lambda: check_spectrum(2, [1.5, 0.5]), r"sigma entries .* \[0, 1\]"),
        (lambda: check_spectrum(2, [0.2, np.nan]), "sigma entries"),
        (lambda: check_spectrum(2, [0.2, 0.5]), "sigma must be nonincreasing"),
        (lambda: check_profile(1, [1.0, 0.5], [0.5]), "tau must have length"),
        (lambda: check_profile(1, [1.0], [0.5, 0.0]), "widths must have length"),
        (lambda: check_profile(1, [1.0, -0.5], [0.5, 0.0]), "widths entries"),
        (lambda: check_profile(1, [1.0, 0.5], [0.5, -0.1]), "tau entries"),
        (lambda: check_profile(1, [1.0, 0.5], [0.1, 0.2]), "tau must be"),
        (lambda: check_profile(1, [1.0, 0.5], [0.6, 0.6]), "widths must"),
        (lambda: check_example1(1.0, 6), "tau"),
        (lambda: check_example1(0.5, 3), "n must"),
        (lambda: check_example2(1e-3, 1), "n must"),
        (lambda: check_example2(0.2, 16), r"tau .*1/\(2\(n-1\)\)"),
        (lambda: check_example2(0.0, 16), "tau"),
        (lambda: check_example2(1e-3, 28), "n = 28"),
    ]
    for call, pattern in cases:
        with pytest.raises(ValueError, match=pattern):
            call()
    # the table that each profile entry point is checked against
    for widths, pattern in bad_profiles([1.0, 0.5, 0.2]):
        with pytest.raises(ValueError, match=pattern):
            check_profile(2, widths, np.zeros(3))
    assert check_example2(1e-3, 16) == 1 / 30
    # the plateau underflows, no OverflowError
    with pytest.raises(ValueError, match="tau must lie in"):
        check_example2(1e-300, 10**400)


def test_synth_prescribed_checks_the_profile_once(monkeypatch):
    # the hierarchy validates the profile; synth_prescribed reads tau from it
    import msrom.problems as problems_module

    calls = []
    monkeypatch.setattr(
        problems_module,
        "check_profile",
        lambda *args: calls.append(1) or check_profile(*args),
    )
    tau = np.array([1.0, 0.6, 0.3, 0.1])
    _, hierarchy, _ = synth_prescribed(3, 4, 9, [0.9, 0.5, 0.2], np.eye(3), tau, tau, 51)
    assert len(calls) == 1
    assert np.array_equal(hierarchy.distances, tau)


def test_synth_prescribed_validation():
    n, m, N = 3, 3, 8
    good_tau = np.array([1.0, 0.5, 0.3, 0.1])
    with pytest.raises(ValueError, match=r"sigma entries must lie in \[0, 1\]"):
        synth_prescribed(n, m, N, [1.2, 0.5, 0.1], np.eye(n), good_tau, good_tau, 0)
    with pytest.raises(ValueError, match="sigma must be nonincreasing"):
        synth_prescribed(n, m, N, [0.5, 0.8, 0.1], np.eye(n), good_tau, good_tau, 0)
    with pytest.raises(ValueError, match="X must be orthogonal"):
        synth_prescribed(n, m, N, [1.0, 0.5, 0.1], np.ones((3, 3)), good_tau, good_tau, 0)
    with pytest.raises(ValueError, match="X must be 3x3"):
        synth_prescribed(n, m, N, [1.0, 0.5, 0.1], np.eye(3)[:, :2], good_tau, good_tau, 0)
    for bad in (np.nan, np.inf, 1e200):  # refused before X^T X, which would warn
        X = np.eye(n)
        X[1, 2] = bad
        with pytest.raises(ValueError, match="X must be orthogonal"):
            synth_prescribed(n, m, N, [1.0, 0.5, 0.1], X, good_tau, good_tau, 0)
    with pytest.raises(ValueError, match="tau must be nonincreasing"):
        synth_prescribed(
            n, m, N, [1.0, 0.5, 0.1], np.eye(n), [0.1, 0.5, 0.3, 0.1], good_tau, 0
        )
    with pytest.raises(ValueError, match="m must be >= n = 3"):
        synth_prescribed(3, 2, N, [1.0, 0.5, 0.1], np.eye(3), good_tau, good_tau, 0)
    with pytest.raises(ValueError, match=r"N must be >= n \+ m = 6"):
        synth_prescribed(3, 3, 5, [1.0, 0.5, 0.1], np.eye(3), good_tau, good_tau, 0)


def rows_of(instance):
    """Some outputs of an instance's run, bit for bit, to compare two builds of it."""
    report, solution, decomp = run_instance(*instance, SolverOptions())
    return (decomp.sigma.tobytes(), report.ms_bound, report.actual_ms_error, solution.cost)


def test_synth_prescribed_refuses_non_integer_dimensions():
    # int() would truncate these to n = m = 3, N = 12 and build that instance;
    # a bool is a Python int, so True passed as n and m read as 1
    sigma, tau = [1.0, 0.5, 0.2], [1.0, 0.5, 0.2, 0.1]
    for dims in [(3.9, 3.2, 12.7), (3.0, 3, 12), (3, 3, "12"), (True, True, 3), (3, 3, True)]:
        with pytest.raises(ValueError, match="must be integers"):
            synth_prescribed(*dims, sigma, np.eye(3), tau, tau, 0)
    numpy_ints = synth_prescribed(*np.array([3, 4, 12]), sigma, np.eye(3), tau, tau, 0)
    python_ints = synth_prescribed(3, 4, 12, sigma, np.eye(3), tau, tau, 0)
    assert rows_of(numpy_ints) == rows_of(python_ints)


@pytest.mark.parametrize("make", [example1, example2])
def test_examples_refuse_non_integer_dimensions(make):
    tau = 1e-3
    for n, N, m in [(8.0, 32, None), (8, 32.5, None), (8, 32, 9.5)]:
        with pytest.raises(ValueError, match="must be integers"):
            make(tau, n, N, 0, m=m)
    built = make(tau, np.int64(8), np.int64(32), 0, m=np.int64(9))
    assert rows_of(built) == rows_of(make(tau, 8, 32, 0, m=9))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_synth_prescribed_properties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    m = int(rng.integers(n, 2 * n + 1))
    N = n + m + int(rng.integers(0, 4))
    sigma = descending(rng, n, 0.0, 1.0)
    tau = descending(rng, n + 1, 0.0, 1.5)
    problem, hierarchy, tests = synth_prescribed(
        n, m, N, sigma, random_orthogonal(rng, n), tau, tau, int(rng.integers(0, 2**31))
    )
    G = gram_matrix(riesz_representers(problem, tests), hierarchy.basis)
    s = np.linalg.svd(G, compute_uv=False)
    assert np.max(np.abs(s - sigma)) <= 1e-9
    z, W = problem.z_true, hierarchy.basis
    assert abs(np.linalg.norm(z - W @ (W.T @ z)) - tau[-1]) <= 1e-9
    # b really is a(z_true, .) on this instance: d_j = a(z_true, z_j) = <r_j, z_true>
    d = rhs_vector(problem, tests)
    want = riesz_representers(problem, tests).T @ z
    assert np.max(np.abs(d - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))


def test_example1_construction():
    tau = 1e-2
    problem, hierarchy, tests = example1(tau, n=6, N=24, seed=3)
    root = np.sqrt(tau)
    expected_sigma = np.array([1.0, 1.0, 1.0, root, root, tau])
    G = gram_matrix(riesz_representers(problem, tests), hierarchy.basis)
    s = np.linalg.svd(G, compute_uv=False)
    assert np.max(np.abs(s - expected_sigma)) <= 1e-9
    expected_profile = np.array([1.0, 1.0, 1.0, 1.0, root, root, tau])
    assert np.allclose(hierarchy.distances, expected_profile)
    assert np.allclose(hierarchy.widths, expected_profile)


def test_example1_validation():
    with pytest.raises(ValueError, match="n must be at least 4 for example1"):
        example1(1e-3, n=3, N=20, seed=0)
    with pytest.raises(ValueError, match=r"tau must lie in \(0, 1\) for example1"):
        example1(1.5, n=5, N=20, seed=0)


def test_example2_construction():
    tau = 1e-3
    n = 16
    problem, hierarchy, tests = example2(tau, n=n, N=64, seed=9)
    G = gram_matrix(riesz_representers(problem, tests), hierarchy.basis)
    s = np.linalg.svd(G, compute_uv=False)
    assert abs(s[0] - 1.0) <= 1e-9
    assert abs(s[-1] - tau**2) <= 1e-9
    limit = 1.0 / (2.0 * (n - 1))
    assert hierarchy.distances[0] == pytest.approx(0.5)
    assert hierarchy.distances[1] == pytest.approx(limit)
    assert hierarchy.distances[-1] == pytest.approx(tau)


def test_example2_validation():
    with pytest.raises(ValueError, match="n must be at least 2 for example2"):
        example2(1e-3, n=1, N=10, seed=0)
    with pytest.raises(ValueError, match=r"tau must lie in \(0, 1/\(2\(n-1\)\)\]"):
        example2(0.2, n=16, N=64, seed=0)  # above 1/(2(n-1))
    # no flat orthogonal matrix of order 28 from the built-in constructions
    with pytest.raises(ValueError, match="n = 28 has no flat orthogonal matrix"):
        example2(1e-3, n=28, N=120, seed=0)


def test_random_instance_validation():
    # a numpy draw would truncate a float bound, and n = 0 would index an empty spectrum
    for n_min, n_max in [(0, 3), (0, 0), (4, 3), (2.5, 4), (1, 4.0), (True, 3)]:
        with pytest.raises(ValueError, match=r"^need integers 1 <= n_min <= n_max"):
            random_instance(n_min, n_max, 0)
    problem, hierarchy, tests = random_instance(np.int64(2), 2, 5)
    assert (hierarchy.n, problem.z_true.size) == (2, 2 + tests.shape[1] + 3)


def test_riesz_family_shape_check():
    # the representers are an (N, m) matrix; a single vector is refused
    trial = np.eye(3)[:, :1]
    for call in (
        lambda R: gram_matrix(R, trial),
        lambda R: gamma_of(R, trial),
    ):
        with pytest.raises(ValueError, match="representers must be an"):
            call(np.zeros(3))
