"""Variational problem instances, trial hierarchies, and synthetic generators.

A problem is the discretized weak formulation ``a(z, v) = b(v)`` with
``a(v, z) = v^T A z``, the operator kept as a factor pair ``A = R Y^T``,
and a known solution: ``b(v) = a(z_true, v)``.  Every vector is written in
orthonormal coordinates.  The synthetic generators construct instances
whose Gram spectrum, nested approximation distances, and slice widths are
known exactly, so error bounds can be compared against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check_dimensions, check_example1, check_example2, hadamard_available, is_integer
from .spaces import all_finite, check_frame, orthonormal, orthonormalize

__all__ = [
    "ProblemInstance",
    "SubspaceHierarchy",
    "riesz_representers",
    "rhs_vector",
    "flat_orthogonal",
    "synth_prescribed",
    "example1",
    "example2",
    "random_instance",
]


class ProblemInstance:
    """Weak problem ``a(z, v) = b(v)`` with a known exact solution ``z_true``.

    ``z_true`` is a vector of R^N.  The form is ``a(v, z) = v^T A z`` with
    ``A = R Y^T``, given as ``factors=(R, Y)``, two N x k matrices; every
    product with ``A`` goes through the factors.  A dense ``A`` is the pair
    ``(A, I)``.  The right-hand side is ``b(v) = a(z_true, v)``.  The factors
    and ``z_true`` must be finite (``ValueError`` otherwise).
    """

    def __init__(self, z_true: np.ndarray, *, factors: tuple[np.ndarray, np.ndarray]) -> None:
        self.z_true = np.asarray(z_true, dtype=float)
        if self.z_true.ndim != 1:
            raise ValueError(f"z_true must be a vector, got shape {self.z_true.shape}")
        N = self.z_true.size
        R, Y = (np.asarray(f, dtype=float) for f in factors)
        if R.ndim != 2 or R.shape[0] != N or Y.shape != R.shape:
            raise ValueError(
                f"factors must be two ({N}, k) matrices, got {R.shape} and {Y.shape}"
            )
        self.factors = (R, Y)
        if not (all_finite(R) and all_finite(Y) and all_finite(self.z_true)):
            raise ValueError("factors and z_true must have finite entries")


@dataclass(frozen=True, eq=False)
class SubspaceHierarchy:
    """Nested trial spaces ``V_0 = {0} <= V_1 <= ... <= V_n``.

    ``basis`` is an (N, n) array; column ``j`` extends ``V_j`` to ``V_{j+1}``,
    and there is at least one.  ``widths`` are the slice radii ``eps_0..eps_n``
    used as constraints; ``distances`` are the true values ``tau_k =
    dist(z_true, V_k)``.  Construction checks the frame (:func:`check_frame`), n
    and the profile (:func:`check_profile`) once, for every reader (``ValueError``),
    and keeps the caller's basis and a copy of each profile in a frozen record.
    """

    basis: np.ndarray
    widths: np.ndarray
    distances: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis", check_frame(self.basis, "trial"))
        if self.n < 1:
            raise ValueError(f"a hierarchy needs at least one trial direction, got n = {self.n}")
        widths, distances = check_profile(self.n, self.widths, self.distances)
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "distances", distances)

    @property
    def n(self) -> int:
        return self.basis.shape[1]

    def profile(self, tau_mode: str) -> np.ndarray:
        """The profile the bounds read: the true distances for ``"known"``, the
        widths for ``"practitioner"``.  Raises ``ValueError`` for another mode."""
        if tau_mode == "practitioner":
            return self.widths
        if tau_mode != "known":
            raise ValueError(f"tau_mode must be 'known' or 'practitioner', got {tau_mode!r}")
        return self.distances


# What a generator returns: the problem, its trial hierarchy and the (N, m) test frame.
Instance = tuple[ProblemInstance, SubspaceHierarchy, np.ndarray]


def riesz_representers(problem: ProblemInstance, tests: np.ndarray) -> np.ndarray:
    """The (N, m) matrix whose column j represents ``v -> a(v, z_j)``; with the
    stored convention r_j = A z_j for the columns z_j of the test frame ``tests``.

    With ``A = R Y^T`` this is ``R (Y^T Z)`` for any test frame ``Z``,
    without forming ``A``.
    """
    R, Y = problem.factors
    return R @ (Y.T @ tests)


def rhs_vector(problem: ProblemInstance, tests: np.ndarray) -> np.ndarray:
    """The vector ``d`` with ``d_j = b(z_j)``, as one product over the test basis.

    ``d = Z^T A^T z_true``, which with ``A = R Y^T`` is ``Z^T (Y (R^T
    z_true))`` for any test frame ``Z``.
    """
    R, Y = problem.factors
    return tests.T @ (Y @ (R.T @ problem.z_true))


def _paley(q: int) -> np.ndarray:
    """Order q+1 Hadamard matrix from quadratic residues, q prime, q % 4 == 3."""
    chi = np.array([0.0] + [1.0 if pow(a, (q - 1) // 2, q) == 1 else -1.0 for a in range(1, q)])
    i = np.arange(q)
    S = np.zeros((q + 1, q + 1))
    S[0, 1:] = 1.0
    S[1:, 0] = -1.0
    S[1:, 1:] = chi[(i[None, :] - i[:, None]) % q]
    return np.eye(q + 1) + S


def _hadamard(n: int) -> np.ndarray:
    if n == 1:
        return np.array([[1.0]])
    if n % 2 == 0 and hadamard_available(n // 2):
        H = _hadamard(n // 2)
        return np.block([[H, H], [H, -H]])
    return _paley(n - 1)


def flat_orthogonal(n: int) -> np.ndarray:
    """Orthogonal n x n matrix whose entries all have magnitude n**-0.5.

    Built from doubling and quadratic-residue constructions; raises
    ``ValueError`` exactly where :func:`msrom.config.hadamard_available` is
    false.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if not hadamard_available(n):
        raise ValueError(f"n = {n} has no flat orthogonal matrix construction")
    return _hadamard(n) / np.sqrt(n)


# Generator preconditions on arrays; those on scalars are in config.py, free of numpy.
def check_spectrum(n: int, sigma) -> np.ndarray:
    """``sigma`` has length n, entries in [0, 1] and is nonincreasing."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (n,):
        raise ValueError(f"sigma must have length n = {n}, got shape {sigma.shape}")
    if not np.all((sigma >= 0.0) & (sigma <= 1.0)):
        raise ValueError("sigma entries must lie in [0, 1]")
    if np.any(np.diff(sigma) > 0.0):
        raise ValueError("sigma must be nonincreasing")
    return sigma


# Largest width or distance.  The generators give ||z_true|| = tau_0 and
# ||R||_2 = 1, so the trial coefficients reach |c| ~ tau_0 / sigma_n, and the
# dual Newton of the slice solve squares |c| / sigma_n.  With sigma_n above the
# zero cutoff SINGULAR_REL_TOL = 1e-12 that square, tau_0^2 * 1e48, stays below
# 1e300, a factor of about 1e8 below the float range, while tau_0 <= 1e126.
PROFILE_LIMIT = 1e125


def check_vector(n: int, values, key: str = "widths") -> np.ndarray:
    """A private contiguous float copy of a width or distance vector: length n+1,
    entries finite and in [0, ``PROFILE_LIMIT``].  The one check of such a vector
    at every entry point; ``key`` names it in the ``ValueError`` message."""
    v = np.array(values, dtype=float)
    if v.shape != (n + 1,):
        raise ValueError(f"{key} must have length n+1 = {n + 1}, got shape {v.shape}")
    if not (v >= 0.0).all():  # NaN fails the comparison too
        raise ValueError(f"{key} entries must be nonnegative")
    if not (v <= PROFILE_LIMIT).all():
        raise ValueError(f"{key} entries must be finite and at most {PROFILE_LIMIT:g}")
    return v


def check_profile(n: int, widths, tau):
    """Widths and true distances ``tau``, each valid for :func:`check_vector`, with
    ``tau`` nonincreasing and below the widths.  Returns the checked copies."""
    t = check_vector(n, tau, "tau")
    w = check_vector(n, widths)
    if np.any(np.diff(t) > 0.0):
        raise ValueError("tau must be nonincreasing")
    if np.any(t > w):
        raise ValueError("widths must dominate tau entrywise (the prior must hold)")
    return w, t


# A metric may differ from its transpose by this times its largest entry;
# within it, 0.5 (M + M^T) is factored.
_METRIC_SYM_TOL = 1e-12


def _metric_root(N: int, metric) -> np.ndarray:
    """``L^T`` for the N x N metric ``M = L L^T`` (Cholesky) of a finite M,
    symmetric to ``_METRIC_SYM_TOL``; a failed factorization refuses an M that
    is not positive definite.  Reads the caller's array in place, never writing it."""
    M = np.asarray(metric, dtype=float)
    if M.shape != (N, N):
        raise ValueError(f"metric must be {N}x{N}, got {M.shape}")
    scale = np.max(np.abs(M))
    if not np.isfinite(scale):
        raise ValueError("metric entries must be finite")
    if not np.array_equal(M, M.T):
        if np.max(np.abs(M - M.T)) > _METRIC_SYM_TOL * scale:
            raise ValueError("metric must be symmetric")
        M = 0.5 * (M + M.T)
    try:
        return np.linalg.cholesky(M).T
    except np.linalg.LinAlgError:
        raise ValueError("metric must be positive definite") from None


def synth_prescribed(
    n: int,
    m: int,
    N: int,
    sigma,
    X,
    tau,
    widths,
    seed: int,
    *,
    metric: np.ndarray | None = None,
) -> Instance:
    """Synthesize an instance with prescribed Gram spectrum and distances.

    Draws a random orthonormal trial basis w_1..w_n together with m
    orthonormal complement directions q_1..q_m, then sets

        r_j = sigma_j (W X)_j + sqrt(1 - sigma_j^2) q_j   (j <= n)
        r_j = q_j                                          (j > n)

    so the Gram matrix of ``{r_j}`` against ``{w_i}`` has singular values
    ``sigma`` and right factor ``X``, while ``{r_j}`` stays orthonormal.  The
    operator is ``A = R Z^T``, which makes ``A z_j = r_j`` for any
    orthonormal test basis Z, so outputs depend on Z only through rounding.
    Z is not random: it is the first m columns of the frame ``[W Q]``, which
    for m = n is W itself.  The instance keeps A as the factor pair ``(R,
    Z)`` and never forms the N x N matrix.  The truth is ``z_true = sum_k c_k
    w_k + tau_n u`` with ``c_k = sqrt(tau_{k-1}^2 - tau_k^2)`` and a random
    unit ``u`` orthogonal to the trial span, so ``dist(z_true, V_k) = tau_k``
    for all k.  Returns ``(problem, hierarchy, Z)``.

    From ``seed`` it draws the N x (n + m) normals of the frame ``[W Q]``,
    then the N normals of ``u``; :func:`random_instance` draws its n, m,
    sigma, tau, X and this seed before.  Earlier versions drew N x m unused
    normals between the two, so every seed's ``u`` has changed since: the
    errors, cost and iterations of a run moved, and no bound did.

    ``metric``, a symmetric positive-definite N x N ``M``, builds the instance
    in the inner product ``u^T M v`` and returns its image in orthonormal
    coordinates: the random draws pass through ``x -> L^T x``, ``M = L L^T``,
    an isometry onto Euclidean R^N, before they are orthonormalized or
    projected.  :func:`_metric_root` states the refusals (``ValueError``).
    """
    check_dimensions(n, m, N)
    sigma = check_spectrum(n, sigma)
    X = np.asarray(X, dtype=float)
    if X.shape != (n, n):
        raise ValueError(f"X must be {n}x{n}")
    if not orthonormal(X):
        raise ValueError("X must be orthogonal")
    root = None if metric is None else _metric_root(N, metric)

    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((N, n + m))
    base = orthonormalize(draws if root is None else root @ draws)
    W, Q = base[:, :n], base[:, n:]
    hierarchy = SubspaceHierarchy(W, widths=widths, distances=tau)  # checks W and the profile
    tau = hierarchy.distances

    R = np.empty((N, m))
    R[:, :n] = (W @ X) * sigma + Q[:, :n] * np.sqrt(1.0 - sigma**2)
    R[:, n:] = Q[:, n:]

    # Z moves no output beyond rounding, so it reuses the frame (at m = n the trial
    # frame itself).
    Z = base[:, :m]

    coeff = np.sqrt(np.maximum(tau[:-1] ** 2 - tau[1:] ** 2, 0.0))
    u = rng.standard_normal(N)
    if root is not None:
        u = root @ u
    for _ in range(2):
        u -= W @ (W.T @ u)
    u /= np.linalg.norm(u)
    z_true = W @ coeff + tau[-1] * u

    problem = ProblemInstance(z_true, factors=(R, Z))
    return problem, hierarchy, Z


def example1(tau: float, n: int, N: int, seed: int, m: int | None = None) -> Instance:
    """Instance whose classical bound is 1 while the slice bound is O(sqrt(tau)).

    Spectrum and distances share the profile ``(1, ..., 1, sqrt(tau),
    sqrt(tau), tau)`` and X is the identity; the slice widths equal the
    distances.
    """
    check_example1(tau, n)
    m = n if m is None else m
    check_dimensions(n, m, N)
    root = float(np.sqrt(tau))
    sigma = np.array([1.0] * (n - 3) + [root, root, tau])
    profile = np.array([1.0] * (n - 2) + [root, root, tau])
    return synth_prescribed(n, m, N, sigma, np.eye(n), profile, profile, seed)


def example2(tau: float, n: int, N: int, seed: int, m: int | None = None) -> Instance:
    """Instance whose classical bound is 1/tau while the slice bound is O(n**-0.5).

    Uses a flat orthogonal X, distances ``(1/2, 1/(2(n-1)), ..., 1/(2(n-1)),
    tau)`` with widths equal to distances, smallest singular value ``tau**2``,
    and the bulk value chosen so the budget threshold sits exactly at the
    second-to-last index.  For n >= 3 the leading singular value is pinned to
    1, the norm of the (orthonormal) representer family, which the classical
    quotient bound reads at every n: it evaluates to ``tau**-2 * tau``.
    """
    limit = check_example2(tau, n)
    m = n if m is None else m
    check_dimensions(n, m, N)
    X = flat_orthogonal(n)
    bulk = tau * np.sqrt(n - tau**2)
    sigma = np.full(n, bulk)
    sigma[-1] = tau**2
    if n >= 3:
        sigma[0] = 1.0
    profile = np.array([0.5] + [limit] * (n - 1) + [tau])
    return synth_prescribed(n, m, N, sigma, X, profile, profile, seed)


def random_instance(n_min: int, n_max: int, seed: int) -> Instance:
    """Random-sweep instance: n in [n_min, n_max], m in [n, 2n], N = n + m + 3.

    Draws, in this order from ``seed``: n, m, a nonincreasing spectrum with
    sigma_1 pinned to 1 (the norm of the orthonormal representers), a
    nonincreasing distance profile that is also the widths, a Haar-random
    orthogonal X (:func:`msrom.orthonormalize` of a Gaussian matrix), and the
    seed of :func:`synth_prescribed`.  ``n_min`` and ``n_max`` are integers
    with 1 <= n_min <= n_max (``ValueError`` otherwise).
    """
    if not (is_integer(n_min) and is_integer(n_max) and 1 <= n_min <= n_max):
        raise ValueError(f"need integers 1 <= n_min <= n_max, got {n_min!r} and {n_max!r}")
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_min, n_max + 1))
    m = int(rng.integers(n, 2 * n + 1))
    sigma = np.sort(rng.uniform(0.05, 1.0, size=n))[::-1]
    sigma[0] = 1.0
    tau = np.sort(rng.uniform(0.0, 1.0, size=n + 1))[::-1]
    X = orthonormalize(rng.standard_normal((n, n)))
    child_seed = int(rng.integers(0, 2**31))
    return synth_prescribed(n, m, n + m + 3, sigma, X, tau, tau, child_seed)
