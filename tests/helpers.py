"""Shared generators and independent oracles for the test suite.

Everything here deliberately avoids the library's own code paths: feasible
points come from direct tail clipping, reference minimizers from scipy's
SLSQP, reference projections from sampling plus polish and from Dykstra's
alternating projections, orthonormal and complement bases from vector-loop
Gram-Schmidt, the columns of a synthetic row from the generator's inputs and
scipy's linprog.  Agreement between
these routines and the package is then evidence, not a tautology.
"""

import itertools
import re

import numpy as np
from scipy.optimize import linprog, minimize

from msrom import (
    AmbientSpace,
    Assembly,
    OrthonormalFrame,
    RankDeficient,
    SubspaceHierarchy,
    gamma,
    gram_matrix,
    rhs_vector,
    riesz_representers,
    synth_prescribed,
)
from msrom.problems import PROFILE_LIMIT

# a Gram-Schmidt pivot below this times the reference norm counts as zero
GS_RANK_TOL = 1e-10


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_spd(rng, dim, spread=4.0):
    """SPD matrix with eigenvalues log-uniform in [1/spread, spread]."""
    q = random_orthogonal(rng, dim)
    eigs = np.exp(rng.uniform(-np.log(spread), np.log(spread), size=dim))
    return (q * eigs) @ q.T


def metric_of(space):
    return space.metric if space.metric is not None else np.eye(space.dim)


def metric_norm(M, v):
    return float(np.sqrt(max(v @ M @ v, 0.0)))


def mgs_orthonormalize(V, space):
    """Two-pass modified Gram-Schmidt of the columns of V in the metric.

    Returns the (N, k) matrix of metric-orthonormal columns; raises
    RankDeficient when a pivot drops to GS_RANK_TOL times the largest input
    norm.
    """
    M = metric_of(space)
    V = np.asarray(V, dtype=float)
    tol = GS_RANK_TOL * max((metric_norm(M, v) for v in V.T), default=0.0)
    basis = []
    for j in range(V.shape[1]):
        v = V[:, j].copy()
        for _ in range(2):
            for q in basis:
                v -= (q @ M @ v) * q
        nrm = metric_norm(M, v)
        if nrm <= tol:
            raise RankDeficient(f"input vector {j} is dependent")
        basis.append(v / nrm)
    return np.column_stack(basis) if basis else np.zeros((V.shape[0], 0))


def complement_frame(frame):
    """Metric-orthonormal basis of the complement of the frame's span.

    Completes the frame with standard basis vectors in index order by
    two-pass Gram-Schmidt; a frame that fills the space gives zero columns.
    """
    space = frame.space
    M = metric_of(space)
    N, k = space.dim, frame.n_columns
    existing = [frame.columns[:, j] for j in range(k)]
    out = []
    for i in range(N):
        if len(out) == N - k:
            break
        v = np.zeros(N)
        v[i] = 1.0
        base = float(np.sqrt(M[i, i]))
        for _ in range(2):
            for q in existing + out:
                v -= (q @ M @ v) * q
        nrm = metric_norm(M, v)
        if nrm > GS_RANK_TOL * base:
            out.append(v / nrm)
    if len(out) != N - k:
        raise RankDeficient("failed to complete the frame to a full basis")
    cols = np.column_stack(out) if out else np.zeros((N, 0))
    return OrthonormalFrame(space, cols)


def decompose_loop(G):
    """``(U, X, sigma)`` of a full SVD with decompose's sign rule, one column at a time.

    Each column of X is flipped so that its first largest-magnitude entry is
    positive; the paired column of U flips along when it exists (j < m).
    """
    G = np.asarray(G, dtype=float)
    m, n = G.shape
    U, s, Vt = np.linalg.svd(G, full_matrices=True)
    X = Vt.T
    sigma = np.zeros(n)
    sigma[: s.shape[0]] = s
    for j in range(n):
        i = int(np.argmax(np.abs(X[:, j])))
        if X[i, j] < 0.0:
            X[:, j] = -X[:, j]
            if j < m:
                U[:, j] = -U[:, j]
    return U, X, sigma


def descending(rng, size, low, high):
    return np.sort(rng.uniform(low, high, size=size))[::-1]


def metric_example1(n, N, seed, metric, tau=1e-4):
    """example1's spectrum and profile, built by synth_prescribed in a metric."""
    root = float(np.sqrt(tau))
    sigma = np.array([1.0] * (n - 3) + [root, root, tau])
    profile = np.array([1.0] * (n - 2) + [root, root, tau])
    return synth_prescribed(
        n, n, N, sigma, np.eye(n), profile, profile.copy(), seed, metric=metric
    )


def gamma_of(riesz, trial):
    """:func:`msrom.gamma` with the Gram formed here, as the assembly forms it."""
    return gamma(riesz, trial, gram_matrix(riesz, trial))


def system_of(decomp, gamma=0.0):
    """An assembly around ``decomp`` for the bound routines, which read only
    its decomposition, ``gamma`` and ``norm``: orthonormal representers
    (``R = I``, so ``norm = 1``) and a zero load."""
    m = decomp.G.shape[0]
    return Assembly(R=np.eye(m), d=np.zeros(m), decomp=decomp, gamma=gamma, norm=1.0)


def identity_hierarchy(widths, distances=None):
    """A hierarchy on the first n coordinate directions of R^(n+1), n + 1 = len(widths)."""
    n = len(widths) - 1
    basis = OrthonormalFrame(AmbientSpace(n + 1), np.eye(n + 1)[:, :n])
    return SubspaceHierarchy(basis, widths=widths, distances=distances)


def bad_profiles(good, key="widths"):
    """``(profile, message)`` for the four ways to spoil the valid profile
    ``good``: a NaN, a negative entry, a wrong length and a finite entry above
    ``PROFILE_LIMIT``.  ``message`` matches what ``check_profile`` says of
    such a vector named ``key``."""
    good = np.asarray(good, dtype=float)
    nan, negative, big = good.copy(), good.copy(), good.copy()
    nan[1], negative[1], big[0] = np.nan, -0.5, 2.0 * PROFILE_LIMIT
    return [
        (nan, f"^{key} entries must be nonnegative$"),
        (negative, f"^{key} entries must be nonnegative$"),
        (good[:-1], rf"^{key} must have length n\+1 = {good.size}, got shape"),
        (big, f"^finite {key} entries must be at most {re.escape(f'{PROFILE_LIMIT:g}')}$"),
    ]


def assemble(problem, hierarchy, tests):
    """The (G, d) pair of the discrete system, via the public plumbing."""
    riesz = riesz_representers(problem, tests)
    return gram_matrix(riesz, hierarchy.basis), rhs_vector(problem, tests)


def bound_step_ratios(problem, hierarchy, decomp, report, coeffs, slack=1e-9):
    """Check the two steps of the slice-constrained bound on one row.

    With ``c = W^T M z_true`` the truth's trial coefficients, ``e = coeffs -
    c`` the error of the solve's coefficients and ``beta = X^T e`` for the
    row's right singular vectors X, and delta and gamma read from the
    "known" bound ``report``:

    - both ``coeffs`` and c lie in their slices (widths and distances), so
      ``|e_i| <= eps_i + tau_i`` and ``|beta_j| <= delta_j``;
    - c is feasible and ``coeffs`` optimal, and ``||d - G c|| <= gamma
      tau_n``, so ``sum_j sigma_j^2 beta_j^2 = ||G e||^2 <= 4 gamma^2
      tau_n^2``.

    Asserts both to ``slack`` (the solve is optimal only to its certificate)
    and returns the largest ratios ``(max |beta_j| / delta_j, ||G e||^2 /
    budget)``, each 0 where its denominator is.
    """
    c = hierarchy.basis.columns.T @ problem.space.apply_metric(problem.z_true)
    beta = decomp.X.T @ (coeffs - c)
    delta, gam = report.intermediates.delta, report.intermediates.gamma
    assert np.all(np.abs(beta) <= delta + slack), (beta, delta)
    spent = float(np.sum((decomp.sigma * beta) ** 2))
    budget = 4.0 * (gam * hierarchy.distances[-1]) ** 2
    assert spent <= budget + slack, (spent, budget)
    ratio = np.divide(np.abs(beta), delta, out=np.zeros_like(delta), where=delta > 0.0)
    return float(np.max(ratio, initial=0.0)), spent / budget if budget > 0.0 else 0.0


def sweep_instance(rng, n_low=3, n_high=12):
    """Random synthetic instance with a free spectrum in (0, 1]."""
    n = int(rng.integers(n_low, n_high + 1))
    m = int(rng.integers(n, 2 * n + 1))
    N = n + m + int(rng.integers(2, 6))
    sigma = descending(rng, n, 0.01, 1.0)
    tau = descending(rng, n + 1, 1e-3, 1.2)
    X = random_orthogonal(rng, n)
    seed = int(rng.integers(0, 2**31))
    return synth_prescribed(n, m, N, sigma, X, tau, tau.copy(), seed)


def square_instance(rng, n_low=3, n_high=10):
    """m = n instance with sigma_1 pinned to the representer-family norm 1.

    With m = n the complement coupling is gamma = sqrt(1 - sigma_n^2), so
    sigma_n^2 + gamma^2 <= sigma_1^2 = ||R||^2.  sigma_n stays >= 0.05.
    """
    n = int(rng.integers(n_low, n_high + 1))
    N = 2 * n + int(rng.integers(2, 6))
    sigma = descending(rng, n, 0.05, 1.0)
    sigma[0] = 1.0
    tau = descending(rng, n + 1, 1e-3, 1.2)
    X = random_orthogonal(rng, n)
    seed = int(rng.integers(0, 2**31))
    return synth_prescribed(n, n, N, sigma, X, tau, tau.copy(), seed)


def clip_to_feasible(c, widths):
    """Feasible point from an arbitrary one by clipping tails head-first.

    Shrinking the tail block at k never grows any earlier tail norm, so a
    single downward sweep lands inside every cylinder.
    """
    x = np.array(c, dtype=float)
    n = x.shape[0]
    for k in range(n):
        w = widths[k]
        if not np.isfinite(w):
            continue
        t = float(np.linalg.norm(x[k:]))
        if t > w:
            x[k:] *= 0.0 if w == 0.0 else w / t
    return x


def dykstra_projection(c, widths):
    """Reference projection onto the tail-norm cylinders by Dykstra's method.

    Alternating projections with correction terms (Boyle & Dykstra 1986),
    run until a full sweep moves the iterate by at most 1e-15 times the
    input scale (at most 100000 sweeps), then clipped head-first so the
    result is exactly feasible.  Infinite widths are skipped; the final
    width entry is ignored.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    ks = [k for k in range(n) if np.isfinite(widths[k])]
    x = c.copy()
    corrections = np.zeros((len(ks), n))
    scale = max(1.0, float(np.max(np.abs(c), initial=0.0)))
    for _ in range(100_000):
        x_prev = x
        for i, k in enumerate(ks):
            y = x + corrections[i]
            t = float(np.linalg.norm(y[k:]))
            z = y.copy()
            if t > widths[k]:
                z[k:] *= widths[k] / t
            corrections[i] = y - z
            x = z
        if float(np.max(np.abs(x - x_prev), initial=0.0)) <= 1e-15 * scale:
            break
    return clip_to_feasible(x, widths)


def random_feasible(rng, widths, n, scale=1.0):
    return clip_to_feasible(rng.standard_normal(n) * scale, widths)


def _polish(fun, jac, x0, widths, n):
    cons = []
    for k in range(n):
        if not np.isfinite(widths[k]):
            continue

        def c_fun(x, k=k):
            return widths[k] ** 2 - float(x[k:] @ x[k:])

        def c_jac(x, k=k):
            g = np.zeros(n)
            g[k:] = -2.0 * x[k:]
            return g

        cons.append({"type": "ineq", "fun": c_fun, "jac": c_jac})
    res = minimize(
        fun,
        x0,
        jac=jac,
        method="SLSQP",
        constraints=cons,
        options={"maxiter": 400, "ftol": 1e-14},
    )
    return np.asarray(res.x, dtype=float)


def brute_force_ms(G, d, widths, rng, n_grid=7, n_starts=6):
    """Reference minimum of ||G c - d||^2 over the nested tail cylinders.

    Coarse sampling (a grid clipped into the feasible set plus random
    feasible points) followed by SLSQP polish from the best candidates and
    from the clipped least-squares point.  Returns (cost, argmin).
    """
    n = G.shape[1]

    def fun(x):
        r = G @ x - d
        return float(r @ r)

    def jac(x):
        return 2.0 * (G.T @ (G @ x - d))

    c_ls = np.linalg.lstsq(G, d, rcond=None)[0]
    cap = widths[0] if np.isfinite(widths[0]) else max(1.0, float(np.linalg.norm(c_ls)))
    axes = [np.linspace(-cap, cap, n_grid)] * n
    candidates = [clip_to_feasible(np.array(p), widths) for p in itertools.product(*axes)]
    candidates.extend(random_feasible(rng, widths, n, scale=cap) for _ in range(200))
    candidates.append(clip_to_feasible(c_ls, widths))
    candidates.sort(key=fun)
    best_x = candidates[0]
    best = fun(best_x)
    for x0 in candidates[:n_starts]:
        x = clip_to_feasible(_polish(fun, jac, x0, widths, n), widths)
        value = fun(x)
        if value < best:
            best, best_x = value, x
    return best, best_x


def brute_force_projection(c, widths, rng, n_starts=40):
    """Reference Euclidean projection onto the cylinder intersection (small n)."""
    n = c.shape[0]

    def fun(x):
        diff = x - c
        return float(diff @ diff)

    def jac(x):
        return 2.0 * (x - c)

    best_x = clip_to_feasible(c, widths)
    best = fun(best_x)
    scale = max(1.0, float(np.max(np.abs(c)))) if n else 1.0
    for _ in range(n_starts):
        x0 = random_feasible(rng, widths, n, scale=scale)
        x = clip_to_feasible(_polish(fun, jac, x0, widths, n), widths)
        if fun(x) < best:
            best, best_x = fun(x), x
    x = clip_to_feasible(_polish(fun, jac, best_x, widths, n), widths)
    if fun(x) < best:
        best_x = x
    return best_x


def _fill_by_lp(delta, sigma, gamma, tau_n):
    """``(ell, rho, sup_value)`` of the bound's fill, solved by linprog.

    Maximizes ``sum(delta_j**2 t_j)`` over ``t_j`` in [0, 1] subject to
    ``sum(sigma_j**2 delta_j**2 t_j) <= 4 gamma**2 tau_n**2``, the objective
    scaled by its largest reward and the budget row by the budget.  The dual simplex returns a vertex, so at most one
    ``t_j`` is fractional.  ``ell`` is the 1-based first paying coordinate
    with ``t > 0`` and ``rho`` its ``t``; both are None when every paying
    coordinate saturates (the budget does not bind), and a zero budget that
    binds reads ``ell = n, rho = 0``.
    """
    reward = delta * delta
    cost = sigma * sigma * reward
    budget = 4.0 * gamma * gamma * tau_n * tau_n
    unit = budget or float(cost.max(initial=0.0)) or 1.0
    res = linprog(
        -reward / (float(reward.max(initial=0.0)) or 1.0),
        A_ub=(cost / unit)[None, :],
        b_ub=[budget / unit],
        bounds=(0.0, 1.0),
        method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    t = res.x
    paying = np.flatnonzero(cost > 0.0)
    if np.all(t[paying] == 1.0):
        ell, rho = None, None
    else:
        filled = paying[t[paying] > 0.0]
        ell, rho = (int(filled[0]) + 1, float(t[filled[0]])) if filled.size else (delta.size, 0.0)
    return ell, rho, float(reward @ t)


def synthetic_row(sigma, X, tau, widths, R, W, z_true, metric=None, tau_mode="known"):
    """Predicted CSV columns of a ``synth_prescribed`` instance.

    ``sigma``, ``X``, ``tau`` and ``widths`` are the generator's inputs;
    ``R``, ``W`` (the trial basis), ``z_true`` and ``metric`` are the
    instance's public arrays.  By construction the Gram matrix is
    ``G = [diag(sigma) X^T; 0]``, so ``sigma`` is its spectrum and ``X`` its
    right factor, and the representers' component off the trial span is
    ``sqrt(1 - sigma_j**2) q_j`` (j <= n) or ``q_j`` (j > n) for orthonormal
    ``q_j``: ``gamma = sqrt(1 - sigma_n**2)`` when m = n and 1 when m > n.
    The representers are orthonormal, so the quotient bound's constant, their
    norm, is 1.
    The classical projection solves ``G c = d`` in the least-squares sense;
    with ``coeff`` the truth's trial coefficients, ``d - G coeff = R^T M (z_true
    - W coeff)`` and ``c - coeff = X (d - G coeff)[:n] / sigma``, so its error
    is ``sqrt(||c - coeff||**2 + tau_n**2)``.  Calls nothing of ``spectral``,
    ``bounds`` or ``solvers``.  Returns a dict keyed by CSV column, with
    ``babuska_bound`` and ``actual_pg_error`` None when ``sigma_n = 0`` (the
    CSV's ``undefined`` at m = n; not predicted at m > n).
    """
    sigma, X, tau, widths = (np.asarray(a, dtype=float) for a in (sigma, X, tau, widths))
    n, m = sigma.size, R.shape[1]
    profile = tau if tau_mode == "known" else widths
    tau_n = float(profile[-1])
    gamma = float(np.sqrt(1.0 - sigma[-1] ** 2)) if m == n else 1.0
    delta = np.abs(X).T @ (profile[:n] + widths[:n])
    ell, rho, sup = _fill_by_lp(delta, sigma, gamma, tau_n)
    row = {
        "sigma_1": float(sigma[0]),
        "sigma_n": float(sigma[-1]),
        "gamma": gamma,
        "ell": ell,
        "rho": rho,
        "sup_value": sup,
        "tau_n": tau_n,
        "ms_bound": float(np.sqrt(sup + tau_n * tau_n)),
        "babuska_bound": None,
        "actual_pg_error": None,
    }
    if sigma[-1] > 0.0:
        coeff = np.sqrt(np.maximum(tau[:-1] ** 2 - tau[1:] ** 2, 0.0))
        outside = z_true - W @ coeff
        residual = R.T @ (outside if metric is None else metric @ outside)
        shift = X @ (residual[:n] / sigma)
        row["babuska_bound"] = float(1.0 / sigma[-1] * tau_n)
        row["actual_pg_error"] = float(np.sqrt(shift @ shift + tau[-1] ** 2))
    return row
