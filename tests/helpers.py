"""Shared generators and independent oracles for the test suite.

Everything here deliberately avoids the library's own code paths: feasible
points come from direct tail clipping, reference minimizers from scipy's
SLSQP, reference projections from sampling plus polish and from Dykstra's
alternating projections, orthonormal and complement bases from vector-loop
Gram-Schmidt, the columns of a synthetic row from the generator's inputs and
scipy's linprog, the maximum of the bound's fill by enumeration.  Agreement
between these routines and the package is then evidence, not a tautology.
"""

import itertools
import os
import re
from pathlib import Path

import numpy as np
from scipy.optimize import linprog, minimize

import msrom
from msrom import (
    Assembly,
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


def metric_norm(M, v):
    return float(np.sqrt(max(v @ M @ v, 0.0)))


def mgs_orthonormalize(V, M):
    """Two-pass modified Gram-Schmidt of the columns of V in the inner product
    ``u^T M v``, for an SPD matrix M.

    Returns the (N, k) matrix of M-orthonormal columns; raises ValueError
    when a pivot drops to GS_RANK_TOL times the largest input norm.
    """
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
            raise ValueError(f"input vector {j} is dependent")
        basis.append(v / nrm)
    return np.column_stack(basis) if basis else np.zeros((V.shape[0], 0))


def complement_frame(frame):
    """Orthonormal basis, an (N, N - k) array, of the complement of the span of
    the (N, k) array ``frame``.

    Completes the frame with standard basis vectors in index order by
    two-pass Gram-Schmidt; a frame that fills the space gives zero columns.
    """
    N, k = frame.shape
    existing = [frame[:, j] for j in range(k)]
    out = []
    for i in range(N):
        if len(out) == N - k:
            break
        v = np.zeros(N)
        v[i] = 1.0
        for _ in range(2):
            for q in existing + out:
                v -= (q @ v) * q
        nrm = float(np.linalg.norm(v))
        if nrm > GS_RANK_TOL:
            out.append(v / nrm)
    if len(out) != N - k:
        raise ValueError("failed to complete the frame to a full basis")
    return np.column_stack(out) if out else np.zeros((N, 0))


def metric_draws(n, m, N, seed, M):
    """What ``synth_prescribed(n, m, N, ..., seed)`` draws, built in the metric M
    itself: ``(base, u)``, the metric Gram-Schmidt frame ``[W Q]`` of the first
    N x (n + m) normals, and the M-unit ``u`` M-orthogonal to W from the last N.
    With ``metric=M = L L^T`` the generator's frames and truth are their
    images under ``L^T``."""
    draws = np.random.default_rng(seed)
    base = mgs_orthonormalize(draws.standard_normal((N, n + m)), M)
    W = base[:, :n]
    u = draws.standard_normal(N)
    for _ in range(2):
        u -= W @ (W.T @ (M @ u))
    return base, u / metric_norm(M, u)


def descending(rng, size, low, high):
    return np.sort(rng.uniform(low, high, size=size))[::-1]


def metric_example1(n, N, seed, metric, tau=1e-4):
    """example1's spectrum and profile, built by synth_prescribed in a metric."""
    root = float(np.sqrt(tau))
    sigma = np.array([1.0] * (n - 3) + [root, root, tau])
    profile = np.array([1.0] * (n - 2) + [root, root, tau])
    return synth_prescribed(
        n, n, N, sigma, np.eye(n), profile, profile, seed, metric=metric
    )


def gamma_of(riesz, trial):
    """:func:`msrom.gamma` with the Gram formed here, as the assembly forms it."""
    return gamma(riesz, trial, gram_matrix(riesz, trial))


def system_of(decomp, hierarchy, gamma=0.0):
    """An assembly around ``decomp`` and ``hierarchy`` for the bound routines,
    which read only those, ``gamma`` and ``norm``: orthonormal representers
    (``norm = 1``) and a zero load."""
    m = decomp.G.shape[0]
    return Assembly(hierarchy, d=np.zeros(m), decomp=decomp, gamma=gamma, norm=1.0)


def identity_hierarchy(widths, distances=None):
    """A hierarchy on the first n coordinate directions of R^(n+1), n + 1 = len(widths);
    the distances default to the widths."""
    n = len(widths) - 1
    basis = np.eye(n + 1)[:, :n]
    distances = widths if distances is None else distances
    return SubspaceHierarchy(basis, widths=widths, distances=distances)


def slice_hierarchy(basis, widths):
    """A hierarchy for the slice solve, which reads the widths alone; its
    distances are zero, which every width dominates."""
    return SubspaceHierarchy(basis, widths=widths, distances=np.zeros(len(widths)))


def bad_profiles(good, key="widths"):
    """``(profile, message)`` for the five ways to spoil the valid profile
    ``good``: a NaN, a negative entry, a wrong length, a finite entry above
    ``PROFILE_LIMIT`` and an infinite one.  ``message`` matches what
    ``check_profile`` says of such a vector named ``key``."""
    good = np.asarray(good, dtype=float)
    nan, negative, big, infinite = good.copy(), good.copy(), good.copy(), good.copy()
    nan[1], negative[1], big[0], infinite[0] = np.nan, -0.5, 2.0 * PROFILE_LIMIT, np.inf
    too_large = f"^{key} entries must be finite and at most {re.escape(f'{PROFILE_LIMIT:g}')}$"
    return [
        (nan, f"^{key} entries must be nonnegative$"),
        (negative, f"^{key} entries must be nonnegative$"),
        (good[:-1], rf"^{key} must have length n\+1 = {good.size}, got shape"),
        (big, too_large),
        (infinite, too_large),
    ]


def gram_and_load(problem, hierarchy, tests):
    """The (G, d) pair of the discrete system, via the public plumbing."""
    riesz = riesz_representers(problem, tests)
    return gram_matrix(riesz, hierarchy.basis), rhs_vector(problem, tests)


def bound_step_ratios(problem, hierarchy, decomp, report, coeffs, slack=1e-9):
    """Check the two steps of the slice-constrained bound on one row.

    With ``c = W^T z_true`` the truth's trial coefficients, ``e = coeffs -
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
    c = hierarchy.basis.T @ problem.z_true
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
    return synth_prescribed(n, m, N, sigma, X, tau, tau, seed)


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
    return synth_prescribed(n, n, N, sigma, X, tau, tau, seed)


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


def _fill_by_lp(delta, sigma, budget):
    """``(ell, rho, sup_value)`` of the bound's fill, solved by linprog.

    Maximizes ``sum(delta_j**2 t_j)`` over ``t_j`` in [0, 1] subject to
    ``sum(sigma_j**2 delta_j**2 t_j) <= budget``, the objective
    scaled by its largest reward and the budget row by the budget.  The dual simplex returns a vertex, so at most one
    ``t_j`` is fractional.  ``ell`` is the 1-based first paying coordinate
    with ``t > 0`` and ``rho`` its ``t``; both are None when every paying
    coordinate saturates (the budget does not bind), and a zero budget that
    binds reads the limit of small positive budgets: ``ell`` the last
    paying coordinate, ``rho = 0``.
    """
    reward = delta * delta
    cost = sigma * sigma * reward
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
        ell = int(filled[0] if filled.size else paying[-1]) + 1
        rho = float(t[ell - 1])
    return ell, rho, float(reward @ t)


# the enumeration visits 2^n subsets and n fractional completions of each
ORACLE_MAX_DIM = 6


def sup_oracle(delta, sigma, budget):
    """Exhaustive maximum of the bound's fill, for n <= ORACLE_MAX_DIM.

    Maximizes ``sum(beta_j**2)`` over ``|beta_j| <= delta_j`` and
    ``sum(sigma_j**2 beta_j**2) <= budget``.  In the variables
    ``t_j = beta_j**2 / delta_j**2`` this is a linear program over a box with
    one budget row, so some optimizer has at most one fractional coordinate:
    every 0/1 assignment is tried, and each completion of it by one
    fractional coordinate.  The order of sigma does not matter here.  Raises
    ValueError for arrays of unequal length, for a negative or non-finite
    input, and above ORACLE_MAX_DIM.
    """
    delta, sigma = np.asarray(delta, dtype=float), np.asarray(sigma, dtype=float)
    if delta.ndim != 1 or sigma.shape != delta.shape:
        raise ValueError(f"delta and sigma must be 1-d of one length: {delta.shape}, {sigma.shape}")
    for values in (delta, sigma, np.array([budget], dtype=float)):
        if not (np.isfinite(values).all() and (values >= 0.0).all()):
            raise ValueError("delta, sigma and budget must be finite and nonnegative")
    n = delta.shape[0]
    if n > ORACLE_MAX_DIM:
        raise ValueError(f"enumeration limited to n <= {ORACLE_MAX_DIM}, got {n}")
    with np.errstate(over="ignore"):  # an overflowing cost is never taken whole
        cost = sigma * sigma * delta * delta
        reward = delta * delta
    best = 0.0
    for mask in range(1 << n):
        taken = [j for j in range(n) if mask & (1 << j)]
        c_sum = float(np.sum(cost[taken])) if taken else 0.0
        if c_sum > budget:
            continue
        value = float(np.sum(reward[taken])) if taken else 0.0
        best = max(best, value)
        remaining = budget - c_sum
        for j in range(n):
            if j in taken or cost[j] <= 0.0:
                continue
            # priced sigma_j^2 per unit of beta_j^2, divided by sigma_j twice, so
            # that an overflowing cost or price still buys a fraction
            s_j = float(sigma[j])
            best = max(best, value + min(float(reward[j]), remaining / s_j / s_j))
    return best


def synthetic_row(sigma, X, tau, widths, R, W, z_true, metric=None, tau_mode="known"):
    """Predicted CSV columns of a ``synth_prescribed`` instance.

    ``sigma``, ``X``, ``tau`` and ``widths`` are the generator's inputs;
    ``R``, ``W`` (the trial basis) and ``z_true`` are the instance's arrays,
    in coordinates whose inner product is ``u^T metric v`` (Euclidean for
    None).  By construction the Gram matrix is ``G = [diag(sigma) X^T; 0]``,
    so ``sigma`` is its spectrum and ``X`` its right factor, and the
    representers' component off the trial span is
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
    ell, rho, sup = _fill_by_lp(delta, sigma, 4.0 * gamma * gamma * tau_n * tau_n)
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


def package_env():
    """The environment with the tested msrom package first on PYTHONPATH, for
    the tests that run it in a fresh interpreter."""
    src = str(Path(msrom.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
