"""Projectors onto the trial space: classical and slice-constrained.

Both read one assembly per instance: the load vector ``d`` and the SVD of
the test/trial Gram matrix ``G``.  ``solve_pg`` returns the least-squares
solution of ``G c = d``.  ``solve_ms`` minimizes the same residual subject to
the nested tail-norm constraints ``dist(h, V_k) <= eps_k``, a convex quadratic
over an intersection of centered cylinders, by a primal-dual active-set method
(Newton on the working-set multipliers) with an accelerated projected-gradient
fallback whose projection step, :func:`project_slices`, is exact and finite.
The trial spaces are nested, so a width binds only where it sets a strict new
running minimum; only those widths enter the working set and the checks.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .problems import ProblemInstance, SubspaceHierarchy, TestSpace, rhs_vector, riesz_representers
from .spaces import OrthonormalFrame
from .spectral import GramDecomposition, decompose, gram_matrix

__all__ = [
    "SingularSystem",
    "InfeasibleWidths",
    "TruthUnavailable",
    "SolverOptions",
    "MultiSliceSolution",
    "solve_pg",
    "project_slices",
    "solve_ms",
    "error_norm",
]

# Relative threshold below which the smallest singular value is treated as zero.
SINGULAR_REL_TOL = 1e-12


class SingularSystem(ValueError):
    """The square test/trial system is numerically singular."""


class InfeasibleWidths(ValueError):
    """Slice widths contain negative or NaN entries."""


class TruthUnavailable(ValueError):
    """The problem carries no exact solution to compare against."""


@dataclass(frozen=True)
class SolverOptions:
    """Iteration budget and stall tolerance for :func:`solve_ms`.

    ``max_iterations`` caps the projected-gradient fallback;
    ``gradient_tolerance`` is the relative cost decrease below which a
    fallback step counts as stalled.
    """

    max_iterations: int = 50_000
    gradient_tolerance: float = 1e-10

    def __post_init__(self) -> None:
        if self.max_iterations < 1 or self.gradient_tolerance <= 0.0:
            raise ValueError("max_iterations and gradient_tolerance must be positive")


@dataclass(eq=False)
class MultiSliceSolution:
    """Result of :func:`solve_ms`.

    ``cost`` is the squared residual at ``point``; ``kkt_residual`` is the
    projected-gradient mapping norm at the returned coefficients.
    ``non_unique_hint`` flags a numerically rank-deficient Gram matrix, in
    which case the minimizer need not be unique.
    """

    point: np.ndarray
    coeffs: np.ndarray
    cost: float
    iterations: int
    converged: bool
    kkt_residual: float
    non_unique_hint: bool = False


# The innermost `_assembled` block's (problem, trial, tests) and their assembly.
_lent = ContextVar("msrom_lent_system", default=((None,) * 3, None))


def _assemble(problem: ProblemInstance, trial: OrthonormalFrame, tests: TestSpace):
    """``(riesz, d, decomp)``: the representers, the load vector and the SVD of ``G``."""
    objects, system = _lent.get()
    if all(a is b for a, b in zip(objects, (problem, trial, tests))):
        return system
    if tests.m < trial.n_columns:
        raise ValueError(
            f"need at least as many tests as trial directions (m={tests.m}, n={trial.n_columns})"
        )
    riesz = riesz_representers(problem, tests)
    return riesz, rhs_vector(problem, tests), decompose(gram_matrix(riesz, trial))


@contextlib.contextmanager
def _assembled(problem: ProblemInstance, trial: OrthonormalFrame, tests: TestSpace):
    """Assemble once; ``solve_pg`` and ``solve_ms`` on the same three objects
    inside the block reuse it instead of assembling and factoring ``G`` again."""
    system = _assemble(problem, trial, tests)
    token = _lent.set(((problem, trial, tests), system))
    try:
        yield system
    finally:
        _lent.reset(token)


def _singular(sigma: np.ndarray) -> bool:
    return sigma.size > 0 and bool(sigma[-1] <= SINGULAR_REL_TOL * sigma[0])


def _least_squares(decomp: GramDecomposition, d: np.ndarray) -> np.ndarray:
    """``X diag(sigma)^+ U^T d`` with ``lstsq``'s cutoff ``eps * max(m, n) * sigma_1``."""
    m, n = decomp.G.shape
    cutoff = np.finfo(float).eps * max(m, n) * np.max(decomp.sigma, initial=0.0)
    inverse = np.divide(1.0, decomp.sigma, out=np.zeros(n), where=decomp.sigma > cutoff)
    return decomp.X @ (inverse * (decomp.U[:, :n].T @ d))


def solve_pg(
    problem: ProblemInstance, trial: OrthonormalFrame, tests: TestSpace
) -> tuple[np.ndarray, np.ndarray]:
    """Classical projection: solve ``G c = d`` (least squares when m > n).

    Returns ``(point, coeffs)``.  Raises :class:`SingularSystem` for a square
    system whose smallest singular value is below ``SINGULAR_REL_TOL`` times
    the largest.
    """
    _, d, decomp = _assemble(problem, trial, tests)
    m, n = decomp.G.shape
    s = decomp.sigma
    if m == n and _singular(s):
        raise SingularSystem(
            f"smallest singular value {s[-1]:.3e} below {SINGULAR_REL_TOL} * {s[0]:.3e}"
        )
    coeffs = _least_squares(decomp, d)
    return trial.columns @ coeffs, coeffs


def project_slices(c, widths) -> np.ndarray:
    """Euclidean projection onto ``{x : ||x[k:]|| <= widths[k], k = 0..n-1}``.

    The projection scales each entry by a factor in [0, 1] that does not grow
    toward the tail; in the squared entries it is a separable convex problem
    under nested tail-sum caps (the squared running minimum of the widths),
    solved exactly by backward pool-adjacent-violators (Barlow et al. 1972;
    Robertson, Wright and Dykstra 1988).  Walking from the tail, a block gets
    the squared factor ``min(1, (cap at its head - mass behind it) / its
    squared mass)`` and merges with its tail neighbour while its factor is the
    smaller.  The final width entry is ignored; infinite widths never bind.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1:
        raise ValueError(f"c must be one-dimensional, got shape {c.shape}")
    n = c.shape[0]
    widths = np.asarray(widths, dtype=float)
    if widths.shape != (n + 1,):
        raise ValueError(f"widths must have length n+1 = {n + 1}, got {widths.shape}")
    if np.any(np.isnan(widths)) or np.any(widths < 0.0):
        raise InfeasibleWidths("widths must be nonnegative")
    caps = (np.minimum.accumulate(widths[:n]) ** 2).tolist()
    blocks = []  # [head index, squared mass, mass behind it, squared factor], tail first
    for j in range(n - 1, -1, -1):
        mass = float(c[j]) ** 2
        behind = blocks[-1][2] + blocks[-1][1] * blocks[-1][3] if blocks else 0.0
        # a massless block never merges: the running minimum keeps behind <= caps[j]
        factor = min(1.0, (caps[j] - behind) / mass) if mass > 0.0 else 1.0
        while blocks and factor < blocks[-1][3]:
            _, tail_mass, behind, _ = blocks.pop()
            mass += tail_mass
            factor = min(1.0, (caps[j] - behind) / mass)
        blocks.append([j, mass, behind, factor])
    factors = np.empty(n)
    for head, _, _, factor in reversed(blocks):  # each block overwrites its own tail
        factors[head:] = factor
    return c * np.sqrt(factors)


def _kkt_tol(eps2, cc):
    """Slack allowed on ``||c[k:]||^2 <= eps_k^2``, for eps_k^2 and ||c||^2."""
    return 1e-11 * np.maximum(eps2, 1e-30) + 1e-14 * cc


def _newton_working_set(H, h, eps, active, c_ls):
    """Clipped Newton for the multipliers of the working set ``active``.

    Seeks ``lam >= 0`` such that the minimizer of the penalized quadratic,
    ``(H + diag(cumulated lam)) c = h``, has squared tail norms equal to
    ``eps_k**2`` wherever ``lam_k > 0`` and within bounds wherever
    ``lam_k = 0``.  Returns ``(c, lam, ok, evals)``.
    """
    n = H.shape[0]
    if len(active) == 0:
        return c_ls, np.zeros(0), True, 0
    active = np.asarray(active)
    tails = np.arange(n) >= active[:, None]  # row i selects c[active[i]:]
    eps2 = eps[active] ** 2

    def evaluate(lam_vec):
        K = H + np.diag(np.cumsum(np.bincount(active, weights=lam_vec, minlength=n)))
        try:
            c = np.linalg.solve(K, h)
        except np.linalg.LinAlgError:
            ridge = 1e-14 * (np.trace(K) / n + 1.0)
            try:
                c = np.linalg.solve(K + ridge * np.eye(n), h)
            except np.linalg.LinAlgError:
                return None
        F = (tails * c) @ c - eps2
        return c, F, K

    def merit(lam_vec, F):
        resid = np.where(lam_vec > 0.0, np.abs(F), np.maximum(F, 0.0))
        return float(np.max(resid))

    lam = np.zeros(active.size)
    state = evaluate(lam)
    if state is None:
        return None, lam, False, 1
    c, F, K = state
    evals = 1
    for _ in range(80):
        tol_f = _kkt_tol(eps2, float(c @ c))
        resid = np.where(lam > 0.0, np.abs(F), np.maximum(F, 0.0))
        if np.all(resid <= tol_f):
            return c, lam, True, evals
        free = (lam > 0.0) | (F > tol_f)
        if not np.any(free):
            return c, lam, True, evals
        free_idx = np.nonzero(free)[0]
        B = (tails[free_idx] * c).T
        try:
            V = np.linalg.solve(K, B)
        except np.linalg.LinAlgError:
            return c, lam, False, evals
        J = -2.0 * (B.T @ V)
        try:
            step_free = np.linalg.solve(J, -F[free_idx])
        except np.linalg.LinAlgError:
            step_free = np.linalg.lstsq(J, -F[free_idx], rcond=None)[0]
        step = np.zeros(active.size)
        step[free_idx] = step_free
        base = merit(lam, F)
        t = 1.0
        accepted = False
        while t >= 1e-6:
            lam_try = np.maximum(lam + t * step, 0.0)
            state = evaluate(lam_try)
            evals += 1
            if state is not None:
                c_try, F_try, K_try = state
                m_try = merit(lam_try, F_try)
                if m_try < base * (1.0 - 1e-4) or m_try <= float(np.max(tol_f)):
                    lam, c, F, K = lam_try, c_try, F_try, K_try
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            return c, lam, False, evals
    return c, lam, False, evals


def _active_set_solve(H, h, eps, binding_ks, seed_set, c_ls):
    """Primal-dual active-set outer loop; the working set only grows.

    Returns ``(c, newton_evals)`` on success or ``None`` when the inner
    Newton iteration stalls.
    """
    active = sorted(set(seed_set))
    evals = 0
    for _ in range(len(binding_ks) + 3):
        if active:
            c, lam, ok, ev = _newton_working_set(H, h, eps, active, c_ls)
            evals += ev
            if not ok or c is None:
                return None
        else:
            c = c_ls
        worst_k, worst_excess = None, 0.0
        cc = float(c @ c)
        for k in binding_ks.tolist():
            if k in active:
                continue
            excess = float(c[k:] @ c[k:]) - eps[k] ** 2
            if excess > _kkt_tol(eps[k] ** 2, cc) and excess > worst_excess:
                worst_k, worst_excess = k, excess
        if worst_k is None:
            return c, evals
        active = sorted(set(active) | {worst_k})
    return None


def _solve_core(decomp: GramDecomposition, d, eps, opts: SolverOptions, x_init):
    """Minimize ``||G c - d||^2`` over the slice cylinders, ``G = decomp.G``.

    ``eps`` has length n+1 with all entries for k < n strictly positive
    (zero widths are eliminated by the caller).  Returns
    ``(c, iterations, converged, kkt_residual)``.
    """
    G = decomp.G
    n = G.shape[1]
    if n == 0:
        return np.zeros(0), 0, True, 0.0
    H = G.T @ G
    h = G.T @ d
    s1 = float(decomp.sigma[0])
    # a width binds only where the running minimum (project_slices' caps)
    # strictly falls; nested trial spaces make any other one implied
    running = np.minimum.accumulate(eps[:n])
    binding_ks = np.flatnonzero(running < np.append(np.inf, running[:-1]))
    tails, eps_b = np.arange(n) >= binding_ks[:, None], eps[binding_ks]
    if s1 == 0.0:
        # flat cost surface; the origin is feasible and optimal
        return np.zeros(n), 0, True, 0.0
    eta = 1.0 / (2.0 * s1 * s1)
    c_ls = _least_squares(decomp, d)

    def cost(c):
        r = G @ c - d
        return float(r @ r)

    def prox_residual(c):
        g = 2.0 * (H @ c - h)
        return float(np.linalg.norm(c - project_slices(c - eta * g, eps)) / eta)

    def tail_norms(c):
        return np.sqrt((tails * c) @ c)

    def feasible_loose(c):
        return bool(np.all(tail_norms(c) <= eps_b * (1.0 + 1e-8) + 1e-12))

    gnorm0 = float(np.linalg.norm(2.0 * h))
    cert = max(1e-8, 1e-6 * gnorm0)
    tight = max(1e-9, 1e-7 * gnorm0)

    if x_init is None and np.all(tail_norms(c_ls) <= eps_b * (1.0 - 1e-9)):
        return c_ls, 0, True, prox_residual(c_ls)

    x0 = project_slices(c_ls if x_init is None else np.asarray(x_init, dtype=float), eps)

    def near_active(c):
        return binding_ks[tail_norms(c) >= eps_b * (1.0 - 1e-6) - 1e-14].tolist()

    total_evals = 0
    attempt = _active_set_solve(H, h, eps, binding_ks, near_active(x0), c_ls)
    if attempt is not None:
        c_cand, evals = attempt
        total_evals += evals
        r_cand = prox_residual(c_cand)
        if r_cand <= tight and feasible_loose(c_cand):
            return c_cand, total_evals, True, r_cand

    # Accelerated projected gradient with restart; periodically retry the
    # active-set polish seeded from the current iterate.
    x = x0.copy()
    y = x0.copy()
    t = 1.0
    fx = cost(x)
    best_x, best_f = x.copy(), fx
    stall = 0
    polish_failures = 0
    it = 0
    finished = False
    while it < opts.max_iterations:
        it += 1
        grad_y = 2.0 * (H @ y - h)
        x_new = project_slices(y - eta * grad_y, eps)
        f_new = cost(x_new)
        if f_new > fx:
            y = x_new.copy()
            t = 1.0
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = x_new + ((t - 1.0) / t_next) * (x_new - x)
            t = t_next
        drop = abs(fx - f_new)
        x, fx = x_new, f_new
        if fx < best_f:
            best_x, best_f = x.copy(), fx
        stall = stall + 1 if drop <= opts.gradient_tolerance * max(fx, 1e-30) else 0
        if prox_residual(x) <= tight:
            finished = True
            break
        retry = stall >= 25 or (it % 100 == 0 and polish_failures < 12)
        if retry:
            attempt = _active_set_solve(H, h, eps, binding_ks, near_active(x), c_ls)
            polished = False
            if attempt is not None:
                c_cand, evals = attempt
                total_evals += evals
                r_cand = prox_residual(c_cand)
                if r_cand <= tight and feasible_loose(c_cand):
                    x, fx = c_cand, cost(c_cand)
                    polished = True
            if polished:
                finished = True
                break
            polish_failures += 1
            if stall >= 25:
                break
    if not finished and best_f < fx:
        x, fx = best_x, best_f
    r_final = prox_residual(x)
    return x, it + total_evals, r_final <= cert, r_final


def solve_ms(
    problem: ProblemInstance,
    hierarchy: SubspaceHierarchy,
    tests: TestSpace,
    options: SolverOptions | None = None,
    *,
    initial=None,
) -> MultiSliceSolution:
    """Residual minimizer over the trial space subject to the slice widths.

    ``initial`` optionally supplies starting coefficients (projected onto the
    feasible set before use); by default the solver warm-starts from the
    projected least-squares coefficients.
    """
    opts = options if options is not None else SolverOptions()
    trial = hierarchy.basis
    n = trial.n_columns
    eps = np.asarray(hierarchy.widths, dtype=float)
    if np.any(np.isnan(eps)) or np.any(eps < 0.0):
        raise InfeasibleWidths("widths must be nonnegative")
    _, d, decomp = _assemble(problem, trial, tests)
    G = decomp.G

    # a zero width pins every coordinate from that index on; only then does
    # the reduced matrix need an SVD of its own
    zero_idx = np.nonzero(eps[:n] == 0.0)[0]
    n_free = int(zero_idx[0]) if zero_idx.size else n
    reduced = decomp if n_free == n else decompose(G[:, :n_free])
    reduced_eps = np.concatenate([eps[:n_free], [0.0]])
    reduced_init = None if initial is None else np.asarray(initial, dtype=float)[:n_free]
    c_red, iterations, converged, kkt = _solve_core(reduced, d, reduced_eps, opts, reduced_init)
    coeffs = np.zeros(n)
    coeffs[:n_free] = c_red
    residual = G @ coeffs - d
    return MultiSliceSolution(
        point=trial.columns @ coeffs,
        coeffs=coeffs,
        cost=float(residual @ residual),
        iterations=int(iterations),
        converged=bool(converged),
        kkt_residual=float(kkt),
        non_unique_hint=_singular(decomp.sigma),
    )


def error_norm(solution_point, problem: ProblemInstance) -> float:
    """Metric-norm distance between a computed point and the exact solution."""
    if not problem.synthetic:
        raise TruthUnavailable("problem has no exact solution attached")
    diff = np.asarray(solution_point, dtype=float) - problem.z_true
    return problem.space.norm(diff)
