"""Projectors onto the trial space: classical and slice-constrained.

Both read one assembly per instance: the load vector ``d``, the SVD of the
test/trial Gram matrix ``G`` and the trial hierarchy.  ``solve_pg`` returns
the least-squares solution of ``G c = d``.  ``solve_ms`` minimizes the same
residual subject to the nested tail-norm constraints ``dist(h, V_k) <= eps_k``, a convex quadratic
over an intersection of centered cylinders.  Its dual in the multipliers of
the widths is smooth and concave; a projected Newton method (Bertsekas 1982)
maximizes it.  Every exit returns the projection of the last Lagrangian
minimizer onto the widths, :func:`project_slices` (exact and finite), and
certifies it by its proximal-gradient residual.  The trial spaces are
nested, so a width binds only where it sets a strict new running minimum;
only those widths get multipliers and enter the checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import is_integer

# gram_matrix and rhs_vector are not called here; they stay importable from
# this module because the benchmark's tracing test patches them here
from .problems import ProblemInstance, check_vector, rhs_vector  # noqa: F401
from .spectral import Assembly, GramDecomposition, decompose, gram_matrix  # noqa: F401

__all__ = [
    "SolverOptions",
    "MultiSliceSolution",
    "solve_pg",
    "project_slices",
    "solve_ms",
    "error_norm",
]

# Relative increase of the dual value below which a damped Newton step stalls.
STALL_REL_TOL = 1e-10


@dataclass(frozen=True)
class SolverOptions:
    """Iteration budget for :func:`solve_ms`.

    ``max_iterations``, a positive integer (:func:`msrom.config.is_integer`),
    caps the Newton evaluations (factorizations of the penalized normal
    matrix) of the dual iteration.  A dual iteration that reaches the cap
    ends like any other: at the projection of its last point onto the
    widths, certified or not.
    """

    max_iterations: int = 50_000

    def __post_init__(self) -> None:
        cap = self.max_iterations
        if not is_integer(cap) or cap < 1:
            raise ValueError(f"max_iterations must be a positive integer, got {cap!r}")


@dataclass(eq=False)
class MultiSliceSolution:
    """Result of :func:`solve_ms`.

    ``cost`` is the squared residual at ``point``; ``kkt_residual`` is the
    projected-gradient mapping norm at the returned coefficients.  On a
    ``singular`` assembly the minimizer need not be unique.
    """

    point: np.ndarray
    coeffs: np.ndarray
    cost: float
    iterations: int
    converged: bool
    kkt_residual: float


def _least_squares(decomp: GramDecomposition, d: np.ndarray, nonzero: np.ndarray) -> np.ndarray:
    """``X diag(sigma)^+ U^T d``, inverting only the sigma_j in the mask ``nonzero``."""
    n = decomp.sigma.shape[0]
    inverse = np.divide(1.0, decomp.sigma, out=np.zeros(n), where=nonzero)
    return decomp.X @ (inverse * (decomp.U.T @ d))


def solve_pg(assembly: Assembly) -> tuple[np.ndarray, np.ndarray]:
    """Classical projection: solve ``G c = d`` (least squares when m > n).

    Returns ``(point, coeffs)``, the point on the assembly's trial basis:
    the minimum-norm least-squares solution with the singular values that
    count as zero against ``assembly.norm`` dropped, on every system.  On a
    ``singular`` assembly that is a truncated solution, which
    :func:`msrom.cli.run_instance` does not report as a PG error.
    """
    decomp = assembly.decomp
    coeffs = _least_squares(decomp, assembly.d, decomp.nonzero(assembly.norm))
    return assembly.hierarchy.basis @ coeffs, coeffs


def project_slices(c, widths) -> np.ndarray:
    """Euclidean projection onto ``{x : ||x[k:]|| <= widths[k], k = 0..n-1}``.

    The projection scales each entry by a factor in [0, 1] that does not grow
    toward the tail; in the squared entries it is a separable convex problem
    under nested tail-sum caps (the squared running minimum of the widths),
    solved exactly by backward pool-adjacent-violators (Barlow et al. 1972;
    Robertson, Wright and Dykstra 1988).  Walking from the tail, a block gets
    the squared factor ``min(1, (cap at its head - mass behind it) / its
    squared mass)`` and merges with its tail neighbour while its factor is the
    smaller.  The final width is ignored; one no lower than an earlier width never binds.
    Raises ``ValueError`` for a non-finite entry of ``c`` and for a finite
    ``c`` whose sum of squares overflows.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1:
        raise ValueError(f"c must be one-dimensional, got shape {c.shape}")
    values = c.tolist()
    norm = math.hypot(*values)  # inf or NaN for a non-finite entry; no square is formed
    if not norm * norm < math.inf:
        raise ValueError("c entries must be finite, and so must the sum of their squares")
    n = c.shape[0]
    widths = check_vector(n, widths)
    caps = (np.minimum.accumulate(widths[:n]) ** 2).tolist()
    blocks = []  # [head index, squared mass, mass behind it, squared factor], tail first
    for j in range(n - 1, -1, -1):
        mass = values[j] ** 2
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


def _dual_point(H, h, lam, tails, eps2):
    """Minimizer of the Lagrangian for the multipliers ``lam``.

    Row i of the 0/1 matrix ``tails`` selects the tail ``c[k_i:]`` that
    multiplier i penalizes.  Returns ``(c, F, K)``: ``K = H + diag(tails^T
    lam)`` (plus a tiny ridge when it is exactly singular; ``K`` is positive
    semidefinite, so the ridged one is definite), ``c = K^{-1} h`` and the
    dual gradient ``F_i = ||c[k_i:]||^2 - eps2_i``.
    """
    K = H + np.diag(lam @ tails)
    try:
        c = np.linalg.solve(K, h)
    except np.linalg.LinAlgError:
        K = K + 1e-14 * (np.trace(K) / K.shape[0] + 1.0) * np.eye(K.shape[0])
        c = np.linalg.solve(K, h)
    return c, tails @ (c * c) - eps2, K


def _solve_core(decomp: GramDecomposition, scale: float, d, eps, opts: SolverOptions):
    """Minimize ``||G c - d||^2`` over the slice cylinders, ``G = decomp.G``.

    ``scale`` is the norm against which a singular value counts as zero
    (:meth:`GramDecomposition.nonzero`).  ``eps`` has length n+1 with all
    entries for k < n strictly positive (zero widths are eliminated by the
    caller).  Returns ``(c, iterations, converged, kkt_residual)``: the origin,
    at once, when no singular value counts as nonzero (n = 0 included), where
    the step 1/(2 s1^2) of the certificate is undefined; otherwise the
    projection of the last point, the least-squares one when the Newton is
    skipped, with its certificate.
    """
    G = decomp.G
    n = G.shape[1]
    nonzero = decomp.nonzero(scale)
    if not nonzero.any():
        return np.zeros(n), 0, True, 0.0
    H = G.T @ G
    h = G.T @ d
    s1 = float(decomp.sigma[0])
    # a width binds only where the running minimum (project_slices' caps)
    # strictly falls; nested trial spaces make any other one implied
    running = np.minimum.accumulate(eps[:n])
    binding_ks = np.flatnonzero(running < np.append(np.inf, running[:-1]))
    tails, eps_b = (np.arange(n) >= binding_ks[:, None]).astype(float), eps[binding_ks]
    eps2 = eps_b**2
    # floors scale with the problem, so that scaling d and the widths scales every
    # decision: the widest binding width is the unit of c, s1^2 times it that of the gradient
    wide = float(eps_b[0])
    cert = max(1e-8 * s1 * s1 * wide, 1e-6 * float(np.linalg.norm(2.0 * h)))
    c, evals = _least_squares(decomp, d, nonzero), 0
    # least-squares coefficients inside the widths skip the dual Newton
    if not np.all(np.sqrt(tails @ (c * c)) <= eps_b * (1.0 - 1e-9)):
        # Projected Newton (Bertsekas 1982) on the concave dual
        # q(lam) = -h^T K^{-1} h - sum lam_k eps_k^2 over lam >= 0, gradient F.
        # A singular H starts at a tiny lam.
        lam = np.full(binding_ks.size, 1e-10 * s1 * s1) * (not nonzero[-1])
        # slack on ||c[k:]||^2 <= eps_k^2: this floor plus 1e-14 ||c||^2
        floor = 1e-11 * np.maximum(eps2, 1e-30 * eps2[0])
        c, F, K = _dual_point(H, h, lam, tails, eps2)
        evals, stalled = 1, False
        # stop at a KKT point, a stall or the cap
        while not stalled and evals < opts.max_iterations:
            if (np.where(lam > 0.0, np.abs(F), F) <= floor + 1e-14 * float(c @ c)).all():
                break
            B = (tails * c).T
            J = -2.0 * (B.T @ np.linalg.solve(K, B))  # the dual Hessian
            # diagonally scaled gradient step; -inf where a tail of c vanishes
            scaled = np.divide(F, -J.diagonal(), out=np.full_like(F, -np.inf), where=J.diagonal() < 0)
            w = float(np.linalg.norm(lam - np.maximum(lam + scaled, 0.0)))
            # Newton on the secular form 1/||c[k:]|| - 1/eps_k (More and Sorensen 1983),
            # nearly linear in lam where F is not: F times 2 t^2 / (eps (t + eps)) for
            # t = ||c[k:]||; plain Newton when that is no ascent direction.  The
            # factor is formed first: F * t^2 would square the problem's scale
            t2 = np.maximum(F + eps2, 0.0)
            for rhs in (F * (2.0 * t2 / (eps_b * (np.sqrt(t2) + eps_b))), F):
                # multipliers within w of zero are held: the scaled gradient step for
                # those pushed down, none for those whose Newton step crosses zero
                held = (lam <= w) & (F < 0.0)
                down = np.where(held, scaled, 0.0)
                while True:
                    free = ~held
                    step, J_free = down.copy(), J[free][:, free]
                    try:
                        step[free] = np.linalg.solve(J_free, -rhs[free])
                    except np.linalg.LinAlgError:
                        step[free] = np.linalg.lstsq(J_free, -rhs[free], rcond=None)[0]
                    cross = free & (lam <= w) & (lam + step < 0.0)
                    if not cross.any():
                        break
                    held |= cross
                slope = float(F[free] @ step[free])
                if slope > 0.0:
                    break
            stalled, t = True, 1.0
            while t >= 1e-6 and evals < opts.max_iterations:
                lam_t = np.maximum(lam + t * step, 0.0)
                trial = _dual_point(H, h, lam_t, tails, eps2)
                evals += 1
                # q(lam_t) - q(lam) = sum delta_k (<c_t[k:], c[k:]> - eps_k^2)
                # holds exactly; it avoids differencing the large values of q
                delta = lam_t - lam
                increase = float(delta @ (tails @ (trial[0] * c) - eps2))
                # Armijo along the projection arc; strict, so a step that
                # moves nothing never passes and the search ends in a stall
                if increase > 1e-4 * (t * slope + float(F[held] @ delta[held])):
                    r = G @ c - d
                    value = float(r @ r + lam @ F)  # q + ||d||^2
                    negligible = STALL_REL_TOL * max(value, 1e-30 * (s1 * wide) ** 2)
                    stalled = t < 1.0 and increase <= negligible
                    lam, (c, F, K) = lam_t, trial
                    break
                t *= 0.5

    # one exit: the last Lagrangian minimizer, made feasible, and its
    # proximal-gradient residual at the step 1/L, L = 2 s1^2
    best = project_slices(c, eps)
    eta = 1.0 / (2.0 * s1 * s1)
    g = 2.0 * (H @ best - h)
    r = float(np.linalg.norm(best - project_slices(best - eta * g, eps)) / eta)
    return best, evals, r <= cert, r


def solve_ms(assembly: Assembly, options: SolverOptions | None = None) -> MultiSliceSolution:
    """Residual minimizer over the trial space subject to the slice widths,
    both read from ``assembly.hierarchy``.

    Unless the least-squares coefficients already satisfy the widths, a
    projected Newton method on the multipliers of the binding widths solves
    the problem.  Whether the Newton is skipped or ends (at a KKT point,
    stalled or out of evaluations), the solve returns the projection of its
    last point onto the widths, so every returned point lies within them,
    with ``converged`` telling whether that point meets the certificate.
    """
    opts = options if options is not None else SolverOptions()
    trial, eps = assembly.hierarchy.basis, assembly.hierarchy.widths
    n = assembly.hierarchy.n
    d, decomp = assembly.d, assembly.decomp
    G = decomp.G

    # a zero width pins every coordinate from that index on; only then does
    # the reduced matrix need an SVD of its own
    zero_idx = np.nonzero(eps[:n] == 0.0)[0]
    n_free = int(zero_idx[0]) if zero_idx.size else n
    reduced = decomp if n_free == n else decompose(G[:, :n_free])
    # eps[n_free] is 0 when n_free < n, the final width otherwise
    c_red, iterations, converged, kkt = _solve_core(reduced, assembly.norm, d, eps[: n_free + 1], opts)
    coeffs = np.zeros(n)
    coeffs[:n_free] = c_red
    residual = G @ coeffs - d
    return MultiSliceSolution(
        point=trial @ coeffs,
        coeffs=coeffs,
        cost=float(residual @ residual),
        iterations=int(iterations),
        converged=bool(converged),
        kkt_residual=float(kkt),
    )


def error_norm(solution_point, problem: ProblemInstance) -> float:
    """Distance between a computed point and the exact solution; a point
    that is not a vector of the solution's length raises ``ValueError``."""
    point = np.asarray(solution_point, dtype=float)
    if point.shape != problem.z_true.shape:
        raise ValueError(
            f"point must have the solution's length {problem.z_true.size}, got shape {point.shape}"
        )
    return float(np.linalg.norm(point - problem.z_true))
