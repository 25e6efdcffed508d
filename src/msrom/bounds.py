"""A-priori error bounds for the two projectors.

``babuska_bound`` is the classical quotient bound for the plain projection:
the continuity constant ``||R||_2`` (the norm of the representer family)
over the inf-sup constant ``sigma_n``, times the distance ``tau_n``.
``water_filling`` evaluates the worst-case bound for the slice-constrained
projection: the squared bound is ``tau_n**2`` plus the value of a fractional
knapsack in which coordinate j carries reward ``delta_j**2`` and cost
``sigma_j**2 * delta_j**2`` against the budget ``4 * gamma**2 * tau_n**2``.
With the singular values sorted in decreasing order the reward/cost ratio
increases with j, so the greedy fill from the tail is exact; ``sup_oracle``
cross-checks it by enumerating the vertices of the feasible polytope.
``ms_bound`` is the one call that assembles both bounds on an instance: it
reads the assembly and a (checked, frozen) hierarchy, and ``tau_mode``
picks the hierarchy's profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import SubspaceHierarchy
from .spectral import Assembly

__all__ = [
    "InvalidInput",
    "TooLarge",
    "BoundIntermediates",
    "WaterFillingSolution",
    "BoundReport",
    "babuska_bound",
    "water_filling",
    "sup_oracle",
    "ms_bound",
]

ORACLE_MAX_DIM = 6


class InvalidInput(ValueError):
    """Bound routine called with inconsistent or out-of-range arguments."""


class TooLarge(ValueError):
    """Enumeration oracle refused: dimension exceeds ORACLE_MAX_DIM."""


@dataclass(eq=False)
class BoundIntermediates:
    """The inputs of the fill that :func:`ms_bound` forms: the assembly's
    complement coupling ``gamma`` and the per-direction ``delta``."""

    gamma: float
    delta: np.ndarray


@dataclass(frozen=True)
class WaterFillingSolution:
    """Outcome of the budgeted fill.

    ``ell`` is the 1-based index of the partially filled coordinate, in
    [1, n] (None when the budget constraint is inactive); ``rho`` is its
    fill fraction in [0, 1].  ``sup_value`` is the attained maximum of the
    knapsack; the squared bound is ``sup_value + tau_n**2``.
    """

    ell: int | None
    rho: float | None
    sup_value: float


@dataclass(eq=False)
class BoundReport:
    """Bundle of both bounds and the quantities entering them.

    ``babuska`` is None when the Gram matrix is numerically singular.
    ``tau_source`` records whether the distance profile fed into the bounds
    was exact ("known") or replaced by the slice widths ("practitioner").
    """

    babuska: float | None
    ms_bound: float
    intermediates: BoundIntermediates
    water_filling: WaterFillingSolution
    actual_pg_error: float | None = None
    actual_ms_error: float | None = None
    tau_source: str = "known"


def babuska_bound(assembly: Assembly, dist_n: float) -> float:
    """Quotient bound ``(||R||_2 / sigma_n) * dist_n`` for the plain projection.

    The continuity constant ``||R||_2`` is the assembly's ``norm``, the norm
    of the representer family; it is at least ``sigma_1``, and equals it only
    when the representers' coupling with the trial span carries their whole
    norm.  Raises :class:`msrom.spectral.SingularGram` when the assembly is
    ``singular``.
    """
    if dist_n < 0.0 or not np.isfinite(dist_n):
        raise InvalidInput(f"dist_n must be finite and nonnegative, got {dist_n}")
    sigma = assembly.decomp.sigma
    if sigma.size == 0:
        raise InvalidInput("empty decomposition")
    assembly.check_nonsingular()
    return float(assembly.norm / sigma[-1] * dist_n)


def _check_fill_inputs(delta, sigma, gamma: float, tau_n: float):
    delta = np.asarray(delta, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if delta.ndim != 1 or sigma.shape != delta.shape:
        raise InvalidInput(
            f"delta and sigma must be 1-d with equal length, got {delta.shape} and {sigma.shape}"
        )
    if np.any(delta < 0.0) or np.any(sigma < 0.0):
        raise InvalidInput("delta and sigma entries must be nonnegative")
    if np.any(np.diff(sigma) > 0.0):
        raise InvalidInput("sigma must be nonincreasing")
    if tau_n < 0.0 or not np.isfinite(tau_n):
        raise InvalidInput(f"tau_n must be finite and nonnegative, got {tau_n}")
    if gamma < 0.0 or not np.isfinite(gamma):
        raise InvalidInput(f"gamma must be finite and nonnegative, got {gamma}")
    return delta, sigma


def water_filling(delta, sigma, gamma: float, tau_n: float) -> WaterFillingSolution:
    """Closed-form maximum of the budgeted coordinate fill.

    Coordinates are filled from the tail (largest reward per unit cost
    first) until the budget ``4 * gamma**2 * tau_n**2`` is spent.  If the
    total cost never reaches the budget, the constraint is inactive and
    every coordinate saturates.  A zero budget met by a positive total cost
    is the degenerate active case: only the cost-free tail saturates
    (``ell = n``, ``rho = 0``).
    """
    delta, sigma = _check_fill_inputs(delta, sigma, gamma, tau_n)
    n = delta.shape[0]
    if n == 0:
        return WaterFillingSolution(ell=None, rho=None, sup_value=0.0)
    budget = 4.0 * gamma * gamma * tau_n * tau_n
    cost = sigma * sigma * delta * delta
    # suffix[l] = sum of cost[l:], with suffix[n] = 0; suffix[0] is the total
    suffix = np.zeros(n + 1)
    suffix[:n] = np.cumsum(cost[::-1])[::-1]
    total = float(suffix[0])
    # with zero total cost the constraint never binds: every coordinate with
    # positive cost has zero reward, so the saturated value is also the
    # constrained one
    if total < budget or total == 0.0:
        return WaterFillingSolution(ell=None, rho=None, sup_value=float(np.sum(delta * delta)))
    if budget == 0.0:
        last_paying = int(np.max(np.nonzero(cost > 0.0)[0]))
        sup = float(np.sum(delta[last_paying + 1 :] ** 2))
        return WaterFillingSolution(ell=n, rho=0.0, sup_value=sup)
    # the last suffix to meet the budget: suffix[0] = total does, and the cost
    # at ell is positive, or suffix[ell + 1] would equal suffix[ell] and meet it too
    ell = int(np.flatnonzero(suffix[:n] >= budget)[-1])
    cost_ell = float(cost[ell])
    tail = float(np.sum(delta[ell + 1 :] ** 2))
    rho = (budget - float(suffix[ell + 1])) / cost_ell
    rho = min(max(rho, 0.0), 1.0)
    sup = tail + rho * float(delta[ell]) ** 2
    return WaterFillingSolution(ell=ell + 1, rho=float(rho), sup_value=float(sup))


def sup_oracle(delta, sigma, gamma: float, tau_n: float) -> float:
    """Exhaustive maximum of the budgeted fill for small dimensions.

    Maximizes ``sum(beta_j**2)`` over ``|beta_j| <= delta_j`` and
    ``sum(sigma_j**2 beta_j**2) <= 4 gamma**2 tau_n**2``.  In the variables
    ``t_j = beta_j**2 / delta_j**2`` this is a linear program over a box with
    one budget row, so some optimizer has at most one fractional coordinate;
    the oracle enumerates every 0/1 assignment plus each fractional
    completion, independently of the closed-form path.  Raises
    :class:`TooLarge` above ORACLE_MAX_DIM.
    """
    delta, sigma = _check_fill_inputs(delta, sigma, gamma, tau_n)
    n = delta.shape[0]
    if n > ORACLE_MAX_DIM:
        raise TooLarge(f"enumeration oracle limited to n <= {ORACLE_MAX_DIM}, got {n}")
    budget = 4.0 * gamma * gamma * tau_n * tau_n
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
            frac = min(1.0, remaining / float(cost[j]))
            best = max(best, value + frac * float(reward[j]))
    return best


def ms_bound(
    assembly: Assembly,
    hierarchy: SubspaceHierarchy,
    tau_mode: str = "known",
    *,
    actual_pg_error: float | None = None,
    actual_ms_error: float | None = None,
) -> BoundReport:
    """Both bounds of one instance, on the profile that ``tau_mode`` picks.

    The profile is :meth:`SubspaceHierarchy.profile`: the true distances
    ("known") or the widths ("practitioner"); its last entry is ``tau_n``.
    ``delta_j = sum_i |x_ij| profile[i-1] + sum_i |x_ij| widths[i-1]`` over
    the first n entries.  Raises :class:`InvalidInput` for an unknown mode or
    a "known" hierarchy without distances, and ``ValueError`` for a
    decomposition of another size.  ``babuska`` is None when the assembly is
    ``singular``.
    """
    try:
        profile = hierarchy.profile(tau_mode)
    except ValueError as exc:
        raise InvalidInput(str(exc)) from None
    n, X = hierarchy.n, assembly.decomp.X
    if X.shape != (n, n):
        raise ValueError(f"decomposition size {X.shape[0]} does not match the hierarchy's n = {n}")
    absX = np.abs(X)
    delta = absX.T @ profile[:n] + absX.T @ hierarchy.widths[:n]
    tau_n = float(profile[-1])
    wf = water_filling(delta, assembly.decomp.sigma, assembly.gamma, tau_n)
    return BoundReport(
        babuska=None if assembly.singular else babuska_bound(assembly, tau_n),
        ms_bound=float(np.sqrt(wf.sup_value + tau_n * tau_n)),
        intermediates=BoundIntermediates(assembly.gamma, delta),
        water_filling=wf,
        actual_pg_error=actual_pg_error,
        actual_ms_error=actual_ms_error,
        tau_source=tau_mode,
    )
