"""A-priori error bounds for the two projectors.

``babuska_bound`` is the classical quotient bound for the plain projection.
``water_filling`` evaluates the worst-case bound for the slice-constrained
projection: the squared bound is ``tau_n**2`` plus the value of a fractional
knapsack in which coordinate j carries reward ``delta_j**2`` and cost
``sigma_j**2 * delta_j**2`` against the budget ``4 * gamma**2 * tau_n**2``.
With the singular values sorted in decreasing order the reward/cost ratio
increases with j, so the greedy fill from the tail is exact; ``sup_oracle``
cross-checks it by enumerating the vertices of the feasible polytope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import SubspaceHierarchy
from .solvers import SINGULAR_REL_TOL
from .spectral import BoundIntermediates, GramDecomposition

__all__ = [
    "SingularGram",
    "InvalidInput",
    "TooLarge",
    "InvalidState",
    "WaterFillingSolution",
    "BoundReport",
    "babuska_bound",
    "water_filling",
    "sup_oracle",
    "ms_bound",
]

ORACLE_MAX_DIM = 6


class SingularGram(ValueError):
    """Quotient bound requested for a numerically singular Gram matrix."""


class InvalidInput(ValueError):
    """Bound routine called with inconsistent or out-of-range arguments."""


class TooLarge(ValueError):
    """Enumeration oracle refused: dimension exceeds ORACLE_MAX_DIM."""


class InvalidState(RuntimeError):
    """Internal invariant of the bound computation failed."""


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
    active_case: bool


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


def babuska_bound(decomp: GramDecomposition, dist_n: float) -> float:
    """Quotient bound ``(sigma_1 / sigma_n) * dist_n`` for the plain projection."""
    if dist_n < 0.0 or not np.isfinite(dist_n):
        raise InvalidInput(f"dist_n must be finite and nonnegative, got {dist_n}")
    sigma = decomp.sigma
    if sigma.size == 0:
        raise InvalidInput("empty decomposition")
    if sigma[-1] <= SINGULAR_REL_TOL * sigma[0]:
        raise SingularGram(
            f"sigma_n = {sigma[-1]:.3e} below {SINGULAR_REL_TOL} * sigma_1 = "
            f"{SINGULAR_REL_TOL * sigma[0]:.3e}"
        )
    return float(sigma[0] / sigma[-1] * dist_n)


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
        return WaterFillingSolution(ell=None, rho=None, sup_value=0.0, active_case=False)
    budget = 4.0 * gamma * gamma * tau_n * tau_n
    cost = sigma * sigma * delta * delta
    total = float(np.sum(cost))
    # with zero total cost the constraint never binds: every coordinate with
    # positive cost has zero reward, so the saturated value is also the
    # constrained one
    if total < budget or total == 0.0:
        return WaterFillingSolution(
            ell=None, rho=None, sup_value=float(np.sum(delta * delta)), active_case=False
        )
    if budget == 0.0:
        last_paying = int(np.max(np.nonzero(cost > 0.0)[0]))
        sup = float(np.sum(delta[last_paying + 1 :] ** 2))
        return WaterFillingSolution(ell=n, rho=0.0, sup_value=sup, active_case=True)
    # suffix[l] = sum of cost[l:], with suffix[n] = 0
    suffix = np.zeros(n + 1)
    suffix[:n] = np.cumsum(cost[::-1])[::-1]
    candidates = [l for l in range(n) if suffix[l] >= budget]
    if not candidates:
        raise InvalidState("no suffix reaches the budget despite total >= budget")
    ell = max(candidates)
    cost_ell = float(cost[ell])
    if cost_ell == 0.0:
        # cannot happen with a positive budget: the suffix sum from ell
        # strictly exceeds the one from ell + 1 at the selected index
        raise InvalidState(
            f"selected index {ell + 1} carries zero cost; fill fraction undetermined"
        )
    tail = float(np.sum(delta[ell + 1 :] ** 2))
    rho = (budget - float(suffix[ell + 1])) / cost_ell
    rho = min(max(rho, 0.0), 1.0)
    sup = tail + rho * float(delta[ell]) ** 2
    return WaterFillingSolution(
        ell=ell + 1, rho=float(rho), sup_value=float(sup), active_case=True
    )


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
    decomp: GramDecomposition,
    intermediates: BoundIntermediates,
    distances,
    hierarchy: SubspaceHierarchy | None = None,
    *,
    tau_source: str = "known",
    actual_pg_error: float | None = None,
    actual_ms_error: float | None = None,
) -> BoundReport:
    """Assemble the full bound report.

    ``distances`` is the length-n+1 profile whose last entry is the distance
    of the exact solution to the full trial space (or the terminal slice
    width when ``tau_source == "practitioner"``).  When ``hierarchy`` is
    given, the profile is checked against its widths.
    """
    if tau_source not in ("known", "practitioner"):
        raise InvalidInput(
            f"tau_source must be 'known' or 'practitioner', got {tau_source!r}"
        )
    distances = np.asarray(distances, dtype=float)
    n = intermediates.delta.shape[0]
    if distances.shape != (n + 1,):
        raise InvalidInput(
            f"distances must have length n+1 = {n + 1}, got {distances.shape}"
        )
    if np.any(np.isnan(distances)) or np.any(distances < 0.0):
        raise InvalidInput("distances must be nonnegative")
    if hierarchy is not None:
        if hierarchy.n != n:
            raise InvalidInput(
                f"hierarchy has n = {hierarchy.n}, intermediates have n = {n}"
            )
        if np.any(distances > hierarchy.widths):
            raise InvalidInput("distance profile exceeds the slice widths")
    tau_n = float(distances[-1])
    wf = water_filling(intermediates.delta, decomp.sigma, intermediates.gamma, tau_n)
    value = float(np.sqrt(wf.sup_value + tau_n * tau_n))
    try:
        bab = babuska_bound(decomp, tau_n)
    except SingularGram:
        bab = None
    return BoundReport(
        babuska=bab,
        ms_bound=value,
        intermediates=intermediates,
        water_filling=wf,
        actual_pg_error=actual_pg_error,
        actual_ms_error=actual_ms_error,
        tau_source=tau_source,
    )
