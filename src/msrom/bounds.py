"""A-priori error bounds for the two projectors.

The classical quotient (Babuska) bound for the plain projection is the
continuity constant ``||R||_2`` (the norm of the representer family) over the
inf-sup constant ``sigma_n``, times the distance ``tau_n``.
``water_filling`` evaluates the worst-case bound for the slice-constrained
projection: the squared bound is ``tau_n**2`` plus the value of a fractional
knapsack in which coordinate j carries reward ``delta_j**2`` and cost
``sigma_j**2 * delta_j**2`` against the budget ``4 * gamma**2 * tau_n**2``.
With the singular values sorted in decreasing order the reward/cost ratio
increases with j, so the greedy fill from the tail is exact.
``ms_bound`` is the one call that forms both bounds on an instance: it
reads the assembly, and ``tau_mode`` picks the profile of its (checked,
frozen) hierarchy.  Its fill treats a singular value as zero wherever the
solvers do (``GramDecomposition.nonzero``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Assembly

__all__ = [
    "BoundIntermediates",
    "WaterFillingSolution",
    "BoundReport",
    "water_filling",
    "ms_bound",
]


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
    """

    babuska: float | None
    ms_bound: float
    intermediates: BoundIntermediates
    water_filling: WaterFillingSolution
    actual_pg_error: float | None = None
    actual_ms_error: float | None = None


def water_filling(delta, sigma, budget: float) -> WaterFillingSolution:
    """Closed-form maximum of the budgeted coordinate fill.

    Coordinates are filled from the tail (largest reward per unit cost
    first) until ``budget`` is spent.  If the total cost never reaches it,
    the constraint is inactive and every coordinate saturates.  Otherwise
    ``ell`` is the last paying coordinate whose tail cost meets it, so a
    zero budget reads the limit of small positive ones (``rho = 0``); an
    infinite budget never binds.  A finite ``delta_j`` whose reward
    ``delta_j**2`` or cost ``sigma_j**2 * delta_j**2`` overflows never
    saturates: filled partially, it takes what the budget leaves at the
    price ``sigma_j**2`` per unit of ``beta_j**2`` and reports ``rho = 0``.
    Raises ValueError for a negative or NaN budget.
    """
    delta = np.asarray(delta, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if delta.ndim != 1 or sigma.shape != delta.shape:
        raise ValueError(
            f"delta and sigma must be 1-d with equal length, got {delta.shape} and {sigma.shape}"
        )
    entries = np.concatenate([delta, sigma])
    if not ((entries >= 0.0) & (entries < np.inf)).all():  # NaN fails both comparisons
        raise ValueError("delta and sigma entries must be finite and nonnegative")
    if np.any(np.diff(sigma) > 0.0):
        raise ValueError("sigma must be nonincreasing")
    if not budget >= 0.0:  # NaN fails the comparison
        raise ValueError(f"budget must be nonnegative, got {budget}")
    n = delta.shape[0]
    with np.errstate(over="ignore"):  # an overflowing reward or cost is priced below
        reward = delta * delta
        cost = sigma * sigma * delta * delta
    # suffix[l] = sum of cost[l:], with suffix[n] = 0; suffix[0] is the total
    suffix = np.zeros(n + 1)
    suffix[:n] = np.cumsum(cost[::-1])[::-1]
    total = float(suffix[0])
    # with zero total cost the constraint never binds: every coordinate with
    # positive cost has zero reward, so the saturated value is also the
    # constrained one
    if total < budget or total == 0.0:
        return WaterFillingSolution(ell=None, rho=None, sup_value=float(np.sum(reward)))
    # the last paying coordinate whose suffix meets the budget: the first
    # paying one's suffix is the total, which does; at a positive budget the
    # last suffix to meet it pays anyway, or suffix[ell + 1] would meet it too
    ell = int(np.flatnonzero((suffix[:n] >= budget) & (cost > 0.0))[-1])
    cost_ell = float(cost[ell])
    tail = float(np.sum(reward[ell + 1 :]))
    room = budget - float(suffix[ell + 1])
    if max(cost_ell, float(reward[ell])) == np.inf:  # what is left buys beta_ell^2 at sigma_ell^2
        sup = tail + room / float(sigma[ell]) ** 2
        return WaterFillingSolution(ell=ell + 1, rho=0.0, sup_value=sup)
    rho = min(max(room / cost_ell, 0.0), 1.0)
    sup = tail + rho * float(delta[ell]) ** 2
    return WaterFillingSolution(ell=ell + 1, rho=float(rho), sup_value=float(sup))


def ms_bound(assembly: Assembly, tau_mode: str = "known") -> BoundReport:
    """Both bounds of one instance, on the profile that ``tau_mode`` picks.

    The profile is ``assembly.hierarchy.profile(tau_mode)``: the true
    distances ("known") or the widths ("practitioner"); its last entry is
    ``tau_n``.  ``delta_j = sum_i |x_ij| profile[i-1] + sum_i |x_ij|
    widths[i-1]`` over the first n entries.  The fill reads the singular
    values with those that count as zero against ``assembly.norm``
    (``decomp.nonzero``) set to zero, as the solvers do.  ``babuska`` is the
    quotient bound ``(||R||_2 / sigma_n) * tau_n``, with the assembly's
    ``norm`` as ``||R||_2`` (at least ``sigma_1``), and None when the assembly
    is ``singular``.  Raises ``ValueError`` for a mode other than "known" or
    "practitioner".
    The report's actual errors are left for the caller to fill.
    """
    hierarchy, decomp = assembly.hierarchy, assembly.decomp
    profile = hierarchy.profile(tau_mode)
    n, absX = hierarchy.n, np.abs(decomp.X)
    delta = absX.T @ profile[:n] + absX.T @ hierarchy.widths[:n]
    gamma, tau_n = assembly.gamma, float(profile[-1])
    budget = 4.0 * gamma * gamma * tau_n * tau_n
    wf = water_filling(delta, decomp.sigma * decomp.nonzero(assembly.norm), budget)
    return BoundReport(
        babuska=None if assembly.singular else float(assembly.norm / decomp.sigma[-1] * tau_n),
        ms_bound=float(np.sqrt(wf.sup_value + tau_n * tau_n)),
        intermediates=BoundIntermediates(gamma, delta),
        water_filling=wf,
    )
