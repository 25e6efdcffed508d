"""Gram matrix assembly, its SVD, adapted bases, and bound intermediates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import RieszFamily, SubspaceHierarchy
from .spaces import OrthonormalFrame

__all__ = [
    "LengthMismatch",
    "GramDecomposition",
    "AdaptedBases",
    "BoundIntermediates",
    "gram_matrix",
    "decompose",
    "adapted_bases",
    "gamma",
    "deltas",
]

# Relative threshold below which the smallest singular value is treated as zero.
SINGULAR_REL_TOL = 1e-12


class LengthMismatch(ValueError):
    """A distance or width vector does not have length n + 1."""


@dataclass(eq=False)
class GramDecomposition:
    """SVD ``G = U diag(sigma) X^T`` of an m x n Gram matrix, m >= n.

    Signs are normalized so each column of X has its largest-magnitude entry
    positive (ties broken by the lowest row index), with the paired column of
    U flipped along, so the factorization is deterministic.
    """

    G: np.ndarray
    U: np.ndarray
    X: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        m, n = self.G.shape
        if self.U.shape != (m, m) or self.X.shape != (n, n) or self.sigma.shape != (n,):
            raise ValueError("inconsistent factor shapes")
        if np.any(np.diff(self.sigma) > 0.0) or np.any(self.sigma < 0.0):
            raise ValueError("singular values must be nonnegative and nonincreasing")

    @property
    def singular(self) -> bool:
        """Whether sigma_n is at most ``SINGULAR_REL_TOL`` times sigma_1."""
        s = self.sigma
        return s.size > 0 and bool(s[-1] <= SINGULAR_REL_TOL * s[0])


@dataclass(eq=False)
class AdaptedBases:
    """Rotated bases w*_j = sum_i X_ij w_i and r*_j = sum_i U_ij r_i.

    In these bases the Gram coupling is diagonal: <r*_i, w*_j> = sigma_j delta_ij.
    """

    trial_star: np.ndarray
    riesz_star: np.ndarray


@dataclass(eq=False)
class BoundIntermediates:
    """Per-direction quantities feeding the slice-projector error bound.

    ``eta_j`` aggregates distances, ``eta_hat_j`` aggregates slice widths,
    ``delta_j = eta_j + eta_hat_j``, and ``gamma`` is the complement coupling
    norm computed by :func:`gamma`.
    """

    gamma: float
    delta: np.ndarray
    eta: np.ndarray
    eta_hat: np.ndarray

    def __post_init__(self) -> None:
        if self.gamma < 0.0:
            raise ValueError("gamma must be nonnegative")
        for name in ("delta", "eta", "eta_hat"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if np.any(arr < 0.0):
                raise ValueError(f"{name} must be nonnegative")
            setattr(self, name, arr)


def gram_matrix(riesz: RieszFamily, trial: OrthonormalFrame) -> np.ndarray:
    """Matrix with entry (i, j) = <r_i, w_j>."""
    return riesz.vectors.T @ trial.metric_image


def decompose(G: np.ndarray) -> GramDecomposition:
    """Full SVD with the deterministic sign convention of GramDecomposition."""
    G = np.asarray(G, dtype=float)
    m, n = G.shape
    U, s, Vt = np.linalg.svd(G, full_matrices=True)
    X = Vt.T
    sigma = np.zeros(n)
    sigma[: s.shape[0]] = s
    if n:
        flip = X[np.argmax(np.abs(X), axis=0), np.arange(n)] < 0.0
        X[:, flip] *= -1.0
        U[:, np.flatnonzero(flip[:m])] *= -1.0
    return GramDecomposition(G=G, U=U, X=X, sigma=sigma)


def adapted_bases(
    decomp: GramDecomposition, trial: OrthonormalFrame, riesz: RieszFamily
) -> AdaptedBases:
    return AdaptedBases(
        trial_star=trial.columns @ decomp.X,
        riesz_star=riesz.vectors @ decomp.U,
    )


def gamma(riesz: RieszFamily, trial: OrthonormalFrame) -> float:
    """Largest coupling of the representers with the trial complement.

    Equals ``sup { (sum_j <r_j, v>^2)^(1/2) : v in complement, ||v|| = 1 }``,
    the metric operator norm of the representers' component orthogonal to
    the trial span, ``P = (I - W W^T M) R``.  Computed as the square root of
    the top eigenvalue of the m x m Gram ``P^T M P`` (``P^T P`` for the
    Euclidean metric), with ``P`` first divided by its largest-magnitude
    entry so the squares neither overflow nor underflow; the top eigenvalue
    carries full relative accuracy.  Returns 0 when the trial space fills the
    whole space, there are no representers, or ``P`` is exactly zero.
    """
    space = trial.space
    if trial.n_columns >= space.dim or riesz.m == 0:
        return 0.0
    W, R = trial.columns, riesz.vectors
    P = R - W @ (W.T @ space.apply_metric(R))
    scale = float(np.max(np.abs(P)))
    if scale == 0.0:
        return 0.0
    P = P / scale
    top = np.linalg.eigvalsh(P.T @ space.apply_metric(P))[-1]
    return scale * float(np.sqrt(max(top, 0.0)))


def deltas(
    decomp: GramDecomposition,
    hierarchy: SubspaceHierarchy,
    distances,
    gamma: float,
) -> BoundIntermediates:
    """Aggregate distances and widths through |X| into the bound coefficients.

    ``eta_j = sum_i |x_ij| distances[i-1]`` and ``eta_hat_j`` likewise with the
    hierarchy widths; only the first n entries of each length-(n+1) vector
    enter.  ``gamma`` is the value from :func:`gamma`, carried alongside.
    """
    n = hierarchy.n
    distances = np.asarray(distances, dtype=float)
    if distances.shape != (n + 1,):
        raise LengthMismatch(f"distances must have length n+1 = {n + 1}")
    if hierarchy.widths.shape != (n + 1,):
        raise LengthMismatch(f"widths must have length n+1 = {n + 1}")
    if decomp.X.shape != (n, n):
        raise LengthMismatch("decomposition size does not match the hierarchy")
    absX = np.abs(decomp.X)
    eta = absX.T @ distances[:n]
    eta_hat = absX.T @ hierarchy.widths[:n]
    return BoundIntermediates(gamma=gamma, delta=eta + eta_hat, eta=eta, eta_hat=eta_hat)
