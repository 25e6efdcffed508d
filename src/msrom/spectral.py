"""Gram matrix assembly, its SVD, adapted bases, and bound intermediates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import SubspaceHierarchy, check_vector
from .spaces import OrthonormalFrame

__all__ = [
    "SingularGram",
    "GramDecomposition",
    "AdaptedBases",
    "BoundIntermediates",
    "gram_matrix",
    "decompose",
    "adapted_bases",
    "gamma",
    "deltas",
]

# A singular value at most this times sigma_1 counts as zero, for the
# singularity test and for every pseudo-inverse of G.
SINGULAR_REL_TOL = 1e-12


class SingularGram(ValueError):
    """A quotient bound or a square solve met a numerically singular Gram matrix."""


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
    def nonzero(self) -> np.ndarray:
        """Mask of the sigma_j above ``SINGULAR_REL_TOL`` times sigma_1; the rest count as zero."""
        return self.sigma > SINGULAR_REL_TOL * self.sigma[:1]

    @property
    def singular(self) -> bool:
        """Whether sigma_n counts as zero (see :attr:`nonzero`)."""
        return self.sigma.size > 0 and not self.nonzero[-1]

    def check_nonsingular(self) -> None:
        """Raise :class:`SingularGram` when :attr:`singular` holds."""
        if self.singular:
            s = self.sigma
            raise SingularGram(
                f"sigma_n = {s[-1]:.3e} below {SINGULAR_REL_TOL} * sigma_1 = "
                f"{SINGULAR_REL_TOL * s[0]:.3e}"
            )


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


def _representers(riesz) -> np.ndarray:
    """The representers as an (N, m) float matrix, one column each."""
    R = np.asarray(riesz, dtype=float)
    if R.ndim != 2:
        raise ValueError(f"representers must be an (N, m) matrix, got shape {R.shape}")
    return R


def gram_matrix(riesz, trial: OrthonormalFrame) -> np.ndarray:
    """Matrix with entry (i, j) = <r_i, w_j> for the columns r_i of ``riesz``."""
    return _representers(riesz).T @ trial.metric_image


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


def adapted_bases(decomp: GramDecomposition, trial: OrthonormalFrame, riesz) -> AdaptedBases:
    return AdaptedBases(
        trial_star=trial.columns @ decomp.X,
        riesz_star=_representers(riesz) @ decomp.U,
    )


def gamma(riesz, trial: OrthonormalFrame, gram) -> tuple[float, float]:
    """``(gamma, norm)``: two metric operator norms of the representers ``R``.

    ``gamma`` is the largest coupling of the representers with the trial
    complement, ``sup { (sum_j <r_j, v>^2)^(1/2) : v in complement, ||v|| =
    1 }``: the norm of their component off the trial span, ``P = (I - W W^T
    M) R``.  ``norm`` is the norm of the whole family, the continuity
    constant of the quotient bound; with ``C = W^T M R = gram^T``, where
    ``gram`` is :func:`gram_matrix` of ``riesz`` and ``trial``, ``R = W C +
    P`` gives ``R^T M R = C^T C + P^T M P``.  Each
    is the square root of the top eigenvalue of an m x m Gram, formed from
    its factors divided by their largest-magnitude entry so the squares
    neither overflow nor underflow; the top eigenvalue carries full
    relative accuracy.  ``gamma`` is 0 when the trial space fills the whole
    space or ``P`` is exactly zero; both are 0 without representers.
    """
    R = _representers(riesz)
    if R.shape[1] == 0:
        return 0.0, 0.0
    space, W = trial.space, trial.columns
    C = np.asarray(gram, dtype=float).T
    P = R - W @ C
    scale = float(np.max(np.abs(P))) if trial.n_columns < space.dim else 0.0
    gam, PMP = 0.0, 0.0
    if scale > 0.0:
        P = P / scale
        PMP = P.T @ space.apply_metric(P)
        gam = scale * float(np.sqrt(max(np.linalg.eigvalsh(PMP)[-1], 0.0)))
    unit = max(scale, float(np.max(np.abs(C), initial=0.0)))
    if unit == 0.0:
        return gam, 0.0
    C = C / unit
    top = np.linalg.eigvalsh(C.T @ C + (scale / unit) ** 2 * PMP)[-1]
    return gam, unit * float(np.sqrt(max(top, 0.0)))


def deltas(
    decomp: GramDecomposition,
    hierarchy: SubspaceHierarchy,
    distances,
    gamma: float,
) -> BoundIntermediates:
    """Aggregate distances and widths through |X| into the bound coefficients.

    ``eta_j = sum_i |x_ij| distances[i-1]`` and ``eta_hat_j`` likewise with the
    hierarchy widths; only the first n entries of each length-(n+1) vector
    enter.  ``gamma`` is the first value of :func:`gamma`, carried alongside.
    """
    n = hierarchy.n
    distances = check_vector(n, distances, "distances")
    if decomp.X.shape != (n, n):
        raise ValueError("decomposition size does not match the hierarchy")
    absX = np.abs(decomp.X)
    eta = absX.T @ distances[:n]
    eta_hat = absX.T @ hierarchy.widths[:n]
    return BoundIntermediates(gamma=gamma, delta=eta + eta_hat, eta=eta, eta_hat=eta_hat)
