"""Gram matrix assembly and its SVD: :func:`assemble` forms one instance's
:class:`Assembly`, which both projectors and both bounds read."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import ProblemInstance, rhs_vector, riesz_representers
from .spaces import OrthonormalFrame

__all__ = [
    "SingularGram",
    "GramDecomposition",
    "Assembly",
    "gram_matrix",
    "decompose",
    "gamma",
    "assemble",
]

# A singular value at most this times the representer-family norm ||R||_2
# counts as zero, for the singularity test and for every pseudo-inverse of G.
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

    def nonzero(self, scale: float) -> np.ndarray:
        """Mask of the sigma_j above ``SINGULAR_REL_TOL * scale``; the rest count as zero.

        ``scale`` is the representer-family norm ``||R||_2``
        (:attr:`Assembly.norm`), an upper bound on sigma_1 that is not itself
        rounding when G is zero up to rounding.
        """
        return self.sigma > SINGULAR_REL_TOL * scale


@dataclass(eq=False)
class Assembly:
    """One instance's discrete system, read by both projectors and both bounds.

    ``R`` holds the test representers (an (N, m) array, one column each),
    ``d`` the load vector, ``decomp`` the SVD of the Gram matrix ``G = R^T M
    W``, and ``gamma`` and ``norm`` the two values of :func:`gamma`: the
    complement coupling and the representer-family norm ``||R||_2``.
    """

    R: np.ndarray
    d: np.ndarray
    decomp: GramDecomposition
    gamma: float
    norm: float

    @property
    def singular(self) -> bool:
        """Whether sigma_n counts as zero against :attr:`norm` (see ``decomp.nonzero``)."""
        return self.decomp.sigma.size > 0 and not self.decomp.nonzero(self.norm)[-1]

    def check_nonsingular(self) -> None:
        """Raise :class:`SingularGram` when :attr:`singular` holds."""
        if self.singular:
            raise SingularGram(
                f"sigma_n = {self.decomp.sigma[-1]:.3e} below {SINGULAR_REL_TOL} * "
                f"||R||_2 = {SINGULAR_REL_TOL * self.norm:.3e}"
            )


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


def assemble(
    problem: ProblemInstance, trial: OrthonormalFrame, tests: OrthonormalFrame
) -> Assembly:
    """The discrete system of ``problem`` on ``trial`` tested against ``tests``.

    Forms the representers, the load vector, the Gram matrix, its SVD and
    the two norms of :func:`gamma` once each, so that the projectors and the
    bounds of one instance share them.  Needs at least as many tests as trial
    directions.
    """
    m, n = tests.n_columns, trial.n_columns
    if m < n:
        raise ValueError(f"need at least as many tests as trial directions (m={m}, n={n})")
    R = riesz_representers(problem, tests)
    d = rhs_vector(problem, tests)
    decomp = decompose(gram_matrix(R, trial))
    gam, norm = gamma(R, trial, decomp.G)
    return Assembly(R, d, decomp, gam, norm)

