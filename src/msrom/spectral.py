"""Gram matrix assembly and its SVD: :func:`assemble` forms one instance's
:class:`Assembly`, the one record that both projectors and both bounds read."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import ProblemInstance, SubspaceHierarchy, rhs_vector, riesz_representers
from .spaces import check_frame

__all__ = [
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


@dataclass(eq=False)
class GramDecomposition:
    """Thin SVD ``G = U diag(sigma) X^T`` of an m x n Gram matrix with LAPACK's
    signs: U is m x n, X is n x n, and every reader pairs U's columns with
    X's or reads X in magnitude.  A wide G (m < n) is refused, so that every
    sigma_j is a singular value of G."""

    G: np.ndarray
    U: np.ndarray
    X: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        m, n = self.G.shape
        if m < n:
            raise ValueError(f"need at least as many tests as trial directions (m={m}, n={n})")
        if self.U.shape != (m, n) or self.X.shape != (n, n) or self.sigma.shape != (n,):
            raise ValueError("inconsistent factor shapes")
        s = self.sigma  # finite first: np.diff warns on inf - inf
        if not (np.isfinite(s).all() and (s >= 0.0).all() and (np.diff(s) <= 0.0).all()):
            raise ValueError("singular values must be finite, nonnegative and nonincreasing")

    def nonzero(self, scale: float) -> np.ndarray:
        """Mask of the sigma_j above ``SINGULAR_REL_TOL * scale``; the rest count as zero.

        ``scale`` is the representer-family norm ``||R||_2``
        (:attr:`Assembly.norm`), an upper bound on sigma_1 that is not itself
        rounding when G is zero up to rounding.
        """
        return self.sigma > SINGULAR_REL_TOL * scale


@dataclass(eq=False)
class Assembly:
    """One instance's discrete system, the only input of both projectors and both bounds.

    ``hierarchy`` is the trial hierarchy, whose frame W, widths and profile
    the projectors and bounds read; ``d`` is the load vector, ``decomp`` the
    SVD of the Gram matrix ``G = R^T W`` of the test representers R, and
    ``gamma`` and ``norm`` the two values of :func:`gamma`: the complement
    coupling and the representer-family norm ``||R||_2``.  Construction
    checks that the decomposition has the hierarchy's size n (``ValueError``
    otherwise).
    """

    hierarchy: SubspaceHierarchy
    d: np.ndarray
    decomp: GramDecomposition
    gamma: float
    norm: float

    def __post_init__(self) -> None:
        n, k = self.hierarchy.n, self.decomp.X.shape[0]
        if k != n:
            raise ValueError(f"decomposition size {k} does not match the hierarchy's n = {n}")

    @property
    def singular(self) -> bool:
        """Whether sigma_n (n >= 1 by the hierarchy) counts as zero against :attr:`norm`
        (``decomp.nonzero``); then there is no quotient bound and no PG error."""
        return not self.decomp.nonzero(self.norm)[-1]


def _representers(riesz) -> np.ndarray:
    """The representers as an (N, m) float matrix, one column each."""
    R = np.asarray(riesz, dtype=float)
    if R.ndim != 2:
        raise ValueError(f"representers must be an (N, m) matrix, got shape {R.shape}")
    return R


def gram_matrix(riesz, trial: np.ndarray) -> np.ndarray:
    """Matrix with entry (i, j) = <r_i, w_j> for the columns r_i of ``riesz``, w_j of ``trial``."""
    return _representers(riesz).T @ trial


def decompose(G: np.ndarray) -> GramDecomposition:
    """Thin SVD of an m x n ``G``; a wide one (m < n) raises ``ValueError``."""
    G = np.asarray(G, dtype=float)
    U, sigma, Vt = np.linalg.svd(G, full_matrices=False)
    return GramDecomposition(G=G, U=U, X=Vt.T, sigma=sigma)


def gamma(riesz, trial: np.ndarray, gram) -> tuple[float, float]:
    """``(gamma, norm)``: two operator norms of the representers ``R``.

    ``gamma`` is the largest coupling of the representers with the trial
    complement, ``sup { (sum_j <r_j, v>^2)^(1/2) : v in complement, ||v|| =
    1 }``: the norm of their component off the trial span, ``P = (I - W
    W^T) R``.  ``norm`` is the norm of the whole family, the continuity
    constant of the quotient bound; with ``C = W^T R = gram^T``, where
    ``gram`` is :func:`gram_matrix` of ``riesz`` and ``trial``, ``R = W C +
    P`` gives ``R^T R = C^T C + P^T P``.  Each
    is the square root of the top eigenvalue of an m x m Gram, formed from
    its factors divided by their largest-magnitude entry so the squares
    neither overflow nor underflow; the top eigenvalue carries full
    relative accuracy.  ``gamma`` is 0 when the trial space fills the whole
    space or ``P`` is exactly zero; both are 0 without representers.
    """
    R = _representers(riesz)
    C = np.asarray(gram, dtype=float).T
    P = R - trial @ C
    scale = float(np.max(np.abs(P), initial=0.0)) if trial.shape[1] < trial.shape[0] else 0.0
    gam, PTP = 0.0, 0.0
    if scale > 0.0:
        P = P / scale
        PTP = P.T @ P
        gam = scale * float(np.sqrt(max(np.linalg.eigvalsh(PTP)[-1], 0.0)))
    unit = max(scale, float(np.max(np.abs(C), initial=0.0)))
    if unit == 0.0:
        return gam, 0.0
    C = C / unit
    top = np.linalg.eigvalsh(C.T @ C + (scale / unit) ** 2 * PTP)[-1]
    return gam, unit * float(np.sqrt(max(top, 0.0)))


def assemble(
    problem: ProblemInstance, hierarchy: SubspaceHierarchy, tests: np.ndarray
) -> Assembly:
    """The discrete system of ``problem`` on ``hierarchy.basis`` tested against ``tests``.

    Forms the representers, the load vector, the Gram matrix, its SVD and
    the two norms of :func:`gamma` once each, and keeps ``hierarchy`` with
    them, so that the projectors and the bounds of one instance read one
    record.  A test frame refused by :func:`msrom.spaces.check_frame`, fewer
    tests than trial directions, or a frame in another R^N than the problem
    raise ``ValueError``.
    """
    trial, tests = hierarchy.basis, check_frame(tests, "test")
    N = problem.z_true.size
    for name, frame in (("test", tests), ("trial", trial)):
        if frame.shape[0] != N:
            raise ValueError(f"the {name} frame lies in R^{frame.shape[0]}, the problem in R^{N}")
    R = riesz_representers(problem, tests)
    d = rhs_vector(problem, tests)
    decomp = decompose(gram_matrix(R, trial))
    gam, norm = gamma(R, trial, decomp.G)
    return Assembly(hierarchy, d, decomp, gam, norm)

