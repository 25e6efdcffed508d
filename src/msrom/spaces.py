"""Finite-dimensional Hilbert space primitives.

Vectors live in R^N equipped with the inner product ``<u, v> = u^T M v`` for
a symmetric positive-definite metric ``M`` (identity when omitted).  Frames
bundle metric-orthonormal columns with their ambient space.  All routines are
pure functions of their inputs; returned arrays are fresh and may be shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AmbientSpace",
    "OrthonormalFrame",
    "RankDeficient",
    "orthonormalize",
    "project",
]

# A pivot below RANK_TOL times the largest input norm is treated as zero.
RANK_TOL = 1e-10

_METRIC_SYM_TOL = 1e-12


class RankDeficient(ValueError):
    """The supplied vectors are numerically linearly dependent."""


@dataclass(eq=False)
class AmbientSpace:
    """R^dim with inner product ``<u, v> = u^T metric v``.

    ``metric`` is a symmetric positive-definite matrix; ``None`` means the
    Euclidean inner product.  The metric is factored once on construction,
    ``metric = cholesky @ cholesky.T`` with ``cholesky`` lower triangular
    (``None`` in the Euclidean case, public, unused by :func:`orthonormalize`):
    a failed factorization is what rejects a metric that is not positive definite.
    """

    dim: int
    metric: np.ndarray | None = None
    cholesky: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        if int(self.dim) < 1:
            raise ValueError("dim must be a positive integer")
        self.dim = int(self.dim)
        if self.metric is not None:
            M = np.asarray(self.metric, dtype=float)
            if M.shape != (self.dim, self.dim):
                raise ValueError(f"metric must be {self.dim}x{self.dim}, got {M.shape}")
            scale = np.max(np.abs(M))
            if scale == 0.0 or np.max(np.abs(M - M.T)) > _METRIC_SYM_TOL * scale:
                raise ValueError("metric must be symmetric")
            M = 0.5 * (M + M.T)
            try:
                self.cholesky = np.linalg.cholesky(M)
            except np.linalg.LinAlgError:
                raise ValueError("metric must be positive definite") from None
            self.metric = M

    @property
    def euclidean(self) -> bool:
        return self.metric is None

    def apply_metric(self, arr: np.ndarray) -> np.ndarray:
        """Return ``metric @ arr`` (``arr`` itself for the Euclidean case)."""
        if self.metric is None:
            return arr
        return self.metric @ arr

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        if self.metric is None:
            return float(u @ v)
        return float(u @ self.metric @ v)

    def norm(self, v: np.ndarray) -> float:
        if self.metric is None:
            return float(np.linalg.norm(v))
        return float(np.sqrt(max(v @ self.metric @ v, 0.0)))


@dataclass(eq=False)
class OrthonormalFrame:
    """Metric-orthonormal columns spanning a subspace of an ambient space."""

    space: AmbientSpace
    columns: np.ndarray

    def __post_init__(self) -> None:
        cols = np.asarray(self.columns, dtype=float)
        if cols.ndim != 2 or cols.shape[0] != self.space.dim:
            raise ValueError(
                f"columns must have shape ({self.space.dim}, k), got {cols.shape}"
            )
        self.columns = cols

    @property
    def n_columns(self) -> int:
        return self.columns.shape[1]

    def prefix(self, k: int) -> "OrthonormalFrame":
        """Frame made of the first ``k`` columns."""
        if not 0 <= k <= self.n_columns:
            raise ValueError(f"prefix length {k} out of range")
        return OrthonormalFrame(self.space, self.columns[:, :k])


def _as_columns(vectors) -> np.ndarray:
    """Coerce a sequence of vectors (or an (N, k) array of columns) to a matrix."""
    if isinstance(vectors, np.ndarray):
        arr = np.array(vectors, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise ValueError("expected vectors or a 2-d array of columns")
        return arr
    return np.column_stack([np.asarray(v, dtype=float) for v in vectors])


def orthonormalize(vectors, space: AmbientSpace) -> OrthonormalFrame:
    """Metric-orthonormal basis of the vectors' span, in the given order.

    One Householder QR ``V = Q~ R~``, which is ``Q R`` in the Euclidean case.
    In a metric the k x k Gram ``Q~^T M Q~`` is SPD and no worse conditioned
    than ``M``; its Cholesky factor ``C`` gives ``Q = Q~ C^-T`` and ``R = C^T
    R~`` (Cholesky QR in an oblique inner product, Lowery and Langou 2014).
    Columns are flipped so that ``R_jj > 0``: column j is then what
    Gram-Schmidt makes of vector j, up to rounding.  Raises
    :class:`RankDeficient` at the first pivot ``|R_jj|`` at or below
    ``RANK_TOL`` times the largest input norm (column norm of ``R``), and
    when there are more vectors than dimensions.  No vectors give an empty
    frame.
    """
    V = _as_columns(vectors)
    N, k = V.shape
    if N != space.dim:
        raise ValueError(f"vectors live in R^{N}, space has dim {space.dim}")
    if k == 0:
        return OrthonormalFrame(space, np.zeros((N, 0)))
    if k > N:
        raise RankDeficient(
            f"input vector {N} is numerically dependent on its predecessors "
            f"({k} vectors in R^{N})"
        )
    Q, R = np.linalg.qr(V)
    if space.metric is None:
        norms = np.linalg.norm(V, axis=0)
    else:
        C = np.linalg.cholesky(Q.T @ (space.metric @ Q))
        R = C.T @ R
        norms = np.linalg.norm(R, axis=0)  # the metric norms of the inputs
        Q = Q @ np.linalg.inv(C).T
    pivots = np.diag(R)
    tol = RANK_TOL * float(norms.max())
    small = np.flatnonzero(np.abs(pivots) <= tol)
    if small.size:
        j = int(small[0])
        raise RankDeficient(
            f"input vector {j} is numerically dependent on its predecessors "
            f"(pivot norm {abs(pivots[j]):.3e}, tolerance {tol:.3e})"
        )
    Q *= np.where(pivots < 0.0, -1.0, 1.0)
    return OrthonormalFrame(space, Q)


def project(v, frame: OrthonormalFrame) -> tuple[np.ndarray, float]:
    """Orthogonal projection onto the frame's span.

    Returns ``(inside, residual_norm)`` where ``inside`` is the projection and
    ``residual_norm = ||v - inside||`` is the distance to the span.
    """
    v = np.asarray(v, dtype=float)
    space = frame.space
    if v.shape != (space.dim,):
        raise ValueError(f"vector must have shape ({space.dim},), got {v.shape}")
    coeffs = frame.columns.T @ space.apply_metric(v)
    inside = frame.columns @ coeffs
    return inside, space.norm(v - inside)
