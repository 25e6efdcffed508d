"""Finite-dimensional Hilbert space primitives.

Vectors live in R^N equipped with the inner product ``<u, v> = u^T M v`` for
a symmetric positive-definite metric ``M`` (identity when omitted).  Frames
bundle metric-orthonormal columns with their ambient space.  Nothing here
writes to its inputs, but in the Euclidean case ``apply_metric`` and
``metric_image`` return their input itself, so callers must not write to
what they return.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "AmbientSpace",
    "OrthonormalFrame",
    "orthonormalize",
]

# A pivot below RANK_TOL times the largest input norm is treated as zero.
RANK_TOL = 1e-10

_METRIC_SYM_TOL = 1e-12


def is_integer(value) -> bool:
    """The one integer rule of dimensions and counts: a Python or numpy
    integer, never a bool or a float to truncate."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def all_finite(arr: np.ndarray) -> bool:
    """Whether every entry of the float array ``arr`` is finite; NaN propagates
    through min and max, which need no temporary array."""
    return bool(np.isfinite(arr.min(initial=0.0)) and np.isfinite(arr.max(initial=0.0)))


@dataclass(eq=False)
class AmbientSpace:
    """R^dim with inner product ``<u, v> = u^T metric v``.

    ``dim`` is a positive integer (:func:`is_integer`).
    ``metric`` is a symmetric positive-definite matrix with finite entries;
    ``None`` means the Euclidean inner product.  The space keeps a private
    copy, symmetrized as ``0.5 * (M + M^T)`` only when M is not exactly equal
    to its transpose.  A failed Cholesky factorization, whose factor is not
    kept, is what rejects a metric that is not positive definite.
    """

    dim: int
    metric: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not is_integer(self.dim) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        self.dim = int(self.dim)
        if self.metric is not None:
            M = np.array(self.metric, dtype=float)
            if M.shape != (self.dim, self.dim):
                raise ValueError(f"metric must be {self.dim}x{self.dim}, got {M.shape}")
            scale = np.max(np.abs(M))
            if not np.isfinite(scale):
                raise ValueError("metric entries must be finite")
            if not np.array_equal(M, M.T):
                if np.max(np.abs(M - M.T)) > _METRIC_SYM_TOL * scale:
                    raise ValueError("metric must be symmetric")
                M = 0.5 * (M + M.T)
            try:
                np.linalg.cholesky(M)
            except np.linalg.LinAlgError:
                raise ValueError("metric must be positive definite") from None
            self.metric = M

    def apply_metric(self, arr: np.ndarray) -> np.ndarray:
        """Return ``metric @ arr`` (``arr`` itself for the Euclidean case)."""
        if self.metric is None:
            return arr
        return self.metric @ arr

    def norm(self, v: np.ndarray) -> float:
        if self.metric is None:
            return float(np.linalg.norm(v))
        return float(np.sqrt(max(v @ self.metric @ v, 0.0)))


@dataclass(eq=False)
class OrthonormalFrame:
    """Metric-orthonormal columns spanning a subspace of an ambient space.

    The columns must be finite (``ValueError`` otherwise).  Frames are never
    mutated after construction: :attr:`metric_image` is computed from
    ``columns`` on first read and kept.
    """

    space: AmbientSpace
    columns: np.ndarray

    def __post_init__(self) -> None:
        cols = np.asarray(self.columns, dtype=float)
        if cols.ndim != 2 or cols.shape[0] != self.space.dim:
            raise ValueError(
                f"columns must have shape ({self.space.dim}, k), got {cols.shape}"
            )
        if not all_finite(cols):
            raise ValueError("columns must have finite entries")
        self.columns = cols

    @property
    def n_columns(self) -> int:
        return self.columns.shape[1]

    @cached_property
    def metric_image(self) -> np.ndarray:
        """``metric @ columns``, formed once; ``columns`` itself in the Euclidean case."""
        return self.space.apply_metric(self.columns)


def orthonormalize(vectors: np.ndarray, space: AmbientSpace) -> OrthonormalFrame:
    """Metric-orthonormal basis of the span of the columns of ``vectors``, an
    (N, k) array, in the given order.

    One Householder QR ``V = Q~ R~``, which is ``Q R`` in the Euclidean case.
    In a metric the k x k Gram ``Q~^T M Q~`` is SPD and no worse conditioned
    than ``M``; its Cholesky factor ``C`` gives ``Q = Q~ C^-T`` and ``R = C^T
    R~`` (Cholesky QR in an oblique inner product, Lowery and Langou 2014).
    Columns are flipped so that ``R_jj > 0``: column j is then what
    Gram-Schmidt makes of vector j, up to rounding.  Raises ``ValueError``
    at the first pivot ``|R_jj|`` at or below ``RANK_TOL`` times the largest
    input norm (column norm of ``R``), when there are more vectors than
    dimensions, and for a non-finite entry.  No vectors give an empty frame.
    """
    V = np.asarray(vectors, dtype=float)
    if V.ndim != 2:
        raise ValueError(f"expected a 2-d array of columns, got shape {V.shape}")
    N, k = V.shape
    if N != space.dim:
        raise ValueError(f"vectors live in R^{N}, space has dim {space.dim}")
    if not all_finite(V):
        raise ValueError("vectors must have finite entries")
    if k > N:
        raise ValueError(
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
    tol = RANK_TOL * float(norms.max(initial=0.0))
    small = np.flatnonzero(np.abs(pivots) <= tol)
    if small.size:
        j = int(small[0])
        raise ValueError(
            f"input vector {j} is numerically dependent on its predecessors "
            f"(pivot norm {abs(pivots[j]):.3e}, tolerance {tol:.3e})"
        )
    Q *= np.where(pivots < 0.0, -1.0, 1.0)
    return OrthonormalFrame(space, Q)
