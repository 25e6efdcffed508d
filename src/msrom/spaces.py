"""Finite-dimensional Hilbert space primitives.

Vectors live in R^N with the Euclidean inner product: the library computes in
orthonormal coordinates, into which :func:`msrom.synth_prescribed` maps any
other inner product.  Nothing here writes to its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "OrthonormalFrame",
    "orthonormalize",
]

# A pivot below RANK_TOL times the largest input norm is treated as zero.
RANK_TOL = 1e-10


def all_finite(arr: np.ndarray) -> bool:
    """Whether every entry of the float array ``arr`` is finite; NaN propagates
    through min and max, which need no temporary array."""
    return bool(np.isfinite(arr.min(initial=0.0)) and np.isfinite(arr.max(initial=0.0)))


@dataclass(eq=False)
class OrthonormalFrame:
    """Orthonormal columns spanning a subspace of R^N, an (N, k) array.

    The columns must be finite (``ValueError`` otherwise).  The frame keeps
    the caller's array: msrom never writes to a frame, but a caller's later
    write reaches it, unchecked.
    """

    columns: np.ndarray

    def __post_init__(self) -> None:
        cols = np.asarray(self.columns, dtype=float)
        if cols.ndim != 2:
            raise ValueError(f"columns must have shape (N, k), got {cols.shape}")
        if not all_finite(cols):
            raise ValueError("columns must have finite entries")
        self.columns = cols

    @property
    def n_columns(self) -> int:
        return self.columns.shape[1]


def orthonormalize(vectors: np.ndarray) -> OrthonormalFrame:
    """Orthonormal basis of the span of the columns of ``vectors``, an (N, k)
    array, in the given order.

    One Householder QR ``V = Q R``.  Columns are flipped so that ``R_jj > 0``:
    column j is then what Gram-Schmidt makes of vector j, up to rounding.
    Raises ``ValueError`` at the first pivot ``|R_jj|`` at or below
    ``RANK_TOL`` times the largest input norm, when there are more vectors
    than dimensions, and for a non-finite entry.  No vectors give an empty
    frame.
    """
    V = np.asarray(vectors, dtype=float)
    if V.ndim != 2:
        raise ValueError(f"expected a 2-d array of columns, got shape {V.shape}")
    N, k = V.shape
    if not all_finite(V):
        raise ValueError("vectors must have finite entries")
    if k > N:
        raise ValueError(
            f"input vector {N} is numerically dependent on its predecessors "
            f"({k} vectors in R^{N})"
        )
    Q, R = np.linalg.qr(V)
    pivots = np.diag(R)
    tol = RANK_TOL * float(np.linalg.norm(V, axis=0).max(initial=0.0))
    small = np.flatnonzero(np.abs(pivots) <= tol)
    if small.size:
        j = int(small[0])
        raise ValueError(
            f"input vector {j} is numerically dependent on its predecessors "
            f"(pivot norm {abs(pivots[j]):.3e}, tolerance {tol:.3e})"
        )
    Q *= np.where(pivots < 0.0, -1.0, 1.0)
    return OrthonormalFrame(Q)
