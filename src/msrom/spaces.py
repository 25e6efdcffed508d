"""Finite-dimensional Hilbert space primitives.

Vectors live in R^N with the Euclidean inner product: the library computes in
orthonormal coordinates, into which :func:`msrom.synth_prescribed` maps any
other inner product.  Nothing here writes to its inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["orthonormalize"]

# A pivot below RANK_TOL times the largest input norm is treated as zero.
RANK_TOL = 1e-10


def all_finite(arr: np.ndarray) -> bool:
    """Whether every entry of the float array ``arr`` is finite; NaN propagates
    through min and max, which need no temporary array."""
    return bool(np.isfinite(arr.min(initial=0.0)) and np.isfinite(arr.max(initial=0.0)))


# Orthonormal columns have a Gram W^T W within this of the identity entrywise.
ORTHONORMAL_TOL = 1e-10


def orthonormal(W: np.ndarray) -> bool:
    """Whether the float 2-d array ``W`` has orthonormal columns, to ``ORTHONORMAL_TOL``;
    its entries must lie in [-1, 1] first, so NaN, inf and overflow fail before W^T W."""
    bound = 1.0 + ORTHONORMAL_TOL
    return bool(
        -bound <= W.min(initial=0.0) and W.max(initial=0.0) <= bound
        and np.max(np.abs(W.T @ W - np.eye(W.shape[1])), initial=0.0) <= ORTHONORMAL_TOL
    )


def check_frame(columns, name: str) -> np.ndarray:
    """``columns`` as a float (N, k) array, the caller's own where it is one, if
    :func:`orthonormal`; else ``ValueError`` naming the ``name`` frame."""
    W = np.asarray(columns, dtype=float)
    if W.ndim != 2:
        raise ValueError(f"the {name} frame must be an (N, k) array, got shape {W.shape}")
    if not orthonormal(W):
        raise ValueError(f"the {name} frame must have finite, orthonormal columns")
    return W


def orthonormalize(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis, an (N, k) array, of the span of the columns of the
    (N, k) array ``vectors``, in the given order.

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
    return Q
