"""Distance and similarity primitives shared by the mining algorithms.

All functions operate on 2-D ``numpy`` arrays with observations in rows
and accept ``float64`` data; they are pure and allocate their outputs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import MiningError


def as_matrix(data) -> np.ndarray:
    """Validate and convert input to a 2-D float64 array."""
    matrix = np.asarray(data, dtype=np.float64)
    if matrix.ndim != 2:
        raise MiningError(f"expected a 2-D array, got shape {matrix.shape}")
    if matrix.shape[0] == 0 or matrix.shape[1] == 0:
        raise MiningError("input matrix must be non-empty")
    if not np.all(np.isfinite(matrix)):
        raise MiningError("input contains NaN or infinite values")
    return matrix


def squared_euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, shape ``(len(a), len(b))``.

    Uses the expansion ``|x-y|^2 = |x|^2 + |y|^2 - 2 x.y`` and clips tiny
    negative values produced by floating-point cancellation.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    aa = np.einsum("ij,ij->i", a, a)[:, None]
    bb = np.einsum("ij,ij->i", b, b)[None, :]
    distances = aa + bb - 2.0 * (a @ b.T)
    np.maximum(distances, 0.0, out=distances)
    return distances


def row_norms(matrix: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row."""
    matrix = np.asarray(matrix, dtype=np.float64)
    return np.sqrt(np.einsum("ij,ij->i", matrix, matrix))


def cosine_similarity(a: np.ndarray, b: Optional[np.ndarray] = None):
    """Pairwise cosine similarities in ``[-1, 1]``.

    All-zero rows have undefined direction; by convention their similarity
    to anything (including themselves) is 0.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = a if b is None else np.atleast_2d(np.asarray(b, dtype=np.float64))
    norms_a = row_norms(a)
    norms_b = row_norms(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = (a @ b.T) / np.outer(norms_a, norms_b)
    sims = np.nan_to_num(sims, nan=0.0, posinf=0.0, neginf=0.0)
    return np.clip(sims, -1.0, 1.0)
