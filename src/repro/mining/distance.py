"""Distance and similarity primitives shared by the mining algorithms.

All functions operate on 2-D ``numpy`` arrays with observations in rows
and accept ``float64`` data; they are pure and allocate their outputs,
except :func:`squared_euclidean_blocks`, which writes every block into
one reused buffer, and :func:`kth_distance`, which partitions its block
in place.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

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


def block_rows(n: int) -> int:
    """Rows per block of distances to ``n`` points: about 2M entries,
    one ~16 MB float64 buffer."""
    return max(1, 2_000_000 // max(n, 1))


#: Entries of the scratch row band :func:`squared_euclidean_blocks`
#: forms ``|x|^2 + |y|^2`` in: 1 MB of float64, cache-sized.
_SCRATCH = 1 << 17


def squared_euclidean_blocks(
    queries: np.ndarray, data: Optional[np.ndarray] = None
) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(start, block)`` over ``queries`` in row blocks.

    ``block`` equals ``squared_euclidean(queries[start:start + rows],
    data)`` bit for bit (same operands, same operations in the same
    order), where ``rows`` is :func:`block_rows` of ``len(data)``
    (``data`` defaults to ``queries``). The product ``chunk @ dataᵀ``
    is written straight into one preallocated buffer and doubled in
    place; each band of rows then subtracts it from ``|x|^2 + |y|^2``
    formed in a small scratch array, back into the buffer. Every block
    is that same buffer, so a block is only valid until the next one is
    requested; a consumer may overwrite it in place. The buffers are
    released when the generator finishes or is closed.
    """
    data = queries if data is None else data
    n = data.shape[0]
    rows = min(block_rows(n), queries.shape[0])
    band = min(rows, max(1, _SCRATCH // n))
    bb = np.einsum("ij,ij->i", data, data)[None, :]
    block = np.empty((rows, n))
    scratch = np.empty((band, n))
    for start in range(0, queries.shape[0], rows):
        chunk = queries[start : start + rows]
        aa = np.einsum("ij,ij->i", chunk, chunk)[:, None]
        out = np.matmul(chunk, data.T, out=block[: len(chunk)])
        out *= 2.0
        for lo in range(0, len(chunk), band):
            twice = out[lo : lo + band]
            total = np.add(aa[lo : lo + band], bb, out=scratch[: len(twice)])
            np.subtract(total, twice, out=twice)
            np.maximum(twice, 0.0, out=twice)
        yield start, out


def kth_distance(block: np.ndarray, k: int) -> np.ndarray:
    """Square root of each row's ``k``-th smallest entry (0-based) of a
    block of squared distances, which is partitioned in place."""
    block.partition(k, axis=1)
    return np.sqrt(block[:, k])


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
