"""The outlier goal's one blocked distance pass.

``DBSCAN(n_neighbors=...)`` reads its radius neighbourhoods and each
point's k-NN distance off the same reused distance blocks
(``repro.mining.distance.squared_euclidean_blocks``);
``tests/outlier_reference.py`` keeps the two separate passes it
replaced. Labels and core points must be identical to the reference,
the fused k-NN distances bitwise equal to ``knn_outlier_scores`` and
within 2 ulp of the reference scores.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.exceptions import MiningError
from repro.mining import DBSCAN, knn_outlier_scores, rank_outliers
from repro.mining.distance import (
    block_rows,
    squared_euclidean,
    squared_euclidean_blocks,
)
from tests.outlier_reference import ReferenceDBSCAN, assert_same_outlier_pass

#: Rows of the equivalence matrices: several 800-row blocks of the
#: fused pass (the last one short) and two of the reference scores.
N_ROWS = 2500


def grid_rows(seed: int, n: int = N_ROWS, dims: int = 30) -> np.ndarray:
    """Small-integer rows around six centres, with duplicate rows. Every
    squared distance is an exact integer, so many pairs lie exactly at
    ``eps = 2``."""
    rng = np.random.default_rng(seed)
    centres = rng.integers(0, 4, size=(6, dims))
    jitter = rng.integers(-1, 2, size=(n, dims))
    jitter *= rng.random((n, dims)) < 0.08
    rows = (centres[rng.integers(0, 6, size=n)] + jitter).astype(float)
    rows[rng.integers(0, n, 50)] = rows[rng.integers(0, n, 50)]
    return rows


def gaussian_rows(seed: int, n: int = N_ROWS, dims: int = 40) -> np.ndarray:
    """Five Gaussian blobs, 30 scattered points and duplicate rows."""
    rng = np.random.default_rng(seed)
    centres = rng.normal(0.0, 3.0, size=(5, dims))
    rows = centres[rng.integers(0, 5, n)] + rng.normal(0, 0.3, (n, dims))
    rows[rng.integers(0, n, 30)] = rng.uniform(-8, 8, size=(30, dims))
    rows[rng.integers(0, n, 40)] = rows[rng.integers(0, n, 40)]
    return rows


# ----------------------------------------------------------------------
# the blocked kernel
# ----------------------------------------------------------------------
@pytest.mark.parametrize("order", ["C", "F"])
def test_blocks_equal_squared_euclidean_bit_for_bit(order):
    rng = np.random.default_rng(3)
    data = np.asarray(rng.random((900, 30)), order=order)
    queries = np.asarray(rng.random((500, 30)), order=order)
    rows = block_rows(len(data))
    for a, b in ((data, None), (queries, data)):
        starts = []
        for start, block in squared_euclidean_blocks(a, b):
            starts.append(start)
            expected = squared_euclidean(a[start : start + rows], data)
            assert block.tobytes() == expected.tobytes()
        assert starts == list(range(0, len(a), rows))


def test_blocks_reuse_one_buffer():
    data = np.random.default_rng(4).random((2000, 26))
    blocks = squared_euclidean_blocks(data)
    __, first = next(blocks)
    first[:] = -1.0  # a consumer may overwrite a block in place
    for start, block in blocks:
        assert np.shares_memory(block, first)
        expected = squared_euclidean(data[start : start + len(block)], data)
        assert block.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# the fused pass against the two reference passes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1])
def test_fused_pass_matches_reference_with_points_at_eps(seed):
    data = grid_rows(seed)
    eps = 2.0
    assert (squared_euclidean(data[:200], data) == eps * eps).any()
    model, __ = assert_same_outlier_pass(data, eps)
    assert model.n_clusters() > 1


@pytest.mark.parametrize("seed", [0, 1])
def test_fused_pass_matches_reference_on_gaussian_blobs(seed):
    data = gaussian_rows(seed)
    model, __ = assert_same_outlier_pass(data, eps=2.46)
    assert model.n_clusters() > 1 and 0 < model.noise_ratio() < 0.1


def test_tree_branch_fills_the_same_knn_distances(blobs):
    data, __ = blobs
    plain = DBSCAN(eps=1.0, min_samples=4).fit(data)
    fused = DBSCAN(eps=1.0, min_samples=4, n_neighbors=3).fit(data)
    assert plain.knn_distances_ is None
    np.testing.assert_array_equal(fused.labels_, plain.labels_)
    expected = knn_outlier_scores(data, n_neighbors=3)
    assert fused.knn_distances_.tobytes() == expected.tobytes()


@pytest.mark.parametrize("brute_force_dims", [1, 999])
def test_n_neighbors_is_validated(blobs, brute_force_dims):
    data, __ = blobs
    for bad in (0, len(data)):
        model = DBSCAN(
            1.0, n_neighbors=bad, brute_force_dims=brute_force_dims
        )
        with pytest.raises(MiningError):
            model.fit(data)


def test_rank_outliers_orders_by_score_then_index():
    scores = np.array([0.5, 2.0, 0.1, 2.0, 1.0])
    indexes, top = rank_outliers(scores, n_outliers=3)
    assert indexes.tolist() == [1, 3, 4]
    assert top.tolist() == [2.0, 2.0, 1.0]
    assert rank_outliers(scores, n_outliers=99)[0].tolist() == [1, 3, 4, 0, 2]
    with pytest.raises(MiningError):
        rank_outliers(scores, n_outliers=0)


# ----------------------------------------------------------------------
# memory guard
# ----------------------------------------------------------------------
@pytest.mark.bench_smoke
def test_fused_pass_peak_memory_stays_within_two_buffers():
    """The pass allocates two reused block buffers, not fresh
    temporaries per block: its traced peak stays below 2.5 buffers plus
    the CSR neighbourhoods it returns."""
    data = gaussian_rows(5, n=3000, dims=40)
    eps = 2.46
    buffer_bytes = block_rows(len(data)) * len(data) * 8
    reference = ReferenceDBSCAN(eps, min_samples=5).fit(data)
    n_pairs = sum(
        int((block <= eps * eps).sum())
        for __, block in squared_euclidean_blocks(data)
    )
    csr_bytes = (len(data) + 1) * 8 + n_pairs * 4
    tracemalloc.start()
    try:
        model = DBSCAN(eps, min_samples=5, n_neighbors=5).fit(data)
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(model.labels_, reference.labels_)
    assert peak < 2.5 * buffer_bytes + csr_bytes
