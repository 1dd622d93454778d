"""The outlier goal's one blocked distance pass.

``DBSCAN(n_neighbors=...)`` reads its radius neighbourhoods and each
point's k-NN distance off the same reused distance block
(``repro.mining.distance.squared_euclidean_blocks``), and labels its
clusters straight from the stored neighbour blocks;
``tests/outlier_reference.py`` keeps the two separate passes and the
CSR expansion it replaced. Labels and core points must be identical to
the reference, the fused k-NN distances bitwise equal to
``knn_outlier_scores`` and within 2 ulp of the reference scores.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import MiningError
from repro.mining import DBSCAN, knn_outlier_scores, rank_outliers
from repro.mining import dbscan as dbscan_module
from repro.mining.dbscan import _columns, _label
from repro.mining.distance import (
    block_rows,
    squared_euclidean,
    squared_euclidean_blocks,
)
from tests.outlier_reference import (
    ReferenceDBSCAN,
    assert_same_outlier_pass,
    reference_labels,
)

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
# cluster expansion over the stored blocks against the CSR reference
# ----------------------------------------------------------------------
def as_blocks(relation: np.ndarray, heights, kinds):
    """Row blocks of a boolean relation, each a bit mask or columns."""
    blocks, start = [], 0
    for height, kind in zip(heights, kinds):
        rows = relation[start : start + height]
        start += height
        part = np.packbits(rows, axis=1) if kind else _columns(rows)
        blocks.append((rows.sum(axis=1), part))
    return blocks


@st.composite
def relations(draw):
    """A directed relation (asymmetric, self loops optional) split into
    blocks of random heights and kinds."""
    n = draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.02, 0.08, 0.2, 0.5]))
    seed = draw(st.integers(0, 2**32 - 1))
    relation = np.random.default_rng(seed).random((n, n)) < density
    heights = []
    while sum(heights) < n:
        heights.append(draw(st.integers(1, n - sum(heights))))
    kinds = draw(
        st.lists(st.booleans(), min_size=len(heights), max_size=len(heights))
    )
    return relation, heights, kinds, draw(st.integers(1, 5))


def assert_same_labels(relation, heights, kinds, min_samples):
    n = len(relation)
    expected, expected_core = reference_labels(
        n, as_blocks(relation, heights, kinds), min_samples
    )
    for chunk in (dbscan_module._FRONTIER_CHUNK, 3):
        with mock.patch.object(dbscan_module, "_FRONTIER_CHUNK", chunk):
            labels, is_core = _label(
                n, as_blocks(relation, heights, kinds), min_samples
            )
        assert labels.dtype == expected.dtype
        np.testing.assert_array_equal(labels, expected)
        np.testing.assert_array_equal(is_core, expected_core)


@given(case=relations())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_block_expansion_matches_the_csr_reference(case):
    assert_same_labels(*case)


@pytest.mark.parametrize("kinds", [[True, False], [False, True]])
def test_block_expansion_gives_a_shared_border_point_the_lowest_cluster(
    kinds,
):
    # Cores 0-2 and 4-6 form two clusters, each reaching point 3; point
    # 3 reaches nothing (the relation is asymmetric) and is not core.
    # Point 7 is reached only by cluster 1 and reaches cluster 0.
    relation = np.zeros((8, 8), dtype=bool)
    relation[0:3, 0:4] = True
    relation[4:7, 3:8] = True
    relation[7, 0] = True
    assert_same_labels(relation, [4, 4], kinds, 3)
    labels, is_core = _label(8, as_blocks(relation, [4, 4], kinds), 3)
    assert labels.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
    assert np.flatnonzero(is_core).tolist() == [0, 1, 2, 4, 5, 6]


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
def test_fused_pass_peak_memory_stays_within_one_buffer():
    """The pass allocates one reused distance buffer, not fresh
    temporaries per block, and labels from the neighbour blocks it
    stores, with no CSR: its traced peak stays below 1.3 buffers (the
    buffer, its boolean ``<= eps`` mask at 1/8 of it and a ~1 MB
    scratch band) plus those blocks."""
    data = gaussian_rows(5, n=3000, dims=40)
    eps = 2.46
    buffer_bytes = block_rows(len(data)) * len(data) * 8
    reference = ReferenceDBSCAN(eps, min_samples=5)
    stored_bytes = sum(
        counts.nbytes + part.nbytes
        for counts, part in reference._brute_blocks(data, None)
    )
    reference.fit(data)
    tracemalloc.start()
    try:
        model = DBSCAN(eps, min_samples=5, n_neighbors=5).fit(data)
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(model.labels_, reference.labels_)
    assert peak < 1.3 * buffer_bytes + stored_bytes
