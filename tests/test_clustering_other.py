"""Tests for DBSCAN."""

from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import MiningError, NotFittedError
from repro.mining import DBSCAN, NOISE, KDTree, adjusted_rand_index
from repro.mining import dbscan as dbscan_module
from repro.mining.distance import squared_euclidean


# ----------------------------------------------------------------------
# DBSCAN
# ----------------------------------------------------------------------
def test_dbscan_recovers_blobs(blobs):
    data, truth = blobs
    model = DBSCAN(eps=1.0, min_samples=4).fit(data)
    assert model.n_clusters() == 3
    core = model.labels_ != NOISE
    assert adjusted_rand_index(truth[core], model.labels_[core]) > 0.99


def test_dbscan_flags_isolated_point(blobs):
    data, __ = blobs
    spiked = np.vstack([data, [[100.0] * data.shape[1]]])
    model = DBSCAN(eps=1.0, min_samples=4).fit(spiked)
    assert model.labels_[-1] == NOISE


def test_dbscan_all_noise_when_eps_tiny(blobs):
    data, __ = blobs
    model = DBSCAN(eps=1e-6, min_samples=3).fit(data)
    assert model.noise_ratio() == pytest.approx(1.0)
    assert model.n_clusters() == 0


def test_dbscan_one_cluster_when_eps_huge(blobs):
    data, __ = blobs
    model = DBSCAN(eps=100.0, min_samples=3).fit(data)
    assert model.n_clusters() == 1
    assert model.noise_ratio() == 0.0


def test_dbscan_brute_force_matches_tree(blobs):
    data, __ = blobs
    tree_based = DBSCAN(eps=1.0, min_samples=4, brute_force_dims=999).fit(
        data
    )
    brute = DBSCAN(eps=1.0, min_samples=4, brute_force_dims=1).fit(data)
    assert adjusted_rand_index(
        tree_based.labels_, brute.labels_
    ) == pytest.approx(1.0)
    assert np.array_equal(
        tree_based.core_sample_indices_, brute.core_sample_indices_
    )


def test_dbscan_validation(blobs):
    data, __ = blobs
    with pytest.raises(MiningError):
        DBSCAN(eps=0.0)
    with pytest.raises(MiningError):
        DBSCAN(eps=1.0, min_samples=0)
    with pytest.raises(NotFittedError):
        DBSCAN(eps=1.0).n_clusters()
    with pytest.raises(NotFittedError):
        DBSCAN(eps=1.0).noise_ratio()


# ----------------------------------------------------------------------
# DBSCAN exactness against a point-by-point breadth-first oracle
# ----------------------------------------------------------------------
def reference_dbscan(data, eps, min_samples, brute_force_dims=25):
    """``(labels, core indices)`` from a queue-based BFS, one neighbour
    at a time, over neighbourhoods computed exactly as ``DBSCAN`` does
    (same blocks for brute force, same kd-tree queries otherwise)."""
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    if data.shape[1] >= brute_force_dims:
        block = max(1, 2_000_000 // n)
        neighbour_lists = []
        for start in range(0, n, block):
            distances = squared_euclidean(data[start : start + block], data)
            for row in distances:
                neighbour_lists.append(np.nonzero(row <= eps * eps)[0])
    else:
        tree = KDTree(data)
        neighbour_lists = [tree.query_radius(row, eps) for row in data]
    is_core = np.array([len(nbrs) >= min_samples for nbrs in neighbour_lists])
    labels = np.full(n, NOISE, dtype=int)
    cluster = 0
    for start in range(n):
        if labels[start] != NOISE or not is_core[start]:
            continue
        labels[start] = cluster
        queue = deque([start])
        while queue:
            point = queue.popleft()
            if not is_core[point]:
                continue
            for neighbour in neighbour_lists[point]:
                if labels[neighbour] == NOISE:
                    labels[neighbour] = cluster
                    queue.append(int(neighbour))
        cluster += 1
    return labels, np.nonzero(is_core)[0]


def assert_matches_reference(data, eps, min_samples, brute_force_dims):
    labels, core = reference_dbscan(data, eps, min_samples, brute_force_dims)
    # A tiny chunk bound splits every frontier gather into many chunks.
    for chunk in (dbscan_module._FRONTIER_CHUNK, 3):
        with mock.patch.object(dbscan_module, "_FRONTIER_CHUNK", chunk):
            model = DBSCAN(eps, min_samples, brute_force_dims).fit(data)
        assert model.labels_.dtype == labels.dtype
        assert np.array_equal(model.labels_, labels)
        assert model.core_sample_indices_.dtype == core.dtype
        assert np.array_equal(model.core_sample_indices_, core)
    return model


@st.composite
def dbscan_cases(draw):
    n = draw(st.integers(1, 60))
    dims = draw(st.integers(1, 3))
    # Points on a coarse lattice: duplicates and exact-eps ties are
    # common, and a narrow span packs clusters close enough to share
    # border points.
    span = draw(st.sampled_from([8, 20, 40, 80]))
    cells = draw(
        st.lists(st.integers(0, span), min_size=n * dims, max_size=n * dims)
    )
    data = np.array(cells, dtype=np.float64).reshape(n, dims) * 0.25
    eps = draw(
        st.sampled_from([1e-3, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 50.0])
    )
    min_samples = draw(st.integers(1, 6))
    return data, eps, min_samples


@pytest.mark.parametrize("brute_force_dims", [1, 999])
@given(case=dbscan_cases())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_dbscan_matches_reference_bfs(brute_force_dims, case):
    data, eps, min_samples = case
    assert_matches_reference(data, eps, min_samples, brute_force_dims)


@pytest.mark.parametrize("brute_force_dims", [1, 999])
@pytest.mark.parametrize(
    "eps, min_samples",
    [
        (0.3, 1),  # every point is core
        (1e-6, 3),  # all noise (see test_dbscan_all_noise_when_eps_tiny)
        (100.0, 3),  # one cluster (see test_dbscan_one_cluster_when_eps_huge)
    ],
)
def test_dbscan_matches_reference_edge_cases(
    blobs, brute_force_dims, eps, min_samples
):
    data, __ = blobs
    assert_matches_reference(data, eps, min_samples, brute_force_dims)


@pytest.mark.parametrize("brute_force_dims", [1, 999])
def test_dbscan_matches_reference_one_huge_cluster(brute_force_dims):
    # 600 mutual neighbours: on the kd-tree branch the second frontier
    # gathers 359k neighbour columns, several chunks at the default
    # bound.
    data = np.random.default_rng(2).normal(size=(600, 2))
    model = assert_matches_reference(data, 100.0, 5, brute_force_dims)
    assert model.n_clusters() == 1


@pytest.mark.parametrize("brute_force_dims", [1, 999])
def test_dbscan_matches_reference_many_tiny_clusters(brute_force_dims):
    rng = np.random.default_rng(3)
    centres = rng.permutation(200)[:, None] * 10.0
    data = np.vstack([centres, centres + 0.1, centres + 0.2])
    model = assert_matches_reference(data, 0.15, 2, brute_force_dims)
    assert model.n_clusters() == 200


@pytest.mark.parametrize("brute_force_dims", [1, 999])
def test_dbscan_border_point_takes_lowest_cluster(brute_force_dims):
    # Two dense runs 2.0 apart with a lone point midway: the midpoint
    # has only 3 neighbours (not core) but lies within eps of a core
    # point of each run. The right-hand run comes first in the input,
    # so it is cluster 0, and the shared border point must join it.
    left = [0.0, 0.05, 0.1, 0.15, 0.2]
    right = [2.0, 2.05, 2.1, 2.15, 2.2]
    data = np.array(right + [1.1] + left)[:, None]
    model = assert_matches_reference(data, 0.92, 4, brute_force_dims)
    assert model.labels_.tolist() == [0] * 5 + [0] + [1] * 5
    assert 5 not in model.core_sample_indices_
