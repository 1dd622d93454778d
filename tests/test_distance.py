"""Tests for distance/similarity primitives."""

import numpy as np
import pytest

from repro.exceptions import MiningError
from repro.mining.distance import (
    as_matrix,
    cosine_similarity,
    row_norms,
    squared_euclidean,
)


def test_as_matrix_validates_shape():
    with pytest.raises(MiningError):
        as_matrix(np.zeros(5))
    with pytest.raises(MiningError):
        as_matrix(np.zeros((0, 3)))
    with pytest.raises(MiningError):
        as_matrix([[np.nan, 1.0]])


def test_squared_euclidean_matches_naive():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(10, 4))
    b = rng.normal(size=(7, 4))
    fast = squared_euclidean(a, b)
    naive = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    assert np.allclose(fast, naive)


def test_squared_euclidean_never_negative():
    a = np.array([[1e8, 1e-8], [1e8, 1e-8]])
    distances = squared_euclidean(a, a)
    assert (distances >= 0).all()


def test_row_norms():
    a = np.array([[3.0, 4.0], [0.0, 0.0]])
    assert np.allclose(row_norms(a), [5.0, 0.0])


def test_cosine_similarity_bounds_and_self():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(8, 5))
    sims = cosine_similarity(a)
    assert np.allclose(np.diag(sims), 1.0)
    assert (sims <= 1.0 + 1e-12).all()
    assert (sims >= -1.0 - 1e-12).all()


def test_cosine_similarity_zero_rows_are_zero():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    sims = cosine_similarity(a)
    assert sims[0, 0] == 0.0
    assert sims[0, 1] == 0.0


def test_cosine_scale_invariance():
    a = np.array([[1.0, 2.0, 3.0]])
    b = np.array([[2.0, 4.0, 6.0]])
    assert np.allclose(cosine_similarity(a, b), 1.0)


def test_orthogonal_vectors_cosine():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    sims = cosine_similarity(a)
    assert np.allclose(sims[0, 1], 0.0)
