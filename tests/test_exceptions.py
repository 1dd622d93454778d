"""Tests for the exception hierarchy."""

import numpy as np
import pytest

from repro import exceptions as exc
from repro import mining


def test_everything_derives_from_repro_error():
    for name in (
        "DataError",
        "ValidationError",
        "StoreError",
        "DuplicateKeyError",
        "QueryError",
        "CollectionNotFoundError",
        "PreprocessError",
        "NotFittedError",
        "MiningError",
        "EngineError",
        "EndGoalError",
    ):
        assert issubclass(getattr(exc, name), exc.ReproError), name


def test_sub_hierarchies():
    assert issubclass(exc.ValidationError, exc.DataError)
    assert issubclass(exc.DuplicateKeyError, exc.StoreError)
    assert issubclass(exc.QueryError, exc.StoreError)
    assert issubclass(exc.CollectionNotFoundError, exc.StoreError)
    assert issubclass(exc.EndGoalError, exc.EngineError)


def test_catching_the_base_class():
    with pytest.raises(exc.ReproError):
        raise exc.MiningError("boom")


def test_convergence_warning_is_a_warning():
    assert issubclass(exc.ConvergenceWarning, UserWarning)


@pytest.mark.parametrize(
    "call",
    [
        lambda X: mining.KMeans(2, seed=0).predict(X),
        lambda X: mining.KMeans(2, seed=0).transform(X),
        lambda X: mining.DBSCAN(eps=1.0).n_clusters(),
        lambda X: mining.DBSCAN(eps=1.0).noise_ratio(),
        lambda X: mining.GaussianNaiveBayes().predict(X),
        lambda X: mining.MultinomialNaiveBayes().predict(X),
        lambda X: mining.KNeighborsClassifier(1).predict(X),
        lambda X: mining.DecisionTreeClassifier().predict(X),
        lambda X: mining.MajorityClassifier().predict(X),
    ],
    ids=[
        "kmeans-predict",
        "kmeans-transform",
        "dbscan-n-clusters",
        "dbscan-noise-ratio",
        "gaussian-nb-predict",
        "multinomial-nb-predict",
        "knn-predict",
        "tree-predict",
        "majority-predict",
    ],
)
def test_unfitted_estimators_raise_not_fitted(call):
    """Unfitted estimators raise NotFittedError, never AssertionError.

    The fit-state guards are real raises (visible under ``python -O``,
    catchable as :class:`~repro.exceptions.ReproError`) rather than
    bare asserts.
    """
    X = np.zeros((4, 3))
    with pytest.raises(exc.NotFittedError):
        call(X)
