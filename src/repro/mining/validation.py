"""Model validation: k-fold splitters, cross-validation, hold-out split.

The paper evaluates its cluster-robustness classifier with 10-fold cross
validation; :func:`cross_validate` reproduces that protocol and reports
exactly the Table I metrics (accuracy, average precision, average
recall) by default.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.exceptions import MiningError
from repro.mining.metrics import accuracy, precision_recall_f1


class KFold:
    """Plain k-fold splitter with optional shuffling."""

    def __init__(
        self, n_splits: int = 10, shuffle: bool = True, seed: int = 0
    ) -> None:
        if n_splits < 2:
            raise MiningError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.seed = seed

    def split(
        self, n_samples: int
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(train_indexes, test_indexes)`` pairs."""
        if n_samples < self.n_splits:
            raise MiningError(
                f"cannot split {n_samples} samples into"
                f" {self.n_splits} folds"
            )
        indexes = np.arange(n_samples)
        if self.shuffle:
            rng = np.random.default_rng(self.seed)
            rng.shuffle(indexes)
        folds = np.array_split(indexes, self.n_splits)
        for i in range(self.n_splits):
            test = folds[i]
            train = np.concatenate(
                [folds[j] for j in range(self.n_splits) if j != i]
            )
            yield train, test


class StratifiedKFold:
    """k-fold preserving per-class proportions in every fold."""

    def __init__(
        self, n_splits: int = 10, shuffle: bool = True, seed: int = 0
    ) -> None:
        if n_splits < 2:
            raise MiningError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.seed = seed

    def split(self, labels) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(train_indexes, test_indexes)`` stratified on labels."""
        labels = np.asarray(labels)
        rng = np.random.default_rng(self.seed)
        fold_members: List[List[int]] = [[] for __ in range(self.n_splits)]
        for cls in np.unique(labels):
            members = np.nonzero(labels == cls)[0]
            if self.shuffle:
                rng.shuffle(members)
            for position, index in enumerate(members):
                fold_members[position % self.n_splits].append(int(index))
        folds = [np.array(sorted(m), dtype=int) for m in fold_members]
        if any(len(fold) == 0 for fold in folds):
            raise MiningError(
                "too few samples for the requested number of folds"
            )
        for i in range(self.n_splits):
            test = folds[i]
            train = np.concatenate(
                [folds[j] for j in range(self.n_splits) if j != i]
            )
            yield train, test


def train_test_split(
    data,
    labels,
    test_size: float = 0.25,
    stratify: bool = False,
    seed: int = 0,
):
    """Split into ``(X_train, X_test, y_train, y_test)``."""
    data = np.asarray(data)
    labels = np.asarray(labels)
    if data.shape[0] != labels.shape[0]:
        raise MiningError("data and labels must align")
    if not 0.0 < test_size < 1.0:
        raise MiningError("test_size must be in (0, 1)")
    rng = np.random.default_rng(seed)
    n = data.shape[0]
    if stratify:
        test_indexes: List[int] = []
        for cls in np.unique(labels):
            members = np.nonzero(labels == cls)[0]
            rng.shuffle(members)
            take = max(1, int(round(test_size * len(members))))
            test_indexes.extend(members[:take].tolist())
        test_mask = np.zeros(n, dtype=bool)
        test_mask[test_indexes] = True
    else:
        order = rng.permutation(n)
        n_test = max(1, int(round(test_size * n)))
        test_mask = np.zeros(n, dtype=bool)
        test_mask[order[:n_test]] = True
    return (
        data[~test_mask],
        data[test_mask],
        labels[~test_mask],
        labels[test_mask],
    )


def macro_precision(y_true, y_pred) -> float:
    """Macro-averaged precision (module-level, hence picklable)."""
    return precision_recall_f1(y_true, y_pred, "macro")[0]


def macro_recall(y_true, y_pred) -> float:
    """Macro-averaged recall (module-level, hence picklable)."""
    return precision_recall_f1(y_true, y_pred, "macro")[1]


#: Metric functions usable with :func:`cross_validate`. Each maps
#: ``(y_true, y_pred) -> float``.
DEFAULT_METRICS: Dict[str, Callable] = {
    "accuracy": accuracy,
    "avg_precision": macro_precision,
    "avg_recall": macro_recall,
}


def _fit_score_fold(
    model_factory: Callable[[], object],
    data: np.ndarray,
    labels: np.ndarray,
    train: np.ndarray,
    test: np.ndarray,
    metrics: Dict[str, Callable],
) -> Dict[str, float]:
    """Fit one fold and score it."""
    model = model_factory()
    model.fit(data[train], labels[train])  # type: ignore[attr-defined]
    predicted = model.predict(data[test])  # type: ignore[attr-defined]
    return {
        name: float(function(labels[test], predicted))
        for name, function in metrics.items()
    }


def cross_validate(
    model_factory: Callable[[], object],
    data,
    labels,
    n_splits: int = 10,
    stratified: bool = True,
    metrics: Optional[Dict[str, Callable]] = None,
    seed: int = 0,
) -> Dict[str, float]:
    """k-fold cross-validation, averaging each metric over folds.

    Parameters
    ----------
    model_factory:
        Zero-argument callable returning a fresh estimator exposing
        ``fit(X, y)`` and ``predict(X)``.
    metrics:
        ``name -> function(y_true, y_pred)``; defaults to the paper's
        Table I metrics (accuracy, average precision, average recall).

    Returns
    -------
    dict
        ``metric name -> mean value across folds``.
    """
    data = np.asarray(data, dtype=np.float64)
    labels = np.asarray(labels)
    metrics = metrics or DEFAULT_METRICS
    if stratified:
        splits = StratifiedKFold(n_splits, seed=seed).split(labels)
    else:
        splits = KFold(n_splits, seed=seed).split(len(labels))
    fold_scores = [
        _fit_score_fold(model_factory, data, labels, train, test, metrics)
        for train, test in splits
    ]
    if not fold_scores:
        raise MiningError("no folds were evaluated")
    sums = {name: 0.0 for name in metrics}
    for scores in fold_scores:
        for name in metrics:
            sums[name] += scores[name]
    return {
        name: value / len(fold_scores) for name, value in sums.items()
    }


def cross_val_score(
    model_factory: Callable[[], object],
    data,
    labels,
    n_splits: int = 10,
    seed: int = 0,
) -> np.ndarray:
    """Per-fold accuracy scores (stratified)."""
    data = np.asarray(data, dtype=np.float64)
    labels = np.asarray(labels)
    scores = []
    for train, test in StratifiedKFold(n_splits, seed=seed).split(labels):
        model = model_factory()
        model.fit(data[train], labels[train])  # type: ignore[attr-defined]
        predicted = model.predict(data[test])  # type: ignore[attr-defined]
        scores.append(accuracy(labels[test], predicted))
    return np.array(scores)
