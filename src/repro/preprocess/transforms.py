"""Row/column scaling transforms and transform pipelines.

"Many mining algorithms rely on suitable transformations of input data
in order to reduce sparseness, and make the overall analysis problem
more efficiently tractable. To this purpose, the ADA-HEALTH architecture
includes several techniques to preprocess data and map them into
different representation spaces."

Each transform follows the ``fit`` / ``transform`` protocol; column
statistics learned at ``fit`` time are reused on new data, so transforms
are safe inside cross-validation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import NotFittedError, PreprocessError


class IdentityTransform:
    """No-op transform (the explicit 'raw counts' choice)."""

    name = "identity"

    def fit(self, data) -> "IdentityTransform":
        return self

    def transform(self, data) -> np.ndarray:
        return np.asarray(data, dtype=np.float64).copy()

    def fit_transform(self, data) -> np.ndarray:
        return self.fit(data).transform(data)


class L2Normalizer:
    """Scale every row to unit Euclidean norm (zero rows stay zero).

    The natural companion of cosine-similarity analysis: after L2
    normalisation, squared Euclidean distance is a monotone function of
    cosine distance, so K-means on normalised vectors is spherical
    K-means — the standard treatment of sparse VSM data.
    """

    name = "l2"

    def fit(self, data) -> "L2Normalizer":
        return self

    def transform(self, data) -> np.ndarray:
        data = np.asarray(data, dtype=np.float64)
        norms = np.sqrt(np.einsum("ij,ij->i", data, data))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = data / norms[:, None]
        return np.nan_to_num(out, copy=False)

    def fit_transform(self, data) -> np.ndarray:
        return self.fit(data).transform(data)


class L1Normalizer:
    """Scale every row to unit L1 norm (relative exam frequencies)."""

    name = "l1"

    def fit(self, data) -> "L1Normalizer":
        return self

    def transform(self, data) -> np.ndarray:
        data = np.asarray(data, dtype=np.float64)
        norms = np.abs(data).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = data / norms[:, None]
        return np.nan_to_num(out)

    def fit_transform(self, data) -> np.ndarray:
        return self.fit(data).transform(data)


class MinMaxScaler:
    """Scale each column into ``[0, 1]`` using fitted min/max."""

    name = "minmax"

    def __init__(self) -> None:
        self.min_: Optional[np.ndarray] = None
        self.range_: Optional[np.ndarray] = None

    def fit(self, data) -> "MinMaxScaler":
        data = np.asarray(data, dtype=np.float64)
        self.min_ = data.min(axis=0)
        spread = data.max(axis=0) - self.min_
        spread[spread == 0] = 1.0
        self.range_ = spread
        return self

    def transform(self, data) -> np.ndarray:
        if self.min_ is None or self.range_ is None:
            raise NotFittedError("MinMaxScaler is not fitted")
        data = np.asarray(data, dtype=np.float64)
        return (data - self.min_) / self.range_

    def fit_transform(self, data) -> np.ndarray:
        return self.fit(data).transform(data)


class StandardScaler:
    """Column z-scoring with fitted mean and standard deviation."""

    name = "zscore"

    def __init__(self) -> None:
        self.mean_: Optional[np.ndarray] = None
        self.std_: Optional[np.ndarray] = None

    def fit(self, data) -> "StandardScaler":
        data = np.asarray(data, dtype=np.float64)
        self.mean_ = data.mean(axis=0)
        std = data.std(axis=0)
        std[std == 0] = 1.0
        self.std_ = std
        return self

    def transform(self, data) -> np.ndarray:
        if self.mean_ is None or self.std_ is None:
            raise NotFittedError("StandardScaler is not fitted")
        data = np.asarray(data, dtype=np.float64)
        return (data - self.mean_) / self.std_

    def fit_transform(self, data) -> np.ndarray:
        return self.fit(data).transform(data)


_TRANSFORMS = {
    "identity": IdentityTransform,
    "l2": L2Normalizer,
    "l1": L1Normalizer,
    "minmax": MinMaxScaler,
    "zscore": StandardScaler,
}


def make_transform(name: str):
    """Instantiate a transform by name."""
    try:
        return _TRANSFORMS[name]()
    except KeyError:
        raise PreprocessError(
            f"unknown transform {name!r}; choose from {sorted(_TRANSFORMS)}"
        ) from None


class TransformPipeline:
    """Apply a sequence of transforms in order.

    Example::

        pipeline = TransformPipeline(["minmax", "l2"])

    Transforms may be given by name or as instances.
    """

    def __init__(self, steps: Sequence) -> None:
        self.steps: List = [
            make_transform(step) if isinstance(step, str) else step
            for step in steps
        ]

    def fit(self, data) -> "TransformPipeline":
        current = np.asarray(data, dtype=np.float64)
        for step in self.steps:
            current = step.fit_transform(current)
        return self

    def transform(self, data) -> np.ndarray:
        current = np.asarray(data, dtype=np.float64)
        for step in self.steps:
            current = step.transform(current)
        return current

    def fit_transform(self, data) -> np.ndarray:
        current = np.asarray(data, dtype=np.float64)
        for step in self.steps:
            current = step.fit_transform(current)
        return current

    @property
    def name(self) -> str:
        return "+".join(step.name for step in self.steps)
