"""Data characterisation: statistical descriptors of a dataset.

"Data characterization and transformation ... We focus on the definition
of innovative criteria to model data distributions by exploiting
unconventional statistical indices and underlying data structures."

The :class:`DatasetProfile` produced here is ADA-HEALTH's fingerprint of
a dataset. It is (i) stored in the K-DB 'descriptors' collection, (ii)
consumed by the end-goal feasibility rules (e.g. frequent-pattern mining
is viable only when the data is transactional and sparse), and (iii)
used by the partial-mining planner, whose whole premise is that medical
logs have a highly skewed feature-frequency distribution.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.data.records import ExamLog
from repro.exceptions import PreprocessError


@dataclass
class FeatureProfile:
    """Per-feature (exam type) statistics."""

    index: int
    name: str
    frequency: int
    patient_coverage: float
    mean: float
    std: float
    maximum: float

    def to_document(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class DatasetProfile:
    """Whole-dataset statistical descriptors.

    Attributes
    ----------
    n_rows / n_features:
        Matrix dimensions (patients x exam types).
    sparsity:
        Fraction of zero entries; the paper stresses medical logs have
        "inherent sparseness".
    density:
        ``1 - sparsity``.
    mean_row_nonzeros / std_row_nonzeros:
        Distinct exams per patient.
    feature_entropy:
        Shannon entropy (nats) of the feature-frequency distribution;
        low entropy = concentrated head.
    normalized_entropy:
        ``feature_entropy / ln(n_features)`` in ``[0, 1]``.
    gini:
        Gini coefficient of feature frequencies; high = skewed.
    skewness / kurtosis:
        Moments of the per-entry value distribution (nonzero entries).
    top_share:
        ``fraction of types -> fraction of records`` coverage curve at
        10/20/40/60/80 %, the statistic the partial-mining planner uses.
    hhi:
        Herfindahl-Hirschman concentration of feature frequencies.
    """

    n_rows: int
    n_features: int
    sparsity: float
    density: float
    mean_row_nonzeros: float
    std_row_nonzeros: float
    feature_entropy: float
    normalized_entropy: float
    gini: float
    skewness: float
    kurtosis: float
    top_share: Dict[str, float]
    hhi: float
    total_count: float

    def to_document(self) -> Dict[str, object]:
        """JSON-ready dict for the K-DB descriptors collection."""
        return asdict(self)

    @property
    def is_sparse(self) -> bool:
        """Sparse by the conventional > 0.5 zero-fraction threshold."""
        return self.sparsity > 0.5

    @property
    def is_skewed(self) -> bool:
        """Heavy-tailed feature frequencies (Gini above 0.6)."""
        return self.gini > 0.6


def characterize_matrix(matrix, feature_names=None) -> DatasetProfile:
    """Profile a non-negative data matrix (rows = entities).

    Raises :class:`PreprocessError` on empty or negative input.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.size == 0:
        raise PreprocessError("expected a non-empty 2-D matrix")
    if (matrix < 0).any():
        raise PreprocessError("characterisation expects non-negative data")
    n_rows, n_features = matrix.shape

    nonzero_mask = matrix > 0
    sparsity = float((~nonzero_mask).mean())
    row_nonzeros = nonzero_mask.sum(axis=1)
    feature_totals = matrix.sum(axis=0)
    total = float(feature_totals.sum())

    entropy = _entropy(feature_totals)
    max_entropy = np.log(n_features) if n_features > 1 else 1.0

    values = matrix[nonzero_mask]
    if values.size >= 2 and values.std() > 0:
        skewness = _standardized_moment(values, 3)
        kurtosis = _standardized_moment(values, 4) - 3.0
    else:
        skewness = 0.0
        kurtosis = 0.0

    return DatasetProfile(
        n_rows=n_rows,
        n_features=n_features,
        sparsity=sparsity,
        density=1.0 - sparsity,
        mean_row_nonzeros=float(row_nonzeros.mean()),
        std_row_nonzeros=float(row_nonzeros.std()),
        feature_entropy=entropy,
        normalized_entropy=float(entropy / max_entropy),
        gini=_gini(feature_totals),
        skewness=skewness,
        kurtosis=kurtosis,
        top_share=_top_share_curve(feature_totals),
        hhi=_hhi(feature_totals),
        total_count=total,
    )


def characterize_log(log: ExamLog) -> DatasetProfile:
    """Profile an examination log via its patient count matrix."""
    matrix, __ = log.count_matrix()
    return characterize_matrix(matrix)


def feature_profiles(log: ExamLog) -> List[FeatureProfile]:
    """Per-exam-type statistics, ordered by decreasing frequency."""
    matrix, __ = log.count_matrix()
    frequency = matrix.sum(axis=0)
    coverage = (matrix > 0).mean(axis=0)
    order = np.argsort(-frequency, kind="stable")
    profiles = []
    for index in order:
        exam = log.taxonomy.by_code(int(index))
        profiles.append(
            FeatureProfile(
                index=int(index),
                name=exam.name,
                frequency=int(frequency[index]),
                patient_coverage=float(coverage[index]),
                mean=float(matrix[:, index].mean()),
                std=float(matrix[:, index].std()),
                maximum=float(matrix[:, index].max()),
            )
        )
    return profiles


# ----------------------------------------------------------------------
# Statistical helpers
# ----------------------------------------------------------------------
def _entropy(totals: np.ndarray) -> float:
    total = totals.sum()
    if total <= 0:
        return 0.0
    proportions = totals / total
    nonzero = proportions[proportions > 0]
    return float(-(nonzero * np.log(nonzero)).sum())


def _gini(totals: np.ndarray) -> float:
    """Gini coefficient of a non-negative distribution (0 = uniform)."""
    values = np.sort(np.asarray(totals, dtype=np.float64))
    n = len(values)
    total = values.sum()
    if n == 0 or total == 0:
        return 0.0
    ranks = np.arange(1, n + 1)
    return float((2.0 * (ranks * values).sum()) / (n * total) - (n + 1) / n)


def _hhi(totals: np.ndarray) -> float:
    total = totals.sum()
    if total <= 0:
        return 0.0
    shares = totals / total
    return float((shares**2).sum())


def _standardized_moment(values: np.ndarray, order: int) -> float:
    # A log's nonzero counts take few distinct values: raise each one
    # once, then gather. Every term equals ``(value - mean) ** order``,
    # so the mean is bit for bit that of the direct form.
    distinct, inverse = np.unique(values, return_inverse=True)
    powered = (distinct - values.mean()) ** order
    std = values.std()
    return float(powered[inverse].mean() / std**order)


def _top_share_curve(totals: np.ndarray) -> Dict[str, float]:
    ordered = np.sort(totals)[::-1]
    total = ordered.sum()
    n = len(ordered)
    curve = {}
    for pct in (10, 20, 40, 60, 80):
        k = max(1, int(round(pct / 100.0 * n)))
        share = float(ordered[:k].sum() / total) if total else 0.0
        curve[str(pct)] = share
    return curve
