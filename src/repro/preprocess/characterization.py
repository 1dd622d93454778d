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

:meth:`DatasetProfile.from_document` is the exact inverse of
:meth:`DatasetProfile.to_document`: the engine keeps a profile's
document in its analysis cache and restores it on a revisit instead of
characterising an unchanged log again.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Sequence, get_type_hints

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

    @classmethod
    def from_document(cls, document: Dict[str, object]) -> "DatasetProfile":
        """The profile whose :meth:`to_document` is ``document``.

        The exact inverse: every field must be present with the type
        ``to_document`` writes (``int`` dimensions, ``float``
        statistics, a ``str -> float`` ``top_share``) and no other key
        may appear. Anything else raises :class:`PreprocessError`.
        """
        if not isinstance(document, dict):
            raise PreprocessError(
                f"a profile document is a dict, not {type(document).__name__}"
            )
        missing = _PROFILE_FIELDS.keys() - document.keys()
        extra = document.keys() - _PROFILE_FIELDS.keys()
        if missing or extra:
            raise PreprocessError(
                f"profile document fields: missing {sorted(missing)},"
                f" unexpected {sorted(map(str, extra))}"
            )
        for name, kind in _PROFILE_FIELDS.items():
            value = document[name]
            if kind in (int, float):
                valid = type(value) is kind
            else:
                valid = isinstance(value, dict) and all(
                    type(key) is str and type(share) is float
                    for key, share in value.items()
                )
            if not valid:
                raise PreprocessError(
                    f"profile field {name!r} has the wrong type:"
                    f" {type(value).__name__}"
                )
        return cls(
            **{
                name: dict(value) if isinstance(value, dict) else value
                for name, value in document.items()
            }
        )

    @property
    def is_sparse(self) -> bool:
        """Sparse by the conventional > 0.5 zero-fraction threshold."""
        return self.sparsity > 0.5

    @property
    def is_skewed(self) -> bool:
        """Heavy-tailed feature frequencies (Gini above 0.6)."""
        return self.gini > 0.6


#: Field name -> the type ``to_document`` writes for it (``int``,
#: ``float`` or ``Dict[str, float]``), in declaration order.
_PROFILE_FIELDS = get_type_hints(DatasetProfile)


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
        skewness, fourth = _standardized_moments(values, (3, 4))
        kurtosis = fourth - 3.0
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


def _standardized_moments(
    values: np.ndarray, orders: Sequence[int]
) -> List[float]:
    # A log's nonzero counts take few distinct values: find them once,
    # raise each one once per order, then gather. Every term equals
    # ``(value - mean) ** order``, so each mean is bit for bit that of
    # the direct form.
    distinct, inverse = np.unique(values, return_inverse=True)
    centered = distinct - values.mean()
    std = values.std()
    return [
        float((centered**order)[inverse].mean() / std**order)
        for order in orders
    ]


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
