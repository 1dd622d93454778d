"""Adaptive partial mining (horizontal and vertical).

Reproduces §III/§IV-B:

    "In analyzing an N-dimensional dataset, partial mining can reduce
    the dataset along any dimension (vertical mining) or by considering
    different subsets of the input data (horizontal mining). ...
    At each step, a larger portion of data is analyzed. In the case of
    clustering, horizontal partial mining is implemented by running
    K-means on different subsets, as well as on the complete collection;
    the quality of each result was evaluated by means of the overall
    similarity index. ... ADA-HEALTH selects the optimal subset size
    based on the percentage difference between the overall similarity
    value calculated on the subset, and that calculated on the complete
    dataset: in this example, 85% of raw data yields a percentage
    difference less than 5%."

The selected subset's matrix and the K-means fits run on it stay on
the miner (:attr:`HorizontalPartialMiner.selected_matrix`,
:attr:`HorizontalPartialMiner.checkpoints`) and never enter the
:class:`PartialMiningResult`: the engine passes both to the K sweep,
whose fits on that matrix at the shared K values continue these
restarts instead of repeating them (see :mod:`repro.core.optimizer`).

Note on naming: the paper calls the *feature-subset* strategy it
evaluates (fewer exam types, all patients) "horizontal partial mining";
this module keeps the paper's terminology. The complementary
*row-subset* strategy (fewer patients, all exam types) is the vertical
miner.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.records import ExamLog
from repro.exceptions import MiningError
from repro.mining.kmeans import KMeans, KMeansCheckpoint
from repro.mining.metrics import (
    overall_similarity,
    unit_overall_similarity,
    unit_rows,
)
from repro.preprocess.transforms import L2Normalizer
from repro.preprocess.vsm import VSMBuilder, apply_weighting

#: Feature fractions of the paper's experiment (§IV-B).
PAPER_FRACTIONS = (0.2, 0.4, 1.0)

#: The paper's stopping tolerance ("percentage difference less than 5%").
PAPER_TOLERANCE = 0.05


@dataclass
class PartialRun:
    """One (subset, K) evaluation."""

    fraction_features: float
    n_features: int
    fraction_rows: float
    k: int
    similarity: float
    pct_difference: Optional[float] = None  # vs the full-data run, same K


@dataclass
class PartialMiningResult:
    """Outcome of an adaptive partial-mining session."""

    runs: List[PartialRun]
    selected_fraction: float
    selected_codes: List[int]
    tolerance: float

    def runs_for_k(self, k: int) -> List[PartialRun]:
        """All runs with the given K, smallest subset first."""
        return sorted(
            (run for run in self.runs if run.k == k),
            key=lambda run: run.fraction_features,
        )

    def fractions(self) -> List[float]:
        """Distinct feature fractions, ascending."""
        return sorted({run.fraction_features for run in self.runs})

    def to_document(self) -> Dict[str, Any]:
        """JSON-serialisable form (for the analysis cache / K-DB)."""
        return {
            "runs": [asdict(run) for run in self.runs],
            "selected_fraction": self.selected_fraction,
            "selected_codes": [int(code) for code in self.selected_codes],
            "tolerance": self.tolerance,
        }

    @classmethod
    def from_document(
        cls, document: Dict[str, Any]
    ) -> "PartialMiningResult":
        """Inverse of :meth:`to_document`."""
        return cls(
            runs=[PartialRun(**run) for run in document["runs"]],
            selected_fraction=float(document["selected_fraction"]),
            selected_codes=[int(c) for c in document["selected_codes"]],
            tolerance=float(document["tolerance"]),
        )

    def format_table(self) -> str:
        """Render the §IV-B series: similarity by subset and K."""
        lines = [
            f"{'% types':>8} {'% rows':>7} {'K':>4}"
            f" {'overall sim':>12} {'% diff':>8}"
        ]
        for run in sorted(
            self.runs, key=lambda r: (r.fraction_features, r.k)
        ):
            diff = (
                f"{run.pct_difference * 100:8.2f}"
                if run.pct_difference is not None
                else "       -"
            )
            lines.append(
                f"{run.fraction_features * 100:>8.0f}"
                f" {run.fraction_rows * 100:>7.1f} {run.k:>4}"
                f" {run.similarity:>12.4f} {diff}"
            )
        lines.append(
            f"selected subset: {self.selected_fraction * 100:.0f}% of exam"
            f" types (tolerance {self.tolerance * 100:.0f}%)"
        )
        return "\n".join(lines)


class HorizontalPartialMiner:
    """Frequency-ordered feature-subset mining for clustering.

    Parameters
    ----------
    fractions:
        Increasing fractions of exam types to include; must end at 1.0
        (the full collection is always mined as the reference).
    k_values:
        K values evaluated on every subset.
    tolerance:
        Maximum acceptable relative drop of the overall similarity of a
        subset versus the full data, averaged over ``k_values``.
    weighting:
        VSM weighting applied to each subset's count matrix. The default
        is ``"binary"`` (presence of an exam in the patient's history):
        on sparse exam logs the presence profile carries the grouping
        signal, while raw counts are dominated by the magnitude of the
        routine head (see the transform-ablation benchmark).
    normalize:
        L2-normalise rows before clustering (spherical K-means), the
        natural companion of the cosine-based overall-similarity index.

    After :meth:`mine`, :attr:`selected_matrix` holds the selected
    subset's (weighted, normalised) matrix and :attr:`checkpoints` the
    :class:`repro.mining.KMeansCheckpoint` of each K-means fit run on
    it, by K.
    """

    def __init__(
        self,
        fractions: Sequence[float] = PAPER_FRACTIONS,
        k_values: Sequence[int] = (6, 8, 10),
        tolerance: float = PAPER_TOLERANCE,
        weighting: str = "binary",
        normalize: bool = True,
        kmeans_params: Optional[Dict] = None,
        seed: int = 0,
    ) -> None:
        fractions = sorted(fractions)
        if not fractions or abs(fractions[-1] - 1.0) > 1e-9:
            raise MiningError("fractions must be non-empty and end at 1.0")
        if any(not 0.0 < fraction <= 1.0 for fraction in fractions):
            raise MiningError("fractions must lie in (0, 1]")
        if not k_values or any(k < 2 for k in k_values):
            raise MiningError("k_values must be >= 2")
        if tolerance <= 0:
            raise MiningError("tolerance must be positive")
        self.fractions = list(fractions)
        self.k_values = list(k_values)
        self.tolerance = tolerance
        self.weighting = weighting
        self.normalize = normalize
        self.kmeans_params = dict(kmeans_params or {})
        self.kmeans_params.setdefault("n_init", 2)
        self.seed = seed
        self.selected_matrix: Optional[np.ndarray] = None
        self.checkpoints: Dict[int, KMeansCheckpoint] = {}

    # ------------------------------------------------------------------
    def subset_codes(self, log: ExamLog, fraction: float) -> List[int]:
        """The most frequent ``fraction`` of exam types.

        "the examination types were chosen in decreasing order of
        frequency within the original raw data."
        """
        ranked = log.exam_codes_by_frequency()
        count = max(1, int(round(fraction * log.n_exam_types)))
        return ranked[:count]

    def row_coverage(self, log: ExamLog, codes: Sequence[int]) -> float:
        """Fraction of records retained by an exam-type subset."""
        frequency = log.exam_frequency()
        kept = sum(int(frequency[code]) for code in codes)
        total = int(frequency.sum())
        return kept / total if total else 0.0

    def mine(self, log: ExamLog) -> PartialMiningResult:
        """Run the incremental subset experiment and pick the subset.

        Clustering runs on the reduced feature space; the overall
        similarity of each result is evaluated on the *complete* patient
        vectors, so the index measures how well the cheaper clustering
        recovers the true grouping (and degrades as exams are dropped,
        the direction the paper reports).
        """
        runs: List[PartialRun] = []
        full_similarity: Dict[int, float] = {}
        # Every run is scored on the complete matrix's unit rows: they
        # are derived once, and the matrix itself is not kept.
        full_units = unit_rows(
            self._subset_matrix(log, list(range(log.n_exam_types)))
        )

        # Reference pass on the complete collection first.
        subsets = [
            (fraction, self.subset_codes(log, fraction))
            for fraction in self.fractions
        ]
        # Per subset, in ``subsets`` order: its matrix and fitted models.
        fitted: List[Tuple[np.ndarray, Dict[int, KMeans]]] = []
        for fraction, codes in reversed(subsets):
            coverage = self.row_coverage(log, codes)
            matrix = self._subset_matrix(log, codes)
            models: Dict[int, KMeans] = {}
            for k in self.k_values:
                model = KMeans(
                    k, seed=self.seed, **self.kmeans_params
                ).fit(matrix)
                if model.labels_ is None:
                    raise RuntimeError("KMeans fit left labels_ unset")
                models[k] = model
                similarity = unit_overall_similarity(
                    full_units, model.labels_
                )
                if abs(fraction - 1.0) < 1e-9:
                    full_similarity[k] = similarity
                    difference = 0.0
                else:
                    reference = full_similarity[k]
                    difference = (
                        abs(reference - similarity) / reference
                        if reference > 0
                        else 0.0
                    )
                runs.append(
                    PartialRun(
                        fraction_features=fraction,
                        n_features=len(codes),
                        fraction_rows=coverage,
                        k=k,
                        similarity=similarity,
                        pct_difference=difference,
                    )
                )
            fitted.insert(0, (matrix, models))

        position = self._select(runs, subsets)
        selected_fraction, selected_codes = subsets[position]
        matrix, models = fitted[position]
        self.selected_matrix = matrix
        self.checkpoints = {
            k: model.checkpoint(matrix) for k, model in models.items()
        }
        return PartialMiningResult(
            runs=runs,
            selected_fraction=selected_fraction,
            selected_codes=selected_codes,
            tolerance=self.tolerance,
        )

    def _select(self, runs, subsets) -> int:
        """Position in ``subsets`` of the smallest subset whose mean
        %-difference is within tolerance."""
        for position, (fraction, __) in enumerate(subsets):  # ascending
            differences = [
                run.pct_difference
                for run in runs
                if abs(run.fraction_features - fraction) < 1e-9
                and run.pct_difference is not None
            ]
            if differences and float(np.mean(differences)) <= self.tolerance:
                return position
        # The full collection always satisfies the tolerance (diff = 0).
        return len(subsets) - 1

    def _subset_matrix(
        self, log: ExamLog, codes: Sequence[int]
    ) -> np.ndarray:
        vsm = VSMBuilder(
            weighting=self.weighting, exam_codes=codes
        ).build(log)
        if self.normalize:
            return L2Normalizer().transform(vsm.matrix)
        return vsm.matrix


class VerticalPartialMiner:
    """Row-subset (patient sample) mining.

    Evaluates clustering quality on growing random patient samples; the
    smallest sample whose overall similarity is within ``tolerance`` of
    the full cohort's is selected. Useful when the cohort, not the
    feature space, is what makes mining expensive.
    """

    def __init__(
        self,
        fractions: Sequence[float] = (0.1, 0.25, 0.5, 1.0),
        k: int = 8,
        tolerance: float = PAPER_TOLERANCE,
        weighting: str = "count",
        seed: int = 0,
    ) -> None:
        fractions = sorted(fractions)
        if not fractions or abs(fractions[-1] - 1.0) > 1e-9:
            raise MiningError("fractions must be non-empty and end at 1.0")
        if k < 2:
            raise MiningError("k must be >= 2")
        self.fractions = list(fractions)
        self.k = k
        self.tolerance = tolerance
        self.weighting = weighting
        self.seed = seed

    def mine(self, log: ExamLog) -> PartialMiningResult:
        """Evaluate growing patient samples; select per the tolerance."""
        rng = np.random.default_rng(self.seed)
        vsm = VSMBuilder(weighting=self.weighting).build(log)
        matrix = vsm.matrix
        n = matrix.shape[0]
        order = rng.permutation(n)

        runs: List[PartialRun] = []
        reference: Optional[float] = None
        for fraction in reversed(self.fractions):
            take = max(self.k + 1, int(round(fraction * n)))
            sample = matrix[order[:take]]
            model = KMeans(self.k, seed=self.seed, n_init=2).fit(sample)
            if model.labels_ is None:
                raise RuntimeError("KMeans fit left labels_ unset")
            similarity = float(overall_similarity(sample, model.labels_))
            if abs(fraction - 1.0) < 1e-9:
                reference = similarity
                difference = 0.0
            else:
                if reference is None:
                    raise RuntimeError(
                        "full-cohort reference similarity missing"
                    )
                difference = (
                    abs(reference - similarity) / reference
                    if reference > 0
                    else 0.0
                )
            runs.append(
                PartialRun(
                    fraction_features=1.0,
                    n_features=matrix.shape[1],
                    fraction_rows=fraction,
                    k=self.k,
                    similarity=similarity,
                    pct_difference=difference,
                )
            )

        selected = 1.0
        for fraction in self.fractions:
            matching = [
                run
                for run in runs
                if abs(run.fraction_rows - fraction) < 1e-9
            ]
            if matching and all(
                run.pct_difference is not None
                and run.pct_difference <= self.tolerance
                for run in matching
            ):
                selected = fraction
                break
        return PartialMiningResult(
            runs=runs,
            selected_fraction=selected,
            selected_codes=list(range(log.n_exam_types)),
            tolerance=self.tolerance,
        )
