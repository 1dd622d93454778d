"""Algorithm-optimisation component (K selection for K-means).

Reproduces the paper's §IV machinery exactly:

    "Given a dataset and a clustering algorithm, our technique performs
    several runs of the mining activity with varying parameters (e.g.
    different numbers of clusters), thus obtaining several different
    cluster sets. [SSE is computed for each.] A classifier was then
    built to assess the robustness of clustering results by means of
    different quality metrics (such as accuracy, precision, recall),
    using the same input features of the clustering algorithm, and the
    class label assigned by the clustering algorithm itself as target.
    ... In our first implementation, we used decision trees. ...
    10-fold cross validation was used to evaluate the classification
    model. ... ADA-HEALTH automatically selects K = 8 that corresponds
    to the best overall classification results."

:class:`KMeansOptimizer` runs the K sweep, collects per-K rows with the
Table I columns (SSE, accuracy, average precision, average recall) and
applies the paper's combined selection rule: among the candidate K
values, pick the one with the best overall classification results
(mean of accuracy, average precision and average recall).

The sweep runs on a subset that adaptive partial mining has already
clustered at some of the same K values, with the same seed and fewer
restarts. :meth:`KMeansOptimizer.optimize` takes those fits as
:class:`repro.mining.KMeansCheckpoint` objects, and each K's fit
continues from its checkpoint — running only the restarts the partial
miner did not — when the matrix and the K-means settings match; any
mismatch falls back to a full fit. Either way the row is bit for bit
the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.executor import SerialExecutor, TaskSpec
from repro.cloud.transport import matrix_lease
from repro.data.blocks import open_matrix
from repro.exceptions import MiningError
from repro.obs.tracer import NULL_TRACER
from repro.mining.decision_tree import DecisionTreeClassifier
from repro.mining.kmeans import KMeans, KMeansCheckpoint
from repro.mining.metrics import overall_similarity
from repro.mining.validation import cross_validate

#: The K values of the paper's Table I.
PAPER_K_VALUES = (6, 7, 8, 9, 10, 12, 15, 20)


@dataclass
class OptimizationRow:
    """One row of the optimisation table (one K value)."""

    k: int
    sse: float
    accuracy: float
    avg_precision: float
    avg_recall: float
    overall_similarity: float
    labels: Optional[np.ndarray] = None
    centers: Optional[np.ndarray] = None

    @property
    def combined(self) -> float:
        """The paper's 'overall classification results' — the selection
        criterion (mean of the three classification metrics)."""
        return (self.accuracy + self.avg_precision + self.avg_recall) / 3.0

    def as_table_row(self) -> Dict[str, float]:
        """The Table I columns only."""
        return {
            "K": self.k,
            "SSE": self.sse,
            "Accuracy": self.accuracy,
            "AVG Precision": self.avg_precision,
            "AVG Recall": self.avg_recall,
        }

    def to_document(self) -> Dict[str, Any]:
        """JSON-serialisable form (for the analysis cache / K-DB)."""
        return {
            "k": self.k,
            "sse": self.sse,
            "accuracy": self.accuracy,
            "avg_precision": self.avg_precision,
            "avg_recall": self.avg_recall,
            "overall_similarity": self.overall_similarity,
            "labels": (
                None if self.labels is None else self.labels.tolist()
            ),
            "centers": (
                None if self.centers is None else self.centers.tolist()
            ),
        }

    @classmethod
    def from_document(cls, document: Dict[str, Any]) -> "OptimizationRow":
        """Inverse of :meth:`to_document`."""
        labels = document.get("labels")
        centers = document.get("centers")
        return cls(
            k=int(document["k"]),
            sse=float(document["sse"]),
            accuracy=float(document["accuracy"]),
            avg_precision=float(document["avg_precision"]),
            avg_recall=float(document["avg_recall"]),
            overall_similarity=float(document["overall_similarity"]),
            labels=None if labels is None else np.array(labels, dtype=int),
            centers=(
                None if centers is None else np.array(centers, dtype=float)
            ),
        )


@dataclass
class OptimizationReport:
    """Full result of a K sweep."""

    rows: List[OptimizationRow]
    best_k: int
    sse_plateau: List[int]
    #: K values whose evaluation failed (empty on a clean sweep). The
    #: selection rule runs over the surviving rows only.
    failed_k: List[int] = field(default_factory=list)

    @property
    def best_row(self) -> OptimizationRow:
        for row in self.rows:
            if row.k == self.best_k:
                return row
        raise MiningError("best_k missing from rows")  # pragma: no cover

    def to_document(self) -> Dict[str, Any]:
        """JSON-serialisable form (for the analysis cache / K-DB)."""
        return {
            "rows": [row.to_document() for row in self.rows],
            "best_k": self.best_k,
            "sse_plateau": list(self.sse_plateau),
            "failed_k": list(self.failed_k),
        }

    @classmethod
    def from_document(
        cls, document: Dict[str, Any]
    ) -> "OptimizationReport":
        """Inverse of :meth:`to_document`."""
        return cls(
            rows=[
                OptimizationRow.from_document(row)
                for row in document["rows"]
            ],
            best_k=int(document["best_k"]),
            sse_plateau=[int(k) for k in document["sse_plateau"]],
            failed_k=[int(k) for k in document["failed_k"]],
        )

    def format_table(self) -> str:
        """Render the Table I layout (metrics in percent, as the paper)."""
        lines = [
            f"{'K':>4} {'SSE':>10} {'Accuracy':>9}"
            f" {'AVG Prec':>9} {'AVG Rec':>9}"
        ]
        for row in self.rows:
            lines.append(
                f"{row.k:>4} {row.sse:>10.2f} {row.accuracy * 100:>9.2f}"
                f" {row.avg_precision * 100:>9.2f}"
                f" {row.avg_recall * 100:>9.2f}"
            )
        lines.append(f"selected K = {self.best_k}")
        return "\n".join(lines)


class KMeansOptimizer:
    """Sweep K, score each cluster set, select the best configuration.

    Parameters
    ----------
    k_values:
        Candidate K values (the paper's Table I set by default).
    n_folds:
        Cross-validation folds for the robustness classifier (paper: 10).
    tree_params:
        Keyword arguments for the decision tree (depth caps etc.).
    classifier_factory:
        Optional zero-argument callable returning a fresh robustness
        classifier (``fit``/``predict``). Overrides the default decision
        tree — the paper used trees "in our first implementation",
        explicitly leaving the model pluggable (see the classifier
        ablation benchmark for NB / KNN alternatives).
    kmeans_params:
        Keyword arguments for :class:`repro.mining.KMeans`.
    executor:
        Execution backend for the sweep (serial by default). The sweep's
        tasks are picklable :class:`repro.cloud.TaskSpec`s carrying the
        fit settings, never the optimizer, so every backend works,
        including :class:`repro.cloud.ProcessPoolExecutorBackend` — as
        long as any custom ``classifier_factory`` itself pickles.
    seed:
        Seed forwarded to K-means and to the CV splitters.
    retry:
        Optional :class:`repro.cloud.RetryPolicy` applied per task by
        the default serial executor. Ignored when an explicit
        ``executor`` is supplied — configure retries on that backend
        instead.
    """

    def __init__(
        self,
        k_values: Sequence[int] = PAPER_K_VALUES,
        n_folds: int = 10,
        tree_params: Optional[Dict] = None,
        classifier_factory: Optional[Callable[[], object]] = None,
        kmeans_params: Optional[Dict] = None,
        executor=None,
        seed: int = 0,
        tracer=None,
        metrics=None,
        retry=None,
    ) -> None:
        if not k_values:
            raise MiningError("k_values must be non-empty")
        if any(k < 2 for k in k_values):
            raise MiningError("all k_values must be >= 2")
        self.k_values = list(k_values)
        self.n_folds = n_folds
        self.tree_params = dict(tree_params or {})
        self.tree_params.setdefault("max_depth", 12)
        self.tree_params.setdefault("min_samples_leaf", 3)
        self.classifier_factory = classifier_factory
        self.kmeans_params = dict(kmeans_params or {})
        self.kmeans_params.setdefault("n_init", 3)
        self.executor = executor or SerialExecutor(retry=retry)
        self.seed = seed
        self.tracer = tracer or NULL_TRACER
        self.metrics = metrics

    # ------------------------------------------------------------------
    def evaluate_k(
        self,
        data: np.ndarray,
        k: int,
        resume: Optional[KMeansCheckpoint] = None,
    ) -> OptimizationRow:
        """Cluster with one K and assess the result's robustness.

        ``resume`` is passed to :meth:`repro.mining.KMeans.fit`.
        """
        return _evaluate_k_task(data, k, resume, *self._fit_settings())

    def _fit_settings(self) -> Tuple[Any, ...]:
        """The settings :func:`_evaluate_k_task` reads, in its order."""
        return (
            self.seed,
            self.n_folds,
            self.kmeans_params,
            self.tree_params,
            self.classifier_factory,
        )

    def optimize(
        self,
        data,
        resume: Optional[Dict[int, KMeansCheckpoint]] = None,
    ) -> OptimizationReport:
        """Run the sweep and apply the combined selection rule.

        ``resume`` maps K to a checkpoint of an earlier K-means fit on
        ``data`` (the partial miner's); that K's fit continues from it
        when it matches (:meth:`repro.mining.KMeans.fit`).

        Every K is dispatched to the executor as a picklable task spec.
        With a process backend the matrix travels as a shared-memory
        handle held by a lease for the duration of the sweep — each
        task ships ~100 bytes instead of the matrix.
        """
        matrix = np.asarray(data, dtype=np.float64)
        with self.tracer.span(
            "kmeans-optimize",
            n_samples=int(matrix.shape[0]),
            k_values=list(self.k_values),
        ) as sweep_span:
            resume = resume or {}
            settings = self._fit_settings()
            with matrix_lease(self.executor, matrix) as (ref,):
                tasks = [
                    TaskSpec(
                        _evaluate_k_task, (ref, k, resume.get(k), *settings)
                    )
                    for k in self.k_values
                ]
                outcome = self.executor.run(tasks)
            rows: List[OptimizationRow] = []
            failed_k: List[int] = []
            for k, value, seconds in zip(
                self.k_values, outcome.results, outcome.task_seconds
            ):
                if seconds is not None:
                    # Per-K timings may have been measured in a worker
                    # process; replay them here as child spans.
                    self.tracer.record_span(
                        "kmeans-k",
                        seconds,
                        k=k,
                        failed=not isinstance(value, OptimizationRow),
                    )
                    if self.metrics is not None:
                        self.metrics.histogram(
                            "optimizer.k_seconds"
                        ).observe(seconds)
                if not isinstance(value, OptimizationRow):
                    failed_k.append(k)
                    continue
                rows.append(value)
            if not rows:
                raise MiningError(
                    "every optimisation run failed"
                    f" (K values: {sorted(failed_k)})"
                )
            rows.sort(key=lambda row: row.k)
            best_k = max(rows, key=lambda row: row.combined).k
            sweep_span.set(
                best_k=best_k,
                n_failures=outcome.n_failures,
            )
            return OptimizationReport(
                rows=rows,
                best_k=best_k,
                sse_plateau=sse_plateau(rows),
                failed_k=sorted(failed_k),
            )


def _evaluate_k_task(
    ref,
    k: int,
    resume: Optional[KMeansCheckpoint],
    seed: int,
    n_folds: int,
    kmeans_params: Dict,
    tree_params: Dict,
    classifier_factory: Optional[Callable[[], object]],
) -> OptimizationRow:
    """Cluster with one K and score it: the body of one sweep task.

    Module-level, and given only the fit settings, so sweeps pickle for
    process backends. ``ref`` is whatever the matrix lease produced:
    the matrix itself in-process, or a
    :class:`repro.data.SharedMatrixHandle` that
    :func:`repro.data.open_matrix` attaches for the duration of the
    evaluation and detaches in ``finally``.
    """
    with open_matrix(ref) as data:
        model = KMeans(k, seed=seed, **kmeans_params).fit(
            data, resume=resume
        )
        labels = model.labels_
        if labels is None or model.inertia_ is None:
            raise RuntimeError("KMeans fit left labels_/inertia_ unset")
        factory = classifier_factory or (
            lambda: DecisionTreeClassifier(seed=seed, **tree_params)
        )
        metrics = cross_validate(
            factory, data, labels, n_splits=n_folds, seed=seed
        )
        return OptimizationRow(
            k=k,
            sse=float(model.inertia_),
            accuracy=metrics["accuracy"],
            avg_precision=metrics["avg_precision"],
            avg_recall=metrics["avg_recall"],
            overall_similarity=float(overall_similarity(data, labels)),
            labels=labels,
            centers=model.cluster_centers_,
        )


def sse_plateau(
    rows: Sequence[OptimizationRow], knee_ratio: float = 0.7
) -> List[int]:
    """K values where the SSE curve has flattened (the paper's
    'good values for K' band — 8..20 in Table I).

    A K is on the plateau when the local SSE drop per unit K has fallen
    below ``knee_ratio`` times the average drop rate over the sweep.
    """
    if len(rows) < 3:
        return [row.k for row in rows]
    ks = np.array([row.k for row in rows], dtype=float)
    sses = np.array([row.sse for row in rows])
    total_rate = (sses[0] - sses[-1]) / (ks[-1] - ks[0])
    if total_rate <= 0:
        return [row.k for row in rows]
    plateau = []
    for i in range(1, len(rows)):
        local_rate = (sses[i - 1] - sses[i]) / (ks[i] - ks[i - 1])
        if local_rate < knee_ratio * total_rate:
            plateau.append(int(ks[i]))
    return plateau
