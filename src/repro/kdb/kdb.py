"""The K-DB: ADA-HEALTH's Knowledge Base.

Reproduces the paper's data model exactly:

    "The complete data model consists of six collections, which store
    (1) the original dataset, (2) the transformed dataset after
    preprocessing and data transformation, (3) statistical descriptors
    to model the data distribution, (4-5) interesting and selected
    knowledge items discovered through different data mining algorithms,
    and (6) user interaction feedbacks."

The backing store is :class:`repro.kdb.documentstore.DocumentStore` (the
MongoDB substitute): in memory, or on disk as a
:class:`repro.kdb.shards.ShardedDocumentStore` through
:meth:`KnowledgeBase.open_sharded`. On top of the six collections the
K-DB offers the self-learning services the paper describes: recording
expert feedback and predicting the interestingness degree of new
knowledge items from past feedback with a classification model (a
decision tree, as in the paper's preliminary implementation).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.core.knowledge import DEGREES, KnowledgeItem
from repro.data.records import ExamLog
from repro.exceptions import EngineError, StoreError
from repro.kdb.documentstore import DocumentStore
from repro.mining.decision_tree import DecisionTreeClassifier
from repro.obs.manifest import RUNS_COLLECTION, validate_manifest

#: The six collections of the paper's data model.
RAW_DATASETS = "raw_datasets"
TRANSFORMED_DATASETS = "transformed_datasets"
DESCRIPTORS = "descriptors"
DISCOVERED_KNOWLEDGE = "discovered_knowledge"
SELECTED_KNOWLEDGE = "selected_knowledge"
FEEDBACK = "feedback"

COLLECTIONS = (
    RAW_DATASETS,
    TRANSFORMED_DATASETS,
    DESCRIPTORS,
    DISCOVERED_KNOWLEDGE,
    SELECTED_KNOWLEDGE,
    FEEDBACK,
)

#: Telemetry collection (run manifests) next to the paper's six.
RUNS = RUNS_COLLECTION


class KnowledgeBase:
    """Facade over the six-collection knowledge store.

    A seventh ``runs`` collection (not part of the paper's data model,
    hence outside :data:`COLLECTIONS`) stores one execution manifest
    per analysis, so algorithm and parameter choices can be replayed as
    past experience.
    """

    def __init__(
        self,
        store: Optional[DocumentStore] = None,
        metrics: Any = None,
    ) -> None:
        self.store = store or DocumentStore()
        if metrics is not None:
            self.store.bind_metrics(metrics)
        for name in COLLECTIONS:
            self.store.collection(name)
        self.store.collection(RUNS)
        self.store[DISCOVERED_KNOWLEDGE].create_index("end_goal")
        # Sorted: index-ordered sort().limit() by score, and
        # run_history's started_at sort, ride the index instead of
        # sorting a scan.
        self.store[DISCOVERED_KNOWLEDGE].create_index("score", kind="sorted")
        self.store[FEEDBACK].create_index("item_id")
        self.store[RUNS].create_index("started_at", kind="sorted")

    # ------------------------------------------------------------------
    # (1) raw datasets
    # ------------------------------------------------------------------
    def register_dataset(
        self, log: ExamLog, name: str, store_records: bool = False
    ) -> Any:
        """Register a dataset; returns its id.

        Stores the headline summary always; the raw records only when
        ``store_records`` (they can be large).
        """
        document: Dict[str, Any] = {"name": name, "summary": log.summary()}
        if store_records:
            document["records"] = [
                {
                    "patient_id": record.patient_id,
                    "day": record.day,
                    "exam_code": record.exam_code,
                }
                for record in log.records
            ]
        return self.store[RAW_DATASETS].insert_one(document)

    def dataset_summary(self, dataset_id: Any) -> Optional[Dict]:
        """Summary of a registered dataset, or None."""
        return self.store[RAW_DATASETS].find_one({"_id": dataset_id})

    # ------------------------------------------------------------------
    # (2) transformed datasets
    # ------------------------------------------------------------------
    def store_transformation(
        self,
        dataset_id: Any,
        description: Dict[str, Any],
    ) -> Any:
        """Record how a dataset was transformed (weighting, scaling,
        retained features)."""
        document = dict(description)
        document["dataset_id"] = dataset_id
        return self.store[TRANSFORMED_DATASETS].insert_one(document)

    # ------------------------------------------------------------------
    # (3) descriptors
    # ------------------------------------------------------------------
    def store_profile(self, dataset_id: Any, profile_document: Dict) -> Any:
        """Store a :class:`DatasetProfile` document for a dataset."""
        document = dict(profile_document)
        document["dataset_id"] = dataset_id
        return self.store[DESCRIPTORS].insert_one(document)

    def profile_for(self, dataset_id: Any) -> Optional[Dict]:
        """Latest stored profile document for a dataset."""
        cursor = (
            self.store[DESCRIPTORS]
            .find({"dataset_id": dataset_id})
            .sort("_id", -1)
            .limit(1)
        )
        for document in cursor:
            return document
        return None

    # ------------------------------------------------------------------
    # (4) discovered and (5) selected knowledge
    # ------------------------------------------------------------------
    def store_item(
        self, item: KnowledgeItem, dataset_id: Any = None
    ) -> KnowledgeItem:
        """Persist a knowledge item; assigns ``item.item_id``."""
        document = item.to_document()
        if dataset_id is not None:
            document["dataset_id"] = dataset_id
        item.item_id = self.store[DISCOVERED_KNOWLEDGE].insert_one(document)
        return item

    def store_items(
        self, items: Iterable[KnowledgeItem], dataset_id: Any = None
    ) -> List[KnowledgeItem]:
        """Persist many items."""
        return [self.store_item(item, dataset_id) for item in items]

    def select_item(self, item: KnowledgeItem, rank: int) -> Any:
        """Mark an item as *selected* (presented to the user)."""
        if item.item_id is None:
            raise EngineError("store the item before selecting it")
        return self.store[SELECTED_KNOWLEDGE].insert_one(
            {"item_id": item.item_id, "rank": rank}
        )

    def items(
        self, query: Optional[Dict] = None
    ) -> List[KnowledgeItem]:
        """Load knowledge items matching an equality query (a store
        query with a ``$`` operator raises ``QueryError``)."""
        return [
            KnowledgeItem.from_document(document)
            for document in self.store[DISCOVERED_KNOWLEDGE].find(query)
        ]

    # ------------------------------------------------------------------
    # (6) feedback + degree prediction
    # ------------------------------------------------------------------
    def record_feedback(
        self, item: KnowledgeItem, user: str, degree: str
    ) -> Any:
        """Record an expert's degree label for a stored item."""
        if degree not in DEGREES:
            raise EngineError(f"unknown degree {degree!r}")
        if item.item_id is None:
            raise EngineError("store the item before recording feedback")
        feedback_id = self.store[FEEDBACK].insert_one(
            {
                "item_id": item.item_id,
                "user": user,
                "degree": degree,
                "features": item.feature_vector_fields(),
            }
        )
        self.store[DISCOVERED_KNOWLEDGE].update_one(
            {"_id": item.item_id}, {"$set": {"degree": degree}}
        )
        return feedback_id

    def feedback_count(self, user: Optional[str] = None) -> int:
        """Number of recorded feedback entries (optionally per user)."""
        query = {} if user is None else {"user": user}
        return self.store[FEEDBACK].count_documents(query)

    def training_data(
        self, user: Optional[str] = None
    ) -> "tuple[np.ndarray, np.ndarray, List[str]]":
        """Feedback as ``(X, y, feature_names)`` for degree prediction."""
        query = {} if user is None else {"user": user}
        entries = self.store[FEEDBACK].find(query).to_list()
        if not entries:
            raise EngineError("no feedback recorded yet")
        feature_names = sorted(entries[0]["features"])
        rows = np.array(
            [
                [entry["features"].get(name, 0.0) for name in feature_names]
                for entry in entries
            ]
        )
        labels = np.array([entry["degree"] for entry in entries])
        return rows, labels, feature_names

    def train_degree_predictor(
        self, user: Optional[str] = None, seed: int = 0
    ) -> "DegreePredictor":
        """Fit a decision tree on past feedback; returns the predictor."""
        rows, labels, feature_names = self.training_data(user)
        tree = DecisionTreeClassifier(
            max_depth=6, min_samples_leaf=2, seed=seed
        )
        tree.fit(rows, labels)
        return DegreePredictor(tree=tree, feature_names=feature_names)

    # ------------------------------------------------------------------
    # run manifests (execution history)
    # ------------------------------------------------------------------
    def record_run(self, manifest: Dict[str, Any]) -> Any:
        """Persist one analysis run manifest; returns its id.

        The document is validated against the manifest schema first, so
        the ``runs`` collection only ever holds well-formed history.
        """
        document = validate_manifest(dict(manifest))
        return self.store[RUNS].insert_one(document)

    def run_history(
        self,
        dataset_fingerprint: Optional[str] = None,
        goal: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict]:
        """Past run manifests, most recent first.

        Optionally filtered to one dataset fingerprint and/or to runs
        that executed a given end-goal.
        """
        query: Dict[str, Any] = {}
        if dataset_fingerprint is not None:
            query["dataset.fingerprint"] = dataset_fingerprint
        if goal is not None:
            query["goals.name"] = goal
        cursor = self.store[RUNS].find(query).sort("started_at", -1)
        if limit is not None:
            cursor = cursor.limit(limit)
        return cursor.to_list()

    def run_count(self) -> int:
        """Number of recorded run manifests."""
        return len(self.store[RUNS])

    # ------------------------------------------------------------------
    # analysis cache
    # ------------------------------------------------------------------
    def analysis_cache(self) -> "AnalysisCache":
        """An analysis cache living inside this knowledge base's store.

        Entries land in the ``analysis_cache`` collection next to the
        six paper collections, so a knowledge base opened with
        :meth:`open_sharded` persists memoised dataset profiles and goal
        runs along with the knowledge they produced.
        """
        from repro.core.cache import CACHE_COLLECTION, AnalysisCache

        return AnalysisCache(self.store.collection(CACHE_COLLECTION))

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    @classmethod
    def open_sharded(
        cls,
        directory: Union[str, Path],
        n_shards: int = 8,
        auto_compact_ops: Optional[int] = None,
        metrics: Any = None,
        storage: Any = None,
    ) -> "KnowledgeBase":
        """Open (or create) a knowledge base on sharded storage.

        The one way to put a knowledge base on disk. Mutations append
        to per-shard logs as they happen — there is no save step; call
        :meth:`compact` (or rely on ``auto_compact_ops``) to fold logs
        into base partitions, and ``kb.store.close()`` when done. A
        directory written by the retired flat ``save()`` is migrated
        on open (:mod:`repro.kdb.shards`).
        ``metrics`` is handed to the store *before* replay, so the
        ``kdb.recovery.*`` counters see what opening had to repair;
        ``storage`` swaps the I/O layer (fault injection in tests).
        """
        from repro.kdb.shards import ShardedDocumentStore

        store = ShardedDocumentStore(
            directory,
            n_shards=n_shards,
            auto_compact_ops=auto_compact_ops,
            storage=storage,
            metrics=metrics,
        )
        return cls(store=store, metrics=metrics)

    def compact(self) -> None:
        """Compact sharded storage (no-op for in-memory stores)."""
        compact = getattr(self.store, "compact", None)
        if compact is not None:
            compact()

    def storage_stats(self) -> Dict[str, Any]:
        """Backing-store statistics (sharded stores report disk usage)."""
        stats = getattr(self.store, "stats", None)
        if stats is not None:
            return stats()
        return {
            name: {"documents": len(self.store[name])}
            for name in self.store.collection_names()
        }

    def counts(self) -> Dict[str, int]:
        """Document count per collection (diagnostics)."""
        return {
            name: len(self.store[name]) for name in COLLECTIONS
        }

    def statistics(self) -> Dict[str, Any]:
        """Aggregate K-DB statistics (per-kind scores, feedback mix).

        Built on the store's aggregation pipeline: knowledge items
        grouped by kind with count and mean score, and the feedback
        degree distribution.
        """
        by_kind = self.store[DISCOVERED_KNOWLEDGE].aggregate(
            [
                {
                    "$group": {
                        "_id": "$kind",
                        "count": {"$count": True},
                        "mean_score": {"$avg": "$score"},
                        "max_score": {"$max": "$score"},
                    }
                },
                {"$sort": {"count": -1}},
            ]
        )
        feedback_mix = self.store[FEEDBACK].aggregate(
            [
                {
                    "$group": {
                        "_id": "$degree",
                        "count": {"$count": True},
                    }
                },
                {"$sort": {"_id": 1}},
            ]
        )
        return {
            "items_by_kind": by_kind,
            "feedback_by_degree": feedback_mix,
        }


class DegreePredictor:
    """Predicts {high, medium, low} for new items from past feedback."""

    def __init__(
        self, tree: DecisionTreeClassifier, feature_names: List[str]
    ) -> None:
        self.tree = tree
        self.feature_names = feature_names

    def predict(self, item: KnowledgeItem) -> str:
        """Predicted degree for one item."""
        return self.predict_many([item])[0]

    def predict_many(
        self, items: Sequence[KnowledgeItem], attach: bool = False
    ) -> List[str]:
        """Predicted degrees for many items, from one ``tree.predict``
        over their stacked feature rows."""
        if not items:
            return []
        rows = []
        for item in items:
            features = item.feature_vector_fields()
            rows.append(
                [features.get(name, 0.0) for name in self.feature_names]
            )
        degrees = [str(degree) for degree in self.tree.predict(np.array(rows))]
        if attach:
            for item, degree in zip(items, degrees):
                item.degree = degree
        return degrees
