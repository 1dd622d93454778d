"""Per-analysis run manifests.

The paper's self-learning loop needs the K-DB to remember not just the
*knowledge* each analysis produced but the *execution* that produced it
— which goals were attempted, with which algorithms and parameters,
what was served from cache, how long each goal took, and how many
worker tasks failed. A run manifest is that record: one JSON document
per ``ADAHealth.analyze`` call, persisted into the K-DB ``runs``
collection (see :meth:`repro.kdb.KnowledgeBase.record_run`) where
past-experience lookups can query it with ordinary store queries.

This module is dependency-free: the builder only assembles plain dicts;
persistence belongs to the K-DB layer.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

#: Name of the K-DB collection holding run manifests.
RUNS_COLLECTION = "runs"

#: Schema tag of pre-resilience manifests (still accepted on read).
MANIFEST_SCHEMA_V1 = "ada-health/run-manifest/v1"

#: Schema tag stamped on every new manifest (bump on breaking changes).
#: v2 adds the ``resilience`` section and the ``"degraded"`` status.
MANIFEST_SCHEMA = "ada-health/run-manifest/v2"

#: Every schema ``validate_manifest`` accepts.
KNOWN_MANIFEST_SCHEMAS = (MANIFEST_SCHEMA_V1, MANIFEST_SCHEMA)

#: Top-level fields every well-formed (current-schema) manifest must
#: carry; v1 documents predate ``resilience`` and are exempt from it.
MANIFEST_FIELDS = (
    "schema",
    "status",
    "dataset",
    "user",
    "seed",
    "started_at",
    "finished_at",
    "wall_s",
    "goals_assessed",
    "goals",
    "cache",
    "executor",
    "metrics",
    "n_items",
    "resilience",
)

#: Keys of the manifest's ``resilience`` section (v2+).
RESILIENCE_FIELDS = (
    "retries",
    "timeouts",
    "worker_crashes",
    "fallbacks",
    "faults_injected",
    "breaker",
    "degraded_goals",
)


class ManifestError(ValueError):
    """A manifest document failed validation."""


def validate_manifest(document: Dict[str, Any]) -> Dict[str, Any]:
    """Check a manifest is well-formed; returns it (raises otherwise).

    Accepts both manifest schemas: v1 (no ``resilience`` section) and
    v2 (``resilience`` required, ``"degraded"`` status allowed).
    """
    schema = document.get("schema")
    if schema not in KNOWN_MANIFEST_SCHEMAS:
        raise ManifestError(f"unknown manifest schema {schema!r}")
    required = [
        name
        for name in MANIFEST_FIELDS
        if not (schema == MANIFEST_SCHEMA_V1 and name == "resilience")
    ]
    missing = [f for f in required if f not in document]
    if missing:
        raise ManifestError(f"manifest missing fields: {missing}")
    if document["status"] not in ("completed", "degraded", "failed"):
        raise ManifestError(
            f"unknown manifest status {document['status']!r}"
        )
    if not isinstance(document["goals"], list):
        raise ManifestError("manifest goals must be a list")
    for goal in document["goals"]:
        for field in ("name", "status", "wall_s"):
            if field not in goal:
                raise ManifestError(
                    f"goal record missing {field!r}: {goal}"
                )
    if schema != MANIFEST_SCHEMA_V1:
        resilience = document["resilience"]
        if not isinstance(resilience, dict):
            raise ManifestError("manifest resilience must be a dict")
        absent = [f for f in RESILIENCE_FIELDS if f not in resilience]
        if absent:
            raise ManifestError(
                f"resilience section missing fields: {absent}"
            )
    return document


class RunManifestBuilder:
    """Accumulates one analysis run's execution record.

    The engine drives it through :meth:`add_goal` /
    :meth:`record_cache` / :meth:`record_executor`, then calls
    :meth:`finish` (or :meth:`fail`) to obtain the persistable
    document.
    """

    def __init__(
        self,
        dataset_fingerprint: str,
        dataset_name: str,
        dataset_id: Any = None,
        user: str = "anonymous",
        seed: int = 0,
    ) -> None:
        self.started_at = time.time()
        self._t0 = time.perf_counter()
        self.dataset = {
            "id": dataset_id,
            "name": dataset_name,
            "fingerprint": dataset_fingerprint,
        }
        self.user = user
        self.seed = seed
        self.goals_assessed: List[Dict[str, Any]] = []
        self.goals: List[Dict[str, Any]] = []
        self.cache: Dict[str, Any] = {
            "enabled": False,
            "hits": 0,
            "misses": 0,
            "stores": 0,
        }
        self.executor: Dict[str, Any] = {
            "backend": "serial",
            "workers": 1,
            "task_failures": 0,
        }
        self.resilience: Dict[str, Any] = {
            "retries": 0,
            "timeouts": 0,
            "worker_crashes": 0,
            "fallbacks": 0,
            "faults_injected": 0,
            "breaker": None,
            "degraded_goals": [],
        }

    # -- accumulation ----------------------------------------------------
    def assess_goal(self, name: str, viable: bool, reason: str) -> None:
        """Record one end-goal feasibility assessment."""
        self.goals_assessed.append(
            {"name": name, "viable": bool(viable), "reason": reason}
        )

    def add_goal(
        self,
        name: str,
        wall_s: float,
        status: str = "completed",
        n_items: int = 0,
        cached: bool = False,
        algorithms: Optional[List[str]] = None,
        params: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
    ) -> None:
        """Record one attempted goal pipeline."""
        self.goals.append(
            {
                "name": name,
                "status": status,
                "wall_s": float(wall_s),
                "n_items": int(n_items),
                "cached": bool(cached),
                "algorithms": sorted(algorithms or []),
                "params": params or {},
                "error": error,
            }
        )

    def record_cache(
        self,
        enabled: bool,
        hits: int,
        misses: int,
        stores: int,
    ) -> None:
        """Record the analysis cache's traffic for this run."""
        self.cache = {
            "enabled": bool(enabled),
            "hits": int(hits),
            "misses": int(misses),
            "stores": int(stores),
        }

    def record_executor(
        self, backend: str, workers: int, task_failures: int = 0
    ) -> None:
        """Record the fan-out backend and its failure count."""
        self.executor = {
            "backend": backend,
            "workers": int(workers),
            "task_failures": int(task_failures),
        }

    def record_resilience(
        self,
        retries: int = 0,
        timeouts: int = 0,
        worker_crashes: int = 0,
        fallbacks: int = 0,
        faults_injected: int = 0,
        breaker: Optional[Dict[str, Any]] = None,
        degraded_goals: Optional[List[str]] = None,
    ) -> None:
        """Record this run's fault-tolerance activity (v2 section)."""
        self.resilience = {
            "retries": int(retries),
            "timeouts": int(timeouts),
            "worker_crashes": int(worker_crashes),
            "fallbacks": int(fallbacks),
            "faults_injected": int(faults_injected),
            "breaker": dict(breaker) if breaker is not None else None,
            "degraded_goals": list(degraded_goals or []),
        }

    # -- completion ------------------------------------------------------
    def finish(
        self,
        n_items: int,
        metrics_snapshot: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """The manifest of a completed run.

        A run that finished with failed goal records (degraded-mode
        analysis) is stamped ``"degraded"`` rather than
        ``"completed"``, with the failed goal names listed under
        ``resilience["degraded_goals"]``.
        """
        return self._document(
            "completed", n_items, metrics_snapshot, error=None
        )

    def fail(
        self,
        error: str,
        metrics_snapshot: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """The manifest of a run that raised."""
        return self._document("failed", 0, metrics_snapshot, error=error)

    def _document(
        self,
        status: str,
        n_items: int,
        metrics_snapshot: Optional[Dict[str, Any]],
        error: Optional[str],
    ) -> Dict[str, Any]:
        resilience = dict(self.resilience)
        failed = [
            goal["name"]
            for goal in self.goals
            if goal.get("status") == "failed"
        ]
        degraded = list(resilience.get("degraded_goals") or [])
        degraded.extend(
            name for name in failed if name not in degraded
        )
        resilience["degraded_goals"] = degraded
        if status == "completed" and degraded:
            status = "degraded"
        document = {
            "schema": MANIFEST_SCHEMA,
            "status": status,
            "dataset": dict(self.dataset),
            "user": self.user,
            "seed": self.seed,
            "started_at": self.started_at,
            "finished_at": time.time(),
            "wall_s": time.perf_counter() - self._t0,
            "goals_assessed": list(self.goals_assessed),
            "goals": list(self.goals),
            "cache": dict(self.cache),
            "executor": dict(self.executor),
            "metrics": metrics_snapshot or {},
            "n_items": int(n_items),
            "resilience": resilience,
            "error": error,
        }
        return validate_manifest(document)
