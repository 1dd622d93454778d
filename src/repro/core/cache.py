"""Content-addressed memoisation of analysis results.

The paper's cloud vision assumes repeated automated analyses over the
same collections: every re-run of the engine repeats the dataset
characterisation and whole goal pipelines on a log that has not
changed. This module makes those repeats free. The engine is its only
caller, and it memoises at one level — the dataset profile and each
whole goal run — so nothing below a goal keeps entries of its own.

A cache entry is addressed by the SHA-256 of four components:

* a **code fingerprint** — a digest of the engine's own source
  (:func:`code_fingerprint`), so no edit to the code that produced a
  result can ever serve that result again;
* a **dataset fingerprint** — a digest of the log being mined
  (:func:`fingerprint_log`), so any mutation of its records
  invalidates every dependent entry automatically;
* an **algorithm name** — the computation being memoised; and
* a **parameter fingerprint** — a canonical JSON digest of every knob
  that influences the result (K, seeds, fold counts, tolerances...).

Entries are stored as documents in a
:class:`repro.kdb.documentstore.DocumentStore` collection — the same
substrate as the K-DB — so a cache can live inside a knowledge base,
persist with it, and be inspected with ordinary store queries. Payloads
must therefore be JSON-serialisable; helpers on the callers convert
numpy artefacts (labels, centers) to and from plain lists.
"""

from __future__ import annotations

import functools
import hashlib
import json
import zlib
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from repro.kdb.documentstore import Collection, DocumentStore

#: Default collection name for cache entries inside a document store.
CACHE_COLLECTION = "analysis_cache"

def payload_crc(payload: Any) -> str:
    """CRC-32 (hex) of a payload's canonical JSON form.

    Stored as an entry's ``crc`` so on-disk damage surfaces as a
    metered corrupt miss instead of a poisoned hit.
    """
    encoded = json.dumps(payload, sort_keys=True, default=str)
    return f"{zlib.crc32(encoded.encode('utf-8')) & 0xFFFFFFFF:08x}"


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def fingerprint_bytes(payload: bytes) -> str:
    """SHA-256 hex digest of raw bytes."""
    return hashlib.sha256(payload).hexdigest()


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of the ``repro`` package source, computed once a process.

    Hashes ``relpath NUL bytes`` of every ``.py`` file under the
    package except ``repro/lint/`` (the linter never runs inside an
    analysis), in sorted path order. Folded into every cache key, so
    any edit to the engine — a comment edit included — turns earlier
    entries into plain misses; none can produce a stale hit.
    """
    package = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        relpath = path.relative_to(package).as_posix()
        if relpath.startswith("lint/"):
            continue
        digest.update(relpath.encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint_params(params: Any) -> str:
    """Digest of a JSON-able parameter structure, key-order independent."""
    encoded = json.dumps(params, sort_keys=True, default=str)
    return fingerprint_bytes(encoded.encode())


def fingerprint_log(log) -> str:
    """Content digest of an :class:`repro.data.ExamLog`.

    Hashes the log's sorted ``(patient, day, exam)`` row array, as raw
    int64 bytes, plus the exam-type count, so appending, removing or
    editing any record changes the digest.
    """
    digest = hashlib.sha256(f"examlog|{log.n_exam_types}|".encode())
    digest.update(log.to_rows())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
class AnalysisCache:
    """Memoisation cache over a document-store collection.

    Parameters
    ----------
    collection:
        A :class:`Collection` to store entries in; a fresh in-memory
        store's :data:`CACHE_COLLECTION` by default. Pass a collection
        of an existing K-DB store to persist the cache with it.

    Entries carry the dataset, algorithm and parameter fingerprints
    alongside the key, so :meth:`invalidate_dataset` can drop
    everything derived from one dataset, and store queries can audit
    what has been memoised. Entries written under other code are never
    addressed again; they read as misses until
    :meth:`invalidate_dataset` or :meth:`clear` drops them.
    """

    def __init__(
        self,
        collection: Optional[Collection] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        if collection is None:
            collection = DocumentStore().collection(CACHE_COLLECTION)
        self.collection = collection
        self.collection.create_index("key")
        self.collection.create_index("dataset")
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.metrics = None
        if metrics is not None:
            self.bind_metrics(metrics)

    def bind_metrics(self, metrics: Any) -> "AnalysisCache":
        """Mirror hit/miss/store counts into a metrics registry.

        Pre-registers the counters so snapshots always carry them,
        even before the first lookup.
        """
        self.metrics = metrics
        for name in (
            "cache.hits",
            "cache.misses",
            "cache.stores",
            "cache.corrupt",
        ):
            metrics.counter(name)
        return self

    # ------------------------------------------------------------------
    @staticmethod
    def key(dataset: str, algorithm: str, params: Any) -> str:
        """The content address of one computation."""
        return fingerprint_bytes(
            f"{code_fingerprint()}|{dataset}|{algorithm}"
            f"|{fingerprint_params(params)}".encode()
        )

    def get(
        self,
        dataset: str,
        algorithm: str,
        params: Any,
        decode: Optional[Callable[[Any], Any]] = None,
    ) -> Any:
        """The cached payload, or None on a miss.

        With ``decode``, the stored payload is passed through it and
        the decoded value is returned instead. A corrupt entry — no
        payload, no checksum or a mismatching one, or a payload
        ``decode`` rejects — is *not* an error:
        the entry is dropped, ``cache.corrupt`` is counted, and the
        lookup degrades to a miss so the caller recomputes and the
        subsequent :meth:`put` overwrites the damage.
        """
        key = self.key(dataset, algorithm, params)
        document = self.collection.find_one({"key": key})
        if document is None:
            return self._miss()
        if "payload" not in document:
            return self._drop_corrupt(key, "entry has no payload")
        payload = document["payload"]
        # Every addressable entry was written by this code's put(),
        # which always stores a checksum: a missing one is damage too.
        if document.get("crc") != payload_crc(payload):
            return self._drop_corrupt(key, "payload checksum mismatch")
        if decode is not None:
            try:
                payload = decode(payload)
            except Exception as exc:  # degrade corrupt entry to a miss
                return self._drop_corrupt(
                    key, f"{type(exc).__name__}: {exc}"
                )
        self.hits += 1
        if self.metrics is not None:
            self.metrics.counter("cache.hits").inc()
        return payload

    def _miss(self) -> None:
        self.misses += 1
        if self.metrics is not None:
            self.metrics.counter("cache.misses").inc()
        return None

    def _drop_corrupt(self, key: str, reason: str) -> None:
        """Record and evict a corrupt entry, degrading to a miss."""
        self.corrupt += 1
        if self.metrics is not None:
            self.metrics.counter("cache.corrupt").inc()
        self.collection.delete_many({"key": key})
        return self._miss()

    def put(
        self, dataset: str, algorithm: str, params: Any, payload: Any
    ) -> str:
        """Store a payload; returns the entry key. Idempotent."""
        key = self.key(dataset, algorithm, params)
        if self.collection.find_one({"key": key}) is None:
            self.stores += 1
            if self.metrics is not None:
                self.metrics.counter("cache.stores").inc()
            entry = {
                "key": key,
                "dataset": dataset,
                "algorithm": algorithm,
                "params": fingerprint_params(params),
                "payload": payload,
                "crc": payload_crc(payload),
            }
            self.collection.insert_one(entry)
        return key

    # ------------------------------------------------------------------
    def invalidate_dataset(self, dataset: str) -> int:
        """Drop every entry derived from one dataset fingerprint."""
        return self.collection.delete_many({"dataset": dataset})

    def clear(self) -> None:
        """Drop every entry (hit/miss counters survive)."""
        self.collection.drop()

    def __len__(self) -> int:
        return len(self.collection)

    def stats(self) -> Dict[str, int]:
        """Hit/miss/store/corrupt counters and entry count."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "entries": len(self.collection),
        }
