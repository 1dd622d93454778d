"""Embedded document store with a MongoDB-like API.

The paper stores the ADA-HEALTH Knowledge Base "on a cluster of
MongoDBs" and uses it as a six-collection document repository. This
module is the reproduction's substitute substrate: an embedded,
dependency-free document database with the part of the MongoDB surface
the K-DB actually runs —

* collections of JSON-like documents with automatic ``_id`` assignment;
* queries by implicit equality on dot paths, fanning out over arrays
  like MongoDB (``{"goals.name": "rules"}`` matches a document whose
  ``goals`` list holds one such element). A ``$``-prefixed key, a key
  that is not a string, or a value that is not JSON (a set, a tuple...)
  anywhere in a query raises :class:`~repro.exceptions.QueryError`;
* ``update_one`` with ``$set`` (a missing dot path is created);
* cursors with ``sort(path, direction)`` and ``limit``;
* ``aggregate`` with ``$group`` (``$count``, ``$avg``, ``$max``
  accumulators) and ``$sort`` stages;
* secondary indexes: equality ``hash`` indexes (optionally unique) and
  ``sorted`` indexes that also serve index-ordered ``sort().limit()``.

Each read picks its access path in :meth:`Collection._plan`: an ``_id``
point probe, else the first index on a queried path, else a scan.
``last_plan`` records the choice; ``kdb.plans.*`` counters and a
``kdb.query.latency`` histogram land in an attached
:class:`repro.obs.Metrics` registry.

A :class:`DocumentStore` lives in memory; its one on-disk form is the
checksummed, hash-sharded directory of :mod:`repro.kdb.shards`.

Documents are stored *by value* and are **immutable once stored**:
inserts deep-copy, finds deep-copy lazily at cursor resolution, and
updates build a fresh document and swap it in atomically — a failing
update leaves the stored document (and every index) untouched. A
document must survive the shard journal's JSON round trip unchanged,
so a write holding a non-string key or a tuple anywhere is refused with
:class:`~repro.exceptions.StoreError` before anything changes.

NaN float values are outside the store contract (they are not valid
strict JSON and break ordering); behaviour with NaN is undefined.
"""

from __future__ import annotations

import itertools
import json
import math
import pickle
import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.exceptions import (
    CollectionNotFoundError,
    DuplicateKeyError,
    QueryError,
    StoreError,
)

Document = Dict[str, Any]
Query = Dict[str, Any]

#: Leaf types that come back from ``json.loads`` as they went in
#: (``bool`` is an ``int``).
_JSON_SCALARS = (str, int, float, type(None))

_QUERY_BUCKETS: Optional[Tuple[float, ...]] = None


def _query_buckets() -> Tuple[float, ...]:
    """Lazily import the obs histogram grid (avoids an import cycle)."""
    global _QUERY_BUCKETS
    if _QUERY_BUCKETS is None:
        from repro.obs.metrics import QUERY_BUCKETS

        _QUERY_BUCKETS = QUERY_BUCKETS
    return _QUERY_BUCKETS


def _values_equal(value: Any, operand: Any) -> bool:
    """Equality with bool/int separation (Mongo treats them as equal; we
    follow Python semantics but avoid ``1 == True`` surprises)."""
    if isinstance(value, bool) != isinstance(operand, bool):
        return False
    return value == operand


def _walk_path(document: Any, path: Sequence[str]) -> List[Any]:
    """Resolve a dot path, fanning out over arrays like MongoDB.

    Returns the list of values reachable at the path (possibly empty).
    A list encountered mid-path is traversed element-wise; a list at the
    end of the path is returned whole *and* its elements are candidates
    for comparison (handled by the matcher).
    """
    if not path:
        return [document]
    if isinstance(document, dict):
        head, *rest = path
        return _walk_path(document[head], rest) if head in document else []
    results: List[Any] = []
    if isinstance(document, list):
        for element in document:
            if isinstance(element, (dict, list)):
                results.extend(_walk_path(element, path))
    return results


def _check_query(value: Any) -> None:
    """Refuse a query (or part of one) the store cannot answer."""
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise QueryError(f"query keys must be strings: {key!r}")
            if key.startswith("$"):
                raise QueryError(
                    f"unsupported query operator {key!r}: the store"
                    " matches by implicit equality only"
                )
            _check_query(item)
    elif isinstance(value, list):
        for item in value:
            _check_query(item)
    elif not isinstance(value, _JSON_SCALARS):
        raise QueryError(
            f"a {type(value).__name__} never equals a stored value"
        )


def _conditions(query: Optional[Query]) -> Tuple[Query, List[Tuple]]:
    """The checked query and its ``(path parts, operand)`` pairs."""
    query = {} if query is None else query
    if not isinstance(query, dict):
        raise QueryError("query must be a dict")
    _check_query(query)
    return query, [
        (path.split("."), operand) for path, operand in query.items()
    ]


def _equality_any(values: List[Any], operand: Any) -> bool:
    """Implicit equality: a value itself or any array element matches."""
    for value in values:
        if _values_equal(value, operand):
            return True
        if isinstance(value, list) and any(
            _values_equal(element, operand) for element in value
        ):
            return True
    return False


def _matches(document: Document, conditions: List[Tuple]) -> bool:
    return all(
        _equality_any(_walk_path(document, parts), operand)
        for parts, operand in conditions
    )


@dataclass
class QueryPlan:
    """How one read was served: the access path and its yield."""

    collection: str
    kind: str  # "point" | "scan"
    index: Optional[str] = None
    path: Optional[str] = None
    #: Documents admitted by the access path (before matching).
    examined: int = 0
    #: Documents that matched.
    returned: int = 0
    #: Wall-clock seconds for plan + match.
    elapsed_s: float = 0.0

    @property
    def indexed(self) -> bool:
        """True when the plan avoided a full collection scan."""
        return self.kind != "scan"


class _OrderedValue:
    """Total-order wrapper for sort values of one type.

    Same-type values that do not support ``<`` (dicts, mixed-content
    lists...) fall back to a stable ``repr``-based ordering instead of
    raising ``TypeError`` out of ``sort``.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "_OrderedValue") -> bool:
        try:
            return bool(self.value < other.value)
        except TypeError:
            return repr(self.value) < repr(other.value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _OrderedValue):
            return NotImplemented
        return self.value == other.value


def _rank(value: Any) -> Tuple:
    """The store's canonical sort rank: None first, then grouped by type
    name, ordered inside the group (``repr`` fallback for unorderables).
    Shared by cursor ``sort``, the ``$sort`` stage and sorted indexes, so
    index-ordered iteration reproduces scan-sort order exactly."""
    return (value is not None, type(value).__name__, _OrderedValue(value))


def _sort_key(document: Document, path: str) -> Tuple:
    values = _walk_path(document, path.split("."))
    return _rank(values[0] if values else None)


def _check_sort(path: Any, direction: Any) -> None:
    if not isinstance(path, str):
        raise QueryError(f"sort takes one dot path, not {path!r}")
    if direction not in (1, -1):
        raise QueryError(f"sort direction must be 1 or -1: {direction!r}")


# ----------------------------------------------------------------------
# secondary indexes
# ----------------------------------------------------------------------
def _index_key(value: Any) -> Any:
    """Hashable key for index buckets (lists/dicts hashed by JSON dump)."""
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, default=str)
    return value


def _typed_key(value: Any) -> Tuple[str, Any]:
    """Bucket key, separated by type name so ``True``/``1`` (and ``1``/
    ``1.0``, ``"1"``) never share a bucket."""
    return (type(value).__name__, _index_key(value))


def _group_key(value: Any) -> Tuple[str, Any]:
    """``$group`` bucket key: values share a bucket exactly when
    :func:`_values_equal` holds, so ``1`` and ``1.0`` group together
    and ``True`` stays apart from both."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return ("number", value)
    return _typed_key(value)


def _probe_keys(value: Any) -> List[Tuple[str, Any]]:
    """Typed keys whose buckets may contain documents whose value equals
    ``value`` under :func:`_values_equal` (int/float cross-type hits)."""
    if isinstance(value, bool):
        return [("bool", value)]
    if isinstance(value, int):
        keys: List[Tuple[str, Any]] = [("int", value)]
        try:
            keys.append(("float", float(value)))
        except OverflowError:
            pass
        return keys
    if isinstance(value, float):
        keys = [("float", value)]
        if math.isfinite(value) and value.is_integer():
            keys.append(("int", int(value)))
        return keys
    return [_typed_key(value)]


class _HashIndex:
    """Equality index: typed bucket key -> set of ``_id``\\ s.

    Multikey over arrays like MongoDB: an array value is indexed under
    the whole array *and* under each element, so an equality probe for
    an element still covers documents matching via array membership.
    """

    kind = "hash"

    def __init__(self, name: str, path: str, unique: bool = False) -> None:
        self.name = name
        self.path = path
        self.unique = unique
        self._parts = path.split(".")
        self._buckets: Dict[Tuple[str, Any], set] = {}

    # -- maintenance -----------------------------------------------------
    def _entries(self, document: Document) -> List[Any]:
        entries: List[Any] = []
        for value in _walk_path(document, self._parts):
            entries.append(value)
            if isinstance(value, list):
                entries.extend(value)
        return entries

    def add(self, document: Document) -> None:
        doc_id = document["_id"]
        for value in self._entries(document):
            if self.unique and self._holds_equal(value, exclude=doc_id):
                raise DuplicateKeyError(
                    f"unique index {self.name!r} violated by value {value!r}"
                )
            key = _typed_key(value)
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = self._new_bucket(key, value)
            bucket.add(doc_id)

    def remove(self, document: Document) -> None:
        doc_id = document["_id"]
        for value in self._entries(document):
            key = _typed_key(value)
            bucket = self._buckets.get(key)
            if bucket is not None:
                bucket.discard(doc_id)
                if not bucket:
                    self._drop_bucket(key)

    def _new_bucket(self, key: Tuple[str, Any], value: Any) -> set:
        bucket: set = set()
        self._buckets[key] = bucket
        return bucket

    def _drop_bucket(self, key: Tuple[str, Any]) -> None:
        del self._buckets[key]

    def clear(self) -> None:
        self._buckets.clear()

    # -- probes ----------------------------------------------------------
    def _holds_equal(self, value: Any, exclude: Any = None) -> bool:
        for key in _probe_keys(value):
            bucket = self._buckets.get(key)
            if bucket and (bucket - {exclude} if exclude is not None
                           else bucket):
                return True
        return False

    def would_violate(self, document: Document) -> Optional[Any]:
        """The first value that would break uniqueness, or None."""
        if not self.unique:
            return None
        for value in self._entries(document):
            if self._holds_equal(value):
                return value
        return None

    def lookup(self, value: Any) -> set:
        """Candidate ids for an equality probe (superset; the matcher
        re-filters)."""
        ids: set = set()
        for key in _probe_keys(value):
            bucket = self._buckets.get(key)
            if bucket:
                ids |= bucket
        return ids


#: Value types whose same-type ``<`` never raises: a sorted index
#: orders a group of them on the raw values.
_RAW_ORDERED = (int, float, str, bool)


class _SortedIndex(_HashIndex):
    """Hash index plus a lazily rebuilt ordered view of its keys.

    The ordered view serves index-ordered iteration for
    ``sort().limit()``. It is marked stale on bucket creation/removal
    and rebuilt in O(k log k) on the next ordered walk — appends stay
    O(1), so bulk loads do not pay per-insert re-sorting.
    """

    kind = "sorted"

    def __init__(self, name: str, path: str, unique: bool = False) -> None:
        super().__init__(name, path, unique)
        # typed key -> representative value (all values in a bucket are
        # == equal, so any one of them orders the bucket)
        self._rep: Dict[Tuple[str, Any], Any] = {}
        # type name -> typed keys in value order
        self._groups: Dict[str, List[Tuple[str, Any]]] = {}
        self._stale = False
        #: True once any document contributed other than exactly one
        #: scalar value at the path — index-ordered sort is then disabled
        #: (array sort order follows the first walk value, not the min).
        self.multivalue = False

    def add(self, document: Document) -> None:
        values = _walk_path(document, self._parts)
        if len(values) != 1 or isinstance(values[0], list):
            self.multivalue = True
        super().add(document)

    def _new_bucket(self, key: Tuple[str, Any], value: Any) -> set:
        bucket = super()._new_bucket(key, value)
        self._rep[key] = value
        self._stale = True
        return bucket

    def _drop_bucket(self, key: Tuple[str, Any]) -> None:
        super()._drop_bucket(key)
        self._rep.pop(key, None)
        self._stale = True

    def clear(self) -> None:
        super().clear()
        self._rep.clear()
        self._groups = {}
        self._stale = False
        self.multivalue = False

    def _ensure_sorted(self) -> None:
        if not self._stale:
            return
        grouped: Dict[str, List[Tuple[Any, Tuple[str, Any]]]] = {}
        for key, value in self._rep.items():
            grouped.setdefault(type(value).__name__, []).append((value, key))
        self._groups = {}
        for typename, entries in grouped.items():
            # ``<`` never raises between two values of one of these
            # types, so the raw values compare exactly as their
            # ``_OrderedValue`` wrappers would, and sort the same way.
            if all(type(value) in _RAW_ORDERED for value, __ in entries):
                entries.sort(key=lambda pair: pair[0])
            else:
                entries.sort(key=lambda pair: _OrderedValue(pair[0]))
            self._groups[typename] = [key for __, key in entries]
        self._stale = False

    def ordered_ids(
        self, seq: Dict[Any, int], reverse: bool = False
    ) -> Iterator[Any]:
        """Document ids in the store's canonical sort order for this
        path, the None group (null values) first ascending and last
        descending. Bucket ties follow insertion order (``seq``) so the
        result matches a stable scan sort exactly."""
        self._ensure_sorted()
        typenames = sorted(
            name for name in self._groups if name != "NoneType"
        )
        if "NoneType" in self._groups:
            typenames.insert(0, "NoneType")
        if reverse:
            typenames = typenames[::-1]
        for typename in typenames:
            keys = self._groups[typename]
            ordered_keys: Iterable[Tuple[str, Any]] = (
                reversed(keys) if reverse else keys
            )
            for key in ordered_keys:
                bucket = self._buckets.get(key)
                if not bucket:
                    continue
                for doc_id in sorted(bucket, key=seq.__getitem__):
                    yield doc_id


_INDEX_KINDS: Dict[str, type] = {
    "hash": _HashIndex,
    "sorted": _SortedIndex,
}


class Cursor:
    """Lazy result set supporting ``sort``/``limit`` chaining.

    Stored documents are immutable, so the cursor holds references and
    deep-copies **lazily at resolution, after slicing** — a ``limit(5)``
    over a million matches copies five documents, not a million. The
    resolved view is memoised; chaining invalidates the memo.

    When the owning collection has a ``sorted`` index on the sort path,
    resolution walks the index in order instead of sorting, stopping
    early once ``limit`` documents are produced. ``by_id`` is the
    collection's ``_id`` map when ``documents`` is every document in
    it: the walk then reads documents straight from it, without first
    visiting each matched document.
    """

    def __init__(
        self,
        documents: List[Document],
        index_order: Optional[Callable[..., Optional[Iterator[Any]]]] = None,
        by_id: Optional[Dict[Any, Document]] = None,
    ) -> None:
        self._documents = documents
        self._index_order = index_order
        self._by_id = by_id
        self._sort: Optional[Tuple[str, int]] = None
        self._limit: Optional[int] = None
        self._cache: Optional[List[Document]] = None

    def sort(self, path: str, direction: int = 1) -> "Cursor":
        """Sort by a dot path, ascending (1) or descending (-1)."""
        _check_sort(path, direction)
        self._sort = (path, direction)
        self._cache = None
        return self

    def limit(self, count: int) -> "Cursor":
        """Return at most ``count`` results."""
        if not isinstance(count, int) or count < 0:
            raise QueryError(f"limit must be a non-negative int: {count!r}")
        self._limit = count
        self._cache = None
        return self

    def _resolved(self) -> List[Document]:
        if self._cache is not None:
            return self._cache
        documents = self._documents
        if self._sort is not None:
            documents = self._sorted_documents(documents, *self._sort)
        self._cache = [
            _copy_document(document)
            for document in documents[: self._limit]
        ]
        return self._cache

    def _sorted_documents(
        self, documents: List[Document], path: str, direction: int
    ) -> List[Document]:
        reverse = direction < 0
        if self._index_order is not None:
            ordered_ids = self._index_order(path, reverse)
            if ordered_ids is not None:
                return self._index_sorted(documents, ordered_ids)
        return sorted(
            documents,
            key=lambda document: _sort_key(document, path),
            reverse=reverse,
        )

    def _index_sorted(
        self, documents: List[Document], ordered_ids: Iterator[Any]
    ) -> List[Document]:
        by_id = self._by_id
        if by_id is None:
            by_id = {document["_id"]: document for document in documents}
        hits = (by_id[doc_id] for doc_id in ordered_ids if doc_id in by_id)
        return list(itertools.islice(hits, self._limit))

    def __iter__(self) -> Iterator[Document]:
        return iter(self._resolved())

    def __len__(self) -> int:
        return len(self._resolved())

    def to_list(self) -> List[Document]:
        """Materialise the cursor into a list."""
        return list(self._resolved())


class Collection:
    """A named collection of documents inside a :class:`DocumentStore`.

    Mutations are atomic per document: a failing update, serialisation
    check or unique-index violation leaves the stored document and every
    index exactly as they were. Like the whole K-DB, a collection is
    single-threaded: one thread per process uses it, so it takes no
    locks.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._documents: Dict[Any, Document] = {}
        self._next_id = 1
        self._indexes: Dict[str, _HashIndex] = {}
        # insertion sequence per _id: deterministic candidate ordering
        # (planned reads and index-sort ties match scan order exactly)
        self._seq: Dict[Any, int] = {}
        self._seq_counter = 0
        self._version = 0
        #: Mutation hook for the shard layer (op, payload).
        self._journal: Optional[Callable[[str, Any], None]] = None
        #: Pre-mutation veto hook (raises to refuse the write *before*
        #: it is applied in memory — e.g. the sharded store's ENOSPC
        #: write-protection).
        self._write_guard: Optional[Callable[[], None]] = None
        #: Optional ``repro.obs.Metrics`` registry for query telemetry.
        self.metrics = None
        #: The plan of the most recent planned read (tests/diagnostics).
        self.last_plan: Optional[QueryPlan] = None

    def _require_writable(self) -> None:
        if self._write_guard is not None:
            self._write_guard()

    def _notify(self, op: str, payload: Any = None) -> None:
        self._version += 1
        if self._journal is not None:
            self._journal(op, payload)

    # -- insert ----------------------------------------------------------
    def insert_one(self, document: Document) -> Any:
        """Insert a document; returns its ``_id`` (assigned if absent)."""
        if not isinstance(document, dict):
            raise StoreError("documents must be dicts")
        _reject_unstorable(document)
        document = _copy_document(document)
        self._require_writable()
        if "_id" not in document:
            while self._next_id in self._documents:
                self._next_id += 1
            document["_id"] = self._next_id
            self._next_id += 1
        doc_id = document["_id"]
        if isinstance(doc_id, (dict, list)):
            raise StoreError(f"_id must be a scalar: {doc_id!r}")
        if doc_id in self._documents:
            raise DuplicateKeyError(
                f"duplicate _id in {self.name!r}: {doc_id!r}"
            )
        self._check_unique_indexes(document)
        self._documents[doc_id] = document
        self._index_add(document)
        self._seq[doc_id] = self._seq_counter
        self._seq_counter += 1
        self._notify("put", document)
        return doc_id

    def insert_many(self, documents: Iterable[Document]) -> List[Any]:
        """Insert several documents; returns their ids."""
        return [self.insert_one(document) for document in documents]

    def _install(self, document: Document) -> None:
        """Install a trusted document (loader fast path): no copy, no
        serialisation check, no journal echo. Indexes are expected to be
        (re)built afterwards via :meth:`create_index`."""
        doc_id = document["_id"]
        if doc_id in self._documents:
            raise DuplicateKeyError(
                f"duplicate _id in {self.name!r}: {doc_id!r}"
            )
        self._documents[doc_id] = document
        self._index_add(document)
        self._seq[doc_id] = self._seq_counter
        self._seq_counter += 1
        self._version += 1

    # -- find --------------------------------------------------------------
    def _plan(self, query: Query) -> Tuple[List[Document], QueryPlan]:
        """Choose the access path for a checked query.

        An ``_id`` point probe, else the first hash or sorted index on
        a queried path, else a scan. Candidates are stored references
        in insertion order and a superset of the matches (multikey
        buckets admit false positives; the caller re-matches).
        """
        documents = self._documents
        probe = query.get("_id")
        if probe is not None and not isinstance(probe, (dict, list)):
            plan = QueryPlan(self.name, "point", index="_id_", path="_id")
            ids = {probe} if probe in documents else set()
        else:
            for path, operand in query.items():
                index = self._index_on(path)
                if index is not None:
                    plan = QueryPlan(
                        self.name, "point", index=index.name, path=path
                    )
                    ids = index.lookup(operand)
                    break
            else:
                candidates = list(documents.values())
                return candidates, QueryPlan(
                    self.name, "scan", examined=len(candidates)
                )
        candidates = [
            documents[doc_id]
            for doc_id in sorted(
                (doc_id for doc_id in ids if doc_id in documents),
                key=self._seq.__getitem__,
            )
        ]
        plan.examined = len(candidates)
        return candidates, plan

    def _matched(
        self, query: Optional[Query], first: bool = False
    ) -> List[Document]:
        """Planned matching: stored references in insertion order (with
        ``first``, only the first match); the plan lands in
        ``last_plan``."""
        query, conditions = _conditions(query)
        start = time.perf_counter()
        candidates, plan = self._plan(query)
        if not conditions:
            matched = candidates[:1] if first else candidates
        else:
            matched = []
            for document in candidates:
                if _matches(document, conditions):
                    matched.append(document)
                    if first:
                        break
        plan.returned = len(matched)
        plan.elapsed_s = time.perf_counter() - start
        self._record_plan(plan)
        return matched

    def _record_plan(self, plan: QueryPlan) -> None:
        self.last_plan = plan
        metrics = self.metrics
        if metrics is None:
            return
        outcome = "indexed" if plan.indexed else "scan"
        metrics.counter(f"kdb.plans.{outcome}").inc()
        metrics.histogram(
            "kdb.query.latency", _query_buckets()
        ).observe(plan.elapsed_s or 0.0)

    def _index_on(self, path: str) -> Optional[_HashIndex]:
        """The index covering ``path``, if any."""
        for index in self._indexes.values():
            if index.path == path:
                return index
        return None

    def _index_order(
        self, path: str, reverse: bool, version: Optional[int] = None
    ) -> Optional[Iterator[Any]]:
        """Index-ordered id iterator for ``path``, or None when no
        sorted scalar index covers it (or the collection changed since
        ``version`` — a stale cursor then falls back to a full sort).
        A usable index holds one scalar per document, so it yields
        every document's id."""
        if version is not None and version != self._version:
            return None
        index = self._index_on(path)
        if (
            index is None
            or index.kind != "sorted"
            or getattr(index, "multivalue", True)
        ):
            return None
        return index.ordered_ids(self._seq, reverse=reverse)

    def find(self, query: Optional[Query] = None) -> Cursor:
        """Return a cursor over documents matching ``query`` (all if None).

        ``last_plan`` records the access path; documents are
        deep-copied lazily when the cursor resolves.
        """
        matched = self._matched(query)
        found_version = self._version
        everything = len(matched) == len(self._documents)

        def index_order(path: str, reverse: bool):
            return self._index_order(path, reverse, version=found_version)

        return Cursor(
            matched,
            index_order=index_order,
            by_id=self._documents if everything else None,
        )

    def find_one(self, query: Optional[Query] = None) -> Optional[Document]:
        """Return one matching document, or None."""
        for document in self.find(query).limit(1):
            return document
        return None

    def count_documents(self, query: Optional[Query] = None) -> int:
        """Number of documents matching ``query``."""
        return len(self._matched(query))

    # -- update ------------------------------------------------------------
    def update_one(self, query: Query, update: Document) -> int:
        """Apply ``{"$set": {path: value, ...}}`` to the first match;
        returns 0 or 1. A missing dot path is created."""
        if not isinstance(update, dict) or list(update) != ["$set"]:
            raise StoreError(
                "update documents take exactly one operator: $set"
            )
        fields = update["$set"]
        if not isinstance(fields, dict):
            raise StoreError("$set requires a field document")
        _reject_unstorable(fields)
        self._require_writable()
        matched = self._matched(query, first=True)
        if not matched:
            return 0
        document = matched[0]
        doc_id = document["_id"]
        # Copy-on-write: build the replacement fully, then swap — a
        # failure at any point leaves the stored document and the
        # indexes untouched.
        replacement = _copy_document(document)
        for path, value in fields.items():
            parent, leaf = _resolve_parent(replacement, path)
            parent[leaf] = _copy_document(value)
        if replacement["_id"] != doc_id:
            raise StoreError("updates may not modify _id")
        self._index_remove(document)
        try:
            self._index_add(replacement)
        except DuplicateKeyError:
            self._index_remove(replacement)
            self._index_add(document)
            raise
        self._documents[doc_id] = replacement
        self._notify("put", replacement)
        return 1

    # -- delete ------------------------------------------------------------
    def delete_one(self, query: Query) -> int:
        """Delete the first matching document; returns 0 or 1."""
        return self._delete(query, many=False)

    def delete_many(self, query: Optional[Query] = None) -> int:
        """Delete all matching documents; returns the count deleted."""
        return self._delete(query, many=True)

    def _delete(self, query: Optional[Query], many: bool) -> int:
        self._require_writable()
        victims = self._matched(query, first=not many)
        for document in victims:
            doc_id = document["_id"]
            del self._documents[doc_id]
            self._index_remove(document)
            self._seq.pop(doc_id, None)
            self._notify("del", doc_id)
        return len(victims)

    # -- indexes -----------------------------------------------------------
    def create_index(
        self, path: str, unique: bool = False, kind: str = "hash"
    ) -> str:
        """Create an index on a dot path; returns the index name.

        ``kind="hash"`` serves equality probes; ``kind="sorted"`` also
        serves index-ordered ``sort().limit()``. Re-creating an
        existing index is a no-op, except that asking for ``"sorted"``
        where a hash index exists upgrades it in place.
        """
        if kind not in _INDEX_KINDS:
            raise StoreError(f"unknown index kind: {kind!r}")
        name = f"{path}_1"
        self._require_writable()
        existing = self._indexes.get(name)
        if existing is not None and (
            existing.kind == kind or kind == "hash"
        ):
            return name
        index = _INDEX_KINDS[kind](name, path, unique)
        for document in self._documents.values():
            index.add(document)
        self._indexes[name] = index
        self._notify("index")
        return name

    def index_names(self) -> List[str]:
        """Names of the existing indexes."""
        return list(self._indexes)

    def _check_unique_indexes(self, document: Document) -> None:
        for index in self._indexes.values():
            value = index.would_violate(document)
            if value is not None:
                raise DuplicateKeyError(
                    f"unique index {index.name!r} violated by"
                    f" value {value!r}"
                )

    def _index_add(self, document: Document) -> None:
        for index in self._indexes.values():
            index.add(document)

    def _index_remove(self, document: Document) -> None:
        for index in self._indexes.values():
            index.remove(document)

    # -- aggregation -----------------------------------------------------
    def aggregate(self, pipeline: List[Document]) -> List[Document]:
        """Run a pipeline of ``$group`` and ``$sort`` stages.

        ``$group`` takes an ``_id`` expression and ``$count``, ``$avg``
        or ``$max`` accumulators; field references use the ``"$path"``
        syntax. ``$sort`` takes ``{path: 1|-1, ...}``. Only the result
        rows are deep-copied — the collection never is.
        """
        if not isinstance(pipeline, list):
            raise QueryError("a pipeline is a list of stages")
        rows: List[Document] = list(self._documents.values())
        for stage in pipeline:
            if not isinstance(stage, dict) or len(stage) != 1:
                raise QueryError("each stage must be a single-key dict")
            operator, spec = next(iter(stage.items()))
            if not isinstance(spec, dict):
                raise QueryError(f"{operator!r} takes a document")
            if operator == "$group":
                rows = _group(rows, spec)
            elif operator == "$sort":
                for path, direction in reversed(list(spec.items())):
                    _check_sort(path, direction)
                    rows.sort(
                        key=lambda row, p=path: _sort_key(row, p),
                        reverse=direction < 0,
                    )
            else:
                raise QueryError(f"unknown pipeline stage: {operator!r}")
        return _copy_document(rows)

    # -- misc ----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._documents)

    def drop(self) -> None:
        """Remove every document (indexes survive, emptied)."""
        self._require_writable()
        self._documents.clear()
        self._seq.clear()
        self._seq_counter = 0
        for index in self._indexes.values():
            index.clear()
        self._notify("clear")


def _resolve_expression(document: Document, expression: Any) -> Any:
    """Resolve a ``"$path"`` field reference (or return the literal)."""
    if isinstance(expression, str) and expression.startswith("$"):
        values = _walk_path(document, expression[1:].split("."))
        return values[0] if values else None
    return expression


def _group(rows: List[Document], spec: Document) -> List[Document]:
    if "_id" not in spec:
        raise QueryError("$group requires an _id expression")
    accumulators = []
    for field_name, accumulator in spec.items():
        if field_name == "_id":
            continue
        if not isinstance(accumulator, dict) or len(accumulator) != 1:
            raise QueryError(
                f"accumulator for {field_name!r} must be a"
                f" single-operator dict"
            )
        operator, operand = next(iter(accumulator.items()))
        if operator not in ("$count", "$avg", "$max"):
            raise QueryError(f"unknown accumulator: {operator!r}")
        accumulators.append((field_name, operator, operand))

    buckets: Dict[Any, List[Document]] = {}
    bucket_keys: Dict[Any, Any] = {}
    for row in rows:
        key_value = _resolve_expression(row, spec["_id"])
        key = _group_key(key_value)
        buckets.setdefault(key, []).append(row)
        bucket_keys[key] = key_value

    def order(key: Any) -> Tuple[str, str]:
        raw = _index_key(bucket_keys[key])
        return (str(type(raw)), str(raw))

    results: List[Document] = []
    for key in sorted(buckets, key=order):
        members = buckets[key]
        out: Document = {"_id": bucket_keys[key]}
        for field_name, operator, operand in accumulators:
            if operator == "$count":
                out[field_name] = len(members)
                continue
            numbers = [
                value
                for value in (
                    _resolve_expression(member, operand)
                    for member in members
                )
                if isinstance(value, (int, float))
                and not isinstance(value, bool)
            ]
            if not numbers:
                out[field_name] = None
            elif operator == "$avg":
                out[field_name] = sum(numbers) / len(numbers)
            else:
                out[field_name] = max(numbers)
        results.append(out)
    return results


def _copy_document(value: Any) -> Any:
    """An independent deep copy of a storable value.

    A pickle round trip: several times faster than ``copy.deepcopy`` on
    the store's JSON-shaped documents, and, like it, keeps aliasing
    inside the value. Callers pass only values that already passed
    :func:`_reject_unstorable` (or came out of the store), so an
    unstorable value fails with :class:`StoreError`, never here.
    """
    return pickle.loads(pickle.dumps(value, pickle.HIGHEST_PROTOCOL))


def _json_shape_error(value: Any) -> Optional[str]:
    """Why ``value`` would not come back unchanged from the journal's
    JSON round trip, or None when it would. Keys must be strings (a
    non-string key is written as a string, or cannot be sorted next to
    one), and a tuple would be read back as a list."""
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                return f"non-string key {key!r}"
            if not isinstance(item, _JSON_SCALARS):
                error = _json_shape_error(item)
                if error is not None:
                    return error
    elif isinstance(value, list):
        for item in value:
            if not isinstance(item, _JSON_SCALARS):
                error = _json_shape_error(item)
                if error is not None:
                    return error
    elif isinstance(value, tuple):
        return "a tuple (store a list)"
    elif not isinstance(value, _JSON_SCALARS):
        return f"a {type(value).__name__} value is not JSON"
    return None


def _reject_unstorable(document: Document) -> None:
    """Ensure the document survives the journal's JSON round trip."""
    try:
        error = _json_shape_error(document)
    except RecursionError:
        error = "circular or too deeply nested"
    if error is not None:
        raise StoreError(f"document does not round-trip as JSON: {error}")


def _resolve_parent(
    document: Document, path: str
) -> Tuple[Dict[str, Any], str]:
    """Return (parent dict, leaf key) for a dot path, creating dicts."""
    parts = path.split(".")
    node: Any = document
    for part in parts[:-1]:
        if not isinstance(node, dict):
            raise StoreError(f"cannot descend into non-dict at {part!r}")
        node = node.setdefault(part, {})
    if not isinstance(node, dict):
        raise StoreError(f"cannot address leaf of non-dict at {path!r}")
    return node, parts[-1]


class DocumentStore:
    """An in-memory database of named collections.

    :class:`repro.kdb.shards.ShardedDocumentStore` is the subclass that
    keeps one on disk.
    """

    def __init__(self) -> None:
        self._collections: Dict[str, Collection] = {}
        self._metrics = None

    def bind_metrics(self, metrics) -> None:
        """Attach an ``repro.obs.Metrics`` registry: every collection
        (present and future) meters its query plans and latencies."""
        self._metrics = metrics
        for collection in self._collections.values():
            collection.metrics = metrics

    def _attach_collection(self, collection: Collection) -> None:
        """Subclass hook: called once per newly created collection."""

    def collection(self, name: str) -> Collection:
        """Get or create the named collection."""
        if name not in self._collections:
            collection = Collection(name)
            collection.metrics = self._metrics
            # Register before the hook: subclasses enumerate
            # _collections (e.g. the shard manifest writer).
            self._collections[name] = collection
            self._attach_collection(collection)
        return self._collections[name]

    def __getitem__(self, name: str) -> Collection:
        return self.collection(name)

    def existing(self, name: str) -> Collection:
        """Get a collection that must already exist."""
        try:
            return self._collections[name]
        except KeyError:
            raise CollectionNotFoundError(name) from None

    def collection_names(self) -> List[str]:
        """Names of all collections."""
        return sorted(self._collections)

    def drop_collection(self, name: str) -> None:
        """Remove a collection entirely (no-op if absent)."""
        self._collections.pop(name, None)
