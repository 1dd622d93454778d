"""Embedded document store with a MongoDB-like API.

The paper stores the ADA-HEALTH Knowledge Base "on a cluster of
MongoDBs". This module is the reproduction's substitute substrate: an
embedded, dependency-free document database exposing the subset of the
MongoDB surface the K-DB needs —

* collections of JSON-like documents with automatic ``_id`` assignment,
* rich query documents (``$eq $ne $gt $gte $lt $lte $in $nin $and $or
  $nor $not $exists $regex $size $all $elemMatch`` plus implicit equality
  and dot-path addressing with MongoDB array-traversal semantics),
* update operators (``$set $unset $inc $push $pull $addToSet``),
* secondary indexes — equality ``hash`` indexes (optionally unique) and
  ``sorted`` indexes that additionally serve ``$gt/$gte/$lt/$lte`` range
  predicates and index-ordered ``sort().limit()`` — routed through the
  query planner in :mod:`repro.kdb.planner` (``explain()`` exposes the
  chosen access plan; ``kdb.plans.*`` counters and a ``kdb.query.latency``
  histogram land in an attached :class:`repro.obs.Metrics` registry).

A :class:`DocumentStore` lives in memory; its one on-disk form is the
checksummed, hash-sharded directory of :mod:`repro.kdb.shards`.

Documents are stored *by value* and are **immutable once stored**:
inserts deep-copy, finds deep-copy lazily at cursor resolution, and
updates build a fresh document and swap it in atomically — a failing
update operator leaves the stored document (and every index) untouched.

NaN float values are outside the store contract (they are not valid
strict JSON and break ordering); behaviour with NaN is undefined.
"""

from __future__ import annotations

import bisect
import json
import math
import pickle
import re
import threading
import time
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
    Union,
)

from repro.exceptions import (
    CollectionNotFoundError,
    DuplicateKeyError,
    QueryError,
    StoreError,
)
from repro.kdb.planner import QueryPlan, plan_query

Document = Dict[str, Any]
Query = Dict[str, Any]

_COMPARISONS: Dict[str, Callable[[Any, Any], bool]] = {
    "$eq": lambda value, operand: _values_equal(value, operand),
    "$ne": lambda value, operand: not _values_equal(value, operand),
    "$gt": lambda value, operand: _ordered(value, operand) and value > operand,
    "$gte": lambda value, operand: _ordered(value, operand)
    and value >= operand,
    "$lt": lambda value, operand: _ordered(value, operand) and value < operand,
    "$lte": lambda value, operand: _ordered(value, operand)
    and value <= operand,
}

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


def _ordered(value: Any, operand: Any) -> bool:
    """True when the two values are comparable with ``<``/``>``."""
    if value is None or operand is None:
        return False
    if isinstance(value, bool) or isinstance(operand, bool):
        return False
    number = (int, float)
    if isinstance(value, number) and isinstance(operand, number):
        return True
    return type(value) is type(operand) and isinstance(value, str)


def _walk_path(document: Any, path: Sequence[str]) -> List[Any]:
    """Resolve a dot path, fanning out over arrays like MongoDB.

    Returns the list of values reachable at the path ( possibly empty).
    A list encountered mid-path is traversed element-wise; a list at the
    end of the path is returned whole *and* its elements are candidates
    for comparison (handled by the matcher).
    """
    if not path:
        return [document]
    head, *rest = path
    results: List[Any] = []
    if isinstance(document, dict):
        if head in document:
            results.extend(_walk_path(document[head], rest))
    elif isinstance(document, list):
        if head.isdigit():
            index = int(head)
            if 0 <= index < len(document):
                results.extend(_walk_path(document[index], rest))
        for element in document:
            if isinstance(element, (dict, list)):
                results.extend(_walk_path(element, [head] + rest))
    return results


class _Matcher:
    """Compiles a query document into a predicate over documents.

    ``$regex`` patterns are compiled once per matcher (i.e. once per
    query) and cached; a malformed pattern surfaces as
    :class:`QueryError` instead of a raw :class:`re.error`.
    """

    def __init__(self, query: Query) -> None:
        if not isinstance(query, dict):
            raise QueryError("query must be a dict")
        self._query = query
        self._regex_cache: Dict[str, "re.Pattern[str]"] = {}

    def __call__(self, document: Document) -> bool:
        return self._match_query(self._query, document)

    # -- query-level -----------------------------------------------------
    def _match_query(self, query: Query, document: Document) -> bool:
        for key, condition in query.items():
            if key == "$and":
                self._require_clause_list(key, condition)
                if not all(
                    self._match_query(clause, document)
                    for clause in condition
                ):
                    return False
            elif key == "$or":
                self._require_clause_list(key, condition)
                if not any(
                    self._match_query(clause, document)
                    for clause in condition
                ):
                    return False
            elif key == "$nor":
                self._require_clause_list(key, condition)
                if any(
                    self._match_query(clause, document)
                    for clause in condition
                ):
                    return False
            elif key.startswith("$"):
                raise QueryError(f"unknown top-level operator: {key}")
            else:
                if not self._match_field(key, condition, document):
                    return False
        return True

    @staticmethod
    def _require_clause_list(operator: str, condition: Any) -> None:
        if not isinstance(condition, list) or not condition:
            raise QueryError(f"{operator} requires a non-empty list")

    # -- field-level -----------------------------------------------------
    def _match_field(
        self, path: str, condition: Any, document: Document
    ) -> bool:
        values = _walk_path(document, path.split("."))
        if isinstance(condition, dict) and any(
            key.startswith("$") for key in condition
        ):
            return self._match_operators(path, condition, values)
        # Implicit equality: match the value itself or any array element.
        return self._equality_any(values, condition)

    @staticmethod
    def _equality_any(values: List[Any], operand: Any) -> bool:
        for value in values:
            if _values_equal(value, operand):
                return True
            if isinstance(value, list) and any(
                _values_equal(element, operand) for element in value
            ):
                return True
        return False

    def _match_operators(
        self, path: str, condition: Dict[str, Any], values: List[Any]
    ) -> bool:
        candidates = list(values)
        for value in values:
            if isinstance(value, list):
                candidates.extend(value)
        for operator, operand in condition.items():
            if not self._apply_operator(
                path, operator, operand, values, candidates
            ):
                return False
        return True

    def _compiled_regex(self, operand: Any) -> "re.Pattern[str]":
        if isinstance(operand, re.Pattern):
            return operand
        if not isinstance(operand, str):
            raise QueryError("$regex requires a string pattern")
        pattern = self._regex_cache.get(operand)
        if pattern is None:
            try:
                pattern = re.compile(operand)
            except re.error as exc:
                raise QueryError(
                    f"invalid $regex pattern {operand!r}: {exc}"
                ) from exc
            self._regex_cache[operand] = pattern
        return pattern

    def _apply_operator(
        self,
        path: str,
        operator: str,
        operand: Any,
        values: List[Any],
        candidates: List[Any],
    ) -> bool:
        if operator in _COMPARISONS:
            compare = _COMPARISONS[operator]
            if operator == "$ne":
                return all(compare(value, operand) for value in candidates)
            return any(compare(value, operand) for value in candidates)
        if operator == "$in":
            if not isinstance(operand, list):
                raise QueryError("$in requires a list")
            return any(
                self._equality_any(values, wanted) for wanted in operand
            )
        if operator == "$nin":
            if not isinstance(operand, list):
                raise QueryError("$nin requires a list")
            return not any(
                self._equality_any(values, unwanted) for unwanted in operand
            )
        if operator == "$exists":
            return bool(values) == bool(operand)
        if operator == "$not":
            if not isinstance(operand, dict):
                raise QueryError("$not requires an operator document")
            return not self._match_operators(path, operand, values)
        if operator == "$regex":
            pattern = self._compiled_regex(operand)
            return any(
                isinstance(value, str) and pattern.search(value)
                for value in candidates
            )
        if operator == "$size":
            return any(
                isinstance(value, list) and len(value) == operand
                for value in values
            )
        if operator == "$all":
            if not isinstance(operand, list):
                raise QueryError("$all requires a list")
            return all(
                self._equality_any(values, wanted) for wanted in operand
            )
        if operator == "$elemMatch":
            if not isinstance(operand, dict):
                raise QueryError("$elemMatch requires a query document")
            inner = _Matcher(operand)
            for value in values:
                if isinstance(value, list) and any(
                    isinstance(element, dict) and inner(element)
                    for element in value
                ):
                    return True
            return False
        raise QueryError(f"unknown operator: {operator}")


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


class _SortedIndex(_HashIndex):
    """Hash index plus a lazily rebuilt ordered view of its keys.

    Additionally serves ``$gt/$gte/$lt/$lte`` range predicates and
    index-ordered iteration for ``sort().limit()``. The ordered view is
    marked stale on bucket creation/removal and rebuilt in O(k log k)
    on the next ordered operation — appends stay O(1), so bulk loads do
    not pay per-insert re-sorting.
    """

    kind = "sorted"

    def __init__(self, name: str, path: str, unique: bool = False) -> None:
        super().__init__(name, path, unique)
        # typed key -> representative value (all values in a bucket are
        # == equal, so any one of them orders the bucket)
        self._rep: Dict[Tuple[str, Any], Any] = {}
        # type name -> (sorted _OrderedValue list, parallel typed keys)
        self._groups: Dict[
            str, Tuple[List[_OrderedValue], List[Tuple[str, Any]]]
        ] = {}
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
        grouped: Dict[str, List[Tuple[_OrderedValue, Tuple[str, Any]]]] = {}
        for key, value in self._rep.items():
            grouped.setdefault(type(value).__name__, []).append(
                (_OrderedValue(value), key)
            )
        self._groups = {}
        for typename, entries in grouped.items():
            entries.sort(key=lambda pair: pair[0])
            self._groups[typename] = (
                [ov for ov, __ in entries],
                [key for __, key in entries],
            )
        self._stale = False

    def range_ids(
        self,
        lower: Optional[Tuple[Any, bool]],
        upper: Optional[Tuple[Any, bool]],
    ) -> set:
        """Candidate ids for a range predicate (superset; the matcher
        re-filters). Bounds are ``(operand, inclusive)`` or None."""
        self._ensure_sorted()
        operand = (lower or upper)[0]  # type: ignore[index]
        typenames = (
            ("str",) if isinstance(operand, str) else ("float", "int")
        )
        ids: set = set()
        for typename in typenames:
            group = self._groups.get(typename)
            if not group:
                continue
            ovs, keys = group
            lo, hi = 0, len(ovs)
            if lower is not None:
                wrapped = _OrderedValue(lower[0])
                lo = (
                    bisect.bisect_left(ovs, wrapped)
                    if lower[1]
                    else bisect.bisect_right(ovs, wrapped)
                )
            if upper is not None:
                wrapped = _OrderedValue(upper[0])
                hi = (
                    bisect.bisect_right(ovs, wrapped)
                    if upper[1]
                    else bisect.bisect_left(ovs, wrapped)
                )
            for key in keys[lo:hi]:
                bucket = self._buckets.get(key)
                if bucket:
                    ids |= bucket
        return ids

    def ordered_ids(
        self, seq: Dict[Any, int], reverse: bool = False
    ) -> Iterator[Any]:
        """Document ids in the store's canonical sort order for this
        path, excluding the None group (the cursor handles missing and
        null values itself). Bucket ties follow insertion order (``seq``)
        so the result matches a stable scan sort exactly."""
        self._ensure_sorted()
        typenames = sorted(
            name for name in self._groups if name != "NoneType"
        )
        if reverse:
            typenames = typenames[::-1]
        for typename in typenames:
            __, keys = self._groups[typename]
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
    """Lazy result set supporting ``sort``/``skip``/``limit`` chaining.

    Stored documents are immutable, so the cursor holds references and
    deep-copies **lazily at resolution, after slicing** — a ``limit(5)``
    over a million matches copies five documents, not a million. The
    resolved view is memoised; chaining invalidates the memo.

    When the owning collection has a ``sorted`` index on a single-path
    sort key, resolution walks the index in order instead of sorting,
    stopping early once ``skip + limit`` documents are produced.
    """

    def __init__(
        self,
        documents: List[Document],
        plan: Optional[QueryPlan] = None,
        index_order: Optional[Callable[..., Optional[Iterator[Any]]]] = None,
    ) -> None:
        self._documents = documents
        #: The access plan that produced this cursor (None when the
        #: cursor was built from a detached document list).
        self.plan = plan
        self._index_order = index_order
        self._sort_spec: List[Tuple[str, int]] = []
        self._skip = 0
        self._limit: Optional[int] = None
        self._cache: Optional[List[Document]] = None

    def sort(self, key: Union[str, List[Tuple[str, int]]], direction: int = 1):
        """Sort by a dot-path (or list of ``(path, direction)`` pairs)."""
        if isinstance(key, str):
            self._sort_spec = [(key, direction)]
        else:
            self._sort_spec = list(key)
        self._cache = None
        return self

    def skip(self, count: int) -> "Cursor":
        """Skip the first ``count`` results."""
        if count < 0:
            raise QueryError("skip must be non-negative")
        self._skip = count
        self._cache = None
        return self

    def limit(self, count: int) -> "Cursor":
        """Return at most ``count`` results."""
        if count < 0:
            raise QueryError("limit must be non-negative")
        self._limit = count
        self._cache = None
        return self

    def _resolved(self) -> List[Document]:
        if self._cache is not None:
            return self._cache
        documents = self._documents
        if self._sort_spec:
            documents = self._sorted_documents(documents)
        end = None if self._limit is None else self._skip + self._limit
        self._cache = [
            _copy_document(document)
            for document in documents[self._skip : end]
        ]
        return self._cache

    def _sorted_documents(
        self, documents: List[Document]
    ) -> List[Document]:
        if self._index_order is not None and len(self._sort_spec) == 1:
            path, direction = self._sort_spec[0]
            ordered_ids = self._index_order(path, direction < 0)
            if ordered_ids is not None:
                return self._index_sorted(
                    documents, path, ordered_ids, direction < 0
                )
        for path, direction in reversed(self._sort_spec):

            def sort_key(document: Document, path=path) -> Tuple:
                return _sort_key(document, path)

            documents = sorted(
                documents, key=sort_key, reverse=(direction < 0)
            )
        return documents

    def _index_sorted(
        self,
        documents: List[Document],
        path: str,
        ordered_ids: Iterator[Any],
        reverse: bool,
    ) -> List[Document]:
        parts = path.split(".")
        by_id: Dict[Any, Document] = {}
        nulls: List[Document] = []
        for document in documents:
            values = _walk_path(document, parts)
            if not values or values[0] is None:
                nulls.append(document)
            else:
                by_id[document["_id"]] = document
        target = (
            None if self._limit is None else self._skip + self._limit
        )
        ordered: List[Document] = []

        def fill_from_index() -> None:
            for doc_id in ordered_ids:
                document = by_id.get(doc_id)
                if document is None:
                    continue
                ordered.append(document)
                if target is not None and len(ordered) >= target:
                    return

        if reverse:
            fill_from_index()
            if target is None or len(ordered) < target:
                ordered.extend(nulls)
        else:
            ordered.extend(nulls)
            if target is None or len(ordered) < target:
                fill_from_index()
        return ordered

    def __iter__(self) -> Iterator[Document]:
        return iter(self._resolved())

    def __len__(self) -> int:
        return len(self._resolved())

    def to_list(self) -> List[Document]:
        """Materialise the cursor into a list."""
        return list(self._resolved())


class Collection:
    """A named collection of documents inside a :class:`DocumentStore`.

    Mutations are serialised by a per-collection re-entrant lock and are
    atomic per document: a failing update operator, serialisation check
    or unique-index violation leaves the stored document and every index
    exactly as they were.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._documents: Dict[Any, Document] = {}
        self._next_id = 1
        self._indexes: Dict[str, _HashIndex] = {}
        # insertion sequence per _id: deterministic candidate ordering
        # (planner output and index-sort ties match scan order exactly)
        self._seq: Dict[Any, int] = {}
        self._seq_counter = 0
        self._version = 0
        self._lock = threading.RLock()
        #: Mutation hook for the shard layer (op, payload); not pickled.
        self._journal: Optional[Callable[[str, Any], None]] = None
        #: Pre-mutation veto hook (raises to refuse the write *before*
        #: it is applied in memory — e.g. the sharded store's ENOSPC
        #: write-protection); not pickled.
        self._write_guard: Optional[Callable[[], None]] = None
        #: Optional ``repro.obs.Metrics`` registry for query telemetry.
        self.metrics = None
        #: The plan of the most recent planned read (tests/diagnostics).
        self.last_plan: Optional[QueryPlan] = None

    # -- pickling (locks rebuilt; journal hooks do not survive) ----------
    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_lock", None)
        state.pop("_journal", None)
        state.pop("_write_guard", None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()
        self._journal = None
        self._write_guard = None

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
        with self._lock:
            self._require_writable()
            if "_id" not in document:
                while self._next_id in self._documents:
                    self._next_id += 1
                document["_id"] = self._next_id
                self._next_id += 1
            doc_id = document["_id"]
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
        with self._lock:
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
    def _matched(
        self, query: Optional[Query], first: bool = False
    ) -> Tuple[List[Document], QueryPlan]:
        """Planner-routed matching: returns (stored references in
        insertion order, plan); with ``first``, only the first match."""
        query = {} if query is None else query
        matcher = _Matcher(query)
        start = time.perf_counter()
        candidates, plan = plan_query(self, query)
        matched = []
        for document in candidates:
            if matcher(document):
                matched.append(document)
                if first:
                    break
        plan.returned = len(matched)
        plan.elapsed_s = time.perf_counter() - start
        self._record_plan(plan)
        return matched, plan

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
        """The index covering ``path``, if any (planner hook)."""
        for index in self._indexes.values():
            if index.path == path:
                return index
        return None

    def _index_order(
        self, path: str, reverse: bool, version: Optional[int] = None
    ) -> Optional[Iterator[Any]]:
        """Index-ordered id iterator for ``path``, or None when no
        sorted scalar index covers it (or the collection changed since
        ``version`` — a stale cursor then falls back to a full sort)."""
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

        The access path is chosen by :func:`repro.kdb.planner.plan_query`
        (``cursor.plan`` carries the EXPLAIN-style record); documents are
        deep-copied lazily when the cursor resolves.
        """
        matched, plan = self._matched(query)
        found_version = self._version

        def index_order(path: str, reverse: bool):
            return self._index_order(path, reverse, version=found_version)

        return Cursor(matched, plan=plan, index_order=index_order)

    def explain(self, query: Optional[Query] = None) -> QueryPlan:
        """The access plan for ``query``, without executing it."""
        __, plan = plan_query(self, query or {})
        return plan

    def find_one(self, query: Optional[Query] = None) -> Optional[Document]:
        """Return one matching document, or None."""
        for document in self.find(query).limit(1):
            return document
        return None

    def count_documents(self, query: Optional[Query] = None) -> int:
        """Number of documents matching ``query``."""
        matched, __ = self._matched(query)
        return len(matched)

    def distinct(self, path: str, query: Optional[Query] = None) -> List[Any]:
        """Distinct values reachable at ``path`` among matching documents.

        Distinctness follows the store's equality (:func:`_values_equal`):
        ``True`` and ``1`` are different values, ``1`` and ``1.0`` are
        the same.
        """
        matched, __ = self._matched(query)
        parts = path.split(".")
        seen: set = set()
        out: List[Any] = []
        for document in matched:
            for value in _walk_path(document, parts):
                targets = value if isinstance(value, list) else [value]
                for target in targets:
                    key = (isinstance(target, bool), _index_key(target))
                    if key not in seen:
                        seen.add(key)
                        out.append(_copy_document(target))
        return out

    # -- update ------------------------------------------------------------
    def update_one(self, query: Query, update: Document) -> int:
        """Apply an update document to the first match; returns 0 or 1."""
        return self._update(query, update, many=False)

    def update_many(self, query: Query, update: Document) -> int:
        """Apply an update document to all matches; returns match count."""
        return self._update(query, update, many=True)

    def _update(self, query: Query, update: Document, many: bool) -> int:
        if not update or not all(k.startswith("$") for k in update):
            raise StoreError(
                "update documents must use operators ($set, $inc, ...)"
            )
        _reject_unstorable(update)
        updated = 0
        with self._lock:
            self._require_writable()
            matched, __ = self._matched(query, first=not many)
            for document in matched:
                doc_id = document["_id"]
                # Copy-on-write: build the replacement fully, validate
                # it, then swap — a failure at any point leaves the
                # stored document and the indexes untouched.
                replacement = _copy_document(document)
                _apply_update(replacement, update)
                _reject_unstorable(replacement)
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
                updated += 1
        return updated

    # -- delete ------------------------------------------------------------
    def delete_one(self, query: Query) -> int:
        """Delete the first matching document; returns 0 or 1."""
        return self._delete(query, many=False)

    def delete_many(self, query: Optional[Query] = None) -> int:
        """Delete all matching documents; returns the count deleted."""
        return self._delete(query or {}, many=True)

    def _delete(self, query: Query, many: bool) -> int:
        with self._lock:
            self._require_writable()
            victims, __ = self._matched(query, first=not many)
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
        serves range predicates and index-ordered ``sort().limit()``.
        Re-creating an existing index is a no-op, except that asking for
        ``"sorted"`` where a hash index exists upgrades it in place.
        """
        if kind not in _INDEX_KINDS:
            raise StoreError(f"unknown index kind: {kind!r}")
        name = f"{path}_1"
        with self._lock:
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

    def drop_index(self, name: str) -> None:
        """Drop an index by name."""
        with self._lock:
            self._require_writable()
            if self._indexes.pop(name, None) is not None:
                self._notify("index")

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
        """Run a Mongo-style aggregation pipeline.

        Supported stages: ``$match`` (query document), ``$group`` (by a
        ``_id`` expression with ``$sum/$avg/$min/$max/$count/$push``
        accumulators; field references use the ``"$path"`` syntax),
        ``$sort`` (``{path: 1|-1}``), ``$limit``, ``$skip`` and
        ``$project`` (1-valued field inclusion).

        A leading ``$match`` is pushed through the query planner, and
        only the rows that survive the whole pipeline are deep-copied —
        the collection is never copied wholesale up front.
        """
        rows: Optional[List[Document]] = None
        for stage in pipeline:
            if not isinstance(stage, dict) or len(stage) != 1:
                raise QueryError("each stage must be a single-key dict")
            operator, spec = next(iter(stage.items()))
            if rows is None and operator == "$match":
                rows, __ = self._matched(spec)
                continue
            if rows is None:
                rows = list(self._documents.values())
            if operator == "$match":
                matcher = _Matcher(spec)
                rows = [row for row in rows if matcher(row)]
            elif operator == "$group":
                rows = _group(rows, spec)
            elif operator == "$sort":
                for path, direction in reversed(list(spec.items())):
                    rows.sort(
                        key=lambda row, p=path: _sort_key(row, p),
                        reverse=direction < 0,
                    )
            elif operator == "$limit":
                rows = rows[: int(spec)]
            elif operator == "$skip":
                rows = rows[int(spec):]
            elif operator == "$project":
                rows = [_project(row, spec) for row in rows]
            else:
                raise QueryError(f"unknown pipeline stage: {operator}")
        if rows is None:
            rows = list(self._documents.values())
        return _copy_document(rows)

    # -- misc ----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._documents)

    def drop(self) -> None:
        """Remove every document (indexes survive, emptied)."""
        with self._lock:
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


def _project(document: Document, spec: Document) -> Document:
    projected: Document = {}
    for path, include in spec.items():
        if not include:
            continue
        values = _walk_path(document, path.split("."))
        if values:
            projected[path] = _copy_document(values[0])
    return projected


_ACCUMULATORS = ("$sum", "$avg", "$min", "$max", "$count", "$push")


def _group(rows: List[Document], spec: Document) -> List[Document]:
    if "_id" not in spec:
        raise QueryError("$group requires an _id expression")
    buckets: Dict[Any, List[Document]] = {}
    bucket_keys: Dict[Any, Any] = {}
    for row in rows:
        key_value = _resolve_expression(row, spec["_id"])
        key = _index_key(key_value)
        buckets.setdefault(key, []).append(row)
        bucket_keys[key] = key_value

    results: List[Document] = []
    for key in sorted(buckets, key=lambda k: (str(type(k)), str(k))):
        members = buckets[key]
        out: Document = {"_id": bucket_keys[key]}
        for field_name, accumulator in spec.items():
            if field_name == "_id":
                continue
            if (
                not isinstance(accumulator, dict)
                or len(accumulator) != 1
            ):
                raise QueryError(
                    f"accumulator for {field_name!r} must be a"
                    f" single-operator dict"
                )
            operator, operand = next(iter(accumulator.items()))
            if operator not in _ACCUMULATORS:
                raise QueryError(f"unknown accumulator: {operator}")
            if operator == "$count":
                out[field_name] = len(members)
                continue
            values = [
                _resolve_expression(member, operand)
                for member in members
            ]
            if operator == "$push":
                out[field_name] = values
                continue
            numbers = [
                value
                for value in values
                if isinstance(value, (int, float))
                and not isinstance(value, bool)
            ]
            if operator == "$sum":
                out[field_name] = sum(numbers)
            elif operator == "$avg":
                out[field_name] = (
                    sum(numbers) / len(numbers) if numbers else None
                )
            elif operator == "$min":
                out[field_name] = min(numbers) if numbers else None
            elif operator == "$max":
                out[field_name] = max(numbers) if numbers else None
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


def _reject_unstorable(document: Document) -> None:
    """Ensure the document is JSON-serialisable (store contract)."""
    try:
        json.dumps(document)
    except (TypeError, ValueError) as exc:
        raise StoreError(f"document is not JSON-serialisable: {exc}") from exc


def _apply_update(document: Document, update: Document) -> None:
    for operator, fields in update.items():
        if not isinstance(fields, dict):
            raise StoreError(f"{operator} requires a field document")
        for path, operand in fields.items():
            if operator in ("$unset", "$pull"):
                # Removal operators never materialise missing paths:
                # a miss anywhere along the dot path is a no-op.
                resolved = _resolve_existing(document, path)
                if resolved is None:
                    continue
                parent, leaf = resolved
                if operator == "$unset":
                    parent.pop(leaf, None)
                else:
                    bucket = parent.get(leaf)
                    if isinstance(bucket, list):
                        parent[leaf] = [
                            element
                            for element in bucket
                            if not _values_equal(element, operand)
                        ]
                continue
            parent, leaf = _resolve_parent(document, path, create=True)
            if operator == "$set":
                parent[leaf] = _copy_document(operand)
            elif operator == "$inc":
                current = parent.get(leaf, 0)
                if not isinstance(current, (int, float)) or isinstance(
                    current, bool
                ):
                    raise StoreError(f"$inc target {path!r} is not numeric")
                parent[leaf] = current + operand
            elif operator == "$push":
                bucket = parent.setdefault(leaf, [])
                if not isinstance(bucket, list):
                    raise StoreError(f"$push target {path!r} is not a list")
                bucket.append(_copy_document(operand))
            elif operator == "$addToSet":
                bucket = parent.setdefault(leaf, [])
                if not isinstance(bucket, list):
                    raise StoreError(
                        f"$addToSet target {path!r} is not a list"
                    )
                if operand not in bucket:
                    bucket.append(_copy_document(operand))
            else:
                raise StoreError(f"unknown update operator: {operator}")


def _resolve_parent(
    document: Document, path: str, create: bool
) -> Tuple[Dict[str, Any], str]:
    """Return (parent dict, leaf key) for a dot path, creating dicts."""
    parts = path.split(".")
    node: Any = document
    for part in parts[:-1]:
        if isinstance(node, dict):
            if part not in node:
                if not create:
                    raise StoreError(f"path does not exist: {path!r}")
                node[part] = {}
            node = node[part]
        else:
            raise StoreError(f"cannot descend into non-dict at {part!r}")
    if not isinstance(node, dict):
        raise StoreError(f"cannot address leaf of non-dict at {path!r}")
    return node, parts[-1]


def _resolve_existing(
    document: Document, path: str
) -> Optional[Tuple[Dict[str, Any], str]]:
    """Like :func:`_resolve_parent` but never creates or raises: returns
    None when any segment of the path is missing or not a dict."""
    parts = path.split(".")
    node: Any = document
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if not isinstance(node, dict):
        return None
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
