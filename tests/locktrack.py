"""Opt-in runtime lock-order tracking: the dynamic half of ADA015.

The static analyser (``repro.lint.rules_concurrency``) infers a
project-wide lock-order graph from the source. This module records the
orders that *actually happen* at runtime so a chaos test can assert
consistency between the two: every edge observed live must exist in
the static graph (a runtime-only edge means the analyser has a blind
spot — or the code grew a path the lint gate somehow missed).

Usage is deliberately surgical — wrap the locks you care about, keyed
by the same canonical tokens the static graph uses::

    tracker = LockOrderTracker()
    store._slock = TrackedLock(
        "repro.kdb.shards:ShardedDocumentStore._slock",
        tracker,
        store._slock,
    )
    ...
    assert tracker.edges() <= static_edges

Nothing in the engine imports this module; it is a test helper.
Reentrant re-acquisitions of a lock
already held by the same thread are not recorded as edges (an RLock
nesting on itself carries no ordering), matching the static model.
"""

from __future__ import annotations

import threading
from typing import FrozenSet, List, Optional, Set, Tuple


class LockOrderTracker:
    """Records held-before pairs across all :class:`TrackedLock` users.

    Thread-safe: each thread keeps its own held-stack in thread-local
    storage; the edge set is guarded by the tracker's own internal
    lock. The internal lock is only ever taken with tracked locks
    already held (never the reverse), so the tracker cannot introduce
    an inversion of its own.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._edges_lock = threading.Lock()
        self._edges: Set[Tuple[str, str]] = set()
        self._trace: List[Tuple[str, str]] = []

    # -- called by TrackedLock -----------------------------------------
    def _held_stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def note_acquired(self, token: str) -> None:
        stack = self._held_stack()
        if token in stack:
            stack.append(token)  # reentrant: keep depth, no edges
            return
        new_edges = [
            (held, token) for held in dict.fromkeys(stack)
        ]
        stack.append(token)
        if new_edges:
            with self._edges_lock:
                for edge in new_edges:
                    if edge not in self._edges:
                        self._edges.add(edge)
                        self._trace.append(edge)

    def note_released(self, token: str) -> None:
        stack = self._held_stack()
        # Release the innermost occurrence: correct for the RLock
        # discipline `with` enforces, tolerant of hand-called release.
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == token:
                del stack[index]
                return

    # -- inspection ----------------------------------------------------
    def edges(self) -> FrozenSet[Tuple[str, str]]:
        """Every distinct (held, acquired) pair observed so far."""
        with self._edges_lock:
            return frozenset(self._edges)

    def trace(self) -> List[Tuple[str, str]]:
        """Edges in first-observation order (for failure messages)."""
        with self._edges_lock:
            return list(self._trace)

    def held_now(self) -> Tuple[str, ...]:
        """Tokens the calling thread holds, outermost first."""
        return tuple(self._held_stack())


class TrackedLock:
    """A lock wrapper that reports acquisition order to a tracker.

    Wraps any lock-like object (``threading.Lock``/``RLock`` or
    compatible); a fresh ``RLock`` is created when none is given. The
    wrapper is intentionally *not* pickled into workers — tracking is
    per-process by design.
    """

    def __init__(
        self,
        token: str,
        tracker: LockOrderTracker,
        lock: Optional[object] = None,
    ) -> None:
        self.token = token
        self.tracker = tracker
        self._lock = lock if lock is not None else threading.RLock()

    def acquire(self, blocking: bool = True, timeout: float = -1):
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            self.tracker.note_acquired(self.token)
        return acquired

    def release(self) -> None:
        self._lock.release()
        self.tracker.note_released(self.token)

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


def track_store_locks(
    store, tracker: Optional[LockOrderTracker] = None
) -> LockOrderTracker:
    """Instrument a :class:`ShardedDocumentStore` and its collections.

    Replaces the store-wide shard lock and every *currently attached*
    collection lock with :class:`TrackedLock` wrappers, keyed by the
    canonical tokens the static lock-order graph uses. Collections
    created after this call are not tracked — instrument last, or call
    again. Returns the tracker (a fresh one unless supplied).
    """
    tracker = tracker or LockOrderTracker()
    store._slock = TrackedLock(
        "repro.kdb.shards:ShardedDocumentStore._slock",
        tracker,
        store._slock,
    )
    for collection in store._collections.values():
        collection._lock = TrackedLock(
            "repro.kdb.documentstore:Collection._lock",
            tracker,
            collection._lock,
        )
    return tracker
