"""Tests for the concurrency & resource-lifecycle rules ADA015–ADA017.

Each rule gets bad fixtures proving it fires — including the seeded
two-class A→B / B→A lock inversion that ADA015 exists to catch, with
the full call chain in the message — and good fixtures proving the
under-approximation stays quiet on correct code (consistent global
order, guarded writes, with/try-finally custody).
"""

import textwrap

import pytest

from repro.lint import lint_source
from repro.lint.rules_concurrency import (
    GuardedStateWrites,
    LockOrderCycles,
    MustReleaseResources,
)

pytestmark = pytest.mark.lint


def run_rule(rule_class, source):
    return lint_source(textwrap.dedent(source), rules=[rule_class])


# ----------------------------------------------------------------------
# ADA015 — the project lock-order graph must be acyclic
# ----------------------------------------------------------------------
def test_ada015_reports_the_seeded_two_class_inversion():
    # The seeded A→B / B→A inversion: A.ping holds A._lock and calls
    # into B (which takes B._lock); B.ping does the mirror image.
    findings = run_rule(
        LockOrderCycles,
        """
        import threading


        class A:
            def __init__(self):
                self._lock = threading.Lock()

            def ping(self, other: "B"):
                with self._lock:
                    other.poke()

            def poke(self):
                with self._lock:
                    return 1


        class B:
            def __init__(self):
                self._lock = threading.Lock()

            def ping(self, other: A):
                with self._lock:
                    other.poke()

            def poke(self):
                with self._lock:
                    return 2
        """,
    )
    assert len(findings) == 1
    assert findings[0].rule_id == "ADA015"
    message = findings[0].message
    assert "lock-order cycle" in message
    assert "A._lock" in message and "B._lock" in message
    # the full call chain is in the message, both directions
    assert "A.ping" in message and "B.ping" in message
    assert "calls B.poke, which acquires" in message
    assert "calls A.poke, which acquires" in message


def test_ada015_cycle_via_nested_acquisitions():
    findings = run_rule(
        LockOrderCycles,
        """
        import threading

        LOCK_A = threading.Lock()
        LOCK_B = threading.Lock()


        def forward():
            with LOCK_A:
                with LOCK_B:
                    return 1


        def backward():
            with LOCK_B:
                with LOCK_A:
                    return 2
        """,
    )
    assert len(findings) == 1
    assert findings[0].rule_id == "ADA015"
    message = findings[0].message
    assert "lock-order cycle" in message
    assert "LOCK_A" in message and "LOCK_B" in message
    assert "deadlock" in message
    # full evidence chain: both acquisition sites are cited
    assert "forward" in message and "backward" in message


def test_ada015_cycle_through_the_call_graph():
    findings = run_rule(
        LockOrderCycles,
        """
        import threading

        LOCK_A = threading.Lock()
        LOCK_B = threading.Lock()


        def take_b():
            with LOCK_B:
                return 1


        def take_a():
            with LOCK_A:
                return 2


        def forward():
            with LOCK_A:
                return take_b()


        def backward():
            with LOCK_B:
                return take_a()
        """,
    )
    assert len(findings) == 1
    message = findings[0].message
    # the call chain is spelled out, not just the token pair
    assert "calls take_b, which acquires" in message
    assert "calls take_a, which acquires" in message


def test_ada015_quiet_on_globally_consistent_order():
    findings = run_rule(
        LockOrderCycles,
        """
        import threading

        LOCK_A = threading.Lock()
        LOCK_B = threading.Lock()


        def one():
            with LOCK_A:
                with LOCK_B:
                    return 1


        def two():
            with LOCK_A:
                with LOCK_B:
                    return 2
        """,
    )
    assert findings == []


def test_ada015_reentrant_self_nesting_is_not_a_cycle():
    findings = run_rule(
        LockOrderCycles,
        """
        import threading


        class Store:
            def __init__(self):
                self._lock = threading.RLock()

            def outer(self):
                with self._lock:
                    return self.inner()

            def inner(self):
                with self._lock:
                    return 1
        """,
    )
    assert findings == []


# ----------------------------------------------------------------------
# ADA016 — guarded attributes must be written under their lock
# ----------------------------------------------------------------------
def test_ada016_flags_unguarded_write_of_guarded_attribute():
    findings = run_rule(
        GuardedStateWrites,
        """
        import threading


        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0

            def bump(self):
                with self._lock:
                    self.count += 1

            def reset(self):
                self.count = 0
        """,
    )
    assert len(findings) == 1
    assert findings[0].rule_id == "ADA016"
    assert "Counter.reset" in findings[0].message
    assert "self.count" in findings[0].message
    assert "_lock" in findings[0].message


def test_ada016_init_writes_are_exempt():
    findings = run_rule(
        GuardedStateWrites,
        """
        import threading


        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0

            def bump(self):
                with self._lock:
                    self.count += 1
        """,
    )
    assert findings == []


def test_ada016_strict_mode_for_thread_spawning_classes():
    findings = run_rule(
        GuardedStateWrites,
        """
        import threading


        class Worker:
            def __init__(self):
                self._lock = threading.Lock()
                self.results = None

            def start(self):
                thread = threading.Thread(target=self._run)
                thread.start()

            def _run(self):
                self.results = [1, 2, 3]
        """,
    )
    assert len(findings) == 1
    assert "thread-spawning class" in findings[0].message
    assert "self.results" in findings[0].message


def test_ada016_entry_held_clears_private_helpers():
    # _store is written without a lexical lock, but the only caller
    # holds it — the entry-context analysis must prove that.
    findings = run_rule(
        GuardedStateWrites,
        """
        import threading


        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self.data = {}

            def put(self, key, value):
                with self._lock:
                    self._store(key, value)

            def _store(self, key, value):
                self.data = dict(self.data, **{key: value})
        """,
    )
    assert findings == []


def test_ada016_public_method_does_not_inherit_entry_context():
    # Same shape but the helper is public: callers outside the project
    # are possible, so the write is still flagged.
    findings = run_rule(
        GuardedStateWrites,
        """
        import threading


        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self.data = {}

            def put(self, key, value):
                with self._lock:
                    self.data = {}
                    self.store(key, value)

            def store(self, key, value):
                self.data = dict(self.data, **{key: value})
        """,
    )
    assert len(findings) == 1
    assert "Cache.store" in findings[0].message


# ----------------------------------------------------------------------
# ADA017 — resources with a release protocol released on all paths
# ----------------------------------------------------------------------
def test_ada017_flags_never_released_shared_memory():
    findings = run_rule(
        MustReleaseResources,
        """
        from multiprocessing import shared_memory

        def attach(name):
            segment = shared_memory.SharedMemory(name=name)
            size = segment.size
            return size
        """,
    )
    assert len(findings) == 1
    assert findings[0].rule_id == "ADA017"
    assert "segment" in findings[0].message
    assert "never released" in findings[0].message
    assert "close" in findings[0].message


def test_ada017_flags_happy_path_only_release():
    findings = run_rule(
        MustReleaseResources,
        """
        from multiprocessing import shared_memory

        def read(name):
            segment = shared_memory.SharedMemory(name=name)
            data = segment.buf[0]
            segment.close()
            return data
        """,
    )
    assert len(findings) == 1
    assert "happy path" in findings[0].message


def test_ada017_flags_temporary_released_via_wrong_method():
    # The blocks.py bug class: unlink() destroys the segment but the
    # caller's own mapping (created by the constructor) leaks.
    findings = run_rule(
        MustReleaseResources,
        """
        from multiprocessing import shared_memory

        def destroy(name):
            shared_memory.SharedMemory(name=name).unlink()
        """,
    )
    assert len(findings) == 1
    assert ".unlink()" in findings[0].message
    assert "does not discharge" in findings[0].message


def test_ada017_quiet_on_with_try_finally_and_custody_transfer():
    findings = run_rule(
        MustReleaseResources,
        """
        from multiprocessing import shared_memory

        def with_block(name):
            with shared_memory.SharedMemory(name=name) as segment:
                return bytes(segment.buf)

        def try_finally(name):
            segment = shared_memory.SharedMemory(name=name)
            try:
                return bytes(segment.buf)
            finally:
                segment.close()

        def handed_over(name, registry):
            segment = shared_memory.SharedMemory(name=name)
            registry.track(segment)

        def returned(name):
            segment = shared_memory.SharedMemory(name=name)
            return segment
        """,
    )
    assert findings == []


def test_ada017_flags_executor_without_shutdown():
    findings = run_rule(
        MustReleaseResources,
        """
        from concurrent.futures import ThreadPoolExecutor

        def fan_out(tasks):
            pool = ThreadPoolExecutor(max_workers=4)
            futures = [pool.submit(task) for task in tasks]
            return len(futures)
        """,
    )
    assert len(findings) == 1
    assert "shutdown" in findings[0].message
