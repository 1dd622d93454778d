"""Tests for the resource-lifecycle rule ADA017.

Bad fixtures prove the rule fires on a resource released never, only
on the happy path or through a method that does not discharge its
protocol; good fixtures prove it stays quiet on with/try-finally
custody and on hand-over to an owner.
"""

import textwrap

import pytest

from repro.lint import lint_source
from repro.lint.rules_concurrency import MustReleaseResources

pytestmark = pytest.mark.lint


def run_rule(rule_class, source):
    return lint_source(textwrap.dedent(source), rules=[rule_class])


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
