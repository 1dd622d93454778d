"""Tests for the execution backends."""

import time

import pytest

from repro.cloud import (
    ProcessPoolExecutorBackend,
    SerialExecutor,
    TaskFailure,
    TaskSpec,
    ThreadPoolExecutorBackend,
    make_executor,
)
from repro.exceptions import ReproError


# Module-level task bodies: process backends pickle tasks, so they must
# be importable (closures and lambdas are not).
def _square(x):
    return x * x


def _add(a, b=0):
    return a + b


def _raise_for_two(x):
    if x == 2:
        raise ValueError("two is out")
    return x


class _UnpicklableError(Exception):
    def __reduce__(self):
        raise TypeError("cannot pickle this exception")


def _raise_unpicklable():
    raise _UnpicklableError("opaque")


def test_serial_preserves_order():
    result = SerialExecutor().run([lambda i=i: i * i for i in range(6)])
    assert result.results == [0, 1, 4, 9, 16, 25]
    assert result.n_failures == 0
    assert result.wall_seconds >= 0


def test_serial_captures_failures():
    def boom():
        raise ValueError("no")

    result = SerialExecutor().run([lambda: 1, boom, lambda: 3])
    assert result.n_failures == 1
    assert isinstance(result.results[1], TaskFailure)
    assert result.successes() == [1, 3]
    assert isinstance(result.results[1].error, ValueError)


def test_threadpool_preserves_order():
    backend = ThreadPoolExecutorBackend(max_workers=4)
    result = backend.run([lambda i=i: i for i in range(20)])
    assert result.results == list(range(20))


def test_threadpool_captures_failures():
    def boom():
        raise RuntimeError("x")

    backend = ThreadPoolExecutorBackend(max_workers=2)
    result = backend.run([boom, lambda: "ok"])
    assert result.n_failures == 1
    assert result.successes() == ["ok"]


def test_threadpool_validation():
    with pytest.raises(ReproError):
        ThreadPoolExecutorBackend(max_workers=0)


def test_make_executor_dispatch():
    assert isinstance(make_executor("serial"), SerialExecutor)
    assert isinstance(
        make_executor("threads", max_workers=2), ThreadPoolExecutorBackend
    )
    assert isinstance(
        make_executor("process", workers=2), ProcessPoolExecutorBackend
    )
    with pytest.raises(ReproError):
        make_executor("quantum")


# ----------------------------------------------------------------------
# TaskSpec and the process backend
# ----------------------------------------------------------------------
def test_taskspec_is_callable():
    assert TaskSpec(_square, (4,))() == 16
    assert TaskSpec(_add, (1,), {"b": 2})() == 3
    assert TaskSpec(_add, (5,))() == 5  # kwargs default to none


def test_taskspec_runs_on_every_backend():
    tasks = [TaskSpec(_square, (i,)) for i in range(5)]
    expected = [0, 1, 4, 9, 16]
    assert SerialExecutor().run(tasks).results == expected
    assert ThreadPoolExecutorBackend(2).run(tasks).results == expected
    assert ProcessPoolExecutorBackend(workers=2).run(tasks).results == (
        expected
    )


def test_process_backend_preserves_order():
    backend = ProcessPoolExecutorBackend(workers=2)
    result = backend.run([TaskSpec(_square, (i,)) for i in range(8)])
    assert result.results == [i * i for i in range(8)]
    assert result.n_failures == 0


def test_process_backend_captures_failures_in_slot():
    backend = ProcessPoolExecutorBackend(workers=2)
    result = backend.run([TaskSpec(_raise_for_two, (i,)) for i in range(4)])
    assert result.n_failures == 1
    assert result.successes() == [0, 1, 3]
    failure = result.results[2]
    assert isinstance(failure, TaskFailure)
    assert isinstance(failure.error, ValueError)


def test_process_backend_chunked_dispatch():
    backend = ProcessPoolExecutorBackend(workers=2, chunk_size=3)
    result = backend.run([TaskSpec(_square, (i,)) for i in range(10)])
    assert result.results == [i * i for i in range(10)]


def test_process_backend_unpicklable_task_fails_cleanly():
    # A lambda cannot cross the process boundary; its slot must become a
    # TaskFailure without poisoning the picklable neighbours.
    backend = ProcessPoolExecutorBackend(workers=1)
    result = backend.run(
        [TaskSpec(_square, (3,)), lambda: 1, TaskSpec(_square, (5,))]
    )
    assert result.results[0] == 9
    assert isinstance(result.results[1], TaskFailure)
    assert result.results[2] == 25


def test_process_backend_downgrades_unpicklable_errors():
    backend = ProcessPoolExecutorBackend(workers=1)
    result = backend.run([TaskSpec(_raise_unpicklable)])
    assert result.n_failures == 1
    assert isinstance(result.results[0], TaskFailure)
    assert isinstance(result.results[0].error, ReproError)
    assert "_UnpicklableError" in str(result.results[0].error)


def test_process_backend_validation():
    with pytest.raises(ReproError):
        ProcessPoolExecutorBackend(workers=0)
    with pytest.raises(ReproError):
        ProcessPoolExecutorBackend(chunk_size=0)


# ----------------------------------------------------------------------
# executor shutdown + per-task telemetry
# ----------------------------------------------------------------------
def _sleep_briefly():
    time.sleep(0.5)
    return 1


def _raise_keyboard_interrupt():
    raise KeyboardInterrupt()


def test_process_backend_interrupt_does_not_orphan_workers():
    """A KeyboardInterrupt mid-run must cancel queued chunks and join
    the pool instead of silently draining every pending task."""
    import multiprocessing

    backend = ProcessPoolExecutorBackend(workers=1)
    tasks = [TaskSpec(_raise_keyboard_interrupt)] + [
        TaskSpec(_sleep_briefly) for _ in range(8)
    ]
    started = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        backend.run(tasks)
    elapsed = time.perf_counter() - started
    # 8 pending half-second chunks on one worker would take ~4s if they
    # were drained; cancellation leaves at most one in flight.
    assert elapsed < 3.0
    deadline = time.time() + 5.0
    while multiprocessing.active_children() and time.time() < deadline:
        time.sleep(0.05)
    assert not multiprocessing.active_children()


def test_serial_reports_task_seconds():
    result = SerialExecutor().run([TaskSpec(_square, (3,))] * 4)
    assert result.task_seconds is not None
    assert len(result.task_seconds) == 4
    assert all(seconds >= 0.0 for seconds in result.task_seconds)


def test_threadpool_reports_task_and_queue_seconds():
    backend = ThreadPoolExecutorBackend(max_workers=2)
    result = backend.run([TaskSpec(_square, (i,)) for i in range(6)])
    assert len(result.task_seconds) == 6
    assert len(result.queue_seconds) == 6
    assert all(seconds >= 0.0 for seconds in result.queue_seconds)


def test_process_backend_reports_worker_timings():
    backend = ProcessPoolExecutorBackend(workers=2, chunk_size=2)
    result = backend.run([TaskSpec(_square, (i,)) for i in range(6)])
    assert [r for r in result.results] == [0, 1, 4, 9, 16, 25]
    assert len(result.task_seconds) == 6
    assert all(seconds is not None for seconds in result.task_seconds)
    # One queue-latency sample per delivered chunk.
    assert len(result.queue_seconds) == 3
    assert all(seconds >= 0.0 for seconds in result.queue_seconds)


def test_executor_metrics_recording():
    from repro.obs import Metrics

    metrics = Metrics()
    SerialExecutor(metrics=metrics).run(
        [TaskSpec(_square, (2,)), TaskSpec(_raise_for_two, (2,))]
    )
    snapshot = metrics.snapshot()
    assert snapshot["histograms"]["executor.task_seconds"]["count"] == 2
    assert snapshot["counters"]["executor.task_failures"] == 1


def test_process_backend_failed_task_has_no_timing():
    backend = ProcessPoolExecutorBackend(workers=2)
    result = backend.run([TaskSpec(_raise_unpicklable)])
    assert isinstance(result.results[0], TaskFailure)
    # The task ran (and raised) in the worker: it still has a duration.
    assert result.task_seconds[0] is not None
