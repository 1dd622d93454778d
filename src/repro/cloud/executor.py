"""Execution backends for configuration sweeps.

"A set of online cloud-based services for automatic configuration of
data analytics will exploit the computational advantages of massively
parallel cloud computing." The reproduction cannot assume a cloud, so
this module abstracts *where* candidate configurations run:

* :class:`SerialExecutor` — in-process, deterministic ordering;
* :class:`ProcessPoolExecutorBackend` — local worker processes, the
  real-parallelism backend for CPU-bound sweeps. Tasks cross a process
  boundary, so they must be picklable: pass :class:`TaskSpec` (a
  module-level function plus arguments) rather than closures.

Both backends evaluate ``tasks`` — zero-argument callables — and return
their results in submission order. A task that raises is reported as a
:class:`TaskFailure` rather than aborting the sweep.

Fault tolerance: both backends accept a ``retry`` policy (the
:class:`repro.cloud.resilience.RetryPolicy` duck type) applied *per
task* — the serial backend retries inline, and the process pool ships
the policy into the worker so retries happen without an extra IPC
round trip. The process backend additionally accepts a
``task_timeout``: a task exceeding its wall-clock budget is failed
with :class:`~repro.exceptions.TaskTimeoutError` while its siblings'
results are kept, and the pool is respawned so a hung worker cannot
wedge the sweep. Retry, timeout and worker-crash events are mirrored
into ``resilience.*`` metrics counters. What to do when the pool
itself keeps failing is the caller's decision: the engine's circuit
breaker moves the goal fan-out to the serial backend.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ReproError, TaskTimeoutError, WorkerCrashError

Task = Callable[[], Any]


@dataclass(frozen=True)
class TaskSpec:
    """A picklable task: a module-level callable plus its arguments.

    Closures cannot cross a process boundary; a spec can, as long as
    ``fn`` is importable (module-level) and the arguments pickle. Specs
    are themselves zero-argument callables, so both backends accept
    them interchangeably with plain thunks.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Optional[Dict[str, Any]] = None

    def __call__(self) -> Any:
        return self.fn(*self.args, **(self.kwargs or {}))


@dataclass
class TaskFailure:
    """Marker result for a task that raised; carries the exception.

    ``attempts`` counts how many times the task ran before the failure
    stood (1 when no retry policy was active); ``history`` holds one
    ``"ExcType: message"`` line per failed attempt.
    """

    error: Exception
    attempts: int = 1
    history: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:  # failures are falsy in result lists
        return False


@dataclass
class SweepResult:
    """Results of an executor run plus timing metadata.

    ``task_seconds`` aligns with ``results``: the wall time each task
    spent executing (measured inside the worker by the process
    backend), or None for a pooled task that never finished.
    ``queue_seconds`` — dispatch→start latency — is only populated by
    the process backend.
    """

    results: List[Any]
    wall_seconds: float
    task_seconds: List[Optional[float]]
    n_failures: int = 0
    queue_seconds: Optional[List[float]] = None

    def successes(self) -> List[Any]:
        """Results of the tasks that did not fail."""
        return [r for r in self.results if not isinstance(r, TaskFailure)]


def _observe(metrics, task_seconds, queue_seconds, failures) -> None:
    """Record one run's telemetry into an obs metrics registry."""
    if metrics is None:
        return
    histogram = metrics.histogram("executor.task_seconds")
    for seconds in task_seconds:
        if seconds is not None:
            histogram.observe(seconds)
    latency = metrics.histogram("executor.queue_seconds")
    for seconds in queue_seconds or []:
        latency.observe(seconds)
    if failures:
        metrics.counter("executor.task_failures").inc(failures)


def payload_bytes(task) -> int:
    """Pickled size of one task — what a process boundary ships.

    The whole point of the shared-memory transport is visible here: a
    :class:`TaskSpec` carrying a raw matrix weighs megabytes, one
    carrying a :class:`repro.data.SharedMatrixHandle` weighs a few
    hundred bytes. Unpicklable tasks report 0 (the pool path will fail
    them as :class:`TaskFailure` anyway).
    """
    try:
        return len(pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # noqa: BLE001 - any pickle error means "won't ship"
        return 0


def _observe_payloads(metrics, tasks) -> None:
    """Record per-task payload sizes into ``cloud.payload_bytes``.

    Only the process backend calls this: in-process backends serialise
    nothing, so a payload histogram there would measure a cost that is
    never paid.
    """
    if metrics is None:
        return
    from repro.obs.metrics import PAYLOAD_BUCKETS

    histogram = metrics.histogram(
        "cloud.payload_bytes", bounds=PAYLOAD_BUCKETS
    )
    for task in tasks:
        histogram.observe(float(payload_bytes(task)))


def _observe_resilience(
    metrics, retries: int = 0, timeouts: int = 0, crashes: int = 0
) -> None:
    """Record retry/timeout/crash events into a metrics registry."""
    if metrics is None:
        return
    if retries:
        metrics.counter("resilience.retries").inc(retries)
    if timeouts:
        metrics.counter("resilience.timeouts").inc(timeouts)
    if crashes:
        metrics.counter("resilience.worker_crashes").inc(crashes)


def _attempt(task: Task, retry, index: int) -> Tuple[Any, int]:
    """Run one task, optionally under a retry policy; never raises.

    ``retry`` is any object with the
    :class:`repro.cloud.resilience.RetryPolicy` duck type — an
    ``execute(task, task_index)`` method returning an outcome with
    ``value``/``error``/``attempts``/``history``. Returns the task's
    value (or a :class:`TaskFailure`) plus the number of retries used.
    """
    if retry is None:
        try:
            return task(), 0
        except Exception as exc:  # noqa: BLE001 - reported, not lost
            return TaskFailure(exc), 0
    outcome = retry.execute(task, index)
    used = outcome.attempts - 1
    if outcome.error is not None:
        return (
            TaskFailure(
                outcome.error,
                attempts=outcome.attempts,
                history=list(outcome.history),
            ),
            used,
        )
    return outcome.value, used


class SerialExecutor:
    """Run tasks one after the other in the calling thread."""

    name = "serial"

    def __init__(self, metrics=None, retry=None) -> None:
        self.metrics = metrics
        self.retry = retry

    def run(self, tasks: Sequence[Task]) -> SweepResult:
        start = time.perf_counter()
        results: List[Any] = []
        task_seconds: List[Optional[float]] = []
        failures = 0
        retries = 0
        for index, task in enumerate(tasks):
            t0 = time.perf_counter()
            value, used = _attempt(task, self.retry, index)
            retries += used
            if isinstance(value, TaskFailure):
                failures += 1
            results.append(value)
            task_seconds.append(time.perf_counter() - t0)
        _observe(self.metrics, task_seconds, None, failures)
        _observe_resilience(self.metrics, retries=retries)
        return SweepResult(
            results=results,
            wall_seconds=time.perf_counter() - start,
            n_failures=failures,
            task_seconds=task_seconds,
        )


def _picklable_error(error: Exception) -> Exception:
    """Return ``error`` if it survives pickling, else a summary of it.

    Worker results travel back through a pipe; an exception holding an
    unpicklable payload would otherwise fail to come back at all.
    """
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:  # noqa: BLE001 - any pickle failure downgrades
        return ReproError(f"{type(error).__name__}: {error!r}")


@dataclass
class TaskReport:
    """A worker's report for one task: its result plus telemetry.

    ``started_at`` is the worker's ``time.time()`` when it began the
    task — same-machine comparable with the parent's submission stamp,
    which is how queue latency crosses the process boundary.
    ``retries`` counts in-worker retry attempts beyond the first, so
    the parent can aggregate them without extra IPC.
    """

    value: Any
    seconds: float
    started_at: float
    retries: int = 0


def _execute_task(task: Task, retry=None, index: int = 0) -> TaskReport:
    """Worker entry point: run one task, capturing its failure.

    ``retry`` applies the retry policy *inside* the worker — backoff
    and re-attempts never pay a process round trip — and ``index``
    keeps the policy's per-task jitter stream aligned with the task's
    position in the sweep.
    """
    started_at = time.time()
    t0 = time.perf_counter()
    value, used = _attempt(task, retry, index)
    if isinstance(value, TaskFailure):
        value = TaskFailure(
            _picklable_error(value.error),
            attempts=value.attempts,
            history=value.history,
        )
    return TaskReport(
        value=value,
        seconds=time.perf_counter() - t0,
        started_at=started_at,
        retries=used,
    )


class ProcessPoolExecutorBackend:
    """Run tasks on local worker processes (true CPU parallelism).

    Parameters
    ----------
    workers:
        Number of worker processes.
    retry:
        Optional per-task retry policy, shipped into the worker (it
        must pickle — :class:`repro.cloud.resilience.RetryPolicy`
        does) so re-attempts happen without extra IPC.
    task_timeout:
        Per-task wall-clock budget, counted from when the parent
        starts waiting on the task, so queueing behind earlier tasks
        does not count against it; retries run inside it. A task over
        budget fails with :class:`~repro.exceptions.TaskTimeoutError`;
        the pool is killed and respawned, and the siblings that had
        not finished re-run to completion.

    Each task is its own dispatch. Tasks should be :class:`TaskSpec`
    instances (or otherwise picklable zero-argument callables). A task
    that fails to pickle — or raises in the worker — is reported as a
    :class:`TaskFailure` in its slot; a worker-process death fails only
    the culprit task (as a :class:`~repro.exceptions.WorkerCrashError`)
    after the pool is respawned and its unfinished siblings re-run; the
    rest of the sweep is unaffected either way.
    """

    name = "process"

    def __init__(
        self,
        workers: int = 4,
        metrics=None,
        retry=None,
        task_timeout: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ReproError("workers must be >= 1")
        if task_timeout is not None and task_timeout <= 0:
            raise ReproError("task_timeout must be > 0")
        self.workers = workers
        self.metrics = metrics
        self.retry = retry
        self.task_timeout = task_timeout

    def run(self, tasks: Sequence[Task]) -> SweepResult:
        start = time.perf_counter()
        tasks = list(tasks)
        _observe_payloads(self.metrics, tasks)
        results: List[Any] = [None] * len(tasks)
        task_seconds: List[Optional[float]] = [None] * len(tasks)
        queue_seconds: List[float] = []
        counts = {
            "dispatch_failures": 0,
            "timeouts": 0,
            "crashes": 0,
            "retries": 0,
        }
        # How often a task may ride a broken pool before it is
        # condemned as the crasher: a broken pool cannot say which task
        # killed the worker, so innocents get re-runs up to the retry
        # budget.
        crash_budget = (
            self.retry.max_attempts - 1 if self.retry is not None else 0
        )
        crash_counts: Dict[int, int] = {}

        def place(report: TaskReport, index: int, dispatched) -> None:
            results[index] = report.value
            task_seconds[index] = report.seconds
            queue_seconds.append(max(0.0, report.started_at - dispatched))
            counts["retries"] += report.retries

        def crash(index: int, exc, requeue) -> None:
            counts["dispatch_failures"] += 1
            crash_counts[index] = crash_counts.get(index, 0) + 1
            if crash_counts[index] <= crash_budget:
                requeue.append(index)
                return
            counts["crashes"] += 1
            results[index] = TaskFailure(
                WorkerCrashError(
                    f"worker process died running task {index}: {exc}"
                ),
                attempts=crash_counts[index],
                history=[f"WorkerCrashError: {exc}"] * crash_counts[index],
            )

        def flunk(index: int, exc) -> None:
            # The future failed without breaking the pool (typically
            # the task did not pickle): fail its slot outright.
            counts["dispatch_failures"] += 1
            results[index] = TaskFailure(_picklable_error(exc))

        def harvest(future, index: int, dispatched, requeue) -> None:
            # Settle an already-finished future while the pool is
            # being condemned — completed siblings are never re-run.
            try:
                report = future.result(timeout=0)
            except BrokenProcessPool:
                # A broken pool fails *every* pending future with the
                # same exception; this task is an innocent bystander of
                # the crash already being handled, so it re-runs next
                # round rather than being blamed.
                requeue.append(index)
            except Exception as exc:  # noqa: BLE001 - settled per task
                flunk(index, exc)
            else:
                place(report, index, dispatched)

        def settle(future, index: int, dispatched, requeue) -> bool:
            # Wait for one future; False means the pool must die.
            try:
                report = future.result(timeout=self.task_timeout)
            except FuturesTimeout:
                future.cancel()
                counts["dispatch_failures"] += 1
                counts["timeouts"] += 1
                results[index] = TaskFailure(
                    TaskTimeoutError(
                        f"task {index} exceeded its "
                        f"{self.task_timeout:g}s wall-clock budget"
                    )
                )
                return False
            except BrokenProcessPool as exc:
                crash(index, exc, requeue)
                return False
            except Exception as exc:  # noqa: BLE001 - settled per task
                flunk(index, exc)
                return True
            place(report, index, dispatched)
            return True

        pending = list(range(len(tasks)))
        # Each round either settles every task or condemns the pool,
        # keeps whatever finished, and respawns the rest — with the
        # culprit resolved, so the loop always shrinks.
        while pending:
            # Not a ``with`` block: on an error (or KeyboardInterrupt)
            # mid-run, ``__exit__`` would wait for every queued task to
            # finish, leaking busy workers. Cancel what never started,
            # then wait only for the in-flight tasks.
            pool = ProcessPoolExecutor(max_workers=self.workers)
            requeue: List[int] = []
            healthy = True
            try:
                futures: List[Any] = []
                submitted: List[float] = []
                for index in pending:
                    try:
                        # _execute_task stamps queue-latency telemetry
                        # with time.time(); the timestamps never feed
                        # results, so the clock read is benign here.
                        futures.append(
                            pool.submit(  # adalint: disable=ADA009
                                _execute_task,
                                tasks[index],
                                self.retry,
                                index,
                            )
                        )
                    except Exception as exc:  # noqa: BLE001 - submit
                        futures.append(None)
                        flunk(index, exc)
                    submitted.append(time.time())
                for future, index, dispatched in zip(
                    futures, pending, submitted
                ):
                    if future is None:
                        continue
                    if not healthy:
                        if future.done():
                            harvest(future, index, dispatched, requeue)
                        else:
                            future.cancel()
                            requeue.append(index)
                        continue
                    healthy = settle(future, index, dispatched, requeue)
            finally:
                if healthy:
                    pool.shutdown(wait=True, cancel_futures=True)
                else:
                    _kill_pool(pool)
            pending = requeue
        failures = sum(
            1 for value in results if isinstance(value, TaskFailure)
        )
        _observe(self.metrics, task_seconds, queue_seconds, failures)
        if self.metrics is not None and counts["dispatch_failures"]:
            self.metrics.counter("executor.dispatch_failures").inc(
                counts["dispatch_failures"]
            )
        _observe_resilience(
            self.metrics,
            retries=counts["retries"],
            timeouts=counts["timeouts"],
            crashes=counts["crashes"],
        )
        return SweepResult(
            results=results,
            wall_seconds=time.perf_counter() - start,
            n_failures=failures,
            task_seconds=task_seconds,
            queue_seconds=queue_seconds,
        )


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear down a pool that holds hung or dead workers.

    ``shutdown(wait=False)`` alone would leave a hung worker running
    (and the interpreter joining its queue threads at exit), so the
    worker processes are terminated explicitly. They are listed before
    ``shutdown``, which drops the pool's own reference to them.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        if process.is_alive():
            process.terminate()

