"""Execution backends for configuration sweeps.

"A set of online cloud-based services for automatic configuration of
data analytics will exploit the computational advantages of massively
parallel cloud computing." The reproduction cannot assume a cloud, so
this module abstracts *where* candidate configurations run:

* :class:`SerialExecutor` — in-process, deterministic ordering;
* :class:`ThreadPoolExecutorBackend` — local threads (effective because
  the heavy kernels release the GIL inside numpy);
* :class:`ProcessPoolExecutorBackend` — local worker processes, the
  real-parallelism backend for CPU-bound sweeps. Tasks cross a process
  boundary, so they must be picklable: pass :class:`TaskSpec` (a
  module-level function plus arguments) rather than closures.

All backends evaluate ``tasks`` — zero-argument callables — and return
their results in submission order. A task that raises is reported as a
:class:`TaskFailure` rather than aborting the sweep.

Fault tolerance: every backend accepts a ``retry`` policy (the
:class:`repro.cloud.resilience.RetryPolicy` duck type) applied *per
task* — the serial backend retries inline, the thread pool retries
inside the worker thread, and the process pool ships the policy into
the worker so retries happen without an extra IPC round trip. The
pooled backends additionally accept a ``task_timeout``: a task
exceeding its wall-clock budget is failed with
:class:`~repro.exceptions.TaskTimeoutError` while its siblings'
results are kept, and the process backend respawns its pool so a hung
worker cannot wedge the sweep. Retry, timeout and worker-crash events
are mirrored into ``resilience.*`` metrics counters.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
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
    are themselves zero-argument callables, so every backend accepts
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
    spent executing (measured inside the worker for process backends),
    or None for a pooled task that never finished. ``queue_seconds`` —
    dispatch→start latency — is only populated by the pooled backends.
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

    Only process backends call this: in-process backends serialise
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


class ThreadPoolExecutorBackend:
    """Run tasks on a local thread pool (numpy releases the GIL).

    ``task_timeout`` bounds how long the parent waits on each task
    (measured from when the parent starts waiting, so queueing behind a
    busy pool does not count against the task). A timed-out slot
    becomes a :class:`TaskFailure` carrying
    :class:`~repro.exceptions.TaskTimeoutError`; threads cannot be
    killed, so the hung thread itself is orphaned until its task
    returns and the pool is released without joining it.
    """

    name = "threads"

    def __init__(
        self,
        max_workers: int = 4,
        metrics=None,
        retry=None,
        task_timeout: Optional[float] = None,
    ) -> None:
        if max_workers < 1:
            raise ReproError("max_workers must be >= 1")
        if task_timeout is not None and task_timeout <= 0:
            raise ReproError("task_timeout must be > 0")
        self.max_workers = max_workers
        self.metrics = metrics
        self.retry = retry
        self.task_timeout = task_timeout

    def run(self, tasks: Sequence[Task]) -> SweepResult:
        start = time.perf_counter()
        results: List[Any] = [None] * len(tasks)
        task_seconds: List[Optional[float]] = [None] * len(tasks)
        queue_seconds: List[float] = [0.0] * len(tasks)
        failures = 0
        retries = 0
        timeouts = 0

        def wrap(index: int, task: Task, submitted: float):
            begun = time.perf_counter()
            value, used = _attempt(task, self.retry, index)
            return index, value, used, time.perf_counter() - begun, (
                begun - submitted
            )

        pool = ThreadPoolExecutor(max_workers=self.max_workers)
        clean = True
        try:
            futures = [
                pool.submit(wrap, index, task, time.perf_counter())
                for index, task in enumerate(tasks)
            ]
            for position, future in enumerate(futures):
                try:
                    index, value, used, seconds, waited = future.result(
                        timeout=self.task_timeout
                    )
                except FuturesTimeout:
                    future.cancel()
                    clean = False
                    timeouts += 1
                    failures += 1
                    results[position] = TaskFailure(
                        TaskTimeoutError(
                            f"task {position} exceeded its "
                            f"{self.task_timeout:g}s wall-clock budget"
                        )
                    )
                    continue
                results[index] = value
                task_seconds[index] = seconds
                queue_seconds[index] = max(0.0, waited)
                retries += used
                if isinstance(value, TaskFailure):
                    failures += 1
        finally:
            # A hung thread cannot be joined without wedging the sweep;
            # on a clean run this is an ordinary synchronous shutdown.
            pool.shutdown(wait=clean, cancel_futures=True)
        _observe(self.metrics, task_seconds, queue_seconds, failures)
        _observe_resilience(
            self.metrics, retries=retries, timeouts=timeouts
        )
        return SweepResult(
            results=results,
            wall_seconds=time.perf_counter() - start,
            n_failures=failures,
            task_seconds=task_seconds,
            queue_seconds=queue_seconds,
        )


def _picklable_error(error: Exception) -> Exception:
    """Return ``error`` if it survives pickling, else a summary of it.

    Worker results travel back through a pipe; an exception holding an
    unpicklable payload would otherwise poison its whole chunk.
    """
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:  # noqa: BLE001 - any pickle failure downgrades
        return ReproError(f"{type(error).__name__}: {error!r}")


@dataclass
class ChunkReport:
    """A worker's report for one chunk: results plus telemetry.

    ``started_at`` is the worker's ``time.time()`` when it began the
    chunk — same-machine comparable with the parent's submission stamp,
    which is how queue latency crosses the process boundary.
    ``retries`` counts in-worker retry attempts beyond each task's
    first, so the parent can aggregate them without extra IPC.
    """

    results: List[Any]
    task_seconds: List[float]
    started_at: float
    retries: int = 0


def _execute_chunk(
    tasks: Sequence[Task], retry=None, base_index: int = 0
) -> ChunkReport:
    """Worker entry point: run a batch of tasks, capturing failures.

    Per-task wall times and the chunk start stamp come back inside a
    :class:`ChunkReport`. ``retry`` applies the retry policy *inside*
    the worker — backoff and re-attempts never pay a process round
    trip — and ``base_index`` keeps the policy's per-task jitter
    streams aligned with global task indexes.
    """
    started_at = time.time()
    results: List[Any] = []
    task_seconds: List[float] = []
    retries = 0
    for offset, task in enumerate(tasks):
        t0 = time.perf_counter()
        value, used = _attempt(task, retry, base_index + offset)
        retries += used
        if isinstance(value, TaskFailure):
            value = TaskFailure(
                _picklable_error(value.error),
                attempts=value.attempts,
                history=value.history,
            )
        results.append(value)
        task_seconds.append(time.perf_counter() - t0)
    return ChunkReport(
        results=results,
        task_seconds=task_seconds,
        started_at=started_at,
        retries=retries,
    )


class ProcessPoolExecutorBackend:
    """Run tasks on local worker processes (true CPU parallelism).

    Parameters
    ----------
    workers:
        Number of worker processes.
    chunk_size:
        Tasks shipped to a worker per dispatch. Larger chunks amortise
        the pickle/IPC overhead of small tasks; 1 maximises balance.
    mp_context:
        ``multiprocessing`` start method (``"fork"``, ``"spawn"``,
        ``"forkserver"``) or None for the platform default. Task specs
        are pickled either way, so both fork and spawn starts work.
    retry:
        Optional per-task retry policy, shipped into the worker (it
        must pickle — :class:`repro.cloud.resilience.RetryPolicy`
        does) so re-attempts happen without extra IPC.
    task_timeout:
        Per-task wall-clock budget. A chunk of *k* tasks gets a
        ``k * task_timeout`` budget; when it expires the chunk is
        respawned as single-task chunks so the hung task is isolated
        (and finally failed with
        :class:`~repro.exceptions.TaskTimeoutError`) while its
        siblings re-run to completion. The budget excludes time spent
        queued behind other chunks, and retries run inside it.

    Tasks should be :class:`TaskSpec` instances (or otherwise picklable
    zero-argument callables). A task that fails to pickle — or raises in
    the worker — is reported as a :class:`TaskFailure` in its slot; a
    worker-process death fails only the culprit task (as a
    :class:`~repro.exceptions.WorkerCrashError`) after the pool is
    respawned and its chunk's siblings are re-executed; the rest of
    the sweep is unaffected either way.
    """

    name = "process"

    def __init__(
        self,
        workers: int = 4,
        chunk_size: int = 1,
        mp_context: Optional[str] = None,
        metrics=None,
        retry=None,
        task_timeout: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ReproError("workers must be >= 1")
        if chunk_size < 1:
            raise ReproError("chunk_size must be >= 1")
        if task_timeout is not None and task_timeout <= 0:
            raise ReproError("task_timeout must be > 0")
        self.workers = workers
        self.chunk_size = chunk_size
        self.mp_context = mp_context
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
            "chunk_failures": 0,
            "timeouts": 0,
            "crashes": 0,
            "retries": 0,
        }
        # How often a singleton task may ride a broken pool before it
        # is condemned as the crasher: a broken pool cannot say which
        # task killed the worker, so innocents get re-runs up to the
        # retry budget.
        crash_budget = (
            self.retry.max_attempts - 1 if self.retry is not None else 0
        )
        crash_counts: Dict[int, int] = {}

        def place(report: ChunkReport, chunk, dispatched) -> None:
            for index, value, seconds in zip(
                chunk, report.results, report.task_seconds
            ):
                results[index] = value
                task_seconds[index] = seconds
            queue_seconds.append(max(0.0, report.started_at - dispatched))
            counts["retries"] += report.retries

        def split(chunk, requeue) -> None:
            counts["chunk_failures"] += 1
            requeue.extend([index] for index in chunk)

        def crash(chunk, exc, requeue) -> None:
            if len(chunk) > 1:
                split(chunk, requeue)
                return
            counts["chunk_failures"] += 1
            index = chunk[0]
            crash_counts[index] = crash_counts.get(index, 0) + 1
            if crash_counts[index] <= crash_budget:
                requeue.append([index])
                return
            counts["crashes"] += 1
            results[index] = TaskFailure(
                WorkerCrashError(
                    f"worker process died running task {index}: {exc}"
                ),
                attempts=crash_counts[index],
                history=[f"WorkerCrashError: {exc}"] * crash_counts[index],
            )

        def flunk(chunk, exc, requeue) -> None:
            # The future failed without breaking the pool (typically
            # the chunk did not pickle): split to isolate the culprit,
            # fail it outright once it is alone.
            counts["chunk_failures"] += 1
            if len(chunk) > 1:
                requeue.extend([index] for index in chunk)
            else:
                results[chunk[0]] = TaskFailure(_picklable_error(exc))

        def harvest(future, chunk, dispatched, requeue) -> None:
            # Settle an already-finished future while the pool is
            # being condemned — completed siblings are never re-run.
            try:
                report = future.result(timeout=0)
            except BrokenProcessPool:
                # A broken pool fails *every* pending future with the
                # same exception; this chunk is an innocent bystander
                # of the crash already being handled, so it re-runs
                # whole next round rather than being blamed.
                requeue.append(chunk)
            except Exception as exc:  # noqa: BLE001 - settled per task
                flunk(chunk, exc, requeue)
            else:
                place(report, chunk, dispatched)

        def settle(future, chunk, dispatched, requeue) -> bool:
            # Wait for one future; False means the pool must die.
            budget = (
                self.task_timeout * len(chunk)
                if self.task_timeout is not None
                else None
            )
            try:
                report = future.result(timeout=budget)
            except FuturesTimeout:
                future.cancel()
                counts["chunk_failures"] += 1
                if len(chunk) > 1:
                    requeue.extend([index] for index in chunk)
                else:
                    counts["timeouts"] += 1
                    results[chunk[0]] = TaskFailure(
                        TaskTimeoutError(
                            f"task {chunk[0]} exceeded its "
                            f"{self.task_timeout:g}s wall-clock budget"
                        )
                    )
                return False
            except BrokenProcessPool as exc:
                crash(chunk, exc, requeue)
                return False
            except Exception as exc:  # noqa: BLE001 - settled per task
                flunk(chunk, exc, requeue)
                return True
            place(report, chunk, dispatched)
            return True

        context = (
            multiprocessing.get_context(self.mp_context)
            if self.mp_context
            else None
        )
        pending: List[List[int]] = [
            list(range(low, min(low + self.chunk_size, len(tasks))))
            for low in range(0, len(tasks), self.chunk_size)
        ]
        # Each round either settles every chunk or condemns the pool,
        # keeps whatever finished, and respawns the rest — with the
        # culprit chunk split or resolved, so the loop always shrinks.
        while pending:
            # Not a ``with`` block: on an error (or KeyboardInterrupt)
            # mid-run, ``__exit__`` would wait for every queued chunk
            # to finish, leaking busy workers. Cancel what never
            # started, then wait only for the in-flight chunks.
            pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context
            )
            requeue: List[List[int]] = []
            healthy = True
            try:
                futures: List[Any] = []
                submitted: List[float] = []
                for chunk in pending:
                    batch = [tasks[index] for index in chunk]
                    try:
                        # _execute_chunk stamps queue-latency telemetry
                        # with time.time(); the timestamps never feed
                        # results, so the clock read is benign here.
                        futures.append(
                            pool.submit(  # adalint: disable=ADA009
                                _execute_chunk,
                                batch,
                                self.retry,
                                chunk[0],
                            )
                        )
                    except Exception as exc:  # noqa: BLE001 - submit
                        futures.append(None)
                        flunk(chunk, exc, requeue)
                    submitted.append(time.time())
                for future, chunk, dispatched in zip(
                    futures, pending, submitted
                ):
                    if future is None:
                        continue
                    if not healthy:
                        if future.done():
                            harvest(future, chunk, dispatched, requeue)
                        else:
                            future.cancel()
                            requeue.append(chunk)
                        continue
                    healthy = settle(future, chunk, dispatched, requeue)
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
        if self.metrics is not None and counts["chunk_failures"]:
            self.metrics.counter("executor.chunk_failures").inc(
                counts["chunk_failures"]
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


_BACKENDS = {
    "serial": SerialExecutor,
    "threads": ThreadPoolExecutorBackend,
    "process": ProcessPoolExecutorBackend,
}


def make_executor(name: str, **kwargs):
    """Instantiate an executor backend by name."""
    try:
        backend = _BACKENDS[name]
    except KeyError:
        raise ReproError(
            f"unknown executor {name!r}; choose from {sorted(_BACKENDS)}"
        ) from None
    return backend(**kwargs)
