"""Fault tolerance for the execution backends.

The paper pitches ADA-HEALTH as an engine a clinician can leave
unattended, which means the execution layer has to absorb the faults a
real deployment throws at it — transient task errors, hung workers,
dead processes, a whole backend gone bad — instead of aborting the
analysis. This module is that layer:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  *seeded* jitter, so retried sweeps stay reproducible. Applied
  per-task inside every :mod:`repro.cloud.executor` backend.
* :class:`CircuitBreaker` — trips after N consecutive infrastructure
  failures so a misbehaving backend stops being asked.
* :class:`ResilientExecutor` — wraps any backend with a breaker and a
  serial fallback: when the breaker opens, work is downgraded to the
  fallback (and the downgrade is recorded) rather than lost.
* :class:`FaultInjector` — a deterministic chaos harness: wraps any
  backend and injects raises, hangs and result-drop faults by task
  index from a seeded ``default_rng`` schedule, so the chaos suite can
  assert exact recovery behaviour.

Determinism guarantees: backoff delays are derived from
``default_rng((seed, task_index, attempt))`` and fault schedules from
``default_rng(seed)``, so a given (policy, injector, task list) triple
always fails, hangs and recovers identically. All sleeping for backoff
purposes lives here.

This module deliberately avoids importing :mod:`repro.cloud.executor`
at module level (the executors import :class:`RetryPolicy` helpers'
*duck type*, and this module needs their result classes), so the two
sides load in either order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import (
    InjectedFault,
    ReproError,
    TaskTimeoutError,
    WorkerCrashError,
)

#: Exception types that mark *infrastructure* (not task) failures —
#: what circuit breakers count and fallbacks rescue.
INFRASTRUCTURE_ERRORS = (TaskTimeoutError, WorkerCrashError)


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
@dataclass
class RetryOutcome:
    """Result of running one task under a :class:`RetryPolicy`."""

    value: Any = None
    error: Optional[Exception] = None
    attempts: int = 1
    #: One ``"ExcType: message"`` summary per failed attempt.
    history: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded per-task retries with seeded exponential backoff.

    Parameters
    ----------
    max_attempts:
        Total attempts per task (1 means no retries).
    base_delay / backoff / max_delay:
        Attempt ``a`` (1-based) sleeps
        ``min(max_delay, base_delay * backoff**(a-1))`` before attempt
        ``a + 1``, scaled by jitter.
    jitter:
        Fractional jitter in ``[0, 1]``: the delay is multiplied by
        ``1 + jitter * u`` where ``u`` is drawn from
        ``default_rng((seed, task_index, attempt))`` — deterministic
        for a given policy, task and attempt, yet decorrelated across
        tasks so a retry storm does not re-synchronise.
    retryable:
        Optional predicate over the raised exception; ``None`` retries
        every ``Exception``. Must be a picklable (module-level)
        callable when the policy rides into a process-pool worker.

    The policy is frozen, hashable and picklable, so one instance can
    be shared by every backend of an engine and shipped to workers.
    """

    max_attempts: int = 3
    base_delay: float = 0.01
    backoff: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    seed: int = 0
    retryable: Optional[Callable[[Exception], bool]] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ReproError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ReproError("delays must be >= 0")
        if self.backoff < 1.0:
            raise ReproError("backoff must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ReproError("jitter must be in [0, 1]")

    # ------------------------------------------------------------------
    def should_retry(self, error: Exception, attempt: int) -> bool:
        """May attempt ``attempt`` (1-based), which raised, be retried?"""
        if attempt >= self.max_attempts:
            return False
        if self.retryable is not None and not self.retryable(error):
            return False
        return True

    def delay_for(self, attempt: int, task_index: int = 0) -> float:
        """Backoff delay after a failed ``attempt`` (deterministic)."""
        base = min(
            self.max_delay,
            self.base_delay * self.backoff ** (attempt - 1),
        )
        if base <= 0.0 or self.jitter <= 0.0:
            return base
        rng = np.random.default_rng((self.seed, task_index, attempt))
        return base * (1.0 + self.jitter * float(rng.random()))

    def sleep(self, attempt: int, task_index: int = 0) -> None:
        """Sleep out the backoff for ``attempt`` (the one home of
        retry sleeping)."""
        delay = self.delay_for(attempt, task_index)
        if delay > 0.0:
            time.sleep(delay)

    def execute(
        self, task: Callable[[], Any], task_index: int = 0
    ) -> RetryOutcome:
        """Run ``task`` under this policy; never raises.

        Returns a :class:`RetryOutcome` carrying either the value of
        the first successful attempt or the *last* exception once
        attempts are exhausted (with the full failure history).
        """
        history: List[str] = []
        attempt = 1
        while True:
            try:
                value = task()
            except Exception as exc:  # noqa: BLE001 - recorded per attempt
                history.append(f"{type(exc).__name__}: {exc}")
                if not self.should_retry(exc, attempt):
                    return RetryOutcome(
                        error=exc, attempts=attempt, history=history
                    )
                self.sleep(attempt, task_index)
                attempt += 1
                continue
            return RetryOutcome(
                value=value, attempts=attempt, history=history
            )


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class CircuitBreaker:
    """Trip after ``threshold`` consecutive infrastructure failures.

    The breaker counts *infrastructure* failures (timeouts, worker
    crashes, backend exceptions) — a task raising on bad parameters
    would fail identically on any backend and must not condemn the
    backend. A success resets the streak; once the count reaches the
    threshold the breaker opens and stays open until :meth:`reset`.
    """

    def __init__(
        self, threshold: int = 3, metrics: Optional[Any] = None
    ) -> None:
        if threshold < 1:
            raise ReproError("threshold must be >= 1")
        self.threshold = threshold
        self.metrics = metrics
        self.state = "closed"
        self.consecutive_failures = 0
        self.trips = 0

    @property
    def is_open(self) -> bool:
        return self.state == "open"

    def record_success(self) -> None:
        """A clean backend run: reset the failure streak."""
        self.consecutive_failures = 0

    def record_failure(self, count: int = 1) -> None:
        """Count ``count`` infrastructure failures; trip on threshold."""
        if count < 1:
            raise ReproError("count must be >= 1")
        self.consecutive_failures += count
        if (
            self.state == "closed"
            and self.consecutive_failures >= self.threshold
        ):
            self.state = "open"
            self.trips += 1
            if self.metrics is not None:
                self.metrics.counter("resilience.breaker_trips").inc()

    def reset(self) -> None:
        """Close the breaker and clear the streak (manual recovery)."""
        self.state = "closed"
        self.consecutive_failures = 0

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able state for run manifests."""
        return {
            "state": self.state,
            "threshold": self.threshold,
            "consecutive_failures": self.consecutive_failures,
            "trips": self.trips,
        }


class ResilientExecutor:
    """Breaker-guarded executor wrapper with a serial fallback.

    Delegates ``run`` to ``backend``; infrastructure failures
    (:data:`INFRASTRUCTURE_ERRORS` in result slots, or the backend
    itself raising) feed the breaker. When the breaker opens the work
    moves to ``fallback`` (a fresh
    :class:`~repro.cloud.executor.SerialExecutor` by default) and the
    downgrade is recorded in :attr:`events` and the
    ``resilience.fallbacks`` counter. A trip *during* a run rescues
    just the infrastructure-failed slots through the fallback, so
    surviving results are never thrown away.
    """

    def __init__(
        self,
        backend: Any,
        breaker: Optional[CircuitBreaker] = None,
        fallback: Optional[Any] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        self.backend = backend
        self.breaker = breaker or CircuitBreaker(metrics=metrics)
        self.metrics = metrics
        self._fallback = fallback
        self.downgrades = 0
        #: Downgrade log: ``{"event": "fallback", "reason": ...}`` dicts.
        self.events: List[Dict[str, Any]] = []

    @property
    def name(self) -> str:
        return getattr(self.backend, "name", "backend")

    def fallback(self) -> Any:
        """The downgrade target (created lazily)."""
        if self._fallback is None:
            from repro.cloud.executor import SerialExecutor

            self._fallback = SerialExecutor(
                metrics=self.metrics,
                retry=getattr(self.backend, "retry", None),
            )
        return self._fallback

    def run(self, tasks: Sequence[Callable[[], Any]]) -> Any:
        from repro.cloud.executor import SweepResult, TaskFailure

        tasks = list(tasks)
        if self.breaker.is_open:
            self._record_downgrade("breaker-open")
            return self.fallback().run(tasks)
        try:
            outcome = self.backend.run(tasks)
        except Exception as exc:  # noqa: BLE001 - recorded, downgraded
            self.breaker.record_failure()
            self._record_downgrade(
                f"backend-error: {type(exc).__name__}: {exc}"
            )
            return self.fallback().run(tasks)
        infra = [
            index
            for index, value in enumerate(outcome.results)
            if isinstance(value, TaskFailure)
            and isinstance(value.error, INFRASTRUCTURE_ERRORS)
        ]
        if not infra:
            self.breaker.record_success()
            return outcome
        self.breaker.record_failure(len(infra))
        if not self.breaker.is_open:
            return outcome
        # The breaker tripped mid-run: rescue only the slots the
        # infrastructure lost; completed siblings are kept as-is.
        self._record_downgrade(
            f"breaker-tripped: rescuing {len(infra)} failed task(s)"
        )
        rescue = self.fallback().run([tasks[index] for index in infra])
        results = list(outcome.results)
        task_seconds = list(outcome.task_seconds)
        for slot, value, seconds in zip(
            infra, rescue.results, rescue.task_seconds
        ):
            results[slot] = value
            task_seconds[slot] = seconds
        failures = sum(
            1 for value in results if isinstance(value, TaskFailure)
        )
        return SweepResult(
            results=results,
            wall_seconds=outcome.wall_seconds + rescue.wall_seconds,
            n_failures=failures,
            task_seconds=task_seconds,
            queue_seconds=outcome.queue_seconds,
        )

    def _record_downgrade(self, reason: str) -> None:
        self.downgrades += 1
        self.events.append({"event": "fallback", "reason": reason})
        if self.metrics is not None:
            self.metrics.counter("resilience.fallbacks").inc()


# ----------------------------------------------------------------------
# Deterministic fault injection (chaos harness)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fault:
    """One scheduled fault on one task index."""

    kind: str  #: ``"raise"``, ``"hang"`` or ``"drop"``
    failures: int = 1  #: how many calls misbehave before healing
    hang_seconds: float = 0.0


class FaultyTask:
    """A task wrapped with a scheduled fault (picklable).

    ``raise`` faults fail the first ``failures`` calls with
    :class:`InjectedFault`, then heal — retries inside the executing
    process see the recovery. ``hang`` faults sleep ``hang_seconds``
    before delegating, which a per-task timeout turns into a kill.
    The call counter lives on the (per-process copy of the) wrapper,
    so a respawned process-pool chunk re-injects its fault — exactly
    how a deterministic poison-pill behaves.
    """

    def __init__(self, task: Callable[[], Any], fault: Fault) -> None:
        self.task = task
        self.fault = fault
        self.calls = 0

    def __call__(self) -> Any:
        self.calls += 1
        if self.calls <= self.fault.failures:
            if self.fault.kind == "raise":
                raise InjectedFault(
                    f"injected raise (call {self.calls}"
                    f"/{self.fault.failures})"
                )
            if self.fault.kind == "hang":
                time.sleep(self.fault.hang_seconds)
        return self.task()


class FaultInjector:
    """Wrap a backend with a seeded, per-task-index fault schedule.

    Parameters
    ----------
    backend:
        Any :mod:`repro.cloud.executor` backend (or another wrapper).
    raise_rate / hang_rate / drop_rate:
        Probabilities (summing to at most 1) that a task index draws a
        raise, hang or result-drop fault from the schedule.
    hang_seconds:
        Sleep injected by hang faults (choose it above the backend's
        ``task_timeout`` to simulate a hung worker).
    max_failures:
        Raise/hang faults misbehave for ``1..max_failures`` calls
        (drawn from the schedule) before healing, so a retry policy
        with enough attempts always recovers the fault-free result.
    redeliver:
        Drop faults discard the task's *delivered result*; with
        ``redeliver`` the injector re-runs dropped tasks through the
        backend (at-least-once delivery), otherwise the slot becomes a
        failure.
    seed:
        Seed of the ``default_rng`` schedule — same seed, same task
        count, same faults, every time.
    """

    def __init__(
        self,
        backend: Any,
        raise_rate: float = 0.0,
        hang_rate: float = 0.0,
        drop_rate: float = 0.0,
        hang_seconds: float = 0.25,
        max_failures: int = 2,
        redeliver: bool = True,
        seed: int = 0,
        metrics: Optional[Any] = None,
    ) -> None:
        rates = (raise_rate, hang_rate, drop_rate)
        if any(rate < 0.0 or rate > 1.0 for rate in rates):
            raise ReproError("fault rates must be in [0, 1]")
        if sum(rates) > 1.0:
            raise ReproError("fault rates must sum to at most 1")
        if max_failures < 1:
            raise ReproError("max_failures must be >= 1")
        self.backend = backend
        self.raise_rate = raise_rate
        self.hang_rate = hang_rate
        self.drop_rate = drop_rate
        self.hang_seconds = hang_seconds
        self.max_failures = max_failures
        self.redeliver = redeliver
        self.seed = seed
        self.metrics = metrics

    @property
    def name(self) -> str:
        return f"fault-injector({getattr(self.backend, 'name', '?')})"

    @property
    def retry(self) -> Optional[Any]:
        """The wrapped backend's retry policy (what a
        :class:`ResilientExecutor` fallback around this injector
        inherits)."""
        return getattr(self.backend, "retry", None)

    def schedule(self, n_tasks: int) -> List[Optional[Fault]]:
        """The fault (or None) drawn for each task index."""
        rng = np.random.default_rng(self.seed)
        plan: List[Optional[Fault]] = []
        for _ in range(n_tasks):
            # Two draws per index, unconditionally, so the schedule at
            # index i never depends on which kinds earlier indexes drew.
            u = float(rng.random())
            failures = int(rng.integers(1, self.max_failures + 1))
            if u < self.raise_rate:
                plan.append(Fault("raise", failures=failures))
            elif u < self.raise_rate + self.hang_rate:
                plan.append(
                    Fault(
                        "hang",
                        failures=failures,
                        hang_seconds=self.hang_seconds,
                    )
                )
            elif u < self.raise_rate + self.hang_rate + self.drop_rate:
                plan.append(Fault("drop"))
            else:
                plan.append(None)
        return plan

    def run(self, tasks: Sequence[Callable[[], Any]]) -> Any:
        from repro.cloud.executor import SweepResult, TaskFailure

        tasks = list(tasks)
        plan = self.schedule(len(tasks))
        injected = sum(1 for fault in plan if fault is not None)
        if self.metrics is not None and injected:
            self.metrics.counter("resilience.faults_injected").inc(
                injected
            )
        wrapped = [
            task
            if fault is None or fault.kind == "drop"
            else FaultyTask(task, fault)
            for task, fault in zip(tasks, plan)
        ]
        outcome = self.backend.run(wrapped)
        results = list(outcome.results)
        wall = outcome.wall_seconds
        dropped = [
            index
            for index, fault in enumerate(plan)
            if fault is not None
            and fault.kind == "drop"
            and not isinstance(results[index], TaskFailure)
        ]
        if dropped and self.redeliver:
            redo = self.backend.run([tasks[index] for index in dropped])
            for slot, value in zip(dropped, redo.results):
                results[slot] = value
            wall += redo.wall_seconds
        elif dropped:
            for index in dropped:
                results[index] = TaskFailure(
                    InjectedFault("result dropped in transit"),
                    history=["InjectedFault: result dropped in transit"],
                )
        failures = sum(
            1 for value in results if isinstance(value, TaskFailure)
        )
        return SweepResult(
            results=results,
            wall_seconds=wall,
            n_failures=failures,
            task_seconds=outcome.task_seconds,
            queue_seconds=outcome.queue_seconds,
        )
