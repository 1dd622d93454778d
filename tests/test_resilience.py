"""Chaos suite for the fault-tolerant execution layer.

Everything here is *seeded*: fault schedules come from
``default_rng(seed)`` and backoff jitter from
``default_rng((seed, task_index, attempt))``, so every test asserts
exact recovery behaviour — the acceptance bar is byte-identical
results between a faulty run (with enough retries) and a fault-free
one, on both backends.
"""

import functools
import multiprocessing
import os
import pickle
import time

import numpy as np
import pytest

from repro.cloud import (
    CircuitBreaker,
    FaultInjector,
    ProcessPoolExecutorBackend,
    RetryPolicy,
    SerialExecutor,
)
from repro.cloud.executor import SweepResult, TaskFailure, TaskSpec
from repro.core import ADAHealth, EngineConfig
from repro.core.engine import GOAL_PIPELINES
from repro.data import SharedMatrix, leaked_segments, small_dataset
from repro.core.cache import AnalysisCache
from repro.exceptions import (
    DuplicateKeyError,
    InjectedFault,
    ReproError,
    StoreError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.kdb.documentstore import DocumentStore
from repro.kdb.fsck import fsck
from repro.kdb.kdb import FEEDBACK, KnowledgeBase
from repro.kdb.shards import ShardedDocumentStore
from repro.kdb.storage import FaultyStorage, SimulatedCrash
from repro.obs import Metrics, validate_manifest
from repro.obs.manifest import MANIFEST_SCHEMA, MANIFEST_SCHEMA_V1
from tests.flat_store import write_flat_store

pytestmark = pytest.mark.faults


def _square(x):
    return x * x


def _hang_forever():
    time.sleep(30.0)
    return "never"


def _exit_hard(x):
    if x == 1:
        os._exit(13)
    return x * x


def _raise_value_error(x):
    if x == 2:
        raise ValueError("task 2 is broken")
    return x * x


class _Flaky:
    """Fails the first ``n`` calls, then heals (stays in-process)."""

    def __init__(self, n):
        self.n = n
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.n:
            raise ConnectionError(f"transient (call {self.calls})")
        return "healed"


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
def test_retry_policy_recovers_transient_failures():
    outcome = RetryPolicy(max_attempts=3, base_delay=0.0).execute(
        _Flaky(2)
    )
    assert outcome.ok
    assert outcome.value == "healed"
    assert outcome.attempts == 3
    assert len(outcome.history) == 2
    assert all("transient" in line for line in outcome.history)


def test_retry_policy_exhausts_attempts():
    outcome = RetryPolicy(max_attempts=2, base_delay=0.0).execute(
        _Flaky(99)
    )
    assert not outcome.ok
    assert isinstance(outcome.error, ConnectionError)
    assert outcome.attempts == 2
    assert len(outcome.history) == 2


def test_retry_policy_backoff_is_seeded_and_bounded():
    a = RetryPolicy(max_attempts=4, seed=7)
    b = RetryPolicy(max_attempts=4, seed=7)
    delays = [a.delay_for(attempt, 3) for attempt in (1, 2, 3)]
    assert delays == [b.delay_for(attempt, 3) for attempt in (1, 2, 3)]
    assert all(0.0 < d <= a.max_delay * (1.0 + a.jitter) for d in delays)
    # Different task index -> decorrelated jitter stream.
    assert a.delay_for(1, 3) != a.delay_for(1, 4)
    # Different seed -> different delays.
    assert delays != [
        RetryPolicy(max_attempts=4, seed=8).delay_for(n, 3)
        for n in (1, 2, 3)
    ]


def test_retry_policy_validation():
    with pytest.raises(ReproError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ReproError):
        RetryPolicy(backoff=0.5)
    with pytest.raises(ReproError):
        RetryPolicy(jitter=1.5)
    with pytest.raises(ReproError):
        RetryPolicy(base_delay=-1.0)


def test_task_failure_carries_attempt_history():
    backend = SerialExecutor(
        retry=RetryPolicy(max_attempts=2, base_delay=0.0)
    )
    result = backend.run(
        [TaskSpec(_raise_value_error, (2,)), TaskSpec(_square, (3,))]
    )
    failure = result.results[0]
    assert isinstance(failure, TaskFailure)
    assert failure.attempts == 2
    assert len(failure.history) == 2
    assert result.results[1] == 9
    assert result.n_failures == 1


# ----------------------------------------------------------------------
# FaultInjector: seeded schedules and exact recovery
# ----------------------------------------------------------------------
def test_fault_schedule_is_deterministic():
    kwargs = dict(raise_rate=0.3, hang_rate=0.2, drop_rate=0.2, seed=42)
    first = FaultInjector(SerialExecutor(), **kwargs).schedule(30)
    second = FaultInjector(SerialExecutor(), **kwargs).schedule(30)
    assert first == second
    assert any(fault is not None for fault in first)
    other = FaultInjector(
        SerialExecutor(), raise_rate=0.3, hang_rate=0.2, drop_rate=0.2,
        seed=43,
    ).schedule(30)
    assert first != other


def test_fault_injector_validation():
    with pytest.raises(ReproError):
        FaultInjector(SerialExecutor(), raise_rate=0.8, drop_rate=0.4)
    with pytest.raises(ReproError):
        FaultInjector(SerialExecutor(), raise_rate=-0.1)
    with pytest.raises(ReproError):
        FaultInjector(SerialExecutor(), max_failures=0)


def _backend(name, retry):
    if name == "serial":
        return SerialExecutor(retry=retry)
    return ProcessPoolExecutorBackend(workers=2, retry=retry)


@pytest.mark.parametrize("name", ["serial", "process"])
def test_faulty_run_recovers_byte_identical_results(name):
    """The acceptance bar: faults + enough retries == fault-free run."""
    tasks = [TaskSpec(_square, (i,)) for i in range(12)]
    clean = _backend(name, None).run(tasks)
    retry = RetryPolicy(max_attempts=4, base_delay=0.001, max_delay=0.01)
    injector = FaultInjector(
        _backend(name, retry),
        raise_rate=0.3,
        drop_rate=0.2,
        max_failures=2,
        seed=5,
    )
    faulty = injector.run(tasks)
    assert faulty.n_failures == 0
    assert pickle.dumps(faulty.results) == pickle.dumps(clean.results)


def test_dropped_results_fail_without_redelivery():
    injector = FaultInjector(
        SerialExecutor(), drop_rate=1.0, redeliver=False, seed=0
    )
    result = injector.run([TaskSpec(_square, (i,)) for i in range(3)])
    assert result.n_failures == 3
    assert all(
        isinstance(value, TaskFailure)
        and isinstance(value.error, InjectedFault)
        for value in result.results
    )


def test_injected_fault_count_is_metered():
    metrics = Metrics()
    FaultInjector(
        SerialExecutor(),
        raise_rate=1.0,
        max_failures=1,
        seed=0,
        metrics=metrics,
    ).run([TaskSpec(_square, (i,)) for i in range(4)])
    snapshot = metrics.snapshot()
    assert snapshot["counters"]["resilience.faults_injected"] == 4


# ----------------------------------------------------------------------
# Timeouts: hung tasks are killed, siblings survive
# ----------------------------------------------------------------------
def test_process_backend_times_out_and_respawns():
    """A hung worker kills only its task; its siblings complete."""
    metrics = Metrics()
    backend = ProcessPoolExecutorBackend(
        workers=2, task_timeout=1.0, metrics=metrics
    )
    result = backend.run(
        [
            TaskSpec(_square, (2,)),
            TaskSpec(_hang_forever),
            TaskSpec(_square, (3,)),
            TaskSpec(_square, (4,)),
        ]
    )
    assert result.results[0] == 4
    assert result.results[2] == 9
    assert result.results[3] == 16
    failure = result.results[1]
    assert isinstance(failure, TaskFailure)
    assert isinstance(failure.error, TaskTimeoutError)
    assert result.n_failures == 1
    assert metrics.snapshot()["counters"]["resilience.timeouts"] == 1
    # The condemned pool's hung worker is terminated, not left running
    # until its 30 s task ends.
    deadline = time.time() + 5.0
    while multiprocessing.active_children() and time.time() < deadline:
        time.sleep(0.05)
    assert not multiprocessing.active_children()


def test_process_backend_hang_fault_injection():
    backend = ProcessPoolExecutorBackend(workers=2, task_timeout=0.5)
    injector = FaultInjector(
        backend, hang_rate=1.0, hang_seconds=10.0, seed=1
    )
    result = injector.run([TaskSpec(_square, (5,))])
    assert isinstance(result.results[0], TaskFailure)
    assert isinstance(result.results[0].error, TaskTimeoutError)


# ----------------------------------------------------------------------
# Worker crashes: per-task attribution, siblings preserved
# ----------------------------------------------------------------------
def test_worker_crash_fails_only_the_culprit():
    backend = ProcessPoolExecutorBackend(workers=2)
    result = backend.run([TaskSpec(_exit_hard, (i,)) for i in range(4)])
    failure = result.results[1]
    assert isinstance(failure, TaskFailure)
    assert isinstance(failure.error, WorkerCrashError)
    assert [result.results[i] for i in (0, 2, 3)] == [0, 4, 9]
    assert result.n_failures == 1


def test_chunk_sibling_results_survive_task_exception():
    backend = ProcessPoolExecutorBackend(workers=2)
    result = backend.run(
        [TaskSpec(_raise_value_error, (i,)) for i in range(4)]
    )
    failure = result.results[2]
    assert isinstance(failure, TaskFailure)
    assert "task 2 is broken" in str(failure.error)
    assert [result.results[i] for i in (0, 1, 3)] == [0, 1, 9]


# ----------------------------------------------------------------------
# Circuit breaker and the engine's serial fallback
# ----------------------------------------------------------------------
def test_breaker_counts_and_trips():
    breaker = CircuitBreaker(threshold=3)
    breaker.record_failure()
    breaker.record_failure()
    assert not breaker.is_open
    breaker.record_success()
    breaker.record_failure(2)
    assert not breaker.is_open
    breaker.record_failure()
    assert breaker.is_open
    assert breaker.trips == 1
    snapshot = breaker.snapshot()
    assert snapshot["state"] == "open"
    assert snapshot["threshold"] == 3
    breaker.reset()
    assert not breaker.is_open


BREAKER_KNOBS = dict(
    k_values=(2, 3),
    n_folds=3,
    partial_fractions=(0.5, 1.0),
    partial_k_values=(2,),
)


def _wrap_pipelines(monkeypatch, wrapper):
    """Route every goal pipeline through ``wrapper(pipeline, context,
    log, tracer, metrics)``. Patched before a pool forks, the table
    reaches the workers too."""
    for name, pipeline in list(GOAL_PIPELINES.items()):
        monkeypatch.setitem(
            GOAL_PIPELINES, name, functools.partial(wrapper, pipeline)
        )


def _pooled_engine(**kwargs):
    return ADAHealth(
        config=EngineConfig(
            executor="process", executor_workers=2, **BREAKER_KNOBS, **kwargs
        ),
        seed=5,
    )


def _last_manifest(engine):
    return engine.kdb.run_history(limit=1)[0]


@pytest.fixture(scope="module")
def serial_ranking(tiny_log):
    engine = ADAHealth(config=EngineConfig(**BREAKER_KNOBS), seed=5)
    return _ranking(engine.analyze(tiny_log, name="serial"))


def test_backend_error_downgrades_to_serial_fallback(
    tiny_log, serial_ranking, monkeypatch
):
    """A raising process dispatch re-runs every goal serially; the
    third raise trips the breaker and the pool is not asked again."""
    calls = []

    def explode(self, tasks):
        calls.append(len(tasks))
        raise OSError("backend infrastructure is gone")

    monkeypatch.setattr(ProcessPoolExecutorBackend, "run", explode)
    engine = _pooled_engine()
    for attempt in range(4):
        result = engine.analyze(tiny_log, name=f"attempt-{attempt}")
        assert _ranking(result) == serial_ranking
        assert _last_manifest(engine)["resilience"]["fallbacks"] == 1
    assert len(calls) == 3
    assert engine.breaker.snapshot() == {
        "state": "open",
        "threshold": 3,
        "consecutive_failures": 3,
        "trips": 1,
    }
    counters = engine.metrics.snapshot()["counters"]
    assert counters["resilience.breaker_trips"] == 1
    assert counters["resilience.fallbacks"] == 4
    assert leaked_segments() == []


def test_raising_dispatch_records_the_serial_fallback_in_the_manifest(
    monkeypatch,
):
    """The manifest names the backend that ran the goals: a process
    dispatch that raises and re-runs every goal serially is recorded as
    a serial run on one worker."""

    def explode(self, tasks):
        raise OSError("backend infrastructure is gone")

    log = small_dataset(n_patients=60)
    pooled = ADAHealth(
        config=EngineConfig(executor="process", executor_workers=2), seed=5
    )
    monkeypatch.setattr(ProcessPoolExecutorBackend, "run", explode)
    result = pooled.analyze(log, name="fallback")
    assert len(result.runs) >= 2
    manifest = _last_manifest(pooled)
    assert manifest["executor"] == {
        "backend": "serial",
        "workers": 1,
        "task_failures": 0,
    }
    assert manifest["resilience"]["fallbacks"] == 1
    serial = ADAHealth(seed=5).analyze(log, name="serial")
    assert _ranking(result) == _ranking(serial)


def test_breaker_trip_rescues_only_infrastructure_failures(
    tiny_log, serial_ranking, monkeypatch
):
    """A dispatch that loses three goals to timeouts trips the breaker
    mid-run: only the lost goals re-run serially, completed siblings
    are kept."""
    ran = []

    def counted(pipeline, context, *args):
        ran.append(context.goal.name)
        return pipeline(context, *args)

    def time_out_odd_slots(self, tasks):
        # Even slots run here, in-process; odd slots "hang".
        results = [
            TaskFailure(TaskTimeoutError(f"task {slot} hung"))
            if slot % 2
            else task()
            for slot, task in enumerate(tasks)
        ]
        return SweepResult(
            results=results,
            wall_seconds=0.0,
            n_failures=len(tasks) // 2,
            task_seconds=[0.0] * len(tasks),
        )

    _wrap_pipelines(monkeypatch, counted)
    monkeypatch.setattr(
        ProcessPoolExecutorBackend, "run", time_out_odd_slots
    )
    engine = _pooled_engine()
    result = engine.analyze(tiny_log, name="tripped")
    assert len(result.runs) >= 6
    assert _ranking(result) == serial_ranking
    # Every goal ran exactly once: nothing completed was re-run.
    assert sorted(ran) == sorted(run.goal.name for run in result.runs)
    assert engine.breaker.is_open
    manifest = _last_manifest(engine)
    assert manifest["resilience"]["fallbacks"] == 1
    assert manifest["executor"] == {
        "backend": "process",
        "workers": 2,
        "task_failures": 0,
    }


def test_task_errors_do_not_trip_the_breaker(tiny_log, monkeypatch):
    """A goal's own ValueError would fail the same way on any backend:
    it fails the goal and never counts against the pool."""

    def broken(pipeline, context, *args):
        raise ValueError(f"{context.goal.name} is broken")

    # Patched before the pool forks, so the workers inherit it.
    _wrap_pipelines(monkeypatch, broken)
    engine = _pooled_engine(on_goal_error="degrade")
    result = engine.analyze(tiny_log, name="broken-goals")
    assert len(result.failed_goals()) == len(result.runs) >= 3
    assert not engine.breaker.is_open
    assert engine.breaker.consecutive_failures == 0
    manifest = _last_manifest(engine)
    assert manifest["resilience"]["fallbacks"] == 0
    assert manifest["executor"]["backend"] == "process"
    assert manifest["executor"]["task_failures"] == len(result.runs)


def test_crashing_workers_trip_the_breaker_through_analyze(
    tiny_log, serial_ranking, monkeypatch
):
    """Every goal task kills its worker. The first analyze rescues the
    crashed goals serially once the breaker trips; the breaker stays
    open, so the next analyze runs serially from the start — no pool,
    no shared-memory copy of the log, and a manifest that says so."""
    parent = os.getpid()

    def exit_in_worker(pipeline, *args):
        if os.getpid() != parent:
            os._exit(13)
        return pipeline(*args)

    # Patched before the pool forks, so the workers inherit it.
    _wrap_pipelines(monkeypatch, exit_in_worker)
    engine = _pooled_engine()
    first = engine.analyze(tiny_log, name="crashing")
    n_goals = len(first.runs)
    assert n_goals >= 3
    assert _ranking(first) == serial_ranking
    manifest = _last_manifest(engine)
    assert manifest["executor"] == {
        "backend": "process",
        "workers": 2,
        "task_failures": 0,
    }
    resilience = manifest["resilience"]
    assert resilience["worker_crashes"] == n_goals
    assert resilience["fallbacks"] == 1
    assert resilience["breaker"] == {
        "state": "open",
        "threshold": 3,
        "consecutive_failures": n_goals,
        "trips": 1,
    }
    assert leaked_segments() == []

    created = []
    create = SharedMatrix.create

    def counting_create(matrix):
        created.append(matrix.shape)
        return create(matrix)

    monkeypatch.setattr(SharedMatrix, "create", counting_create)
    second = engine.analyze(tiny_log, name="after-the-trip")
    assert _ranking(second) == serial_ranking
    manifest = _last_manifest(engine)
    assert manifest["executor"] == {
        "backend": "serial",
        "workers": 1,
        "task_failures": 0,
    }
    assert created == []
    resilience = manifest["resilience"]
    assert resilience["worker_crashes"] == 0
    assert resilience["fallbacks"] == 1
    assert resilience["breaker"]["state"] == "open"
    assert resilience["breaker"]["trips"] == 1
    assert leaked_segments() == []


# ----------------------------------------------------------------------
# Degraded-mode analysis
# ----------------------------------------------------------------------
def test_engine_rejects_unknown_on_goal_error():
    from repro.exceptions import EngineError

    with pytest.raises(EngineError):
        ADAHealth(config=EngineConfig(on_goal_error="ignore"))
    with pytest.raises(EngineError):
        ADAHealth(config=EngineConfig(retries=-1))
    with pytest.raises(EngineError, match="executor_workers"):
        ADAHealth(
            config=EngineConfig(executor="process", executor_workers=0)
        )
    for timeout in (-1.0, 0.0):
        with pytest.raises(EngineError, match="task_timeout"):
            ADAHealth(config=EngineConfig(task_timeout=timeout))
    for executor in ("cluster", "threads"):
        with pytest.raises(EngineError, match="executor must be one of"):
            ADAHealth(config=EngineConfig(executor=executor))


@pytest.fixture(scope="module")
def degraded_engine_and_result(small_log):
    original = GOAL_PIPELINES["patient-segmentation"]

    def sabotaged(context, log, tracer, metrics):
        raise RuntimeError("injected goal failure")

    GOAL_PIPELINES["patient-segmentation"] = sabotaged
    try:
        engine = ADAHealth(
            config=EngineConfig(
                k_values=(4, 6),
                partial_fractions=(0.5, 1.0),
                partial_k_values=(4,),
                n_folds=3,
                on_goal_error="degrade",
            ),
            seed=0,
        )
        result = engine.analyze(
            small_log, name="degraded-test", user="dr-chaos"
        )
    finally:
        GOAL_PIPELINES["patient-segmentation"] = original
    return engine, result


def test_degrade_mode_keeps_surviving_goals(degraded_engine_and_result):
    __, result = degraded_engine_and_result
    assert result.degraded
    assert result.failed_goals() == ["patient-segmentation"]
    survivors = [
        run for run in result.runs if run.status == "completed"
    ]
    assert survivors, "surviving goals must still run"
    assert result.items, "surviving goals must still produce items"
    failed = result.run_for("patient-segmentation")
    assert failed.status == "failed"
    assert "injected goal failure" in failed.error
    assert failed.items == []


def test_degrade_mode_items_stay_ranked(degraded_engine_and_result):
    engine, result = degraded_engine_and_result
    scores = [engine.ranker.ranking_score(item) for item in result.items]
    assert scores == sorted(scores, reverse=True)


def test_degrade_mode_summary_reports_the_failure(
    degraded_engine_and_result,
):
    __, result = degraded_engine_and_result
    summary = result.summary()
    assert "degraded analysis" in summary
    assert "patient-segmentation: FAILED" in summary


def test_degrade_mode_records_valid_v2_manifest(
    degraded_engine_and_result,
):
    engine, result = degraded_engine_and_result
    manifest = engine.kdb.run_history(limit=1)[0]
    manifest.pop("_id", None)
    assert validate_manifest(manifest) is manifest
    assert manifest["schema"] == MANIFEST_SCHEMA
    assert manifest["status"] == "degraded"
    by_status = {}
    for goal in manifest["goals"]:
        by_status.setdefault(goal["status"], []).append(goal["name"])
    assert by_status["failed"] == ["patient-segmentation"]
    assert len(by_status["completed"]) == len(result.runs) - 1
    resilience = manifest["resilience"]
    assert resilience["degraded_goals"] == ["patient-segmentation"]
    assert resilience["breaker"]["state"] == "closed"
    assert manifest["executor"]["task_failures"] == 1


def _ranking(result):
    return [
        (item.kind, item.end_goal, item.title, item.score, item.degree)
        for item in result.items
    ]


def test_serial_goal_fanout_honours_retries(small_log, monkeypatch):
    """A goal that raises once heals under ``retries=1`` on the default
    serial executor: same ranking as a clean run, one retry recorded."""
    knobs = dict(
        k_values=(4, 6),
        partial_fractions=(0.5, 1.0),
        partial_k_values=(4,),
        n_folds=3,
    )
    clean = ADAHealth(config=EngineConfig(**knobs), seed=0).analyze(
        small_log, name="clean"
    )
    original = GOAL_PIPELINES["patient-segmentation"]
    failed = []

    def flaky(context, *args):
        if not failed:
            failed.append(context.goal.name)
            raise ConnectionError("transient goal failure")
        return original(context, *args)

    monkeypatch.setitem(GOAL_PIPELINES, "patient-segmentation", flaky)
    engine = ADAHealth(config=EngineConfig(retries=1, **knobs), seed=0)
    healed = engine.analyze(small_log, name="healed")
    assert failed == ["patient-segmentation"]
    assert _ranking(healed) == _ranking(clean)
    manifest = engine.kdb.run_history(limit=1)[0]
    assert manifest["status"] == "completed"
    assert manifest["executor"]["backend"] == "serial"
    assert manifest["resilience"]["retries"] == 1


def test_validate_manifest_accepts_v1_documents():
    document = {
        "schema": MANIFEST_SCHEMA_V1,
        "status": "completed",
        "dataset": {"id": 1, "name": "x", "fingerprint": "f"},
        "user": "u",
        "seed": 0,
        "started_at": 0.0,
        "finished_at": 1.0,
        "wall_s": 1.0,
        "goals_assessed": [],
        "goals": [],
        "cache": {"enabled": False},
        "executor": {"backend": "serial"},
        "metrics": {},
        "n_items": 0,
        "error": None,
    }
    assert validate_manifest(document) is document
    with pytest.raises(Exception):
        validate_manifest(dict(document, schema="ada-health/run-manifest/v9"))


# ----------------------------------------------------------------------
# Regressions: crash-safe flat-store migration, corrupt-tolerant cache
# ----------------------------------------------------------------------
def _sorted_documents(collection):
    return sorted(collection.find().to_list(), key=lambda d: d["_id"])


def test_documentstore_save_is_atomic(tmp_path):
    """Migrating a flat directory survives a crash at every write: the
    next open finds the flat files and migrates again, or finds the
    finished framed store; never a partial or an empty one."""
    source = DocumentStore()
    source["people"].insert_many([{"name": name} for name in "abcde"])
    source["people"].create_index("name", unique=True)
    expected = _sorted_documents(source["people"])
    clean = FaultyStorage(seed=0)
    ShardedDocumentStore(
        write_flat_store(source, tmp_path / "count"),
        n_shards=2,
        storage=clean,
    ).close()
    assert clean.events >= 6
    for crash_at in range(1, clean.events + 1):
        directory = write_flat_store(source, tmp_path / f"crash-{crash_at}")
        with pytest.raises(SimulatedCrash):
            ShardedDocumentStore(
                directory,
                n_shards=2,
                storage=FaultyStorage(seed=crash_at, crash_at=crash_at),
            ).close()
        with ShardedDocumentStore(directory, n_shards=2) as recovered:
            assert _sorted_documents(recovered["people"]) == expected
            assert recovered.load_warnings == []
            with pytest.raises(DuplicateKeyError):
                recovered["people"].insert_one({"name": "a"})
        assert fsck(directory).clean, crash_at


def test_flat_kdb_migration_is_all_or_nothing(tmp_path):
    """A flat directory migrates whole through ``open_sharded``, or a
    malformed line raises naming its file and line and leaves every
    file byte-for-byte as it was."""
    source = KnowledgeBase()
    source.store[FEEDBACK].insert_many(
        [{"item_id": i, "user": "dr-a", "degree": "high"} for i in range(3)]
    )
    migrated = KnowledgeBase.open_sharded(
        write_flat_store(source.store, tmp_path / "clean")
    )
    try:
        for name in source.store.collection_names():
            assert _sorted_documents(migrated.store[name]) == (
                _sorted_documents(source.store[name])
            )
            assert sorted(migrated.store[name].index_names()) == sorted(
                source.store[name].index_names()
            )
    finally:
        migrated.store.close()

    damages = {
        "torn tail": b'{"degree": "hi',
        "not UTF-8": b"\xff\xfe\n",
        "not an object": b"[1, 2]\n",
        "no _id": b'{"degree": "low"}\n',
        "duplicate _id": b'{"_id": 1}\n',
    }
    for damage, line in damages.items():
        directory = write_flat_store(source.store, tmp_path / damage)
        with open(directory / f"{FEEDBACK}.jsonl", "ab") as handle:
            handle.write(line)
        before = {p.name: p.read_bytes() for p in directory.iterdir()}
        with pytest.raises(StoreError, match=f"{FEEDBACK}.jsonl:4: "):
            KnowledgeBase.open_sharded(directory)
        after = {p.name: p.read_bytes() for p in directory.iterdir()}
        assert after == before, damage


def test_cache_corrupt_entry_degrades_to_miss():
    metrics = Metrics()
    cache = AnalysisCache(metrics=metrics)
    cache.put("ds", "algo", {"k": 1}, {"value": 10})
    # Corrupt the stored entry: it comes back without its payload.
    key = cache.key("ds", "algo", {"k": 1})
    entry = cache.collection.find_one({"key": key})
    cache.collection.delete_many({"key": key})
    del entry["payload"]
    cache.collection.insert_one(entry)
    assert cache.get("ds", "algo", {"k": 1}) is None
    assert cache.corrupt == 1
    assert metrics.snapshot()["counters"]["cache.corrupt"] == 1
    # The damaged entry was evicted, so a recompute overwrites it.
    cache.put("ds", "algo", {"k": 1}, {"value": 10})
    assert cache.get("ds", "algo", {"k": 1}) == {"value": 10}
    assert cache.stats()["corrupt"] == 1


def test_cache_decode_failure_degrades_to_miss():
    cache = AnalysisCache()

    def decode(payload):
        if "rows" not in payload:
            raise KeyError("rows")
        return payload["rows"]

    cache.put("ds", "algo", {"k": 2}, {"not-rows": []})
    assert cache.get("ds", "algo", {"k": 2}, decode=decode) is None
    assert cache.corrupt == 1
    cache.put("ds", "algo", {"k": 2}, {"rows": [1, 2]})
    assert cache.get("ds", "algo", {"k": 2}, decode=decode) == [1, 2]
    assert cache.stats()["hits"] == 1


def test_fault_injection_through_analysis_cache_stays_consistent():
    """Retries must not double-store: put() is idempotent per key."""
    cache = AnalysisCache()
    policy = RetryPolicy(max_attempts=3, base_delay=0.0)
    flaky = _Flaky(1)

    def compute():
        value = flaky()
        cache.put("ds", "flaky-algo", {"n": 1}, value)
        return value

    outcome = policy.execute(compute)
    assert outcome.ok
    assert cache.stats()["stores"] == 1
    assert cache.get("ds", "flaky-algo", {"n": 1}) == "healed"
