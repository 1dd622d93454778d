"""The ADA-HEALTH engine: automated analysis with minimal user input.

The facade wiring every component of the architecture together, in the
order of the paper's Figure 1:

1. **characterise** the dataset and store descriptors in the K-DB;
2. **identify viable end-goals** with the formal feasibility rules,
   ranked by the learned interest model;
3. per goal, **transform** the data, run **adaptive partial mining**
   and the **algorithm optimiser**, and execute the mining algorithm;
4. wrap the output in **knowledge items**, score their interestingness
   (predicting the expert degree when feedback history exists);
5. **rank** the items and return a navigable result whose feedback
   flows back into the K-DB, the ranker and the interest model.

A single call does all of it::

    engine = ADAHealth(seed=7)
    result = engine.analyze(log, name="diabetes-2016")
    for item in result.top(10):
        print(item.describe())
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.cloud.executor import (
    ProcessPoolExecutorBackend,
    SerialExecutor,
    SweepResult,
    TaskFailure,
    TaskSpec,
)
from repro.cloud.resilience import (
    INFRASTRUCTURE_ERRORS,
    CircuitBreaker,
    RetryPolicy,
)
from repro.core.cache import AnalysisCache, fingerprint_log
from repro.core.endgoals import (
    DEFAULT_END_GOALS,
    EndGoal,
    EndGoalInterestModel,
    ViableEndGoalFinder,
    ViableGoal,
)
from repro.core.extractors import (
    extract_cluster_items,
    extract_generalized_items,
    extract_itemset_items,
    extract_outlier_item,
    extract_rule_items,
    extract_sequence_items,
)
from repro.core.interestingness import degree_from_score, score_items
from repro.core.knowledge import KnowledgeItem
from repro.core.optimizer import KMeansOptimizer, OptimizationReport
from repro.core.partial import HorizontalPartialMiner, PartialMiningResult
from repro.core.ranking import KnowledgeRanker, NavigationSession
from repro.cloud.transport import log_lease, open_log
from repro.data.records import ExamLog
from repro.exceptions import EndGoalError, EngineError
from repro.mining.dbscan import DBSCAN
from repro.mining.generalized import mine_generalized_itemsets
from repro.mining.itemsets import mine_frequent_itemsets
from repro.mining.outliers import rank_outliers
from repro.mining.rules import generate_rules
from repro.obs.manifest import RunManifestBuilder
from repro.obs.metrics import Metrics
from repro.obs.tracer import NULL_TRACER
from repro.preprocess.characterization import characterize_log
from repro.preprocess.transforms import L2Normalizer
from repro.preprocess.vsm import VSMBuilder

#: Accepted values of ``EngineConfig.executor``.
EXECUTORS = ("serial", "process", "auto")

#: Logs below this record count resolve ``executor="auto"`` to the
#: serial backend: worker startup and transport would dominate the
#: actual per-goal compute.
AUTO_EXECUTOR_MIN_RECORDS = 20_000

#: Consecutive infrastructure failures (timeouts, worker crashes, a
#: raising process pool) after which the engine's circuit breaker opens
#: and the goal fan-out stays serial for the rest of the session.
BREAKER_THRESHOLD = 3


@dataclass
class EngineConfig:
    """Tunable knobs of the automated pipeline.

    Defaults are sized for interactive use on cohort-scale logs; the
    full paper-scale sweep (Table I) is available through
    :class:`repro.core.optimizer.KMeansOptimizer` directly.
    """

    k_values: Sequence[int] = (4, 6, 8, 10)
    partial_fractions: Sequence[float] = (0.2, 0.4, 1.0)
    partial_k_values: Sequence[int] = (6, 8)
    partial_tolerance: float = 0.05
    weighting: str = "binary"
    auto_transform: bool = False
    min_support: float = 0.15
    min_confidence: float = 0.7
    generalized_min_support: float = 0.3
    sequence_min_support: float = 0.2
    sequence_max_length: int = 3
    sequence_sample: int = 1500
    max_goals: Optional[int] = None
    items_per_goal: int = 25
    n_folds: int = 5
    #: Backend for the per-goal fan-out: "serial" (in-process),
    #: "process" (true CPU parallelism; goal pipelines are side-effect
    #: free so results merge deterministically), or "auto" — serial on
    #: single-core hosts or small logs, otherwise a process pool fed
    #: through the shared-memory transport. The choice never changes
    #: results, only where they are computed. Any other name raises
    #: ``EngineError`` when the engine is built.
    executor: str = "serial"
    executor_workers: int = 4
    #: Memoise per-goal results (and the K-means sweeps inside them) in
    #: an :class:`repro.core.cache.AnalysisCache` keyed on the dataset
    #: fingerprint, so re-analysing an unchanged log is nearly free.
    use_cache: bool = False
    #: Telemetry: a :class:`repro.obs.Tracer` emitting nested spans and
    #: a :class:`repro.obs.Metrics` registry. Defaults resolve to the
    #: no-op :data:`repro.obs.NULL_TRACER` and a fresh registry. Both
    #: are excluded from cache keys — they observe the pipeline, never
    #: change its results.
    tracer: Optional[Any] = None
    metrics: Optional[Any] = None
    #: What to do when one goal pipeline raises: ``"raise"`` aborts the
    #: whole analysis (default); ``"degrade"`` records the goal as a
    #: failed :class:`GoalRun` in the manifest and carries on — the
    #: surviving goals still rank and persist, and the run manifest is
    #: stamped ``"degraded"``.
    on_goal_error: str = "raise"
    #: Retry attempts beyond the first for each goal task, on every
    #: backend (serial included) — 0 disables retrying. Backoff jitter
    #: is seeded from the engine seed, so retried runs stay reproducible.
    retries: int = 0
    #: Per-task wall-clock budget (seconds) for the process backend; a
    #: hung task is failed with ``TaskTimeoutError`` and its siblings
    #: are respawned rather than lost. None disables timeouts.
    task_timeout: Optional[float] = None


@dataclass
class GoalRun:
    """Everything produced while pursuing one end-goal.

    ``status`` is ``"completed"`` for a normal run or ``"failed"`` for
    a goal that raised under ``on_goal_error="degrade"`` (its ``error``
    then carries the ``"ExcType: message"`` summary and ``items`` is
    empty).
    """

    goal: EndGoal
    items: List[KnowledgeItem]
    optimization: Optional[OptimizationReport] = None
    partial: Optional[PartialMiningResult] = None
    notes: Dict[str, Any] = field(default_factory=dict)
    status: str = "completed"
    error: Optional[str] = None


@dataclass
class AnalysisResult:
    """Outcome of one automated analysis session."""

    dataset_id: Any
    profile: Any
    assessments: List[ViableGoal]
    runs: List[GoalRun]
    items: List[KnowledgeItem]  # ranked, best first
    engine: "ADAHealth"
    user: str

    def top(self, count: int = 10) -> List[KnowledgeItem]:
        """The ``count`` best-ranked knowledge items."""
        return self.items[:count]

    def run_for(self, goal_name: str) -> GoalRun:
        """The run record of a goal by name."""
        for run in self.runs:
            if run.goal.name == goal_name:
                return run
        raise EndGoalError(f"goal {goal_name!r} was not run")

    def failed_goals(self) -> List[str]:
        """Names of goals that failed under degraded-mode analysis."""
        return [
            run.goal.name for run in self.runs if run.status == "failed"
        ]

    @property
    def degraded(self) -> bool:
        """Did any goal fail (results cover only the survivors)?"""
        return bool(self.failed_goals())

    def navigate(self, page_size: int = 10) -> NavigationSession:
        """Open an interactive navigation session over the items.

        Feedback given through the session adapts the engine's ranker
        and is persisted in the K-DB.
        """
        return NavigationSession(
            items=self.items,
            ranker=self.engine.ranker,
            page_size=page_size,
            kdb=self.engine.kdb,
            user=self.user,
        )

    def summary(self) -> str:
        """Human-readable session report."""
        lines = [
            f"dataset {self.dataset_id}: {self.profile.n_rows} patients x"
            f" {self.profile.n_features} exam types"
            f" (sparsity {self.profile.sparsity:.2f})",
            "end-goals:",
        ]
        ran = {run.goal.name for run in self.runs}
        failed = set(self.failed_goals())
        for assessment in self.assessments:
            name = assessment.goal.name
            if name in failed:
                status = "FAILED"
            elif name in ran:
                status = "ran"
            else:
                status = "viable" if assessment.viable else "not viable"
            lines.append(
                f"  - {name}: {status} ({assessment.reason})"
            )
        if failed:
            lines.append(
                "degraded analysis: "
                + ", ".join(sorted(failed))
                + " failed; items below cover the surviving goals"
            )
        lines.append(f"knowledge items: {len(self.items)}")
        for item in self.top(5):
            lines.append(f"  * {item.describe()}")
        return "\n".join(lines)


class ADAHealth:
    """The automated medical data-analysis engine.

    Parameters
    ----------
    kdb:
        A :class:`repro.kdb.KnowledgeBase`; a fresh in-memory one by
        default.
    goals:
        End-goal registry (the paper's broad analysis families by
        default: segmentation, co-prescriptions, rules, sequences,
        outliers, category profiles).
    config:
        Pipeline knobs.
    seed:
        Seed for every stochastic step.
    cache:
        Optional :class:`repro.core.cache.AnalysisCache` for memoising
        per-goal results. When ``config.use_cache`` is set and no cache
        is given, one is created inside the engine's document store (so
        a K-DB opened with ``KnowledgeBase.open_sharded`` persists it
        alongside the six collections).
    """

    def __init__(
        self,
        kdb=None,
        goals: Sequence[EndGoal] = DEFAULT_END_GOALS,
        config: Optional[EngineConfig] = None,
        seed: int = 0,
        cache: Optional[AnalysisCache] = None,
    ) -> None:
        if kdb is None:
            from repro.kdb.kdb import KnowledgeBase

            kdb = KnowledgeBase()
        self.kdb = kdb
        self.finder = ViableEndGoalFinder(goals)
        self.config = config or EngineConfig()
        self.seed = seed
        if cache is None and self.config.use_cache:
            cache = self.kdb.analysis_cache()
        self.cache = cache
        self.tracer = self.config.tracer or NULL_TRACER
        self.metrics = self.config.metrics or Metrics()
        if self.config.on_goal_error not in ("raise", "degrade"):
            raise EngineError(
                "on_goal_error must be 'raise' or 'degrade', got"
                f" {self.config.on_goal_error!r}"
            )
        if self.config.executor not in EXECUTORS:
            raise EngineError(
                f"executor must be one of {', '.join(EXECUTORS)}, got"
                f" {self.config.executor!r}"
            )
        if self.config.retries < 0:
            raise EngineError("retries must be >= 0")
        # Built once so every goal fan-out shares one policy and one
        # breaker state across the session.
        self.retry_policy = (
            RetryPolicy(
                max_attempts=self.config.retries + 1, seed=seed
            )
            if self.config.retries > 0
            else None
        )
        self.breaker = CircuitBreaker(
            threshold=BREAKER_THRESHOLD, metrics=self.metrics
        )
        if self.cache is not None:
            self.cache.bind_metrics(self.metrics)
        self.ranker = KnowledgeRanker()
        self.interest_model = EndGoalInterestModel(
            goal_names=[goal.name for goal in goals], seed=seed
        )

    # ------------------------------------------------------------------
    def analyze(
        self,
        log: ExamLog,
        name: str = "dataset",
        user: str = "anonymous",
        goals: Optional[Sequence[str]] = None,
    ) -> AnalysisResult:
        """Run the full automated pipeline on an examination log.

        Parameters
        ----------
        goals:
            Optional explicit goal names; by default every *viable* goal
            is pursued, in the interest model's preference order
            (limited by ``config.max_goals``).

        Every call — traced or not — leaves one run manifest in the
        K-DB ``runs`` collection: the execution record (goals, timings,
        cache traffic, failures) that past-experience lookups consult.
        A failing analysis records a ``"failed"`` manifest and re-raises.
        """
        manifest = RunManifestBuilder(
            dataset_fingerprint=fingerprint_log(log),
            dataset_name=name,
            user=user,
            seed=self.seed,
        )
        cache_before = (
            self.cache.stats() if self.cache is not None else None
        )
        resilience_before = _resilience_counters(self.metrics)
        try:
            with self.tracer.span("analyze", dataset=name, user=user):
                result = self._analyze(log, name, user, goals, manifest)
        except Exception as exc:  # records a "failed" manifest, re-raises
            self._record_cache_traffic(manifest, cache_before)
            self._record_resilience(manifest, resilience_before)
            self.kdb.record_run(
                manifest.fail(
                    f"{type(exc).__name__}: {exc}",
                    self.metrics.snapshot(),
                )
            )
            raise
        self._record_cache_traffic(manifest, cache_before)
        self._record_resilience(manifest, resilience_before)
        self.kdb.record_run(
            manifest.finish(len(result.items), self.metrics.snapshot())
        )
        return result

    def _analyze(
        self,
        log: ExamLog,
        name: str,
        user: str,
        goals: Optional[Sequence[str]],
        manifest: RunManifestBuilder,
    ) -> AnalysisResult:
        """The pipeline body of :meth:`analyze` (runs inside its span)."""
        with self.tracer.span("characterize"):
            profile = characterize_log(log)
            dataset_id = self.kdb.register_dataset(log, name)
            self.kdb.store_profile(dataset_id, profile.to_document())
        manifest.dataset["id"] = dataset_id

        with self.tracer.span("assess-goals"):
            assessments = self.finder.assess(profile)
            selected = self._select_goals(assessments, profile, goals)
        for assessment in assessments:
            manifest.assess_goal(
                assessment.goal.name, assessment.viable, assessment.reason
            )

        with self.tracer.span("run-goals", n_goals=len(selected)):
            runs = self._run_goals(
                selected, log, profile, dataset_id, manifest
            )

        # Goal pipelines are side-effect free (so they can run in worker
        # processes and be cached); their deferred K-DB writes happen
        # here, in goal order.
        for run in runs:
            transformation = run.notes.get("transformation")
            if transformation is not None:
                self.kdb.store_transformation(dataset_id, transformation)

        with self.tracer.span("score-and-rank"):
            items: List[KnowledgeItem] = []
            for run in runs:
                items.extend(run.items)
            score_items(items)
            self._attach_degrees(items)
            self.kdb.store_items(items, dataset_id)
            ranked = self.ranker.rank(items)
            for rank, item in enumerate(
                ranked[: self.config.items_per_goal]
            ):
                self.kdb.select_item(item, rank)

        return AnalysisResult(
            dataset_id=dataset_id,
            profile=profile,
            assessments=assessments,
            runs=runs,
            items=ranked,
            engine=self,
            user=user,
        )

    def _record_resilience(
        self,
        manifest: RunManifestBuilder,
        before: Dict[str, int],
    ) -> None:
        """Record this run's share of the resilience counters (deltas)
        plus the breaker's end-of-run state."""
        after = _resilience_counters(self.metrics)
        manifest.record_resilience(
            retries=after["resilience.retries"]
            - before["resilience.retries"],
            timeouts=after["resilience.timeouts"]
            - before["resilience.timeouts"],
            worker_crashes=after["resilience.worker_crashes"]
            - before["resilience.worker_crashes"],
            fallbacks=after["resilience.fallbacks"]
            - before["resilience.fallbacks"],
            faults_injected=after["resilience.faults_injected"]
            - before["resilience.faults_injected"],
            breaker=self.breaker.snapshot(),
        )

    def _record_cache_traffic(
        self,
        manifest: RunManifestBuilder,
        before: Optional[Dict[str, int]],
    ) -> None:
        """Record this run's share of the cache counters (deltas)."""
        if self.cache is None or before is None:
            manifest.record_cache(False, 0, 0, 0)
            return
        after = self.cache.stats()
        manifest.record_cache(
            True,
            after["hits"] - before["hits"],
            after["misses"] - before["misses"],
            after["stores"] - before["stores"],
        )

    # ------------------------------------------------------------------
    def _select_goals(
        self,
        assessments: List[ViableGoal],
        profile,
        requested: Optional[Sequence[str]],
    ) -> List[EndGoal]:
        viable = [a.goal for a in assessments if a.viable]
        if requested is not None:
            chosen = []
            viable_names = {goal.name for goal in viable}
            for name in requested:
                goal = self.finder.by_name(name)
                if name not in viable_names:
                    raise EndGoalError(
                        f"goal {name!r} is not viable for this dataset"
                    )
                chosen.append(goal)
            return chosen
        ranked = self.interest_model.rank_goals(viable, profile)
        goals = [goal for goal, __ in ranked]
        if self.config.max_goals is not None:
            goals = goals[: self.config.max_goals]
        return goals

    def _attach_degrees(self, items: List[KnowledgeItem]) -> None:
        """Predict degrees from feedback history when available."""
        if self.kdb.feedback_count() >= 10:
            predictor = self.kdb.train_degree_predictor(seed=self.seed)
            predictor.predict_many(items, attach=True)
        else:
            for item in items:
                item.degree = degree_from_score(item.score)

    # ------------------------------------------------------------------
    # Goal fan-out: cache lookups, executor dispatch, ordered merge
    # ------------------------------------------------------------------
    def _run_goals(
        self,
        selected: List[EndGoal],
        log: ExamLog,
        profile,
        dataset_id,
        manifest: RunManifestBuilder,
    ) -> List[GoalRun]:
        """Run the selected goals through one executor dispatch.

        End-goal pipelines are independent and side-effect free, so
        every pending goal becomes one task on a :mod:`repro.cloud`
        backend — serial when at most one goal is pending or the
        breaker is open (see :meth:`_dispatch`), otherwise the
        configured one. Tasks are dispatched in the finder's registry
        order, which lists the heaviest goal (segmentation) first, so a
        pool does not start it last; results merge back
        **in goal order**: identical across serial and process
        execution. Every backend shares one set of semantics:
        ``retries`` apply per goal task, ``on_goal_error="raise"``
        re-raises the first failure in goal order once the dispatch
        returns, and ``goal`` spans are replayed from the reported task
        timings as children of ``run-goals``. With a cache, goals whose
        (dataset fingerprint, goal, config, seed) key is already known
        are restored instead of recomputed.
        """
        fingerprint: Optional[str] = None
        restored: Dict[str, GoalRun] = {}
        pending = list(selected)
        if self.cache is not None:
            fingerprint = fingerprint_log(log)
            pending = []
            for goal in selected:
                # Corrupt stored runs decode-fail into a miss and the
                # goal is recomputed (cache.corrupt counts them).
                hit = self.cache.get(
                    fingerprint,
                    "engine-goal-run",
                    self._goal_params(goal),
                    decode=lambda payload, goal=goal: (
                        self._goal_run_from_document(
                            payload, goal, dataset_id
                        )
                    ),
                )
                if hit is None:
                    pending.append(goal)
                else:
                    restored[goal.name] = hit
        for name, run in restored.items():
            manifest.add_goal(
                name,
                wall_s=0.0,
                n_items=len(run.items),
                cached=True,
                algorithms=_run_algorithms(run),
            )

        backend = (
            "serial" if len(pending) <= 1 else self._resolved_executor(log)
        )
        if backend == "process" and self.breaker.is_open:
            # A tripped breaker keeps the fan-out serial for the rest of
            # the session: no pool, no shared-memory copy of the log.
            backend = "serial"
            self.metrics.counter("resilience.fallbacks").inc()
        executor = self._goal_executor(backend)
        # The lease ships the log once: the serial backend gets it
        # as is, the process backend pickles a ~100-byte shared-memory
        # handle per task instead of the full record set.
        registry = [goal.name for goal in self.finder.goals]
        dispatch = sorted(
            range(len(pending)),
            key=lambda position: registry.index(pending[position].name),
        )
        with log_lease(executor, log) as logref:
            tasks = [
                TaskSpec(
                    _run_goal_task,
                    (self, goal.name, logref, profile, dataset_id),
                )
                for goal in (pending[position] for position in dispatch)
            ]
            outcome = self._dispatch(executor, tasks)
        manifest.record_executor(
            backend,
            1 if backend == "serial" else self.config.executor_workers,
            outcome.n_failures,
        )
        values: List[Any] = [None] * len(pending)
        task_seconds: List[Optional[float]] = [None] * len(pending)
        for slot, position in enumerate(dispatch):
            values[position] = outcome.results[slot]
            task_seconds[position] = outcome.task_seconds[slot]
        computed: Dict[str, GoalRun] = {}
        degrade = self.config.on_goal_error == "degrade"
        for goal, value, seconds in zip(pending, values, task_seconds):
            failed = isinstance(value, TaskFailure)
            if seconds is not None:
                # Goal pipelines may have run in workers; replay their
                # reported timings as child spans of "run-goals".
                self.tracer.record_span(
                    "goal", seconds, goal=goal.name, failed=failed
                )
            if failed:
                manifest.add_goal(
                    goal.name,
                    wall_s=seconds or 0.0,
                    status="failed",
                    error=f"{type(value.error).__name__}: {value.error}",
                )
                if not degrade:
                    raise value.error
                computed[goal.name] = _failed_goal_run(goal, value.error)
                continue
            computed[goal.name] = value
            manifest.add_goal(
                goal.name,
                wall_s=seconds or 0.0,
                n_items=len(value.items),
                algorithms=_run_algorithms(value),
            )

        # Cache writes stay in the parent process so they survive
        # process-pool execution. Failed (degraded) goals are never
        # cached: a transient fault must not poison future runs.
        if fingerprint is not None:
            for goal in pending:
                run = computed[goal.name]
                if run.status != "completed":
                    continue
                self.cache.put(
                    fingerprint,
                    "engine-goal-run",
                    self._goal_params(goal),
                    self._goal_run_to_document(run),
                )
        return [
            restored[goal.name]
            if goal.name in restored
            else computed[goal.name]
            for goal in selected
        ]

    def _resolved_executor(self, log: ExamLog) -> str:
        """Resolve ``executor="auto"`` against the host and payload.

        Process pools only pay off when there are spare cores and the
        per-goal work dwarfs worker startup: single-core hosts and
        small logs resolve to "serial", everything else to "process"
        (which ships the log through the shared-memory transport).
        Explicit backend names pass through untouched. The choice never
        affects results — goal pipelines are deterministic and
        side-effect free — only where they execute. Cores are counted
        from the process's CPU affinity mask where the platform has
        one, so a pinned process or a one-CPU container stays serial.
        """
        if self.config.executor != "auto":
            return self.config.executor
        cpus = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1
        )
        if cpus <= 1:
            return "serial"
        if log.n_records < AUTO_EXECUTOR_MIN_RECORDS:
            return "serial"
        return "process"

    def _goal_executor(self, name: str):
        """Build the resolved backend ``name`` for the goal fan-out.

        Both backends carry the engine's retry policy and metrics; the
        process pool also carries the task timeout.
        """
        if name == "process":
            return ProcessPoolExecutorBackend(
                workers=self.config.executor_workers,
                metrics=self.metrics,
                retry=self.retry_policy,
                task_timeout=self.config.task_timeout,
            )
        return SerialExecutor(metrics=self.metrics, retry=self.retry_policy)

    def _dispatch(self, executor, tasks: List[TaskSpec]) -> SweepResult:
        """Run the goal tasks, rescuing what a process pool loses.

        A process dispatch that raises, or that returns slots failed by
        :data:`~repro.cloud.resilience.INFRASTRUCTURE_ERRORS` (timeouts,
        worker crashes), feeds the engine's breaker; a clean one resets
        its streak. A raising dispatch re-runs every task serially.
        Otherwise the lost slots stay failed until the breaker trips;
        then they alone re-run serially in this call, and completed
        siblings are kept. Each rescue counts one
        ``resilience.fallbacks``. A goal's own errors never touch the
        breaker: they would fail the same way on any backend.
        """
        if not isinstance(executor, ProcessPoolExecutorBackend):
            return executor.run(tasks)
        serial = self._goal_executor("serial")
        try:
            outcome = executor.run(tasks)
        except Exception:  # noqa: BLE001 - counted, then rescued
            self.breaker.record_failure()
            self.metrics.counter("resilience.fallbacks").inc()
            return serial.run(tasks)
        lost = [
            slot
            for slot, value in enumerate(outcome.results)
            if isinstance(value, TaskFailure)
            and isinstance(value.error, INFRASTRUCTURE_ERRORS)
        ]
        if not lost:
            self.breaker.record_success()
            return outcome
        self.breaker.record_failure(len(lost))
        if not self.breaker.is_open:
            return outcome
        self.metrics.counter("resilience.fallbacks").inc()
        rescue = serial.run([tasks[slot] for slot in lost])
        for slot, value, seconds in zip(
            lost, rescue.results, rescue.task_seconds
        ):
            outcome.results[slot] = value
            outcome.task_seconds[slot] = seconds
        outcome.n_failures = sum(
            1 for value in outcome.results if isinstance(value, TaskFailure)
        )
        outcome.wall_seconds += rescue.wall_seconds
        return outcome

    def _goal_params(self, goal: EndGoal) -> Dict[str, Any]:
        """Cache-key parameters for one goal run.

        The execution knobs (``executor*``, ``use_cache``), the
        telemetry handles (``tracer``, ``metrics``) and the fault-
        tolerance knobs (``on_goal_error``, ``retries``,
        ``task_timeout``) are excluded: they change *where* the
        pipeline runs, what observes it or how it recovers, never its
        result, so a sweep finished serially is reusable by a traced,
        retry-hardened process-parallel run (and vice versa).
        """
        excluded = {
            "executor",
            "executor_workers",
            "use_cache",
            "tracer",
            "metrics",
            "on_goal_error",
            "retries",
            "task_timeout",
        }
        params = {
            spec.name: getattr(self.config, spec.name)
            for spec in dataclass_fields(self.config)
            if spec.name not in excluded
        }
        return {"goal": goal.name, "config": params, "seed": self.seed}

    @staticmethod
    def _goal_run_to_document(run: GoalRun) -> Dict[str, Any]:
        return {
            "goal": run.goal.name,
            "items": [item.to_document() for item in run.items],
            "optimization": (
                run.optimization.to_document()
                if run.optimization is not None
                else None
            ),
            "partial": (
                run.partial.to_document()
                if run.partial is not None
                else None
            ),
            "notes": dict(run.notes),
        }

    def _goal_run_from_document(
        self, document: Dict[str, Any], goal: EndGoal, dataset_id
    ) -> GoalRun:
        items = [
            KnowledgeItem.from_document(doc) for doc in document["items"]
        ]
        # Cached items came from an earlier K-DB registration of the
        # same log; re-point their provenance at this session's dataset.
        for item in items:
            if "dataset_id" in item.provenance:
                item.provenance["dataset_id"] = dataset_id
        optimization = document.get("optimization")
        partial = document.get("partial")
        return GoalRun(
            goal=goal,
            items=items,
            optimization=(
                OptimizationReport.from_document(optimization)
                if optimization is not None
                else None
            ),
            partial=(
                PartialMiningResult.from_document(partial)
                if partial is not None
                else None
            ),
            notes=dict(document.get("notes", {})),
        )

    # ------------------------------------------------------------------
    # Per-goal pipelines
    # ------------------------------------------------------------------
    def _run_goal(
        self, goal: EndGoal, log: ExamLog, profile, dataset_id
    ) -> GoalRun:
        if goal.name == "patient-segmentation":
            return self._run_segmentation(goal, log, dataset_id)
        if goal.name == "co-prescription-patterns":
            return self._run_itemsets(goal, log, dataset_id)
        if goal.name == "care-pathway-rules":
            return self._run_rules(goal, log, dataset_id)
        if goal.name == "care-sequences":
            return self._run_sequences(goal, log, dataset_id)
        if goal.name == "outlier-screening":
            return self._run_outliers(goal, log, dataset_id)
        if goal.name == "guideline-compliance":
            return self._run_compliance(goal, log, dataset_id)
        if goal.name == "exam-category-profiles":
            return self._run_generalized(goal, log, dataset_id)
        raise EndGoalError(
            f"no pipeline registered for end-goal {goal.name!r}"
        )

    def _run_segmentation(self, goal, log, dataset_id) -> GoalRun:
        cfg = self.config
        weighting = cfg.weighting
        normalize = True
        if cfg.auto_transform:
            # The paper's "totally automatic strategy to select the
            # optimal data transformation": pilot-cluster the candidate
            # (weighting, scaling) combinations and keep the winner.
            from repro.preprocess.autoselect import TransformSelector

            selection = TransformSelector(seed=self.seed).select(log)
            weighting = selection.best.weighting
            normalize = selection.best.scaling == "l2"
        miner = HorizontalPartialMiner(
            fractions=cfg.partial_fractions,
            k_values=cfg.partial_k_values,
            tolerance=cfg.partial_tolerance,
            weighting=weighting,
            normalize=normalize,
            cache=self.cache,
            seed=self.seed,
        )
        partial = miner.mine(log)
        codes = partial.selected_codes
        # The sweep clusters the selected subset's matrix, which the
        # miner has built and clustered already: its fits at the shared
        # K values are resumed, not repeated.
        matrix = miner.selected_matrix
        # Deferred K-DB write: recorded in the notes and persisted by
        # ``analyze`` after the fan-out, keeping this pipeline free of
        # side effects (safe to run in a worker process or restore from
        # cache).
        transformation = {
            "weighting": weighting,
            "scaling": "l2" if normalize else "identity",
            "auto_selected": cfg.auto_transform,
            "n_features": len(codes),
            "feature_fraction": partial.selected_fraction,
        }
        k_values = [k for k in cfg.k_values if k < matrix.shape[0]]
        if not k_values:
            raise EngineError("dataset too small for any configured K")
        optimizer = KMeansOptimizer(
            k_values=k_values,
            n_folds=cfg.n_folds,
            cache=self.cache,
            seed=self.seed,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        report = optimizer.optimize(matrix, resume=miner.checkpoints)
        best = report.best_row
        items = extract_cluster_items(
            matrix,
            best.labels,
            best.centers,
            log,
            codes,
            end_goal=goal.name,
            run_quality={
                "overall_similarity": best.overall_similarity,
                "accuracy": best.accuracy,
                "avg_precision": best.avg_precision,
                "avg_recall": best.avg_recall,
            },
            provenance={
                "algorithm": "kmeans",
                "k": best.k,
                "weighting": weighting,
                "feature_fraction": partial.selected_fraction,
                "dataset_id": dataset_id,
            },
        )
        return GoalRun(
            goal=goal,
            items=items,
            optimization=report,
            partial=partial,
            notes={"transformation": transformation},
        )

    def _transactions(self, log: ExamLog) -> List[List[str]]:
        return log.transactions(by="patient")

    def _run_itemsets(self, goal, log, dataset_id) -> GoalRun:
        transactions = self._transactions(log)
        itemsets = mine_frequent_itemsets(
            transactions,
            self.config.min_support,
            algorithm="apriori",
            metrics=self.metrics,
        )
        items = extract_itemset_items(
            itemsets,
            end_goal=goal.name,
            top=self.config.items_per_goal,
            provenance={
                "algorithm": "apriori",
                "min_support": self.config.min_support,
                "dataset_id": dataset_id,
            },
        )
        return GoalRun(
            goal=goal, items=items, notes={"n_itemsets": len(itemsets)}
        )

    def _run_rules(self, goal, log, dataset_id) -> GoalRun:
        transactions = self._transactions(log)
        itemsets = mine_frequent_itemsets(
            transactions,
            self.config.min_support,
            algorithm="apriori",
            metrics=self.metrics,
        )
        rules = generate_rules(
            itemsets, min_confidence=self.config.min_confidence
        )
        items = extract_rule_items(
            rules,
            end_goal=goal.name,
            top=self.config.items_per_goal,
            provenance={
                "algorithm": "apriori+rules",
                "min_support": self.config.min_support,
                "min_confidence": self.config.min_confidence,
                "dataset_id": dataset_id,
            },
        )
        return GoalRun(goal=goal, items=items, notes={"n_rules": len(rules)})

    def _run_sequences(self, goal, log, dataset_id) -> GoalRun:
        from repro.mining.sequences import (
            mine_sequences,
            sequences_from_log,
        )

        cfg = self.config
        sequences = sequences_from_log(log)
        # Vertical partial mining for the expensive temporal miner: a
        # patient sample bounds the PrefixSpan cost; supports are
        # estimates over the sample (noted in the provenance).
        sampled = len(sequences) > cfg.sequence_sample
        if sampled:
            rng = np.random.default_rng(self.seed)
            picks = rng.choice(
                len(sequences), size=cfg.sequence_sample, replace=False
            )
            sequences = [sequences[i] for i in sorted(picks)]
        patterns = mine_sequences(
            sequences,
            cfg.sequence_min_support,
            max_length=cfg.sequence_max_length,
        )
        items = extract_sequence_items(
            patterns,
            end_goal=goal.name,
            top=cfg.items_per_goal,
            provenance={
                "algorithm": "prefixspan",
                "min_support": cfg.sequence_min_support,
                "sampled": sampled,
                "n_sequences": len(sequences),
                "dataset_id": dataset_id,
            },
        )
        return GoalRun(
            goal=goal, items=items, notes={"n_patterns": len(patterns)}
        )

    def _run_outliers(self, goal, log, dataset_id) -> GoalRun:
        vsm = VSMBuilder(self.config.weighting).build(log)
        patient_ids = vsm.patient_ids
        # Only the normalised matrix lives through the distance pass.
        matrix = L2Normalizer().transform(vsm.matrix)
        del vsm
        eps = _eps_heuristic(matrix, seed=self.seed)
        # One blocked distance pass gives both the neighbourhoods and
        # each point's kNN distance.
        model = DBSCAN(eps=eps, min_samples=5, n_neighbors=5).fit(matrix)
        item = extract_outlier_item(
            model.labels_,
            patient_ids,
            end_goal=goal.name,
            provenance={
                "algorithm": "dbscan",
                "eps": eps,
                "min_samples": 5,
                "dataset_id": dataset_id,
            },
        )
        # Attach a ranked most-atypical list (kNN distance scores) so
        # navigation can show "the N strangest histories", not just a
        # flat noise set.
        indexes, scores = rank_outliers(model.knn_distances_, n_outliers=20)
        item.payload["most_atypical"] = [
            {
                "patient_id": int(patient_ids[index]),
                "score": float(score),
            }
            for index, score in zip(indexes, scores)
        ]
        return GoalRun(
            goal=goal,
            items=[item],
            notes={"n_clusters": model.n_clusters()},
        )

    def _run_compliance(self, goal, log, dataset_id) -> GoalRun:
        from repro.core.guidelines import (
            assess_compliance,
            default_diabetes_guidelines,
            extract_compliance_items,
        )
        from repro.exceptions import DataError

        # Keep only the guidelines resolvable against this taxonomy
        # (scaled-down logs may lack some named exams).
        usable = []
        for guideline in default_diabetes_guidelines():
            try:
                if guideline.exam_name is not None:
                    log.taxonomy.by_name(guideline.exam_name)
                else:
                    log.taxonomy.codes_in_category(guideline.category)
                usable.append(guideline)
            except DataError:
                continue
        if not usable:
            return GoalRun(
                goal=goal, items=[], notes={"n_guidelines": 0}
            )
        report = assess_compliance(log, usable)
        items = extract_compliance_items(
            report,
            end_goal=goal.name,
            provenance={
                "algorithm": "guideline-assessment",
                "n_guidelines": len(usable),
                "dataset_id": dataset_id,
            },
        )
        return GoalRun(
            goal=goal,
            items=items,
            notes={
                "n_guidelines": len(usable),
                "mean_patient_score": report.mean_patient_score,
            },
        )

    def _run_generalized(self, goal, log, dataset_id) -> GoalRun:
        transactions = self._transactions(log)
        generalized = mine_generalized_itemsets(
            transactions,
            log.taxonomy.parent_map(),
            self.config.generalized_min_support,
            algorithm="apriori",
            max_length=4,
        )
        items = extract_generalized_items(
            generalized,
            end_goal=goal.name,
            top=self.config.items_per_goal,
            provenance={
                "algorithm": "generalized-apriori",
                "min_support": self.config.generalized_min_support,
                "dataset_id": dataset_id,
            },
        )
        return GoalRun(
            goal=goal,
            items=items,
            notes={"n_generalized": len(generalized)},
        )

    # ------------------------------------------------------------------
    def record_goal_feedback(
        self, goal_name: str, profile, interested: bool
    ) -> None:
        """Teach the interest model whether a goal was worth running."""
        goal = self.finder.by_name(goal_name)
        self.interest_model.record_interaction(goal, profile, interested)


#: Counters whose per-run deltas land in the manifest's resilience
#: section (emitted by the executor backends and the engine's breaker).
_RESILIENCE_COUNTERS = (
    "resilience.retries",
    "resilience.timeouts",
    "resilience.worker_crashes",
    "resilience.fallbacks",
    "resilience.faults_injected",
)


def _resilience_counters(metrics) -> Dict[str, int]:
    """Current values of the resilience counters (0 when untouched)."""
    return {
        name: metrics.counter_value(name)
        for name in _RESILIENCE_COUNTERS
    }


def _failed_goal_run(goal: EndGoal, error: Exception) -> GoalRun:
    """The degraded-mode placeholder for a goal whose pipeline raised."""
    return GoalRun(
        goal=goal,
        items=[],
        status="failed",
        error=f"{type(error).__name__}: {error}",
    )


def _run_algorithms(run: GoalRun) -> List[str]:
    """Distinct algorithm names recorded in a run's item provenance."""
    return sorted(
        {
            str(item.provenance["algorithm"])
            for item in run.items
            if item.provenance.get("algorithm")
        }
    )


def _run_goal_task(
    engine: "ADAHealth", goal_name: str, logref, profile, dataset_id
):
    """Module-level goal task (picklable for process backends).

    ``logref`` is whatever :func:`repro.cloud.transport.log_lease`
    shipped: the :class:`ExamLog` itself in-process, or a shared-memory
    handle that is attached for the duration of the goal pipeline.
    """
    goal = engine.finder.by_name(goal_name)
    with open_log(logref) as log:
        return engine._run_goal(goal, log, profile, dataset_id)


def _eps_heuristic(
    matrix: np.ndarray, quantile: float = 0.15, seed: int = 0
) -> float:
    """Pick a DBSCAN radius from a sample of pairwise distances."""
    rng = np.random.default_rng(seed)
    n = matrix.shape[0]
    sample = matrix[rng.choice(n, size=min(n, 400), replace=False)]
    from repro.mining.distance import squared_euclidean

    distances = np.sqrt(squared_euclidean(sample, sample))
    positive = distances[distances > 0]
    if positive.size == 0:
        return 0.5
    return float(np.quantile(positive, quantile))
