"""Per-layer span ledger for the session benchmark.

The benchmark traces the engine from the outside: it wraps the public
callable at each layer boundary, under the name the engine looks it up
by (engine-imported functions on ``repro.core.engine``, methods on
their classes), records one span per call in memory, and folds the
spans into inclusive and self time per layer. Nothing inside ``src/``
knows it is being traced, and untraced sessions run the original
callables because the wrappers are removed between sessions.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from statistics import median
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layer boundaries: name -> the ``module:attribute`` targets whose calls
#: are its spans. A dotted attribute is a method of a class.
BOUNDARIES: Dict[str, Tuple[str, ...]] = {
    "engine.init": ("repro.core.engine:ADAHealth.__init__",),
    "engine.analyze": ("repro.core.engine:ADAHealth.analyze",),
    "preprocess.characterize": ("repro.core.engine:characterize_log",),
    "preprocess.vsm": (
        "repro.preprocess.vsm:VSMBuilder.build",
        "repro.preprocess.transforms:L2Normalizer.transform",
    ),
    "partial.mine": ("repro.core.partial:HorizontalPartialMiner.mine",),
    "optimizer.sweep": ("repro.core.optimizer:KMeansOptimizer.optimize",),
    "optimizer.kmeans": ("repro.mining.kmeans:KMeans.fit",),
    "optimizer.cv": ("repro.core.optimizer:cross_validate",),
    "mining.dbscan": ("repro.mining.dbscan:DBSCAN.fit",),
    "mining.outliers": ("repro.mining.outliers:top_outliers",),
    "mining.itemsets": ("repro.core.engine:mine_frequent_itemsets",),
    "mining.rules": ("repro.core.engine:generate_rules",),
    "mining.sequences": (
        "repro.mining.sequences:sequences_from_log",
        "repro.mining.sequences:mine_sequences",
    ),
    "mining.generalized": ("repro.core.engine:mine_generalized_itemsets",),
    "guidelines.assess": ("repro.core.guidelines:assess_compliance",),
    "data.transactions": ("repro.data.records:ExamLog.transactions",),
    "cache.fingerprint": ("repro.core.engine:fingerprint_log",),
    "cache.get": ("repro.core.cache:AnalysisCache.get",),
    "cache.put": ("repro.core.cache:AnalysisCache.put",),
    "kdb.open": ("repro.kdb.kdb:KnowledgeBase.open_sharded",),
    "kdb.write": tuple(
        f"repro.kdb.kdb:KnowledgeBase.{method}"
        for method in (
            "register_dataset",
            "store_profile",
            "store_transformation",
            "store_items",
            "select_item",
            "record_run",
            "record_feedback",
        )
    ),
    "kdb.close": ("repro.kdb.shards:ShardedDocumentStore.close",),
    "rank.score": ("repro.core.engine:score_items",),
    "rank.rank": ("repro.core.ranking:KnowledgeRanker.rank",),
    "executor.run": (
        "repro.cloud.executor:ProcessPoolExecutorBackend.run",
    ),
}

#: Boundaries whose peak resident-set rise is sampled during each call.
RSS_BOUNDARIES = ("preprocess.vsm", "mining.dbscan")

#: Calls that are only counted (too small and frequent for a span).
COUNTED: Dict[str, str] = {
    "kdb.storage.lines": "repro.kdb.storage:AppendHandle.write_line",
    "kdb.storage.syncs": "repro.kdb.storage:AppendHandle.sync",
    "kdb.storage.atomic_writes": "repro.kdb.storage:LocalStorage.atomic_write",
    "transport.payload_bytes": "repro.cloud.executor:payload_bytes",
}

#: In a process-pool session the layers below the executor run in
#: forked workers, whose spans never reach this process: only these
#: parent-side boundaries are traced there.
POOLED_BOUNDARIES = ("engine.init", "engine.analyze", "executor.run")
POOLED_COUNTED = ("transport.payload_bytes",)

#: Enclosing boundaries a K-means fit is attributed to.
KMEANS_PARENTS = {"partial.mine": "partial_s", "optimizer.sweep": "sweep_s"}


def per_layer_metrics() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    metrics: Dict[str, str] = {}
    for name in BOUNDARIES:
        metrics[f"{name}.calls"] = "count"
        metrics[f"{name}.total_s"] = "s"
        metrics[f"{name}.self_s"] = "s"
    for name in RSS_BOUNDARIES:
        metrics[f"{name}.rss_rise_mb"] = "MB"
    for suffix in KMEANS_PARENTS.values():
        metrics[f"optimizer.kmeans.{suffix}"] = "s"
    metrics["cache.hit_ratio"] = "ratio"
    metrics["kdb.storage.lines"] = "count"
    metrics["kdb.storage.syncs"] = "count"
    metrics["kdb.storage.atomic_writes"] = "count"
    metrics["kdb.bytes_written"] = "B"
    metrics["executor.tasks"] = "count"
    metrics["executor.task_busy_s"] = "s"
    metrics["transport.payload_bytes"] = "B"
    metrics["trace.sessions"] = "count"
    metrics["trace.session_s.p50"] = "s"
    metrics["trace.overhead"] = "ratio"
    metrics["trace.coverage"] = "ratio"
    return metrics


def _rss_bytes() -> int:
    """Current resident set size of this process (0 where unknown)."""
    try:
        with open("/proc/self/statm", "rb") as handle:
            return int(handle.read().split()[1]) * os.sysconf("SC_PAGESIZE")
    except (OSError, ValueError, IndexError):
        return 0


class _PeakSampler:
    """Samples the resident set on a thread while a call runs."""

    def __init__(self, interval: float = 0.002) -> None:
        self.interval = interval
        self.base = self.peak = _rss_bytes()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while not self._stop.wait(self.interval):
            self.peak = max(self.peak, _rss_bytes())

    def stop(self) -> int:
        """Stop sampling; returns the rise over the starting RSS."""
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, _rss_bytes())
        return self.peak - self.base


class Recorder:
    """In-memory span and counter store for traced sessions.

    A span is ``[name, start, end, parent_index, session]``; the stack
    of open spans gives each new span its parent. Counters are keyed by
    ``(session, name)``.
    """

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.counters: Counter = Counter()
        self.rss_rise: Dict[Tuple[int, str], int] = {}
        self.session: Optional[int] = None
        self._stack: List[int] = []

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            [name, time.perf_counter(), None, parent, self.session]
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[(self.session, name)] += amount

    def note_rss(self, name: str, rise: int) -> None:
        key = (self.session, name)
        self.rss_rise[key] = max(self.rss_rise.get(key, 0), rise)

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as handle:
            for name, start, end, parent, session in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "session": session,
                        }
                    )
                    + "\n"
                )


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------
def _resolve(target: str) -> Tuple[Any, str]:
    """``module:Class.attr`` or ``module:attr`` -> (owner, attr)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


def _span_wrapper(fn: Callable, name: str, recorder: Recorder) -> Callable:
    sample_rss = name in RSS_BOUNDARIES

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sampler = _PeakSampler() if sample_rss else None
        index = recorder.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit(index)
            if sampler is not None:
                recorder.note_rss(name, sampler.stop())
        if name == "cache.get" and result is not None:
            recorder.count("cache.hits")
        elif name == "executor.run":
            recorder.count("executor.tasks", len(args[1]))
            recorder.count(
                "executor.task_busy_s",
                sum(s for s in result.task_seconds or () if s is not None),
            )
        return result

    return wrapper


def _count_wrapper(fn: Callable, name: str, recorder: Recorder) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        # payload_bytes returns the size it measured; the rest count calls.
        recorder.count(name, result if name.endswith("_bytes") else 1)
        return result

    return wrapper


def _patch(target: str, make: Callable[[Callable], Callable], undo: list):
    owner, attr = _resolve(target)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
        owner, attr
    )
    if isinstance(raw, (classmethod, staticmethod)):
        patched = type(raw)(make(raw.__func__))
    else:
        patched = make(raw)
    setattr(owner, attr, patched)
    undo.append((owner, attr, raw))


@contextmanager
def traced(recorder: Recorder, session: int, pooled: bool) -> Iterator[None]:
    """Trace one session: wrap every boundary, restore on exit."""
    boundaries = POOLED_BOUNDARIES if pooled else tuple(BOUNDARIES)
    counted = POOLED_COUNTED if pooled else tuple(COUNTED)
    undo: List[Tuple[Any, str, Any]] = []
    recorder.session = session
    try:
        for name in boundaries:
            for target in BOUNDARIES[name]:
                _patch(
                    target,
                    lambda fn, name=name: _span_wrapper(fn, name, recorder),
                    undo,
                )
        for name in counted:
            _patch(
                COUNTED[name],
                lambda fn, name=name: _count_wrapper(fn, name, recorder),
                undo,
            )
        yield
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)
        recorder.session = None


# ----------------------------------------------------------------------
# Folding spans into the ledger
# ----------------------------------------------------------------------
def fold(recorder: Recorder) -> Dict[int, Dict[str, Dict[str, float]]]:
    """Per session and boundary: calls, inclusive and self seconds.

    Self time is a span's duration minus the time its direct children
    cover (children of one thread never overlap). Inclusive time counts
    a span only when no ancestor has the same name, so a boundary that
    re-enters itself is not counted twice.
    """
    spans = recorder.spans
    child_time: Dict[int, float] = defaultdict(float)
    for name, start, end, parent, __ in spans:
        if parent is not None:
            child_time[parent] += end - start
    table: Dict[int, Dict[str, Dict[str, float]]] = defaultdict(
        lambda: defaultdict(lambda: defaultdict(float))
    )
    for index, (name, start, end, parent, session) in enumerate(spans):
        row = table[session][name]
        duration = end - start
        row["calls"] += 1
        row["self_s"] += duration - child_time[index]
        ancestors = []
        while parent is not None:
            ancestors.append(spans[parent][0])
            parent = spans[parent][3]
        if name in ancestors:
            continue
        row["total_s"] += duration
        if name == "optimizer.kmeans":
            owner = next((a for a in ancestors if a in KMEANS_PARENTS), None)
            if owner is not None:
                row[KMEANS_PARENTS[owner]] += duration
    return table


def ledger_metrics(
    recorder: Recorder,
    sessions: List[int],
    traced_seconds: List[float],
    untraced_p50: float,
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Per-session means of every per-layer metric over traced sessions.

    ``extra`` carries measurements made outside the spans (K-DB bytes
    written), already averaged per session.
    """
    table = fold(recorder)
    n = len(sessions)
    values: Dict[str, float] = {}
    for name in BOUNDARIES:
        for field in ("calls", "total_s", "self_s"):
            values[f"{name}.{field}"] = (
                sum(table[s][name][field] for s in sessions) / n
            )
    for suffix in KMEANS_PARENTS.values():
        values[f"optimizer.kmeans.{suffix}"] = (
            sum(table[s]["optimizer.kmeans"][suffix] for s in sessions) / n
        )
    for name in RSS_BOUNDARIES:
        values[f"{name}.rss_rise_mb"] = max(
            (recorder.rss_rise.get((s, name), 0) for s in sessions),
            default=0,
        ) / 2**20

    def counted(name: str) -> float:
        return sum(recorder.counters[(s, name)] for s in sessions) / n

    gets = values["cache.get.calls"]
    values["cache.hit_ratio"] = counted("cache.hits") / gets if gets else 0.0
    for name in (
        "kdb.storage.lines",
        "kdb.storage.syncs",
        "kdb.storage.atomic_writes",
        "executor.tasks",
        "executor.task_busy_s",
        "transport.payload_bytes",
    ):
        values[name] = counted(name)
    values.update(extra)
    covered = sum(
        row["self_s"] for s in sessions for row in table[s].values()
    )
    traced_p50 = median(traced_seconds)
    values["trace.sessions"] = n
    values["trace.session_s.p50"] = traced_p50
    values["trace.overhead"] = traced_p50 / untraced_p50
    values["trace.coverage"] = covered / sum(traced_seconds)
    return values
