"""Tests for the telemetry subsystem: tracer, metrics, run manifests."""

import json
import logging
import pickle
import time

import pytest

from repro.core.engine import ADAHealth, EngineConfig
from repro.core.guidelines import past_experience
from repro.data.synthetic import small_dataset
from repro.exceptions import EngineError
from repro.kdb.kdb import COLLECTIONS, KnowledgeBase
from repro.obs import (
    MANIFEST_FIELDS,
    MANIFEST_SCHEMA,
    NULL_TRACER,
    InMemorySink,
    JsonlSink,
    LoggingSink,
    ManifestError,
    Metrics,
    NullTracer,
    RunManifestBuilder,
    Tracer,
    read_spans,
    validate_manifest,
)

pytestmark = pytest.mark.obs


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
def test_spans_nest_and_link():
    tracer = Tracer()
    with tracer.span("outer", goal="g") as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner.parent_id == outer.span_id
    assert inner.trace_id == outer.trace_id == outer.span_id
    assert inner.depth == outer.depth + 1
    documents = tracer.finished()
    assert [d["name"] for d in documents] == ["inner", "outer"]
    assert documents[1]["attrs"] == {"goal": "g"}


def test_sibling_spans_share_parent():
    tracer = Tracer()
    with tracer.span("root") as root:
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
    assert a.parent_id == root.span_id
    assert b.parent_id == root.span_id
    assert a.span_id != b.span_id


def test_span_measures_time_and_attrs():
    tracer = Tracer()
    with tracer.span("work") as span:
        time.sleep(0.01)
        span.set(found=3)
    document = tracer.finished()[0]
    assert document["wall_s"] >= 0.01
    assert document["cpu_s"] >= 0.0
    assert document["status"] == "ok"
    assert document["attrs"] == {"found": 3}


def test_span_captures_exception_without_swallowing():
    tracer = Tracer()
    with pytest.raises(ValueError, match="boom"):
        with tracer.span("explodes"):
            raise ValueError("boom")
    document = tracer.finished()[0]
    assert document["status"] == "error"
    assert document["error"] == "ValueError: boom"


def test_record_span_parents_to_live_span():
    tracer = Tracer()
    with tracer.span("parent") as parent:
        document = tracer.record_span("worker-task", 1.25, k=8)
    assert document["parent_id"] == parent.span_id
    assert document["wall_s"] == 1.25
    assert document["attrs"] == {"k": 8}
    orphan = tracer.record_span("rootless", 0.5)
    assert orphan["parent_id"] is None
    assert orphan["trace_id"] == orphan["span_id"]


def test_null_tracer_is_inert():
    span = NULL_TRACER.span("anything", k=1)
    with span as inner:
        inner.set(more=2)
    assert NULL_TRACER.finished() == []
    assert NULL_TRACER.record_span("x", 1.0) is None
    assert NullTracer.enabled is False and Tracer.enabled is True


def test_jsonl_sink_writes_valid_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = Tracer(sinks=[JsonlSink(path)])
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    lines = path.read_text().splitlines()
    documents = [json.loads(line) for line in lines]
    assert [d["name"] for d in documents] == ["b", "a"]
    assert documents[0]["parent_id"] == documents[1]["span_id"]


def test_jsonl_sink_durable_fsyncs(tmp_path, monkeypatch):
    path = tmp_path / "trace.jsonl"
    synced = []
    monkeypatch.setattr("repro.obs.tracer.os.fsync", synced.append)
    tracer = Tracer(sinks=[JsonlSink(path, durable=True)])
    with tracer.span("durable"):
        pass
    assert json.loads(path.read_text())["name"] == "durable"
    assert len(synced) == 1


def test_read_spans_tolerates_torn_final_line(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = Tracer(sinks=[JsonlSink(path)])
    with tracer.span("a"):
        pass
    with tracer.span("b"):
        pass
    # a crash mid-append tears the final line
    content = path.read_bytes()
    path.write_bytes(content[:-7])
    spans = read_spans(path)
    assert [span["name"] for span in spans] == ["a"]


def test_read_spans_rejects_interior_corruption(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = Tracer(sinks=[JsonlSink(path)])
    with tracer.span("a"):
        pass
    with tracer.span("b"):
        pass
    lines = path.read_bytes().splitlines(True)
    lines[0] = b"XX" + lines[0][2:]
    path.write_bytes(b"".join(lines))
    with pytest.raises(ValueError, match="corrupt"):
        read_spans(path)


def test_logging_sink_emits_records(caplog):
    tracer = Tracer(sinks=[LoggingSink(logger="obs-test")])
    with caplog.at_level(logging.INFO, logger="obs-test"):
        with tracer.span("logged"):
            pass
    assert any("logged" in message for message in caplog.messages)


def test_adopt_nests_foreign_spans_under_a_recorded_span():
    worker = Tracer()
    with worker.span("sweep"):
        with worker.span("fit", k=2):
            pass
    tracer = Tracer()
    with tracer.span("run"):
        with tracer.span("sibling"):
            pass
        goal = tracer.record_span("goal", 0.5, goal="g")
        tracer.adopt(worker.finished(), goal)
    spans = tracer.finished()
    assert [s["name"] for s in spans] == [
        "sibling", "goal", "fit", "sweep", "run"
    ]
    by_name = {s["name"]: s for s in spans}
    assert len({s["span_id"] for s in spans}) == len(spans)
    assert by_name["sweep"]["parent_id"] == goal["span_id"]
    assert by_name["fit"]["parent_id"] == by_name["sweep"]["span_id"]
    assert by_name["fit"]["attrs"] == {"k": 2}
    assert {s["trace_id"] for s in spans} == {by_name["run"]["span_id"]}
    assert by_name["sweep"]["depth"] == goal["depth"] + 1 == 2
    assert by_name["fit"]["depth"] == 3
    assert NULL_TRACER.adopt(spans, None) is None


def test_null_tracer_overhead_is_small():
    """Generous smoke bound: a no-op span must stay trivially cheap."""
    rounds = 10_000
    t0 = time.perf_counter()
    for _ in range(rounds):
        with NULL_TRACER.span("hot"):
            pass
    per_span = (time.perf_counter() - t0) / rounds
    assert per_span < 50e-6  # 50µs is ~100x the observed cost


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def test_counter_and_gauge():
    metrics = Metrics()
    metrics.counter("jobs").inc()
    metrics.counter("jobs").inc(4)
    metrics.gauge("depth").set(3.5)
    metrics.gauge("depth").inc(0.5)
    snapshot = metrics.snapshot()
    assert snapshot["counters"]["jobs"] == 5
    assert snapshot["gauges"]["depth"] == 4.0


def test_counter_rejects_negative():
    metrics = Metrics()
    with pytest.raises(ValueError):
        metrics.counter("jobs").inc(-1)


def test_registry_returns_same_instrument():
    metrics = Metrics()
    assert metrics.counter("c") is metrics.counter("c")
    assert metrics.histogram("h") is metrics.histogram("h")


def test_histogram_percentiles():
    metrics = Metrics()
    histogram = metrics.histogram("latency", bounds=[1.0, 2.0, 4.0])
    for value in (0.5, 1.5, 1.5, 3.0):
        histogram.observe(value)
    snapshot = histogram.snapshot()
    assert snapshot["count"] == 4
    assert snapshot["min"] == 0.5
    assert snapshot["max"] == 3.0
    assert 1.0 <= snapshot["p50"] <= 2.0
    assert snapshot["p90"] <= 4.0


def test_histogram_overflow_bucket_reports_observed_max():
    metrics = Metrics()
    histogram = metrics.histogram("big", bounds=[1.0])
    histogram.observe(100.0)
    assert histogram.percentile(0.99) == 100.0


def test_empty_histogram_percentile_is_none():
    metrics = Metrics()
    assert metrics.histogram("empty").percentile(0.5) is None


def test_metrics_snapshot_is_json_serialisable():
    metrics = Metrics()
    metrics.counter("c").inc()
    metrics.histogram("h").observe(1e9)  # lands in the +inf bucket
    encoded = json.dumps(metrics.snapshot())
    assert "inf" in encoded


def test_metrics_merge_adds_counts_and_keeps_later_gauges():
    parent, child = Metrics(), Metrics()
    parent.counter("c").inc(2)
    parent.gauge("g").set(1.0)
    parent.histogram("h", bounds=[1.0, 2.0]).observe(1.5)
    child.counter("c").inc(3)
    child.counter("new").inc()
    child.gauge("g").set(7.0)
    for value in (0.5, 3.0):
        child.histogram("h", bounds=[1.0, 2.0]).observe(value)
    child.histogram("fresh").observe(0.2)
    parent.merge(child)
    snapshot = parent.snapshot()
    assert snapshot["counters"] == {"c": 5, "new": 1}
    assert snapshot["gauges"] == {"g": 7.0}
    merged = snapshot["histograms"]["h"]
    assert (merged["count"], merged["sum"]) == (3, 5.0)
    assert (merged["min"], merged["max"]) == (0.5, 3.0)
    assert [b["count"] for b in merged["buckets"]] == [1, 1, 1]
    assert snapshot["histograms"]["fresh"]["count"] == 1
    other = Metrics()
    other.histogram("h", bounds=[5.0]).observe(1.0)
    with pytest.raises(ValueError, match="bounds"):
        parent.merge(other)


def test_metrics_pickles():
    metrics = Metrics()
    metrics.counter("c").inc(2)
    metrics.histogram("h").observe(0.5)
    clone = pickle.loads(pickle.dumps(metrics))
    clone.counter("c").inc()
    assert clone.snapshot()["counters"]["c"] == 3


# ----------------------------------------------------------------------
# manifests
# ----------------------------------------------------------------------
def _built_manifest(status="completed"):
    builder = RunManifestBuilder(
        dataset_fingerprint="abc123",
        dataset_name="cohort",
        user="tester",
        seed=7,
    )
    builder.assess_goal("patient-segmentation", True, "dense enough")
    builder.add_goal(
        "patient-segmentation",
        wall_s=1.5,
        n_items=12,
        algorithms=["kmeans"],
    )
    builder.record_cache(True, hits=2, misses=1, stores=1)
    builder.record_executor("process", workers=4, task_failures=0)
    if status == "completed":
        return builder.finish(12, {"counters": {}})
    return builder.fail("EngineError: bad", {"counters": {}})


def test_manifest_builder_produces_valid_document():
    document = _built_manifest()
    assert validate_manifest(document) is document
    assert document["schema"] == MANIFEST_SCHEMA
    assert document["status"] == "completed"
    assert document["dataset"]["fingerprint"] == "abc123"
    assert document["goals"][0]["algorithms"] == ["kmeans"]
    assert document["cache"]["hits"] == 2
    assert document["executor"]["backend"] == "process"
    assert document["wall_s"] >= 0.0


def test_failed_manifest_carries_error():
    document = _built_manifest(status="failed")
    assert document["status"] == "failed"
    assert document["error"] == "EngineError: bad"
    assert document["n_items"] == 0


def test_validate_manifest_rejects_malformed():
    document = _built_manifest()
    for breakage in (
        lambda d: d.pop("cache"),
        lambda d: d.update(schema="bogus/v9"),
        lambda d: d.update(status="maybe"),
        lambda d: d.update(goals="not-a-list"),
        lambda d: d.update(goals=[{"name": "x"}]),
    ):
        broken = {
            key: (value.copy() if isinstance(value, (dict, list)) else value)
            for key, value in document.items()
        }
        breakage(broken)
        with pytest.raises(ManifestError):
            validate_manifest(broken)


def test_manifest_fields_constant_matches_builder():
    document = _built_manifest()
    assert set(MANIFEST_FIELDS) <= set(document)


# ----------------------------------------------------------------------
# K-DB runs collection
# ----------------------------------------------------------------------
def test_runs_collection_exists_but_not_in_paper_collections():
    kdb = KnowledgeBase()
    assert "runs" in kdb.store.collection_names()
    assert "runs" not in COLLECTIONS


def test_record_run_validates_and_queries():
    kdb = KnowledgeBase()
    kdb.record_run(_built_manifest())
    with pytest.raises(ManifestError):
        kdb.record_run({"schema": "nope"})
    assert kdb.run_count() == 1
    assert len(kdb.run_history(dataset_fingerprint="abc123")) == 1
    assert len(kdb.run_history(dataset_fingerprint="zzz")) == 0
    assert len(kdb.run_history(goal="patient-segmentation")) == 1
    assert len(kdb.run_history(goal="unknown-goal")) == 0


def test_run_history_most_recent_first():
    kdb = KnowledgeBase()
    first = _built_manifest()
    second = _built_manifest()
    second["started_at"] = first["started_at"] + 100.0
    kdb.record_run(first)
    kdb.record_run(second)
    history = kdb.run_history()
    assert history[0]["started_at"] > history[1]["started_at"]
    assert len(kdb.run_history(limit=1)) == 1


# ----------------------------------------------------------------------
# end to end: one analyze() -> one manifest + trace + metrics
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_analysis(tmp_path_factory):
    trace_path = tmp_path_factory.mktemp("obs") / "trace.jsonl"
    sink = InMemorySink()
    tracer = Tracer(sinks=[sink, JsonlSink(trace_path)])
    metrics = Metrics()
    config = EngineConfig(
        use_cache=True,
        max_goals=3,
        min_support=0.35,  # keep dense synthetic transactions tractable
        min_confidence=0.6,
        sequence_min_support=0.5,
        sequence_max_length=2,
        tracer=tracer,
        metrics=metrics,
    )
    engine = ADAHealth(config=config, seed=11)
    log = small_dataset(n_patients=40, seed=11)
    result = engine.analyze(log, name="obs-e2e", user="tester")
    return engine, result, sink, metrics, trace_path


def test_analyze_writes_exactly_one_manifest(traced_analysis):
    engine, result, __, __, __ = traced_analysis
    assert engine.kdb.run_count() == 1
    manifest = engine.kdb.run_history()[0]
    validate_manifest(manifest)
    assert manifest["status"] == "completed"
    assert manifest["dataset"]["name"] == "obs-e2e"
    assert manifest["dataset"]["id"] == result.dataset_id
    assert manifest["user"] == "tester"
    assert manifest["n_items"] == len(result.items)
    assert len(manifest["goals"]) == len(result.runs)
    for goal in manifest["goals"]:
        assert goal["status"] == "completed"
        assert goal["wall_s"] >= 0.0
        assert goal["algorithms"]
    assert manifest["cache"]["enabled"] is True
    assert manifest["cache"]["misses"] > 0


def test_analyze_emits_nested_goal_spans(traced_analysis):
    __, result, sink, __, trace_path = traced_analysis
    spans = {span["name"]: span for span in sink.spans}
    for phase in ("analyze", "characterize", "run-goals", "score-and-rank"):
        assert phase in spans, f"missing {phase} span"
    analyze = spans["analyze"]
    assert spans["run-goals"]["parent_id"] == analyze["span_id"]
    goal_spans = [s for s in sink.spans if s["name"] == "goal"]
    assert len(goal_spans) == len(result.runs)
    assert all(
        span["parent_id"] == spans["run-goals"]["span_id"]
        for span in goal_spans
    )
    # The JSONL sink saw the same stream, one valid object per line.
    lines = trace_path.read_text().splitlines()
    assert [json.loads(line)["name"] for line in lines] == [
        span["name"] for span in sink.spans
    ]


#: Instruments only the process backend records: its queue latency and
#: the pickled size of each task.
PROCESS_ONLY_INSTRUMENTS = {"executor.queue_seconds", "cloud.payload_bytes"}


def _telemetry(executor, trace_path):
    """One analysis's telemetry, reduced to what must not depend on
    the backend: goal span attributes, the span tree as (name, parent
    name) pairs, counters, gauges and histogram counts."""
    sink = InMemorySink()
    metrics = Metrics()
    config = EngineConfig(
        k_values=(2, 3),
        partial_fractions=(0.5, 1.0),
        partial_k_values=(2,),
        n_folds=3,
        min_support=0.35,
        min_confidence=0.6,
        executor=executor,
        executor_workers=2,
        tracer=Tracer(sinks=[sink, JsonlSink(trace_path)]),
        metrics=metrics,
    )
    engine = ADAHealth(config=config, seed=11)
    engine.analyze(
        small_dataset(n_patients=60, seed=11),
        name="parity",
        goals=[
            "patient-segmentation",
            "co-prescription-patterns",
            "care-pathway-rules",
        ],
    )
    manifest = engine.kdb.run_history(limit=1)[0]
    assert manifest["executor"]["backend"] == executor
    (run_goals,) = [s for s in sink.spans if s["name"] == "run-goals"]
    goals = [s for s in sink.spans if s["name"] == "goal"]
    assert len(goals) == 3
    assert all(s["parent_id"] == run_goals["span_id"] for s in goals)
    names = {s["span_id"]: s["name"] for s in sink.spans}
    tree = sorted(
        (s["name"], names.get(s["parent_id"])) for s in sink.spans
    )
    snapshot = metrics.snapshot()
    return {
        "goals": sorted(json.dumps(s["attrs"], sort_keys=True) for s in goals),
        "tree": tree,
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "histograms": {
            name: histogram["count"]
            for name, histogram in snapshot["histograms"].items()
            if name not in PROCESS_ONLY_INSTRUMENTS
        },
    }


def test_serial_and_process_runs_emit_the_same_goal_spans(tmp_path):
    """Goal-internal spans and metrics come back from the goal tasks on
    both backends: the same span tree, with the optimiser's spans under
    their goal, and the same instruments."""
    serial = _telemetry("serial", tmp_path / "serial.jsonl")
    process = _telemetry("process", tmp_path / "process.jsonl")
    assert process == serial
    assert ("kmeans-optimize", "goal") in serial["tree"]
    assert serial["counters"]["apriori.candidates"] > 0
    assert serial["histograms"]["optimizer.k_seconds"] == 2
    for name in ("serial", "process"):
        spans = read_spans(tmp_path / f"{name}.jsonl")
        ids = [span["span_id"] for span in spans]
        assert len(set(ids)) == len(ids)
        roots = [span["name"] for span in spans if span["parent_id"] is None]
        assert roots == ["analyze"]


def test_analyze_metrics_include_cache_counters(traced_analysis):
    __, __, __, metrics, __ = traced_analysis
    counters = metrics.snapshot()["counters"]
    assert "cache.hits" in counters
    assert "cache.misses" in counters
    assert "cache.stores" in counters
    assert counters["cache.misses"] > 0


def test_cached_rerun_manifest_marks_goals_cached(traced_analysis):
    engine, __, __, __, __ = traced_analysis
    log = small_dataset(n_patients=40, seed=11)
    engine.analyze(log, name="obs-e2e", user="tester")
    assert engine.kdb.run_count() == 2
    manifest = engine.kdb.run_history()[0]
    assert all(goal["cached"] for goal in manifest["goals"])
    assert manifest["cache"]["hits"] > 0
    assert manifest["cache"]["misses"] == 0


def test_past_experience_aggregates_runs(traced_analysis):
    engine, result, __, __, __ = traced_analysis
    experience = past_experience(engine.kdb)
    ran = {run.goal.name for run in result.runs}
    assert ran <= set(experience)
    for name in ran:
        entry = experience[name]
        assert entry["runs"] >= 1
        assert entry["failures"] == 0
        assert entry["algorithms"]
    only = past_experience(engine.kdb, goal_name=sorted(ran)[0])
    assert set(only) == {sorted(ran)[0]}


def test_failed_analysis_records_failed_manifest():
    config = EngineConfig(tracer=Tracer(), metrics=Metrics())
    engine = ADAHealth(config=config, seed=0)
    log = small_dataset(n_patients=30, seed=0)
    with pytest.raises(EngineError):
        engine.analyze(log, goals=["no-such-goal"], name="boom")
    assert engine.kdb.run_count() == 1
    manifest = engine.kdb.run_history()[0]
    validate_manifest(manifest)
    assert manifest["status"] == "failed"
    assert "no-such-goal" in manifest["error"]
    assert manifest["n_items"] == 0
    assert manifest["goals"] == []
    # Phases that ran before the failure are still traced.
    names = {span["name"] for span in engine.tracer.finished()}
    assert {"characterize", "assess-goals", "analyze"} <= names


def test_untraced_analysis_still_records_manifest():
    engine = ADAHealth(
        config=EngineConfig(
            max_goals=1, min_support=0.35, min_confidence=0.6
        ),
        seed=5,
    )
    log = small_dataset(n_patients=30, seed=5)
    result = engine.analyze(log, name="plain")
    assert engine.tracer is NULL_TRACER
    assert engine.kdb.run_count() == 1
    manifest = engine.kdb.run_history()[0]
    assert manifest["status"] == "completed"
    assert manifest["n_items"] == len(result.items)


def test_counts_keys_unchanged_by_runs_collection():
    engine = ADAHealth(seed=1)
    assert set(engine.kdb.counts()) == set(COLLECTIONS)
