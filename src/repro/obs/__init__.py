"""Telemetry for the ADA-HEALTH engine: tracing, metrics, manifests.

Dependency-free observability subsystem::

    from repro.obs import Tracer, JsonlSink, Metrics

    tracer = Tracer(sinks=[JsonlSink("trace.jsonl")])
    metrics = Metrics()
    config = EngineConfig(tracer=tracer, metrics=metrics)
    ADAHealth(config=config).analyze(log)

Three layers:

* :class:`Tracer` — nested spans (wall/CPU timings, exception capture)
  emitted to in-memory, JSONL-file or stdlib-``logging`` sinks;
* :class:`Metrics` — a registry of counters, gauges and fixed-bucket
  histograms, snapshot-able to one dict;
* :class:`RunManifestBuilder` — the per-analysis execution record the
  engine persists into the K-DB ``runs`` collection.

The default everywhere is :data:`NULL_TRACER`, a no-op with near-zero
overhead, so instrumented hot paths cost nothing unless telemetry is
switched on.
"""

from repro.obs.manifest import (
    KNOWN_MANIFEST_SCHEMAS,
    MANIFEST_FIELDS,
    MANIFEST_SCHEMA,
    MANIFEST_SCHEMA_V1,
    RESILIENCE_FIELDS,
    RUNS_COLLECTION,
    ManifestError,
    RunManifestBuilder,
    validate_manifest,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    PAYLOAD_BUCKETS,
    QUERY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Metrics,
)
from repro.obs.tracer import (
    NULL_TRACER,
    InMemorySink,
    JsonlSink,
    LoggingSink,
    NullTracer,
    Span,
    Tracer,
    read_spans,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "JsonlSink",
    "LoggingSink",
    "KNOWN_MANIFEST_SCHEMAS",
    "MANIFEST_FIELDS",
    "MANIFEST_SCHEMA",
    "MANIFEST_SCHEMA_V1",
    "RESILIENCE_FIELDS",
    "ManifestError",
    "Metrics",
    "NULL_TRACER",
    "NullTracer",
    "PAYLOAD_BUCKETS",
    "QUERY_BUCKETS",
    "RUNS_COLLECTION",
    "RunManifestBuilder",
    "Span",
    "Tracer",
    "read_spans",
    "validate_manifest",
]
