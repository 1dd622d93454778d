"""Execution tracing: nested spans with pluggable sinks.

The ADA-HEALTH engine is meant to *learn from its own runs*, yet a
black-box `analyze()` gives the K-DB nothing to learn from about where
the time went. This module provides the span layer of the telemetry
subsystem: a :class:`Tracer` whose ``span(name, **attrs)`` context
manager measures monotonic wall time and process CPU time, captures
exceptions without swallowing them, and emits one flat document per
finished span (``parent_id`` links reconstruct the nesting) to any
number of sinks:

* :class:`InMemorySink` — a list of span documents (tests, manifests);
* :class:`JsonlSink` — one JSON object per line, append-mode (the CLI's
  ``--trace FILE``);
* :class:`LoggingSink` — forwards to a stdlib :mod:`logging` logger.

Everything is dependency-free. A tracer never crosses a process
boundary: a goal task traces into its own in-memory tracer and returns
the span documents, which the engine grafts into its tracer with
:meth:`Tracer.adopt`. A tracer is single-threaded: one thread per
process uses it, so it takes no locks.

The default tracer everywhere is :data:`NULL_TRACER`, a no-op whose
``span()`` returns a shared reusable context manager — near-zero
overhead, so instrumentation can stay unconditionally in hot paths.
"""

from __future__ import annotations

import json
import logging
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

Document = Dict[str, Any]


class Span:
    """One timed, attributed unit of work (also its context manager).

    Spans are created through :meth:`Tracer.span`; entering starts the
    clocks, exiting stops them, records any in-flight exception as
    ``status="error"`` (the exception still propagates) and emits the
    finished document to the tracer's sinks.
    """

    __slots__ = (
        "name",
        "attrs",
        "trace_id",
        "span_id",
        "parent_id",
        "depth",
        "started_at",
        "wall_s",
        "cpu_s",
        "status",
        "error",
        "_tracer",
        "_t0",
        "_c0",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: Dict[str, Any],
    ) -> None:
        self.name = name
        self.attrs = attrs
        self._tracer = tracer
        self.trace_id: Optional[int] = None
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        self.depth = 0
        self.started_at = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.status = "ok"
        self.error: Optional[str] = None
        self._t0 = 0.0
        self._c0 = 0.0

    # -- attributes ------------------------------------------------------
    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes on the live span."""
        self.attrs.update(attrs)
        return self

    # -- context management ----------------------------------------------
    def __enter__(self) -> "Span":
        self._tracer._open(self)
        self.started_at = time.time()
        self._t0 = time.perf_counter()
        self._c0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_s = time.perf_counter() - self._t0
        self.cpu_s = time.process_time() - self._c0
        if exc_type is not None:
            self.status = "error"
            self.error = f"{exc_type.__name__}: {exc}"
        self._tracer._close(self)
        return False  # never swallow

    def to_document(self) -> Document:
        """The flat span document emitted to sinks."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "started_at": self.started_at,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "status": self.status,
            "error": self.error,
            "attrs": dict(self.attrs),
        }


class _NullSpan:
    """Shared do-nothing span: the cost of the no-op path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The default tracer: every operation is a near-zero no-op."""

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def record_span(
        self, name: str, wall_s: float, **attrs: Any
    ) -> None:
        return None

    def adopt(self, documents: Sequence[Document], parent: Any) -> None:
        return None

    def finished(self) -> List[Document]:
        return []


#: Module-level singleton used wherever no tracer was configured.
NULL_TRACER = NullTracer()


class InMemorySink:
    """Collects span documents in a list (``.spans``)."""

    def __init__(self) -> None:
        self.spans: List[Document] = []

    def emit(self, document: Document) -> None:
        self.spans.append(document)

    def clear(self) -> None:
        self.spans.clear()


class JsonlSink:
    """Appends one JSON object per span to a file.

    The handle is opened lazily, in append mode.

    With ``durable=True`` every span is additionally ``fsync``'d on
    emit, so a manifest survives the process being killed right after
    the span closed — the run-manifest discipline of PR 10. The cost is
    one fsync per span; leave it off for high-frequency tracing. Either
    way a kill *mid*-append can leave a torn final line, which
    :func:`read_spans` tolerates.
    """

    def __init__(
        self, path: Union[str, Path], durable: bool = False
    ) -> None:
        self.path = Path(path)
        self.durable = durable
        self._handle = None

    def emit(self, document: Document) -> None:
        if self._handle is None:
            self._handle = open(self.path, "a")
        self._handle.write(json.dumps(document) + "\n")
        self._handle.flush()
        if self.durable:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def read_spans(path: Union[str, Path]) -> List[Document]:
    """Read a :class:`JsonlSink` file back, tolerating a torn tail.

    A process killed mid-append leaves a final line that is not valid
    JSON; that line (and only that line) is dropped silently — the
    same torn-tail policy the K-DB shard logs follow. An undecodable
    line *followed by* valid spans is real damage and raises
    ``ValueError`` rather than silently shortening the record.
    """
    spans: List[Document] = []
    pending: Optional[int] = None
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            if pending is not None:
                raise ValueError(
                    f"{path}:{pending}: corrupt span record is not"
                    " the final line (damaged manifest?)"
                )
            try:
                spans.append(json.loads(line))
            except json.JSONDecodeError:
                pending = lineno
    return spans


class LoggingSink:
    """Forwards spans to a stdlib logger, looked up by name."""

    def __init__(
        self, logger: str = "repro.obs", level: int = logging.INFO
    ) -> None:
        self.logger_name = logger
        self.level = level

    def emit(self, document: Document) -> None:
        logging.getLogger(self.logger_name).log(
            self.level,
            "span %s wall=%.6fs cpu=%.6fs status=%s attrs=%s",
            document["name"],
            document["wall_s"],
            document["cpu_s"],
            document["status"],
            document["attrs"],
        )


class Tracer:
    """Produces nested spans and emits them to sinks on completion.

    Parameters
    ----------
    sinks:
        Sink objects with an ``emit(document)`` method. Defaults to a
        single :class:`InMemorySink` (inspect via :meth:`finished`).

    A span opened while another is live becomes its child
    (``parent_id``/``depth``).
    """

    enabled = True

    def __init__(self, sinks: Optional[Sequence[Any]] = None) -> None:
        self.sinks: List[Any] = (
            list(sinks) if sinks is not None else [InMemorySink()]
        )
        self._ids = 0
        #: The live spans, innermost last.
        self._stack: List[Span] = []

    # -- span lifecycle --------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        """A context manager measuring one named unit of work."""
        return Span(self, name, attrs)

    def record_span(
        self, name: str, wall_s: float, **attrs: Any
    ) -> Document:
        """Emit an already-measured span (e.g. timings reported back by
        worker processes), parented to the current live span."""
        span = Span(self, name, attrs)
        self._link(span)
        span.started_at = time.time() - wall_s
        span.wall_s = float(wall_s)
        document = span.to_document()
        self._emit(document)
        return document

    def adopt(
        self, documents: Sequence[Document], parent: Document
    ) -> None:
        """Re-emit another tracer's :meth:`finished` spans (e.g. a goal
        task's) with ids renumbered into this tracer's sequence and
        their roots as children of ``parent``, a span emitted here."""
        ids = {document["span_id"]: self._next_id() for document in documents}
        for document in documents:
            adopted = dict(document)
            adopted["span_id"] = ids[document["span_id"]]
            adopted["parent_id"] = ids.get(
                document["parent_id"], parent["span_id"]
            )
            adopted["trace_id"] = parent["trace_id"]
            adopted["depth"] = parent["depth"] + 1 + document["depth"]
            self._emit(adopted)

    def finished(self) -> List[Document]:
        """Span documents collected by in-memory sinks (emission order:
        children before their parents)."""
        spans: List[Document] = []
        for sink in self.sinks:
            if isinstance(sink, InMemorySink):
                spans.extend(sink.spans)
        return spans

    # -- internals -------------------------------------------------------
    def _next_id(self) -> int:
        self._ids += 1
        return self._ids

    def _link(self, span: Span) -> None:
        """Number ``span`` and make it a child of the innermost live
        span (or a root)."""
        span.span_id = self._next_id()
        if self._stack:
            parent = self._stack[-1]
            span.parent_id = parent.span_id
            span.trace_id = parent.trace_id
            span.depth = parent.depth + 1
        else:
            span.trace_id = span.span_id

    def _open(self, span: Span) -> None:
        self._link(span)
        self._stack.append(span)

    def _close(self, span: Span) -> None:
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # defensive: unwound out of order
            stack.remove(span)
        self._emit(span.to_document())

    def _emit(self, document: Document) -> None:
        for sink in self.sinks:
            sink.emit(document)
