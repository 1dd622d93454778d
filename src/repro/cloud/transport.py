"""Shared-memory task transport: leases, handles and backend probes.

The glue between the shared-memory segments (:mod:`repro.data.blocks`)
and the executor stack: callers that fan work out over a matrix or an
exam log take a *lease* around the dispatch —

::

    with matrix_lease(executor, matrix) as (ref,):
        tasks = [TaskSpec(work, (ref, k)) for k in k_values]
        outcome = executor.run(tasks)

— and the lease decides the transport. The serial backend
short-circuits: the ref *is* the original object and nothing is copied
or mapped. The process backend copies the data once into a
:class:`repro.data.SharedMatrix` segment and hands out its ~100-byte
picklable handle instead, so each ``TaskSpec`` pickles the descriptor
rather than the payload; workers resolve the handle with
:func:`repro.data.open_matrix` / :func:`open_log`.

Cleanup is unconditional: leases unlink their segments in ``finally``
blocks, so faulty sweeps — worker crashes, injected faults, timeouts —
cannot leak ``/dev/shm`` segments (pinned by the chaos regression
test).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Tuple, Union

import numpy as np

from repro.data.blocks import SharedMatrix, SharedMatrixHandle, open_matrix
from repro.data.records import ExamLog, PatientInfo
from repro.data.taxonomy import ExamTaxonomy

__all__ = [
    "SharedLogHandle",
    "backend_name",
    "log_lease",
    "matrix_lease",
    "open_log",
    "open_matrix",
    "uses_processes",
]


def backend_name(executor) -> str:
    """Name of the backend that runs the tasks.

    A :class:`~repro.cloud.resilience.FaultInjector` exposes the
    backend it wraps as ``.backend``; that backend names the transport.
    """
    executor = getattr(executor, "backend", executor)
    return str(getattr(executor, "name", "unknown"))


def uses_processes(executor) -> bool:
    """True when tasks will cross a process boundary (pickled)."""
    return backend_name(executor) == "process"


@contextmanager
def matrix_lease(executor, *matrices) -> Iterator[Tuple]:
    """Lease matrices to a sweep: shared segments for process backends.

    Yields one ref per input matrix, in order. For in-process backends
    the refs are the matrices themselves (zero copy, zero syscalls);
    for process backends each matrix is copied once into a shared
    segment and the ref is its :class:`repro.data.SharedMatrixHandle`.
    Segments are unlinked when the ``with`` block exits — normally or
    not — so the lease is the single owner on every exit path.
    """
    if executor is None or not uses_processes(executor):
        yield tuple(matrices)
        return
    shared = []
    refs = []
    try:
        for matrix in matrices:
            matrix = np.asarray(matrix)
            if matrix.dtype.kind == "O":
                # Object arrays hold pointers; a flat segment cannot
                # carry them, so they fall back to pickling.
                refs.append(matrix)
            else:
                segment = SharedMatrix.create(matrix)
                shared.append(segment)
                refs.append(segment.handle())
        yield tuple(refs)
    finally:
        for segment in shared:
            segment.unlink()


@dataclass(frozen=True)
class SharedLogHandle:
    """Picklable descriptor of an :class:`repro.data.ExamLog`.

    The record triples — the bulk of a log — travel as a shared
    ``(n_records, 3)`` int64 matrix; the taxonomy and demographics
    (small, per-patient) ride along pickled.
    """

    rows: SharedMatrixHandle
    taxonomy: ExamTaxonomy
    patients: Tuple[PatientInfo, ...]


#: Anything :func:`open_log` can resolve into an :class:`ExamLog`.
LogRef = Union[ExamLog, SharedLogHandle]


@contextmanager
def log_lease(executor, log: ExamLog) -> Iterator[LogRef]:
    """Lease an exam log to a sweep (the goal fan-out's transport).

    In-process backends receive the log object itself; process backends
    receive a :class:`SharedLogHandle` whose record rows live in a
    shared segment, unlinked in ``finally`` when the lease exits.
    """
    if executor is None or not uses_processes(executor):
        yield log
        return
    segment = SharedMatrix.create(log.to_rows())
    try:
        yield SharedLogHandle(
            rows=segment.handle(),
            taxonomy=log.taxonomy,
            patients=tuple(log.patients.values()),
        )
    finally:
        segment.unlink()


@contextmanager
def open_log(ref: LogRef) -> Iterator[ExamLog]:
    """Resolve a log reference in a worker (or in-process).

    A plain :class:`ExamLog` passes through; a
    :class:`SharedLogHandle` attaches the rows segment, rebuilds the
    log — :meth:`ExamLog.from_rows` copies the rows out of the segment
    into the log's own array, creating no record object — and detaches
    in ``finally``.
    """
    if isinstance(ref, SharedLogHandle):
        with open_matrix(ref.rows) as rows:
            yield ExamLog.from_rows(
                rows, taxonomy=ref.taxonomy, patients=ref.patients
            )
    else:
        yield ref
