"""Execution backends, shared-memory transport and fault tolerance."""

from repro.cloud.executor import (
    ProcessPoolExecutorBackend,
    SerialExecutor,
    SweepResult,
    TaskFailure,
    TaskSpec,
    ThreadPoolExecutorBackend,
    make_executor,
    payload_bytes,
)
from repro.cloud.resilience import (
    CircuitBreaker,
    FaultInjector,
    ResilientExecutor,
    RetryOutcome,
    RetryPolicy,
)
from repro.cloud.transport import (
    SharedLogHandle,
    backend_name,
    log_lease,
    matrix_lease,
    open_log,
    uses_processes,
)

__all__ = [
    "CircuitBreaker",
    "FaultInjector",
    "ProcessPoolExecutorBackend",
    "ResilientExecutor",
    "RetryOutcome",
    "RetryPolicy",
    "SerialExecutor",
    "SharedLogHandle",
    "SweepResult",
    "TaskFailure",
    "TaskSpec",
    "ThreadPoolExecutorBackend",
    "backend_name",
    "log_lease",
    "make_executor",
    "matrix_lease",
    "open_log",
    "payload_bytes",
    "uses_processes",
]
