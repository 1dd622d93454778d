"""Execution backends (serial and process pool), shared-memory
transport and fault tolerance."""

from repro.cloud.executor import (
    ProcessPoolExecutorBackend,
    SerialExecutor,
    SweepResult,
    TaskFailure,
    TaskSpec,
    payload_bytes,
)
from repro.cloud.resilience import (
    CircuitBreaker,
    FaultInjector,
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
    "RetryOutcome",
    "RetryPolicy",
    "SerialExecutor",
    "SharedLogHandle",
    "SweepResult",
    "TaskFailure",
    "TaskSpec",
    "backend_name",
    "log_lease",
    "matrix_lease",
    "open_log",
    "payload_bytes",
    "uses_processes",
]
