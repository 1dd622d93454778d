"""Tests for the shared-memory transport.

Covers the :mod:`repro.data.blocks` substrate (``SharedMatrix``
lifecycle, handles, ``open_matrix``), the task transport's leases,
adaptive backend resolution, serial/process result identity
and the cleanup invariant under injected faults.
"""

import os
import pickle

import numpy as np
import pytest

from repro.cloud import (
    FaultInjector,
    ProcessPoolExecutorBackend,
    RetryPolicy,
    SerialExecutor,
    TaskSpec,
    backend_name,
    log_lease,
    matrix_lease,
    open_log,
)
from repro.core.engine import (
    AUTO_EXECUTOR_MIN_RECORDS,
    ADAHealth,
    EngineConfig,
)
from repro.core.optimizer import KMeansOptimizer
from repro.data import (
    SharedMatrix,
    SharedMatrixHandle,
    leaked_segments,
    open_matrix,
    reap_segments,
)
from repro.exceptions import DataError

pytestmark = pytest.mark.shm


# ----------------------------------------------------------------------
# SharedMatrix lifecycle
# ----------------------------------------------------------------------
def test_shared_matrix_round_trips_through_a_pickled_handle():
    matrix = np.arange(2400, dtype=np.float64).reshape(60, 40)
    segment = SharedMatrix.create(matrix)
    try:
        handle = segment.handle()
        wire = pickle.dumps(handle, protocol=pickle.HIGHEST_PROTOCOL)
        # the whole point: the descriptor is tiny, the matrix is not
        assert len(wire) < 200 < matrix.nbytes
        restored = pickle.loads(wire)
        attached = SharedMatrix.attach(restored)
        try:
            assert np.array_equal(attached.array, matrix)
            assert attached.array.dtype == matrix.dtype
        finally:
            attached.close()
    finally:
        segment.unlink()
    assert leaked_segments() == []


def test_shared_matrix_context_manager_unlinks_for_owners():
    matrix = np.ones((3, 3))
    with SharedMatrix.create(matrix) as segment:
        name = segment.name
        assert name in leaked_segments()
    assert leaked_segments() == []


def test_attachers_may_close_but_never_unlink():
    segment = SharedMatrix.create(np.zeros((2, 2)))
    try:
        attached = SharedMatrix.attach(segment.handle())
        with pytest.raises(DataError):
            attached.unlink()
        attached.close()
        attached.close()  # idempotent
        # the owner's data survived the attacher's exit
        assert np.array_equal(segment.array, np.zeros((2, 2)))
    finally:
        segment.unlink()
    with pytest.raises(DataError):
        SharedMatrix.attach(segment.handle())


_UNLINK_CHILD = """
import numpy as np
from repro.data import SharedMatrix

plain = SharedMatrix.create(np.ones((4, 4)))
plain.unlink()
plain.unlink()  # idempotent
served = SharedMatrix.create(np.zeros((4, 4)))
SharedMatrix.attach(served.handle()).close()
served.unlink()
"""


def test_unlink_unregisters_each_segment_once():
    # A double unregister is reported by the resource tracker process,
    # on stderr, after the owner exits; only a subprocess can see it.
    import subprocess
    import sys

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    child = subprocess.run(
        [sys.executable, "-c", _UNLINK_CHILD],
        capture_output=True,
        env=env,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert "KeyError" not in child.stderr
    assert "Traceback" not in child.stderr
    assert leaked_segments() == []


def test_open_matrix_resolves_every_ref_kind():
    matrix = np.arange(12, dtype=np.float64).reshape(4, 3)
    with open_matrix(matrix) as resolved:
        assert resolved is matrix
    segment = SharedMatrix.create(matrix)
    try:
        with open_matrix(segment.handle()) as resolved:
            assert np.array_equal(resolved, matrix)
    finally:
        segment.unlink()
    assert leaked_segments() == []


def test_handle_reports_payload_size():
    handle = SharedMatrixHandle(
        name="adarepro-x", shape=(10, 4), dtype="<f8"
    )
    assert handle.nbytes == 10 * 4 * 8


# ----------------------------------------------------------------------
# Shared-memory transport
# ----------------------------------------------------------------------
def test_matrix_lease_short_circuits_in_process_backends():
    matrix = np.ones((4, 4))
    with matrix_lease(SerialExecutor(), matrix) as (ref,):
        assert ref is matrix
    with matrix_lease(None, matrix) as (ref,):
        assert ref is matrix


def test_matrix_lease_ships_handles_to_process_backends():
    matrix = np.arange(16, dtype=np.float64).reshape(4, 4)
    backend = ProcessPoolExecutorBackend(workers=2)
    with matrix_lease(backend, matrix) as (ref,):
        assert isinstance(ref, SharedMatrixHandle)
        assert ref.name in leaked_segments()
        with open_matrix(ref) as resolved:
            assert np.array_equal(resolved, matrix)
    assert leaked_segments() == []
    # object-dtype arrays cannot live in a flat segment: pickle fallback
    labels = np.array(["a", "b", None], dtype=object)
    with matrix_lease(backend, labels) as (ref,):
        assert ref is labels
    assert leaked_segments() == []


def test_log_lease_round_trips_the_log(tiny_log):
    backend = ProcessPoolExecutorBackend(workers=2)
    with log_lease(backend, tiny_log) as ref:
        assert ref is not tiny_log
        with open_log(ref) as rebuilt:
            assert rebuilt.n_records == tiny_log.n_records
            assert rebuilt.to_rows().tolist() == (
                tiny_log.to_rows().tolist()
            )
    assert leaked_segments() == []
    with log_lease(SerialExecutor(), tiny_log) as ref:
        assert ref is tiny_log


def test_backend_name_unwraps_resilience_layers():
    backend = ProcessPoolExecutorBackend(workers=2)
    injector = FaultInjector(backend, raise_rate=0.1, seed=0)
    assert backend_name(injector) == "process"
    assert backend_name(SerialExecutor()) == "serial"


# ----------------------------------------------------------------------
# Payload accounting
# ----------------------------------------------------------------------
def test_process_backend_meters_payload_bytes():
    from repro.obs import Metrics

    metrics = Metrics()
    backend = ProcessPoolExecutorBackend(workers=2, metrics=metrics)
    backend.run([TaskSpec(_double, (i,)) for i in range(4)])
    histogram = metrics.snapshot()["histograms"]["cloud.payload_bytes"]
    assert histogram["count"] == 4
    assert histogram["max"] < 4096  # tiny tasks, tiny payloads


def _double(x):
    return 2 * x


# ----------------------------------------------------------------------
# Adaptive backend selection
# ----------------------------------------------------------------------
def test_auto_executor_resolution(tiny_log, monkeypatch):
    import repro.core.engine as engine_module

    engine = ADAHealth(config=EngineConfig(executor="auto"))

    class _Big:
        n_records = AUTO_EXECUTOR_MIN_RECORDS

    def resolve(log, affinity, cpu_count):
        if affinity is None:  # a platform without affinity masks
            monkeypatch.delattr(
                engine_module.os, "sched_getaffinity", raising=False
            )
        else:
            monkeypatch.setattr(
                engine_module.os,
                "sched_getaffinity",
                lambda pid: set(range(affinity)),
                raising=False,
            )
        monkeypatch.setattr(engine_module.os, "cpu_count", lambda: cpu_count)
        return engine._resolved_executor(log)

    # small log: transport would dominate the compute
    assert tiny_log.n_records < AUTO_EXECUTOR_MIN_RECORDS
    assert resolve(tiny_log, 8, 8) == "serial"
    assert resolve(_Big(), 8, 8) == "process"
    # pinned to one CPU (taskset -c 0, a one-CPU container) on an
    # 8-core host: the affinity mask, not cpu_count, decides
    assert resolve(_Big(), 1, 8) == "serial"
    assert resolve(_Big(), None, 1) == "serial"
    assert resolve(_Big(), None, 8) == "process"
    explicit = ADAHealth(config=EngineConfig(executor="process"))
    assert explicit._resolved_executor(tiny_log) == "process"


# ----------------------------------------------------------------------
# End-to-end identity: serial vs process
# ----------------------------------------------------------------------
def _analysis_document(result):
    payload = {
        "items": [item.to_document() for item in result.items],
        "runs": [
            {
                "goal": run.goal.name,
                "status": run.status,
                "items": [item.to_document() for item in run.items],
            }
            for run in result.runs
        ],
    }
    import json

    return json.dumps(payload, sort_keys=True, default=str)


GOALS = ["patient-segmentation", "co-prescription-patterns"]


def test_analyze_is_byte_identical_serial_vs_process(tiny_log):
    def run(**kwargs):
        engine = ADAHealth(
            config=EngineConfig(
                k_values=(2, 3), n_folds=3, use_cache=False, **kwargs
            ),
            seed=5,
        )
        return _analysis_document(
            engine.analyze(tiny_log, name="pooled", goals=GOALS)
        )

    serial = run()
    assert run(executor="process", executor_workers=2) == serial
    assert leaked_segments() == []


# ----------------------------------------------------------------------
# Cleanup under injected faults
# ----------------------------------------------------------------------
@pytest.mark.faults
def test_faulty_pooled_sweep_leaks_no_segments(blobs):
    data, _ = blobs
    matrix = np.asarray(data, dtype=np.float64)
    retry = RetryPolicy(max_attempts=4, base_delay=0.001, max_delay=0.01)
    injector = FaultInjector(
        ProcessPoolExecutorBackend(workers=2, retry=retry),
        raise_rate=0.3,
        drop_rate=0.2,
        max_failures=2,
        seed=5,
    )
    clean = KMeansOptimizer(
        k_values=(2, 3), n_folds=3, seed=1
    ).optimize(matrix)
    faulty = KMeansOptimizer(
        k_values=(2, 3), n_folds=3, seed=1, executor=injector
    ).optimize(matrix)
    assert leaked_segments() == []
    assert faulty.best_row.k == clean.best_row.k
    assert [row.sse for row in faulty.rows] == [
        row.sse for row in clean.rows
    ]


@pytest.mark.faults
def test_unlucky_fatal_faults_still_leave_no_segments():
    matrix = np.ones((12, 3))
    injector = FaultInjector(
        ProcessPoolExecutorBackend(workers=2),
        raise_rate=1.0,
        redeliver=False,
        seed=0,
    )
    with pytest.raises(Exception):
        KMeansOptimizer(
            k_values=(2,), n_folds=3, seed=0, executor=injector
        ).optimize(matrix)
    assert leaked_segments() == []


# ----------------------------------------------------------------------
# orphan reaping after a hard kill (repro shm reap)
# ----------------------------------------------------------------------
_ORPHAN_CHILD = """
import signal

import numpy as np
from multiprocessing import resource_tracker
from repro.data.blocks import SharedMatrix

ref = SharedMatrix.create(np.ones((8, 8)))
# Model the whole process group dying (OOM killer): the resource
# tracker that would have unlinked this segment dies with us, so the
# segment outlives the process -- exactly the orphan `repro shm reap`
# exists for.
resource_tracker.unregister(ref._shm._name, "shared_memory")
print(ref.name, flush=True)
signal.pause()
"""


@pytest.mark.crash
def test_sigkilled_owner_leaks_a_segment_and_reap_clears_it():
    import signal
    import subprocess
    import sys

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    child = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_CHILD],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        name = child.stdout.readline().strip()
        assert name  # the segment exists before the kill
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
        assert name in leaked_segments()
        assert reap_segments([name]) == [name]
        assert name not in leaked_segments()
        # idempotent: a second reap finds nothing to do
        assert reap_segments([name]) == []
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=30)
        child.stdout.close()
        reap_segments()


def test_reap_segments_never_touches_foreign_names():
    assert reap_segments(["not-a-library-segment"]) == []
