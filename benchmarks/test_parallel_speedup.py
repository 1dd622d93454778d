"""E12 — process-parallel sweeps and the memoising analysis cache.

The paper's cloud vision: "a set of online cloud-based services for
automatic configuration of data analytics will exploit the computational
advantages of massively parallel cloud computing". Two measurements on
the paper-scale dataset stand in for that cloud:

* the Table I K sweep dispatched to local worker processes
  (:class:`ProcessPoolExecutorBackend`, 4 workers) against the serial
  baseline — results must be identical, and on a multi-core host the
  sweep must finish at least twice as fast;
* a repeated ``ADAHealth.analyze`` on an unchanged log with the
  analysis cache on — the warm run must cost at most 25 % of the cold
  run, with identical output.

Timings, speedups and host facts are appended to
``benchmarks/BENCH_parallel.json``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.cloud import (
    ProcessPoolExecutorBackend,
    SerialExecutor,
    TaskSpec,
    payload_bytes,
)
from repro.core import ADAHealth, EngineConfig, KMeansOptimizer
from repro.core.optimizer import PAPER_K_VALUES, _evaluate_k_task
from repro.data import SharedMatrix

from conftest import BENCH_SEED, host_facts

RESULT_PATH = Path(__file__).resolve().parent / "BENCH_parallel.json"
BLOCKS_RESULT_PATH = Path(__file__).resolve().parent / "BENCH_blocks.json"

#: The shared-memory transport must shrink per-task payloads by at
#: least this factor on the paper-scale matrix.
PAYLOAD_REDUCTION_FLOOR = 10.0

#: Workers for the process backend (the ISSUE's reference setting).
WORKERS = 4

#: Cores needed before a >= 2x speedup with 4 workers is physically
#: possible (pickling and result transport eat into a 2-core budget).
SPEEDUP_MIN_CORES = 4


def _record(section: str, payload: dict, path: Path = RESULT_PATH) -> None:
    data = {}
    if path.exists():
        data = json.loads(path.read_text())
    data[section] = payload
    data["host"] = host_facts()
    path.write_text(json.dumps(data, indent=2, sort_keys=True))


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def _assert_reports_identical(left, right):
    assert right.best_k == left.best_k
    assert right.sse_plateau == left.sse_plateau
    for a, b in zip(left.rows, right.rows):
        assert (a.k, a.sse, a.accuracy, a.avg_precision, a.avg_recall) == (
            b.k,
            b.sse,
            b.accuracy,
            b.avg_precision,
            b.avg_recall,
        )


def test_parallel_table1_sweep(paper_matrix, benchmark):
    def sweep(executor):
        return KMeansOptimizer(
            k_values=PAPER_K_VALUES,
            n_folds=10,
            seed=BENCH_SEED,
            executor=executor,
        ).optimize(paper_matrix)

    serial_report, serial_seconds = _timed(lambda: sweep(SerialExecutor()))
    # Timed here rather than read from benchmark.stats, which is None
    # under --benchmark-disable.
    parallel_report, parallel_seconds = _timed(
        lambda: benchmark.pedantic(
            sweep,
            args=(ProcessPoolExecutorBackend(workers=WORKERS),),
            rounds=1,
            iterations=1,
        )
    )

    _assert_reports_identical(serial_report, parallel_report)
    speedup = serial_seconds / parallel_seconds

    print()
    print(f"E12 — Table I sweep, {len(PAPER_K_VALUES)} K values")
    print(f"serial:              {serial_seconds:8.2f} s")
    print(f"process x{WORKERS}:          {parallel_seconds:8.2f} s")
    print(f"speedup:             {speedup:8.2f} x"
          f"   ({os.cpu_count()} cores on this host)")

    _record(
        "table1_sweep",
        {
            "k_values": list(PAPER_K_VALUES),
            "serial_seconds": serial_seconds,
            "process_seconds": parallel_seconds,
            "workers": WORKERS,
            "speedup": speedup,
            "identical_reports": True,
        },
    )
    benchmark.extra_info["speedup"] = speedup

    # Payload accounting: what one sweep task pickles with the matrix
    # inline (the pre-shared-memory transport) vs. with a ~100-byte
    # segment handle. This is the quantity the transport optimises and
    # the one a 1-core host can still measure honestly.
    matrix = np.ascontiguousarray(paper_matrix)
    settings = KMeansOptimizer(
        k_values=PAPER_K_VALUES, n_folds=10, seed=BENCH_SEED
    )._fit_settings()
    inline_bytes = payload_bytes(
        TaskSpec(  # adalint: disable=ADA014 - measuring the bad path
            _evaluate_k_task, (matrix, PAPER_K_VALUES[0], None, *settings)
        )
    )
    with SharedMatrix.create(matrix) as segment:
        shared_bytes = payload_bytes(
            TaskSpec(
                _evaluate_k_task,
                (segment.handle(), PAPER_K_VALUES[0], None, *settings),
            )
        )
    reduction = inline_bytes / shared_bytes
    print(f"payload (pickled matrix):   {inline_bytes:>12,} B/task")
    print(f"payload (shared handle):    {shared_bytes:>12,} B/task")
    print(f"payload reduction:          {reduction:11.1f} x")

    _record(
        "table1_sweep_payload",
        {
            "matrix_shape": list(matrix.shape),
            "inline_bytes_per_task": inline_bytes,
            "shared_handle_bytes_per_task": shared_bytes,
            "reduction": reduction,
            "serial_seconds": serial_seconds,
            "process_seconds": parallel_seconds,
            "speedup": speedup,
            "workers": WORKERS,
        },
        path=BLOCKS_RESULT_PATH,
    )

    assert reduction >= PAYLOAD_REDUCTION_FLOOR
    cores = os.cpu_count() or 1
    if cores >= SPEEDUP_MIN_CORES:
        assert speedup >= 2.0
    else:
        # A single- or dual-core host cannot express the parallelism;
        # the payload-reduction assertion above is the meaningful
        # measurement there.
        print(f"speedup assertion skipped: only {cores} core(s)")


def test_warm_cache_analyze(paper_log, benchmark):
    engine = ADAHealth(
        config=EngineConfig(
            k_values=(6, 8, 10), n_folds=5, use_cache=True
        ),
        seed=BENCH_SEED,
    )

    cold, cold_seconds = _timed(
        lambda: engine.analyze(paper_log, name="cold", user="bench")
    )
    warm, warm_seconds = _timed(
        lambda: benchmark.pedantic(
            engine.analyze,
            args=(paper_log,),
            kwargs={"name": "warm", "user": "bench"},
            rounds=1,
            iterations=1,
        )
    )
    ratio = warm_seconds / cold_seconds

    signature = lambda result: [  # noqa: E731
        (item.kind, item.title, item.score) for item in result.items
    ]
    assert signature(warm) == signature(cold)
    assert engine.cache.hits >= len(warm.runs)

    print()
    print("E12 — repeated analyze() with the analysis cache")
    print(f"cold: {cold_seconds:8.2f} s")
    print(f"warm: {warm_seconds:8.2f} s   ({ratio * 100:.1f} % of cold)")
    print(f"cache: {engine.cache.stats()}")

    _record(
        "warm_cache_analyze",
        {
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "ratio": ratio,
            "cache": engine.cache.stats(),
        },
    )
    benchmark.extra_info["warm_over_cold"] = ratio

    assert ratio <= 0.25
