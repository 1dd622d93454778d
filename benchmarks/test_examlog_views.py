"""Exam-log views: the columnar ``ExamLog`` against the per-record loops.

Every consumer of the examination log reads it through a derived view:
the count matrix (VSM, characterisation, guideline compliance), the
frequency table (partial mining), the transactions and visit sequences
(pattern mining), the row array (cache fingerprint, shared-memory
transport) and the summary (K-DB registration). This benchmark times
each view, each subsetting method and both constructors on the
paper-scale cohort (6,380 patients, ~96k records) for two logs:

* ``reference``: the sorted list of ``ExamRecord`` objects with a
  Python loop per view (``tests/examlog_reference.py``);
* ``columnar``: :class:`repro.data.ExamLog`, one sorted read-only
  ``(n, 3)`` int64 row array with every view an array operation.

Each view must return the same values with the same dtypes from both
logs. The median seconds per call, the speedup, the identity verdict
and the host are written to ``benchmarks/BENCH_examlog.json``. Run from
the repository root::

    PYTHONPATH=src python -m pytest -q benchmarks/test_examlog_views.py -s
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
import random
from typing import Callable, Dict, List

from repro.core.cache import fingerprint_log
from repro.data import ExamLog
from repro.mining.sequences import sequences_from_log
from tests.examlog_reference import (
    ReferenceExamLog,
    assert_same_log,
    assert_same_view,
    reference_fingerprint_log,
    reference_sequences_from_log,
)

from conftest import host_facts

RESULT_PATH = Path(__file__).resolve().parent / "BENCH_examlog.json"

#: Timed repeats per (log, view); the median is recorded.
ROUNDS = 5


def _views(log, ids: List[int], codes: List[int]) -> Dict[str, Callable]:
    """The timed calls on one log (ids and codes come from another log,
    so the cached views are still cold when timed)."""
    half = len(ids) // 2
    reference = isinstance(log, ReferenceExamLog)
    return {
        "count_matrix": log.count_matrix,
        "exam_frequency": log.exam_frequency,
        "patient_ids": log.patient_ids,
        "transactions_patient": lambda: log.transactions(by="patient"),
        "transactions_visit": lambda: log.transactions(by="visit"),
        "to_rows": log.to_rows,
        "summary": log.summary,
        "restrict_exams": lambda: log.restrict_exams(codes),
        "restrict_patients": lambda: log.restrict_patients(ids[:half]),
        "time_window": lambda: log.time_window(0, 180),
        "concat": lambda: type(log).concat(
            [
                log.restrict_patients(ids[half:]),
                log.restrict_patients(ids[:half]),
            ]
        ),
        "sequences_from_log": lambda: (
            reference_sequences_from_log(log)
            if reference
            else sequences_from_log(log)
        ),
        "fingerprint_log": lambda: (
            reference_fingerprint_log(log)
            if reference
            else fingerprint_log(log)
        ),
    }


def _same(value, expected) -> bool:
    try:
        if isinstance(expected, ReferenceExamLog):
            assert_same_log(value, expected)
        elif isinstance(expected, tuple):
            return all(map(_same, value, expected))
        else:
            assert_same_view(value, expected)
    except AssertionError:
        return False
    return True


def _median_seconds(fresh: Callable, view: str, *args) -> float:
    seconds = []
    for __ in range(ROUNDS):
        call = _views(fresh(), *args)[view]
        start = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds)


def _median_build(build: Callable) -> float:
    seconds = []
    for __ in range(ROUNDS):
        start = time.perf_counter()
        build()
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds)


def test_examlog_views(paper_log, benchmark):
    taxonomy = paper_log.taxonomy
    patients = list(paper_log.patients.values())
    records = list(paper_log.records)
    rows = paper_log.to_rows()
    shuffled = records[:]
    random.Random(0).shuffle(shuffled)
    ids = paper_log.patient_ids()
    codes = paper_log.exam_codes_by_frequency()[: len(taxonomy) * 2 // 5]

    def fresh_columnar():
        return ExamLog.from_rows(rows, taxonomy=taxonomy, patients=patients)

    def fresh_reference():
        return ReferenceExamLog(records, taxonomy=taxonomy, patients=patients)

    entries: Dict[str, Dict] = {}
    columnar, reference = fresh_columnar(), fresh_reference()
    mine = _views(columnar, ids, codes)
    theirs = _views(reference, ids, codes)
    for view in mine:
        reference_s = _median_seconds(fresh_reference, view, ids, codes)
        columnar_s = _median_seconds(fresh_columnar, view, ids, codes)
        entries[view] = {
            "reference_s": reference_s,
            "columnar_s": columnar_s,
            "speedup": reference_s / columnar_s,
            "identical": _same(mine[view](), theirs[view]()),
        }

    builds = {
        "from_rows": (
            lambda: ReferenceExamLog.from_rows(rows, taxonomy, patients),
            lambda: ExamLog.from_rows(rows, taxonomy, patients),
        ),
        "construct_sorted_records": (
            lambda: ReferenceExamLog(records, taxonomy, patients),
            lambda: ExamLog(records, taxonomy, patients),
        ),
        "construct_shuffled_records": (
            lambda: ReferenceExamLog(shuffled, taxonomy, patients),
            lambda: ExamLog(shuffled, taxonomy, patients),
        ),
    }
    for name, (build_reference, build_columnar) in builds.items():
        reference_s = _median_build(build_reference)
        columnar_s = _median_build(build_columnar)
        entries[name] = {
            "reference_s": reference_s,
            "columnar_s": columnar_s,
            "speedup": reference_s / columnar_s,
            "identical": _same(build_columnar(), build_reference()),
        }

    result = {
        "host": host_facts(),
        "cohort": {
            "n_patients": columnar.n_patients,
            "n_records": columnar.n_records,
            "n_exam_types": columnar.n_exam_types,
        },
        "rounds": ROUNDS,
        "views": entries,
    }
    RESULT_PATH.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print()
    for name, entry in entries.items():
        print(
            f"{name:28s} reference {entry['reference_s'] * 1e3:9.2f} ms"
            f"  columnar {entry['columnar_s'] * 1e3:8.2f} ms"
            f"  ({entry['speedup']:7.1f}x) identical={entry['identical']}"
        )
    benchmark.pedantic(fresh_columnar().count_matrix, rounds=1, iterations=1)
    assert all(entry["identical"] for entry in entries.values())
