"""The columnar ``ExamLog`` equals the per-record reference, view for view.

Every derived view of :class:`repro.data.ExamLog` is an array operation
over one sorted int64 row array; ``tests/examlog_reference.py`` keeps
the record-object loops they replaced. The property below builds both
from the same records and requires equal values *and* equal dtypes for
every view, every subset and the cache fingerprint's hashed bytes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cache import fingerprint_log
from repro.data import ExamLog, ExamRecord, PatientInfo, paper_dataset
from repro.data.taxonomy import build_default_taxonomy
from repro.exceptions import DataError
from repro.mining.sequences import sequences_from_log
from tests.examlog_reference import ReferenceExamLog, assert_same_log

N_TYPES = 12
TAXONOMY = build_default_taxonomy(N_TYPES)

#: Small ids collide often (shared patients, duplicate records); the
#: wide ones sit at and above 2**31, up to 2**62.
PATIENT_IDS = st.one_of(
    st.integers(0, 6),
    st.integers(2**31 - 2, 2**31 + 3),
    st.sampled_from([2**40, 2**62]),
)
RECORDS = st.lists(
    st.builds(
        ExamRecord,
        patient_id=PATIENT_IDS,
        day=st.integers(0, 8),
        exam_code=st.integers(0, N_TYPES - 1),
    ),
    max_size=40,
)


def _patients(records):
    """Demographics for every other patient, so some ages are unknown."""
    ids = sorted({record.patient_id for record in records})
    return [PatientInfo(pid, 20 + i) for i, pid in enumerate(ids[::2])]


@settings(max_examples=150, deadline=None)
@given(records=RECORDS, data=st.data())
@example(records=[], data=None)
@example(records=[ExamRecord(7, 3, 1)] * 3 + [ExamRecord(7, 0, 5)], data=None)
def test_columnar_views_equal_the_reference(records, data):
    patients = _patients(records)
    log = ExamLog(records, taxonomy=TAXONOMY, patients=patients)
    ref = ReferenceExamLog(records, taxonomy=TAXONOMY, patients=patients)
    assert_same_log(log, ref)

    round_trip = ExamLog.from_rows(
        log.to_rows(), taxonomy=TAXONOMY, patients=patients
    )
    assert_same_log(round_trip, ref)
    assert round_trip.to_rows() is not log.to_rows()

    if data is None:
        codes, ids, (first, last) = [], [], (0, 0)
    else:
        codes = data.draw(st.lists(st.integers(0, N_TYPES - 1)))
        ids = data.draw(st.lists(PATIENT_IDS))
        first = data.draw(st.integers(0, 8))
        last = data.draw(st.integers(first, 9))
    assert_same_log(log.restrict_exams(codes), ref.restrict_exams(codes))
    assert_same_log(log.restrict_patients(ids), ref.restrict_patients(ids))
    assert_same_log(
        log.time_window(first, last), ref.time_window(first, last)
    )

    # concat of a patient split, blocks given in reverse order
    cut = len(records) // 2
    pivot = sorted(r.patient_id for r in records)[cut] if records else 0
    blocks = [
        [r for r in records if r.patient_id >= pivot],
        [r for r in records if r.patient_id < pivot],
    ]
    merged = ExamLog.concat(
        [
            ExamLog(block, taxonomy=TAXONOMY, patients=_patients(block))
            for block in blocks
        ]
    )
    ref_merged = ReferenceExamLog.concat(
        [
            ReferenceExamLog(
                block, taxonomy=TAXONOMY, patients=_patients(block)
            )
            for block in blocks
        ]
    )
    assert_same_log(merged, ref_merged)


@settings(max_examples=60, deadline=None)
@given(records=RECORDS)
def test_from_rows_sorts_unsorted_rows(records):
    rows = np.array(
        [(r.patient_id, r.day, r.exam_code) for r in records],
        dtype=np.int64,
    ).reshape(-1, 3)
    log = ExamLog.from_rows(rows, taxonomy=TAXONOMY)
    assert_same_log(log, ReferenceExamLog(records, taxonomy=TAXONOMY))


def test_single_patient_log():
    records = [ExamRecord(3, day, day % N_TYPES) for day in (5, 1, 1, 0)]
    log = ExamLog(records, taxonomy=TAXONOMY)
    assert_same_log(log, ReferenceExamLog(records, taxonomy=TAXONOMY))
    assert log.patient_ids() == [3]


def test_sorted_records_are_the_callers_objects():
    records = [ExamRecord(1, 1, 0), ExamRecord(1, 5, 1), ExamRecord(2, 0, 0)]
    log = ExamLog(records, taxonomy=TAXONOMY)
    assert isinstance(log.records, tuple)
    assert [id(r) for r in log.records] == [id(r) for r in records]


def test_unsorted_records_are_created_in_sorted_order():
    records = [ExamRecord(2, 0, 0), ExamRecord(1, 5, 1), ExamRecord(1, 1, 0)]
    log = ExamLog(records, taxonomy=TAXONOMY)
    assert log._records is None
    assert log.records == tuple(sorted(records))


def test_cached_patient_starts_are_read_only():
    log = ExamLog.from_rows(
        np.array([[0, 0, 1], [0, 2, 1], [4, 1, 0]]), taxonomy=TAXONOMY
    )
    starts = log.group_starts()
    with pytest.raises(ValueError):
        starts[0] = 1
    assert log.group_starts("visit").tolist() == [0, 1, 2]
    assert log.patient_ids() == [0, 4]


def test_from_rows_creates_records_only_when_read():
    log = ExamLog.from_rows(
        np.array([[1, 0, 2], [0, 4, 1]]), taxonomy=TAXONOMY
    )
    assert log._records is None
    log.count_matrix(), log.transactions(), fingerprint_log(log)
    sequences_from_log(log), log.summary()
    assert log._records is None
    assert log.records == (ExamRecord(0, 4, 1), ExamRecord(1, 0, 2))


def test_from_rows_copies_its_input():
    rows = np.array([[0, 1, 2], [1, 0, 0]], dtype=np.int64)
    log = ExamLog.from_rows(rows, taxonomy=TAXONOMY)
    rows[0, 0] = 9
    assert log.patient_ids() == [0, 1]
    with pytest.raises(ValueError):
        log.to_rows()[0, 0] = 5


def test_group_starts_rejects_unknown_grouping():
    log = ExamLog([], taxonomy=TAXONOMY)
    with pytest.raises(DataError):
        log.group_starts("day")


def test_paper_cohort_views_equal_the_reference():
    log = paper_dataset(0)
    ref = ReferenceExamLog(
        log.records, taxonomy=log.taxonomy, patients=log.patients.values()
    )
    assert_same_log(log, ref)
