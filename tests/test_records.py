"""Tests for the examination-log data model."""

from datetime import date

import numpy as np
import pytest

from repro.data import ExamLog, ExamRecord, PatientInfo
from repro.data.taxonomy import build_default_taxonomy
from repro.exceptions import DataError, ValidationError


def test_record_validation_rejects_negative_fields():
    with pytest.raises(ValidationError):
        ExamRecord(patient_id=-1, day=0, exam_code=0)
    with pytest.raises(ValidationError):
        ExamRecord(patient_id=0, day=-1, exam_code=0)
    with pytest.raises(ValidationError):
        ExamRecord(patient_id=0, day=0, exam_code=-1)


def test_record_calendar_date():
    record = ExamRecord(patient_id=1, day=31, exam_code=0)
    assert record.calendar_date(date(2015, 1, 1)) == date(2015, 2, 1)


def test_patient_info_rejects_implausible_age():
    with pytest.raises(ValidationError):
        PatientInfo(patient_id=1, age=200)


def test_summary_counts(handmade_log):
    summary = handmade_log.summary()
    assert summary["n_patients"] == 3
    assert summary["n_records"] == 7
    assert summary["n_exam_types"] == 8
    assert summary["age_min"] == 45
    assert summary["age_max"] == 70
    assert summary["days_spanned"] == 21


def test_exam_frequency(handmade_log):
    frequency = handmade_log.exam_frequency()
    assert frequency[0] == 2
    assert frequency[1] == 2
    assert frequency[2] == 3
    assert frequency[3:].sum() == 0


def test_exam_codes_by_frequency_deterministic(handmade_log):
    order = handmade_log.exam_codes_by_frequency()
    # exam 2 (3 records) first; 0 and 1 tie at 2, broken by code.
    assert order[:3] == [2, 0, 1]


def test_count_matrix_values(handmade_log):
    matrix, patient_ids = handmade_log.count_matrix()
    assert patient_ids == [1, 2, 3]
    assert matrix.shape == (3, 8)
    assert matrix[0, 0] == 2 and matrix[0, 1] == 1
    assert matrix[1, 1] == 1
    assert matrix[2, 2] == 3
    assert matrix.sum() == 7


def test_transactions_by_patient(handmade_log):
    transactions = handmade_log.transactions(by="patient")
    assert len(transactions) == 3
    # Patient 1 underwent exams 0 and 1 -> two distinct names.
    assert len(transactions[0]) == 2
    # Patient 3 only exam 2 (three times -> one name).
    assert len(transactions[2]) == 1


def test_transactions_by_visit(handmade_log):
    transactions = handmade_log.transactions(by="visit")
    # Patient 1 has visits on days 1 (two exams) and 2 (one exam);
    # patient 2 one visit; patient 3 three visits.
    assert len(transactions) == 6
    sizes = sorted(len(t) for t in transactions)
    assert sizes == [1, 1, 1, 1, 1, 2]


def test_transactions_unknown_grouping(handmade_log):
    with pytest.raises(DataError):
        handmade_log.transactions(by="hospital")


def test_restrict_exams_keeps_all_patients(handmade_log):
    restricted = handmade_log.restrict_exams([0, 1])
    assert restricted.n_records == 4
    # Patient 3 loses every record but is still registered.
    assert 3 in restricted.patients
    assert restricted.n_exam_types == handmade_log.n_exam_types


def test_restrict_patients(handmade_log):
    restricted = handmade_log.restrict_patients([1, 3])
    assert restricted.n_patients == 2
    assert restricted.n_records == 6
    assert set(restricted.patients) == {1, 3}


def test_time_window(handmade_log):
    window = handmade_log.time_window(0, 5)
    assert window.n_records == 5
    with pytest.raises(DataError):
        handmade_log.time_window(10, 0)


def test_out_of_taxonomy_code_rejected():
    taxonomy = build_default_taxonomy(8)
    with pytest.raises(DataError):
        ExamLog(
            [ExamRecord(patient_id=0, day=0, exam_code=9)],
            taxonomy=taxonomy,
        )


def test_duplicate_patient_info_rejected():
    taxonomy = build_default_taxonomy(8)
    with pytest.raises(DataError):
        ExamLog(
            [],
            taxonomy=taxonomy,
            patients=[
                PatientInfo(patient_id=1, age=50),
                PatientInfo(patient_id=1, age=51),
            ],
        )


def test_records_sorted_on_construction():
    taxonomy = build_default_taxonomy(8)
    records = [
        ExamRecord(patient_id=2, day=0, exam_code=0),
        ExamRecord(patient_id=1, day=5, exam_code=1),
        ExamRecord(patient_id=1, day=1, exam_code=0),
    ]
    log = ExamLog(records, taxonomy=taxonomy)
    assert [r.patient_id for r in log.records] == [1, 1, 2]
    assert log.records[0].day == 1


def test_len_and_iter(handmade_log):
    assert len(handmade_log) == 7
    assert sum(1 for __ in handmade_log) == 7


def test_ages_only_known_patients(tiny_log):
    ages = tiny_log.ages()
    assert len(ages) == tiny_log.n_patients
    assert all(4 <= age <= 95 for age in ages)


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 2]],
        [[1, 2, 3, 4]],
        [1, 2, 3],
        [[1, "x", 3]],
        [[1, "2", 3]],
        [[1, 2, 3], [1, 2]],
        [[1, None, 3]],
        np.array([[1.5, 2.0, 3.0]]),
        np.array([[1.0, 2.0, 3.0]]),
        np.array([[True, False, True]]),
        np.array([[2**64 - 1, 0, 0]], dtype=np.uint64),
        [[2**70, 0, 0]],
    ],
)
def test_from_rows_rejects_malformed_rows(rows):
    with pytest.raises(DataError):
        ExamLog.from_rows(rows, taxonomy=build_default_taxonomy(8))


def test_from_rows_keeps_field_errors():
    taxonomy = build_default_taxonomy(8)
    for row in ([-1, 0, 0], [0, -1, 0], [0, 0, -1]):
        with pytest.raises(ValidationError):
            ExamLog.from_rows([row], taxonomy=taxonomy)
    with pytest.raises(DataError):
        ExamLog.from_rows([[0, 0, 8]], taxonomy=taxonomy)


def test_from_rows_accepts_any_integer_dtype_and_empty_input():
    taxonomy = build_default_taxonomy(8)
    log = ExamLog.from_rows(
        np.array([[3, 1, 2], [1, 0, 7]], dtype=np.uint8), taxonomy=taxonomy
    )
    assert log.to_rows().dtype == np.int64
    assert log.to_rows().tolist() == [[1, 0, 7], [3, 1, 2]]
    for empty in ([], np.empty((0, 3), dtype=np.int64)):
        assert ExamLog.from_rows(empty, taxonomy=taxonomy).n_records == 0
