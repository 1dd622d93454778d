"""The per-record examination log, kept as a reference.

:class:`ReferenceExamLog` is :class:`repro.data.ExamLog` as it was
before the log became columnar: a sorted list of :class:`ExamRecord`
objects, with every derived view (count matrix, frequencies,
transactions, rows, summary, subsets) a Python loop over them.
:func:`reference_fingerprint_log` and :func:`reference_sequences_from_log`
are the cache fingerprint and the sequence view over the same loops.
:func:`assert_same_log` compares a columnar log against a reference log,
view for view and dtype for dtype; the equality tests and
``benchmarks/test_examlog_views.py`` use it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cache import fingerprint_bytes, fingerprint_log
from repro.data.records import ExamLog, ExamRecord, PatientInfo
from repro.data.taxonomy import ExamTaxonomy, build_default_taxonomy
from repro.exceptions import DataError
from repro.mining.sequences import sequences_from_log


class ReferenceExamLog:
    """The record-object examination log.

    Parameters
    ----------
    records:
        The examination events. Order is not significant; the log sorts a
        copy by (patient, day, exam).
    taxonomy:
        The examination-type taxonomy. Every record's ``exam_code`` must be
        a valid code in the taxonomy.
    patients:
        Optional demographics. Patients that appear in ``records`` but not
        here are allowed (their age is simply unknown).
    """

    def __init__(
        self,
        records: Iterable[ExamRecord],
        taxonomy: Optional[ExamTaxonomy] = None,
        patients: Optional[Iterable[PatientInfo]] = None,
    ) -> None:
        self.taxonomy = taxonomy or build_default_taxonomy()
        self.records: List[ExamRecord] = sorted(records)
        n_types = len(self.taxonomy)
        for record in self.records:
            if record.exam_code >= n_types:
                raise DataError(
                    f"record exam_code {record.exam_code} outside taxonomy"
                    f" of size {n_types}"
                )
        self.patients: Dict[int, PatientInfo] = {}
        for info in patients or ():
            if info.patient_id in self.patients:
                raise DataError(f"duplicate patient info: {info.patient_id}")
            self.patients[info.patient_id] = info
        self._patient_ids: Optional[List[int]] = None
        self._exam_frequency: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[ExamRecord]:
        return iter(self.records)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def n_records(self) -> int:
        """Total number of examination events."""
        return len(self.records)

    @property
    def n_exam_types(self) -> int:
        """Number of exam types in the taxonomy (columns of the VSM)."""
        return len(self.taxonomy)

    def patient_ids(self) -> List[int]:
        """Sorted ids of patients appearing in the log."""
        if self._patient_ids is None:
            self._patient_ids = sorted({r.patient_id for r in self.records})
        return self._patient_ids

    @property
    def n_patients(self) -> int:
        """Number of distinct patients with at least one record."""
        return len(self.patient_ids())

    def ages(self) -> List[int]:
        """Known ages of patients appearing in the log."""
        known = []
        for pid in self.patient_ids():
            info = self.patients.get(pid)
            if info is not None:
                known.append(info.age)
        return known

    def exam_frequency(self) -> np.ndarray:
        """Number of records per exam type, shape ``(n_exam_types,)``."""
        if self._exam_frequency is None:
            counts = np.zeros(self.n_exam_types, dtype=np.int64)
            for record in self.records:
                counts[record.exam_code] += 1
            self._exam_frequency = counts
        return self._exam_frequency

    def exam_codes_by_frequency(self) -> List[int]:
        """Exam codes ordered by decreasing record count.

        Ties break on the exam code so the ordering is deterministic. This
        ordering drives the paper's horizontal partial-mining strategy
        ("examination types were chosen in decreasing order of frequency
        within the original raw data").
        """
        frequency = self.exam_frequency()
        order = sorted(
            range(self.n_exam_types), key=lambda code: (-frequency[code], code)
        )
        return order

    def count_matrix(self) -> Tuple[np.ndarray, List[int]]:
        """Return ``(matrix, patient_ids)`` of per-patient exam counts.

        ``matrix[i, j]`` is the number of times patient ``patient_ids[i]``
        underwent exam type ``j`` — the raw Vector Space Model of the paper
        ("a unique vector for each patient, representing his/her
        examination history, i.e. number of times he/she underwent each
        examination").
        """
        ids = self.patient_ids()
        index = {pid: i for i, pid in enumerate(ids)}
        matrix = np.zeros((len(ids), self.n_exam_types), dtype=np.float64)
        for record in self.records:
            matrix[index[record.patient_id], record.exam_code] += 1.0
        return matrix, ids

    def to_rows(self) -> np.ndarray:
        """Dense ``(n_records, 3)`` int64 array of the record triples.

        Columns are ``(patient_id, day, exam_code)`` in the log's sorted
        record order — the same row layout the cache fingerprint hashes.
        This is the transport representation of a log: the array can live
        in a :class:`repro.data.blocks.SharedMatrix` segment and be
        rebuilt in a worker with :meth:`from_rows` without pickling the
        record objects.
        """
        rows = np.empty((len(self.records), 3), dtype=np.int64)
        for i, record in enumerate(self.records):
            rows[i, 0] = record.patient_id
            rows[i, 1] = record.day
            rows[i, 2] = record.exam_code
        return rows

    @classmethod
    def from_rows(
        cls,
        rows: np.ndarray,
        taxonomy: Optional[ExamTaxonomy] = None,
        patients: Optional[Iterable[PatientInfo]] = None,
    ) -> "ReferenceExamLog":
        """Rebuild a log from a :meth:`to_rows` array (exact round-trip)."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
        records = [
            ExamRecord(
                patient_id=int(row[0]), day=int(row[1]), exam_code=int(row[2])
            )
            for row in rows
        ]
        return cls(records, taxonomy=taxonomy, patients=patients)

    @classmethod
    def concat(cls, logs: Sequence["ReferenceExamLog"]) -> "ReferenceExamLog":
        """Merge block logs into one (shared taxonomy, disjoint patients).

        Used to assemble a flat log from the generator's blocked stream
        when memory allows; patients carrying demographics in several
        blocks must not collide.
        """
        if not logs:
            raise DataError("concat needs at least one log")
        records: List[ExamRecord] = []
        patients: List[PatientInfo] = []
        for log in logs:
            records.extend(log.records)
            patients.extend(log.patients.values())
        return cls(records, taxonomy=logs[0].taxonomy, patients=patients)

    def transactions(self, by: str = "patient") -> List[List[str]]:
        """Itemset-mining view of the log.

        Parameters
        ----------
        by:
            ``"patient"`` — one transaction per patient containing the set
            of exam names the patient underwent during the window (the view
            used for co-prescription pattern discovery); or
            ``"visit"`` — one transaction per (patient, day) pair,
            capturing exams prescribed together on the same day.
        """
        if by == "patient":
            groups: Dict[int, set] = {}
            for record in self.records:
                groups.setdefault(record.patient_id, set()).add(
                    record.exam_code
                )
            keys: List = sorted(groups)
        elif by == "visit":
            groups = {}
            for record in self.records:
                groups.setdefault(
                    (record.patient_id, record.day), set()
                ).add(record.exam_code)
            keys = sorted(groups)
        else:
            raise DataError(f"unknown transaction grouping: {by!r}")
        name_of = {e.code: e.name for e in self.taxonomy}
        return [
            sorted(name_of[code] for code in groups[key]) for key in keys
        ]

    # ------------------------------------------------------------------
    # Subsetting (substrate for partial mining)
    # ------------------------------------------------------------------
    def restrict_exams(self, exam_codes: Sequence[int]) -> "ReferenceExamLog":
        """Return a new log keeping only records of the given exam types.

        The taxonomy is preserved unchanged (columns keep their codes) so
        VSM matrices built from the restricted log stay comparable; all
        patients are retained even if they lose every record, matching the
        paper's horizontal partial mining which reduces the feature space
        "while retaining the total number of patients".
        """
        keep = set(exam_codes)
        records = [r for r in self.records if r.exam_code in keep]
        return ReferenceExamLog(
            records, taxonomy=self.taxonomy, patients=self.patients.values()
        )

    def restrict_patients(
        self, patient_ids: Sequence[int]
    ) -> "ReferenceExamLog":
        """Return a new log keeping only records of the given patients."""
        keep = set(patient_ids)
        records = [r for r in self.records if r.patient_id in keep]
        patients = [
            info for pid, info in self.patients.items() if pid in keep
        ]
        return ReferenceExamLog(
            records, taxonomy=self.taxonomy, patients=patients
        )

    def time_window(self, first_day: int, last_day: int) -> "ReferenceExamLog":
        """Return a new log restricted to days in ``[first_day, last_day]``."""
        if first_day > last_day:
            raise DataError("first_day must not exceed last_day")
        records = [
            r for r in self.records if first_day <= r.day <= last_day
        ]
        return ReferenceExamLog(
            records, taxonomy=self.taxonomy, patients=self.patients.values()
        )

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """A small dict of headline statistics (paper §IV wording)."""
        ages = self.ages()
        frequency = self.exam_frequency()
        observed_types = int(np.count_nonzero(frequency))
        return {
            "n_patients": self.n_patients,
            "n_records": self.n_records,
            "n_exam_types": self.n_exam_types,
            "n_observed_exam_types": observed_types,
            "age_min": min(ages) if ages else None,
            "age_max": max(ages) if ages else None,
            "days_spanned": (
                max(r.day for r in self.records) + 1 if self.records else 0
            ),
        }


def reference_fingerprint_log(log) -> str:
    """The cache fingerprint, hashing a row array built record by record."""
    rows = np.array(
        [
            (record.patient_id, record.day, record.exam_code)
            for record in log.records
        ],
        dtype=np.int64,
    ).reshape(-1, 3)
    header = f"examlog|{log.n_exam_types}|".encode()
    return fingerprint_bytes(header + rows.tobytes())


def reference_sequences_from_log(log) -> List[List[frozenset]]:
    """One sequence per patient: visit itemsets in day order."""
    per_patient: Dict[int, Dict[int, set]] = defaultdict(dict)
    for record in log.records:
        visits = per_patient[record.patient_id]
        visits.setdefault(record.day, set()).add(
            log.taxonomy.by_code(record.exam_code).name
        )
    sequences = []
    for patient_id in sorted(per_patient):
        visits = per_patient[patient_id]
        sequences.append(
            [frozenset(visits[day]) for day in sorted(visits)]
        )
    return sequences


def assert_same_view(value, expected) -> None:
    """Equal values and, for arrays, equal dtype and shape."""
    if isinstance(expected, np.ndarray):
        assert isinstance(value, np.ndarray)
        assert value.dtype == expected.dtype
        assert value.shape == expected.shape
        assert np.array_equal(value, expected)
    else:
        assert value == expected


def assert_same_log(log: ExamLog, ref: ReferenceExamLog) -> None:
    """Every view of the columnar log equals the reference's."""
    assert list(log.records) == ref.records
    assert list(log) == ref.records
    assert len(log) == len(ref) and log.n_records == ref.n_records
    assert_same_view(log.patient_ids(), ref.patient_ids())
    assert all(type(pid) is int for pid in log.patient_ids())
    assert_same_view(log.exam_frequency(), ref.exam_frequency())
    assert_same_view(
        log.exam_codes_by_frequency(), ref.exam_codes_by_frequency()
    )
    matrix, ids = log.count_matrix()
    ref_matrix, ref_ids = ref.count_matrix()
    assert_same_view(matrix, ref_matrix)
    assert_same_view(ids, ref_ids)
    for by in ("patient", "visit"):
        assert_same_view(log.transactions(by=by), ref.transactions(by=by))
    rows = log.to_rows()
    assert_same_view(rows, ref.to_rows())
    assert rows.flags.c_contiguous and not rows.flags.writeable
    assert_same_view(log.summary(), ref.summary())
    assert_same_view(log.ages(), ref.ages())
    assert log.patients == ref.patients
    assert sequences_from_log(log) == reference_sequences_from_log(ref)
    assert fingerprint_log(log) == reference_fingerprint_log(ref)
