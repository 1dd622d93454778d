"""Examination-log data model.

The paper's dataset is an *examination log*: "Each record contains at least
a unique patient identifier, and the type and date of every exam." This
module provides that record model plus :class:`ExamLog`, the in-memory
dataset the rest of the library consumes.

An :class:`ExamLog` is columnar: one read-only, C-contiguous ``(n, 3)``
int64 array of ``(patient_id, day, exam_code)`` rows, sorted
lexicographically, built once when the log is constructed. Every derived
view is an array operation over it, with no pass over record objects:

* patient-level exam-count matrices (input to the VSM builder),
* per-exam frequency tables (input to horizontal partial mining),
* per-patient and per-visit transactions (input to itemset mining),
* the row array itself (the cache fingerprint and the shared-memory
  transport), and
* patient demographics (ages, used for dataset characterisation).

:class:`ExamRecord` objects remain the row-level interface: a log built
from records that are already sorted keeps them (as a tuple); any other
log (unsorted records, :meth:`ExamLog.from_rows`, the subsetting
methods) creates them only when :attr:`ExamLog.records` is first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.taxonomy import ExamTaxonomy, build_default_taxonomy
from repro.exceptions import DataError, ValidationError


@dataclass(frozen=True, order=True)
class ExamRecord:
    """One row of the examination log.

    Attributes
    ----------
    patient_id:
        Anonymised patient identifier (non-negative integer).
    exam_code:
        Examination-type code (index into the taxonomy).
    day:
        Day offset within the observation window (0-based). The paper's
        dataset spans one year, so offsets run 0..364; the model does not
        enforce the bound so multi-year logs also work.
    """

    patient_id: int
    day: int
    exam_code: int

    def __post_init__(self) -> None:
        if self.patient_id < 0:
            raise ValidationError("patient_id must be non-negative")
        if self.exam_code < 0:
            raise ValidationError("exam_code must be non-negative")
        if self.day < 0:
            raise ValidationError("day must be non-negative")

    def calendar_date(self, origin: date) -> date:
        """Return the absolute date given the observation-window origin."""
        return origin + timedelta(days=self.day)


@dataclass
class PatientInfo:
    """Demographics attached to a patient (only age is used by the paper)."""

    patient_id: int
    age: int
    profile: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0 <= self.age <= 130:
            raise ValidationError(f"implausible age: {self.age}")


#: The columns of an :class:`ExamLog`'s row array, in sort-key order;
#: also the field order of :class:`ExamRecord`.
COLUMNS = ("patient_id", "day", "exam_code")

#: The groupings :meth:`ExamLog.group_starts` and
#: :meth:`ExamLog.transactions` accept.
GROUPINGS = ("patient", "visit")


def _record_rows(records: Sequence[ExamRecord]) -> np.ndarray:
    """The ``(n, 3)`` int64 array of the records' fields, in record order."""
    n = len(records)
    rows = np.empty((n, 3), dtype=np.int64)
    try:
        for column, name in enumerate(COLUMNS):
            rows[:, column] = np.fromiter(
                map(attrgetter(name), records), dtype=np.int64, count=n
            )
    except OverflowError as exc:
        raise DataError(f"record field does not fit in int64: {exc}") from None
    return rows


def _integer_rows(rows) -> np.ndarray:
    """A fresh C-contiguous int64 copy of an ``(n, 3)`` integer array.

    Raises :class:`DataError` on any other shape or a non-integer cell
    (a float is never truncated), and :class:`ValidationError` on a
    negative field, as :class:`ExamRecord` does.
    """
    try:
        array = np.asarray(rows)
    except (TypeError, ValueError) as exc:
        raise DataError(
            f"rows are not an (n, 3) integer array: {exc}"
        ) from None
    if array.size == 0 and array.shape in ((0,), (0, 3)):
        return np.empty((0, 3), dtype=np.int64)
    if array.ndim != 2 or array.shape[1] != 3:
        raise DataError(f"rows must have shape (n, 3), got {array.shape}")
    if array.dtype.kind not in "iu":
        raise DataError(f"rows must hold integers, got dtype {array.dtype}")
    if array.dtype.kind == "u" and array.max() > np.iinfo(np.int64).max:
        raise DataError("row field does not fit in int64")
    negative = (array < 0).any(axis=0)
    for name, bad in zip(COLUMNS, negative):
        if bad:
            raise ValidationError(f"{name} must be non-negative")
    return np.array(array, dtype=np.int64, order="C")


def _sort_order(rows: np.ndarray) -> Optional[np.ndarray]:
    """The stable permutation sorting ``rows`` lexicographically, or
    ``None`` when they are sorted already (one vectorised comparison
    pass).
    """
    head, tail = rows[:-1], rows[1:]
    descending = tail[:, 0] < head[:, 0]
    tied = tail[:, 0] == head[:, 0]
    descending |= tied & (tail[:, 1] < head[:, 1])
    tied &= tail[:, 1] == head[:, 1]
    descending |= tied & (tail[:, 2] < head[:, 2])
    if not descending.any():
        return None
    return np.lexsort((rows[:, 2], rows[:, 1], rows[:, 0]))


def _run_index(starts: np.ndarray, n: int) -> np.ndarray:
    """Per-row run number, given the row index where each run starts."""
    index = np.zeros(n, dtype=np.int64)
    index[starts[1:]] = 1
    return np.cumsum(index, out=index)


class ExamLog:
    """An in-memory examination-log dataset.

    Parameters
    ----------
    records:
        The examination events. Order is not significant; the log keeps
        them sorted by (patient, day, exam).
    taxonomy:
        The examination-type taxonomy. Every record's ``exam_code`` must be
        a valid code in the taxonomy.
    patients:
        Optional demographics. Patients that appear in ``records`` but not
        here are allowed (their age is simply unknown).

    A log is immutable: its rows are the read-only array
    :meth:`to_rows` returns, and every subsetting method returns a new
    log.
    """

    def __init__(
        self,
        records: Iterable[ExamRecord],
        taxonomy: Optional[ExamTaxonomy] = None,
        patients: Optional[Iterable[PatientInfo]] = None,
    ) -> None:
        records = tuple(records)
        rows = _record_rows(records)
        order = _sort_order(rows)
        if order is not None:
            rows, records = rows[order], None
        self._setup(rows, records, taxonomy, patients)

    @classmethod
    def _from_sorted_rows(
        cls,
        rows: np.ndarray,
        taxonomy: Optional[ExamTaxonomy],
        patients: Optional[Iterable[PatientInfo]],
    ) -> "ExamLog":
        """Adopt a sorted int64 row array that no one else holds."""
        log = cls.__new__(cls)
        log._setup(rows, None, taxonomy, patients)
        return log

    def _setup(
        self,
        rows: np.ndarray,
        records: Optional[Tuple[ExamRecord, ...]],
        taxonomy: Optional[ExamTaxonomy],
        patients: Optional[Iterable[PatientInfo]],
    ) -> None:
        self.taxonomy = taxonomy or build_default_taxonomy()
        n_types = len(self.taxonomy)
        outside = np.flatnonzero(rows[:, 2] >= n_types)
        if outside.size:
            raise DataError(
                f"record exam_code {rows[outside[0], 2]} outside taxonomy"
                f" of size {n_types}"
            )
        rows.flags.writeable = False
        self._rows = rows
        self._records = records
        self.patients: Dict[int, PatientInfo] = {}
        for info in patients or ():
            if info.patient_id in self.patients:
                raise DataError(f"duplicate patient info: {info.patient_id}")
            self.patients[info.patient_id] = info
        self._patient_starts: Optional[np.ndarray] = None
        self._patient_ids: Optional[List[int]] = None
        self._exam_frequency: Optional[np.ndarray] = None

    @property
    def records(self) -> Tuple[ExamRecord, ...]:
        """The examination events, sorted by (patient, day, exam).

        A log built from sorted records returns them; any other log
        creates them from its rows on the first read.
        """
        if self._records is None:
            self._records = tuple(map(ExamRecord, *self._rows.T.tolist()))
        return self._records

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[ExamRecord]:
        return iter(self.records)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def n_records(self) -> int:
        """Total number of examination events."""
        return len(self._rows)

    @property
    def n_exam_types(self) -> int:
        """Number of exam types in the taxonomy (columns of the VSM)."""
        return len(self.taxonomy)

    def group_starts(self, by: str = "patient") -> np.ndarray:
        """Row index where each group of the sorted rows begins.

        ``by="patient"`` groups rows by patient, ``by="visit"`` by
        (patient, day); groups come in sorted order, so group ``g``
        spans rows ``starts[g]`` up to ``starts[g + 1]``.
        """
        if by not in GROUPINGS:
            raise DataError(f"unknown transaction grouping: {by!r}")
        if by == "patient" and self._patient_starts is not None:
            return self._patient_starts
        rows = self._rows
        if len(rows) == 0:
            return np.empty(0, dtype=np.int64)
        change = rows[1:, 0] != rows[:-1, 0]
        if by == "visit":
            change |= rows[1:, 1] != rows[:-1, 1]
        starts = np.concatenate(([0], np.flatnonzero(change) + 1))
        starts.flags.writeable = False
        if by == "patient":
            self._patient_starts = starts
        return starts

    def patient_ids(self) -> List[int]:
        """Sorted ids of patients appearing in the log."""
        if self._patient_ids is None:
            self._patient_ids = self._rows[self.group_starts(), 0].tolist()
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
            self._exam_frequency = np.bincount(
                self._rows[:, 2], minlength=self.n_exam_types
            ).astype(np.int64, copy=False)
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
        examination"). One weighted ``bincount`` over the flat cell index
        writes the float64 matrix directly.
        """
        ids = self.patient_ids()
        n_types = self.n_exam_types
        cells = _run_index(self.group_starts(), len(self)) * n_types
        cells += self._rows[:, 2]
        matrix = np.bincount(
            cells, weights=np.ones(len(cells)), minlength=len(ids) * n_types
        ).astype(np.float64, copy=False)  # an empty bincount is int64
        return matrix.reshape(len(ids), n_types), ids

    def to_rows(self) -> np.ndarray:
        """The log's read-only ``(n_records, 3)`` int64 row array.

        Columns are ``(patient_id, day, exam_code)`` in the log's sorted
        order — the bytes the cache fingerprint hashes. This is also the
        transport representation of a log: the array can live in a
        :class:`repro.data.blocks.SharedMatrix` segment and be rebuilt
        in a worker with :meth:`from_rows` without any record object.
        """
        return self._rows

    @classmethod
    def from_rows(
        cls,
        rows,
        taxonomy: Optional[ExamTaxonomy] = None,
        patients: Optional[Iterable[PatientInfo]] = None,
    ) -> "ExamLog":
        """Build a log from an ``(n, 3)`` integer array of
        ``(patient_id, day, exam_code)`` rows (exact :meth:`to_rows`
        round-trip).

        The log keeps its own sorted copy of the rows, so ``rows`` may
        be released afterwards, and creates no :class:`ExamRecord`.
        Raises :class:`DataError` on a shape other than ``(n, 3)`` or a
        non-integer cell, and :class:`ValidationError` on a negative
        field.
        """
        rows = _integer_rows(rows)
        order = _sort_order(rows)
        if order is not None:
            rows = rows[order]
        return cls._from_sorted_rows(rows, taxonomy, patients)

    @classmethod
    def concat(cls, logs: Sequence["ExamLog"]) -> "ExamLog":
        """Merge logs into one (shared taxonomy, disjoint patients).

        Patients carrying demographics in several logs must not collide.
        """
        if not logs:
            raise DataError("concat needs at least one log")
        rows = np.concatenate([log.to_rows() for log in logs])
        order = _sort_order(rows)
        if order is not None:
            rows = rows[order]
        patients = [info for log in logs for info in log.patients.values()]
        return cls._from_sorted_rows(rows, logs[0].taxonomy, patients)

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

        Each transaction lists its distinct exam names in sorted order.
        """
        starts = self.group_starts(by)
        if len(starts) == 0:
            return []
        n_types = self.n_exam_types
        by_name = sorted(self.taxonomy, key=attrgetter("name"))
        name_rank = np.empty(n_types, dtype=np.int64)
        name_rank[[exam.code for exam in by_name]] = np.arange(n_types)
        cells = _run_index(starts, len(self)) * n_types
        cells += name_rank[self._rows[:, 2]]
        cells = np.unique(cells)
        group, rank = np.divmod(cells, n_types)
        names = [exam.name for exam in by_name]
        flat = list(map(names.__getitem__, rank.tolist()))
        bounds = [0, *(np.flatnonzero(np.diff(group)) + 1).tolist(), len(flat)]
        return [flat[a:b] for a, b in zip(bounds, bounds[1:])]

    # ------------------------------------------------------------------
    # Subsetting (substrate for partial mining)
    # ------------------------------------------------------------------
    def restrict_exams(self, exam_codes: Sequence[int]) -> "ExamLog":
        """Return a new log keeping only records of the given exam types.

        The taxonomy is preserved unchanged (columns keep their codes) so
        VSM matrices built from the restricted log stay comparable; all
        patients are retained even if they lose every record, matching the
        paper's horizontal partial mining which reduces the feature space
        "while retaining the total number of patients".
        """
        keep = np.isin(self._rows[:, 2], list(set(exam_codes)))
        return self._subset(keep, self.patients.values())

    def restrict_patients(self, patient_ids: Sequence[int]) -> "ExamLog":
        """Return a new log keeping only records of the given patients."""
        keep = set(patient_ids)
        patients = [
            info for pid, info in self.patients.items() if pid in keep
        ]
        return self._subset(np.isin(self._rows[:, 0], list(keep)), patients)

    def time_window(self, first_day: int, last_day: int) -> "ExamLog":
        """Return a new log restricted to days in ``[first_day, last_day]``."""
        if first_day > last_day:
            raise DataError("first_day must not exceed last_day")
        days = self._rows[:, 1]
        keep = (days >= first_day) & (days <= last_day)
        return self._subset(keep, self.patients.values())

    def _subset(
        self, keep: np.ndarray, patients: Iterable[PatientInfo]
    ) -> "ExamLog":
        """A new log of the masked rows (still sorted, still valid)."""
        return ExamLog._from_sorted_rows(
            self._rows[keep], self.taxonomy, patients
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
                int(self._rows[:, 1].max()) + 1 if len(self) else 0
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExamLog(n_patients={self.n_patients},"
            f" n_records={self.n_records},"
            f" n_exam_types={self.n_exam_types})"
        )
