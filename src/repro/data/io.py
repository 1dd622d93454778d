"""Loading and saving examination logs.

Two interchangeable on-disk formats are supported:

* **CSV** — one row per examination event (``patient_id,day,exam_code``)
  plus side-car CSVs for the taxonomy and patient demographics. This is
  the shape hospital extracts usually arrive in.
* **JSON lines** — one self-describing JSON object per record, with a
  header object carrying the taxonomy; convenient for the document store.

Both round-trip exactly: ``load(save(log)) == log`` record for record.
A malformed line (a non-integer field, broken JSON, a missing key, a
byte that is not UTF-8) raises :class:`~repro.exceptions.DataError`
naming ``file:line``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Union

from repro.data.records import ExamLog, ExamRecord, PatientInfo
from repro.data.taxonomy import ExamTaxonomy, ExamType
from repro.exceptions import DataError

PathLike = Union[str, Path]

_RECORD_FIELDS = ("patient_id", "day", "exam_code")

#: What parsing one line of a log file raises on malformed input: bad
#: JSON or a non-integer field (ValueError), a missing key (KeyError),
#: a short CSV row or a non-object JSON value (TypeError,
#: AttributeError), a broken CSV line (csv.Error) and the record
#: models' own ValidationError.
_LINE_ERRORS = (
    ValueError, KeyError, TypeError, AttributeError, csv.Error, DataError
)


def _field(obj: Dict, key: str, kind: type) -> object:
    """``obj[key]``, which must be exactly of JSON type ``kind``.

    A JSON line carries its own types, so ``true`` or ``3.5`` where an
    integer belongs is refused rather than truncated (the CSV reader's
    ``int()`` refuses them too).
    """
    value = obj[key]
    if type(value) is not kind:
        raise TypeError(
            f"field {key!r} must be {kind.__name__}, got {value!r}"
        )
    return value


def _malformed(path: Path, line: int, error: Exception) -> DataError:
    """A :class:`DataError` locating ``error`` at ``path:line``."""
    if isinstance(error, json.JSONDecodeError):
        reason = f"invalid JSON: {error.msg}"
    elif isinstance(error, UnicodeDecodeError):
        reason = (
            f"invalid UTF-8: byte 0x{error.object[error.start]:02x}"
            f" at offset {error.start} of the line"
        )
    elif isinstance(error, KeyError):
        reason = f"missing field {error.args[0]!r}"
    else:
        reason = str(error)
    kind = type(error) if isinstance(error, DataError) else DataError
    return kind(f"{path}:{line}: {reason}")


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------
def _utf8_lines(handle) -> Iterator[str]:
    """The lines of a binary file, decoded one at a time.

    A text-mode file decodes 8 KB blocks ahead of the CSV reader, so a
    byte that is not UTF-8 would fail at the reader's last complete row,
    with a position inside the block. Decoded per line, it fails at its
    own line, with its offset in that line.
    """
    for line in handle:
        yield line.decode("utf-8")


def _csv_line(reader, error: Exception) -> int:
    """The line of the file ``reader`` was reading when ``error`` rose:
    a line that fails to decode is the one after those it has read."""
    if isinstance(error, UnicodeDecodeError):
        return reader.line_num + 1
    return max(reader.line_num, 1)


def save_csv(log: ExamLog, directory: PathLike) -> None:
    """Save a log as ``records.csv`` + ``exam_types.csv`` + ``patients.csv``.

    The directory is created if missing; existing files are overwritten.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    with open(directory / "records.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_RECORD_FIELDS)
        for record in log.records:
            writer.writerow([record.patient_id, record.day, record.exam_code])

    with open(directory / "exam_types.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["code", "name", "category", "rank"])
        for exam in log.taxonomy:
            writer.writerow([exam.code, exam.name, exam.category, exam.rank])

    with open(directory / "patients.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["patient_id", "age", "profile"])
        for pid in sorted(log.patients):
            info = log.patients[pid]
            writer.writerow([info.patient_id, info.age, info.profile or ""])


def load_csv(directory: PathLike) -> ExamLog:
    """Load a log saved by :func:`save_csv`."""
    directory = Path(directory)
    records_path = directory / "records.csv"
    if not records_path.exists():
        raise DataError(f"missing records file: {records_path}")

    taxonomy = _load_taxonomy_csv(directory / "exam_types.csv")
    patients = _load_patients_csv(directory / "patients.csv")

    records: List[ExamRecord] = []
    with open(records_path, "rb") as handle:
        reader = csv.DictReader(_utf8_lines(handle))
        try:
            header = reader.fieldnames or ()
        except _LINE_ERRORS as error:
            raise _malformed(
                records_path, _csv_line(reader, error), error
            ) from error
        missing = set(_RECORD_FIELDS) - set(header)
        if missing:
            raise DataError(f"records.csv missing columns: {sorted(missing)}")
        try:
            for row in reader:
                records.append(
                    ExamRecord(
                        patient_id=int(row["patient_id"]),
                        day=int(row["day"]),
                        exam_code=int(row["exam_code"]),
                    )
                )
        except _LINE_ERRORS as error:
            raise _malformed(
                records_path, _csv_line(reader, error), error
            ) from error
    return ExamLog(records, taxonomy=taxonomy, patients=patients)


def _load_taxonomy_csv(path: Path) -> Optional[ExamTaxonomy]:
    if not path.exists():
        return None
    exam_types: List[ExamType] = []
    with open(path, "rb") as handle:
        reader = csv.DictReader(_utf8_lines(handle))
        try:
            for row in reader:
                exam_types.append(
                    ExamType(
                        code=int(row["code"]),
                        name=row["name"],
                        category=row["category"],
                        rank=int(row["rank"]),
                    )
                )
        except _LINE_ERRORS as error:
            raise _malformed(path, _csv_line(reader, error), error) from error
    exam_types.sort(key=lambda e: e.code)
    return ExamTaxonomy(exam_types=exam_types)


def _load_patients_csv(path: Path) -> List[PatientInfo]:
    if not path.exists():
        return []
    patients: List[PatientInfo] = []
    with open(path, "rb") as handle:
        reader = csv.DictReader(_utf8_lines(handle))
        try:
            for row in reader:
                patients.append(
                    PatientInfo(
                        patient_id=int(row["patient_id"]),
                        age=int(row["age"]),
                        profile=row.get("profile") or None,
                    )
                )
        except _LINE_ERRORS as error:
            raise _malformed(path, _csv_line(reader, error), error) from error
    return patients


# ----------------------------------------------------------------------
# JSON lines
# ----------------------------------------------------------------------
def save_jsonl(log: ExamLog, path: PathLike) -> None:
    """Save a log as JSON lines: a header object then one object per row."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "kind": "exam_log",
        "taxonomy": [
            {
                "code": e.code,
                "name": e.name,
                "category": e.category,
                "rank": e.rank,
            }
            for e in log.taxonomy
        ],
        "patients": [
            {
                "patient_id": info.patient_id,
                "age": info.age,
                "profile": info.profile,
            }
            for __, info in sorted(log.patients.items())
        ],
    }
    with open(path, "w") as handle:
        handle.write(json.dumps(header) + "\n")
        for record in log.records:
            handle.write(
                json.dumps(
                    {
                        "patient_id": record.patient_id,
                        "day": record.day,
                        "exam_code": record.exam_code,
                    }
                )
                + "\n"
            )


def load_jsonl(path: PathLike) -> ExamLog:
    """Load a log saved by :func:`save_jsonl`."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    # Bytes in, decoded per line by ``json.loads``: a line that is not
    # UTF-8 fails like any other malformed line, at its own number.
    with open(path, "rb") as handle:
        header_line = handle.readline()
        if not header_line:
            raise DataError(f"empty log file: {path}")
        try:
            header = json.loads(header_line)
            if header.get("kind") != "exam_log":
                raise DataError("not an exam_log JSON-lines file")
            exam_types = [
                ExamType(
                    code=_field(entry, "code", int),
                    name=_field(entry, "name", str),
                    category=_field(entry, "category", str),
                    rank=_field(entry, "rank", int),
                )
                for entry in header["taxonomy"]
            ]
            patients = [
                PatientInfo(
                    patient_id=_field(entry, "patient_id", int),
                    age=_field(entry, "age", int),
                    profile=(
                        None
                        if entry.get("profile") is None
                        else _field(entry, "profile", str)
                    ),
                )
                for entry in header.get("patients", [])
            ]
        except _LINE_ERRORS as error:
            raise _malformed(path, 1, error) from error
        exam_types.sort(key=lambda e: e.code)
        taxonomy = ExamTaxonomy(exam_types=exam_types)
        records = []
        try:
            for line, text in enumerate(handle, start=2):
                if not text.strip():
                    continue
                obj = json.loads(text)
                records.append(
                    ExamRecord(
                        patient_id=_field(obj, "patient_id", int),
                        day=_field(obj, "day", int),
                        exam_code=_field(obj, "exam_code", int),
                    )
                )
        except _LINE_ERRORS as error:
            raise _malformed(path, line, error) from error
    return ExamLog(records, taxonomy=taxonomy, patients=patients)
