"""Tests for CSV / JSON-lines dataset IO."""

import re

import pytest

from repro.data import (
    load_csv,
    load_jsonl,
    save_csv,
    save_jsonl,
    small_dataset,
)
from repro.exceptions import DataError, ValidationError


def test_csv_roundtrip(tiny_log, tmp_path):
    save_csv(tiny_log, tmp_path / "ds")
    loaded = load_csv(tmp_path / "ds")
    assert loaded.records == tiny_log.records
    assert len(loaded.taxonomy) == len(tiny_log.taxonomy)
    assert loaded.patients.keys() == tiny_log.patients.keys()


def test_csv_preserves_taxonomy_metadata(tiny_log, tmp_path):
    save_csv(tiny_log, tmp_path / "ds")
    loaded = load_csv(tmp_path / "ds")
    for exam in tiny_log.taxonomy:
        twin = loaded.taxonomy.by_code(exam.code)
        assert twin.name == exam.name
        assert twin.category == exam.category
        assert twin.rank == exam.rank


def test_csv_missing_records_raises(tmp_path):
    with pytest.raises(DataError):
        load_csv(tmp_path / "nowhere")


def test_csv_missing_columns_raises(tiny_log, tmp_path):
    directory = tmp_path / "ds"
    save_csv(tiny_log, directory)
    (directory / "records.csv").write_text("foo,bar\n1,2\n")
    with pytest.raises(DataError):
        load_csv(directory)


def test_jsonl_roundtrip(tiny_log, tmp_path):
    path = tmp_path / "log.jsonl"
    save_jsonl(tiny_log, path)
    loaded = load_jsonl(path)
    assert loaded.records == tiny_log.records
    assert loaded.summary() == tiny_log.summary()


def test_jsonl_preserves_profiles(tiny_log, tmp_path):
    path = tmp_path / "log.jsonl"
    save_jsonl(tiny_log, path)
    loaded = load_jsonl(path)
    for pid, info in tiny_log.patients.items():
        assert loaded.patients[pid].profile == info.profile
        assert loaded.patients[pid].age == info.age


def test_jsonl_missing_file_raises(tmp_path):
    with pytest.raises(DataError):
        load_jsonl(tmp_path / "absent.jsonl")


def test_jsonl_empty_file_raises(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(DataError):
        load_jsonl(path)


def test_jsonl_wrong_kind_raises(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"kind": "other"}\n')
    with pytest.raises(DataError):
        load_jsonl(path)


def test_csv_then_jsonl_equivalence(tiny_log, tmp_path):
    save_csv(tiny_log, tmp_path / "csv")
    from_csv = load_csv(tmp_path / "csv")
    save_jsonl(from_csv, tmp_path / "log.jsonl")
    from_jsonl = load_jsonl(tmp_path / "log.jsonl")
    assert from_jsonl.records == tiny_log.records


# ----------------------------------------------------------------------
# Malformed lines raise DataError naming file:line
# ----------------------------------------------------------------------
def _rewrite_line(path, number, text):
    lines = path.read_text().splitlines()
    lines[number - 1] = text
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "file_name, line, text, reason",
    [
        ("records.csv", 3, "1,abc,4", "invalid literal"),
        ("records.csv", 2, "7", "int()"),
        ("exam_types.csv", 4, "x,name,cat,1", "invalid literal"),
        ("patients.csv", 2, "1,old,", "invalid literal"),
    ],
)
def test_csv_bad_field_names_file_and_line(
    tiny_log, tmp_path, file_name, line, text, reason
):
    directory = tmp_path / "ds"
    save_csv(tiny_log, directory)
    _rewrite_line(directory / file_name, line, text)
    with pytest.raises(DataError) as caught:
        load_csv(directory)
    message = str(caught.value)
    assert message.startswith(f"{directory / file_name}:{line}: ")
    assert reason in message
    assert isinstance(caught.value.__cause__, (ValueError, TypeError))


@pytest.mark.parametrize(
    "file_name, at",
    [
        ("records.csv", 20_000),  # past the first 8 KB read buffer
        ("records.csv", 5),  # the header line
        ("exam_types.csv", -3),
        ("patients.csv", -3),
    ],
)
def test_csv_undecodable_byte_names_its_line_and_offset(
    tmp_path, file_name, at
):
    directory = tmp_path / "ds"
    save_csv(small_dataset(seed=0), directory)
    path = directory / file_name
    blob = bytearray(path.read_bytes())
    at %= len(blob)
    blob[at] = 0xFF
    path.write_bytes(bytes(blob))
    line = blob.count(b"\n", 0, at) + 1
    offset = at - (blob.rfind(b"\n", 0, at) + 1)
    with pytest.raises(DataError) as caught:
        load_csv(directory)
    assert str(caught.value) == (
        f"{path}:{line}: invalid UTF-8: byte 0xff at offset {offset}"
        " of the line"
    )
    assert isinstance(caught.value.__cause__, UnicodeDecodeError)


def test_csv_invalid_record_keeps_validation_type(tiny_log, tmp_path):
    directory = tmp_path / "ds"
    save_csv(tiny_log, directory)
    _rewrite_line(directory / "records.csv", 2, "1,-5,3")
    with pytest.raises(ValidationError, match=r"records\.csv:2: day"):
        load_csv(directory)


@pytest.mark.parametrize(
    "line, text, reason",
    [
        (1, "{not json", "invalid JSON"),
        (1, "[1, 2]", "'list' object has no attribute"),
        (1, '{"kind": "exam_log"}', "missing field 'taxonomy'"),
        (2, '{"patient_id": 1, "day": 3', "invalid JSON"),
        (3, '{"patient_id": 1, "exam_code": 3}', "missing field 'day'"),
        (3, '{"day": 1, "exam_code": 3}', "missing field 'patient_id'"),
        (4, '{"patient_id": 1, "day": 3}', "missing field 'exam_code'"),
        (4, "17", "not subscriptable"),
    ],
)
def test_jsonl_bad_line_names_file_and_line(
    tiny_log, tmp_path, line, text, reason
):
    path = tmp_path / "log.jsonl"
    save_jsonl(tiny_log, path)
    _rewrite_line(path, line, text)
    with pytest.raises(DataError) as caught:
        load_jsonl(path)
    message = str(caught.value)
    assert message.startswith(f"{path}:{line}: ")
    assert reason in message


def test_jsonl_truncated_last_record(tiny_log, tmp_path):
    path = tmp_path / "log.jsonl"
    save_jsonl(tiny_log, path)
    data = path.read_bytes()
    path.write_bytes(data[:-10])
    lines = len(data[:-10].splitlines())
    with pytest.raises(DataError, match=rf":{lines}: invalid JSON"):
        load_jsonl(path)


@pytest.mark.parametrize("line", [1, 3])
def test_jsonl_non_utf8_line_names_its_line(tiny_log, tmp_path, line):
    path = tmp_path / "log.jsonl"
    save_jsonl(tiny_log, path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line - 1] = b'{"day": "\xff\xfe"}\n'
    path.write_bytes(b"".join(lines))
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}:{line}: "):
        load_jsonl(path)
