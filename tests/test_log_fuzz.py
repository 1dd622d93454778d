"""Malformed log files fail with a typed error, and what loads is sound.

Each example starts from a valid log saved by :func:`save_csv` (three
files) or :func:`save_jsonl` (one file) and damages one or two files:
truncates them, flips bytes, drops a column (a CSV column everywhere,
or one key of one JSON line) or gives a field a value of the wrong
type. Two properties hold for every result:

* only :mod:`repro.exceptions` types escape ``load_csv``/``load_jsonl``;
* a file that loads yields the model's field types and round-trips:
  saving the loaded log in the same format and loading it again gives
  an equal log.
"""

import csv
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import load_csv, load_jsonl, save_csv, save_jsonl
from repro.data.synthetic import small_dataset
from repro.exceptions import DataError, ReproError

_CSV_FILES = ("records.csv", "exam_types.csv", "patients.csv")

#: Field values of the wrong type (or out of range) for either format.
_WRONG_TEXT = st.sampled_from(
    ["", "abc", "1.5", "-3", "nan", "1e3", "True", " 7", "9" * 30]
)
_WRONG_JSON = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.text(max_size=5),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1),
)


@pytest.fixture(scope="module")
def templates(tmp_path_factory):
    """A saved log in both formats; records.csv spans several read
    buffers, so damage near its start and near its end differ."""
    root = tmp_path_factory.mktemp("logs")
    log = small_dataset(
        n_patients=200, n_exam_types=20, target_records=6000, seed=11
    )
    save_csv(log, root / "csv")
    save_jsonl(log, root / "log.jsonl")
    assert (root / "csv" / "records.csv").stat().st_size > 3 * 8192
    return root


def _truncate(blob: bytes, data) -> bytes:
    return blob[: data.draw(st.integers(0, len(blob)), label="cut")]


def _flip(blob: bytes, data) -> bytes:
    flipped = bytearray(blob)
    for __ in range(data.draw(st.integers(1, 3), label="flips")):
        if not flipped:
            break
        offset = data.draw(st.integers(0, len(flipped) - 1), label="at")
        flipped[offset] = data.draw(st.integers(0, 255), label="byte")
    return bytes(flipped)


def _csv_rows(blob: bytes):
    """The rows of an undamaged CSV file (ValueError otherwise)."""
    rows = list(csv.reader(io.StringIO(blob.decode("utf-8"))))
    if len(rows) < 2 or not all(rows):
        raise ValueError("no longer a well-formed CSV file")
    return rows


def _csv_bytes(rows) -> bytes:
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue().encode("utf-8")


def _drop_csv_column(blob: bytes, data) -> bytes:
    rows = _csv_rows(blob)
    column = data.draw(st.integers(0, len(rows[0]) - 1), label="column")
    return _csv_bytes(
        [value for index, value in enumerate(row) if index != column]
        for row in rows
    )


def _retype_csv_field(blob: bytes, data) -> bytes:
    rows = _csv_rows(blob)
    line = data.draw(st.integers(1, len(rows) - 1), label="line")
    column = data.draw(st.integers(0, len(rows[line]) - 1), label="column")
    rows[line][column] = data.draw(_WRONG_TEXT, label="value")
    return _csv_bytes(rows)


def _json_line_edit(blob: bytes, data, drop: bool) -> bytes:
    lines = blob.splitlines(keepends=True)
    if not lines:
        raise ValueError("empty file")
    line = data.draw(st.integers(0, len(lines) - 1), label="line")
    obj = json.loads(lines[line])
    if line == 0:  # the header: edit one taxonomy or patient entry
        section = data.draw(
            st.sampled_from(["taxonomy", "patients"]), label="section"
        )
        entries = obj[section]
        target = entries[data.draw(st.integers(0, len(entries) - 1))]
    else:
        target = obj
    key = data.draw(st.sampled_from(sorted(target)), label="key")
    if drop:
        del target[key]
    else:
        target[key] = data.draw(_WRONG_JSON, label="value")
    lines[line] = (json.dumps(obj) + "\n").encode("utf-8")
    return b"".join(lines)


def _mutate(target: Path, data) -> None:
    blob = target.read_bytes()
    how = data.draw(
        st.sampled_from(["truncate", "flip", "drop", "retype"]), label="how"
    )
    if how == "truncate":
        blob = _truncate(blob, data)
    elif how == "flip":
        blob = _flip(blob, data)
    else:
        # Column and type edits need an intact file; an earlier
        # mutation may have broken it, and then the byte flip stands in.
        try:
            if target.suffix == ".csv":
                edit = (
                    _drop_csv_column if how == "drop" else _retype_csv_field
                )
                blob = edit(blob, data)
            else:
                blob = _json_line_edit(blob, data, drop=how == "drop")
        except (ValueError, KeyError, TypeError, IndexError, csv.Error):
            blob = _flip(blob, data)
    target.write_bytes(blob)


def _assert_sound(log) -> None:
    """Every field has the type the record models declare."""
    for record in log.records:
        for value in (record.patient_id, record.day, record.exam_code):
            assert type(value) is int
    for exam in log.taxonomy:
        assert type(exam.code) is int and type(exam.rank) is int
        assert isinstance(exam.name, str)
        assert isinstance(exam.category, str)
    for info in log.patients.values():
        assert type(info.patient_id) is int and type(info.age) is int
        assert info.profile is None or isinstance(info.profile, str)


def _assert_same(left, right) -> None:
    assert left.records == right.records
    assert list(left.taxonomy) == list(right.taxonomy)
    assert left.patients == right.patients


@given(fmt=st.sampled_from(["csv", "jsonl"]), data=st.data())
@settings(max_examples=200, deadline=None)
def test_damaged_logs_raise_only_typed_errors(templates, fmt, data):
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        if fmt == "csv":
            shutil.copytree(templates / "csv", scratch / "in")
            load, save, source = load_csv, save_csv, scratch / "in"
            for __ in range(data.draw(st.integers(1, 2), label="files")):
                name = data.draw(st.sampled_from(_CSV_FILES), label="file")
                _mutate(source / name, data)
        else:
            source = scratch / "in.jsonl"
            shutil.copy(templates / "log.jsonl", source)
            load, save = load_jsonl, save_jsonl
            for __ in range(data.draw(st.integers(1, 2), label="edits")):
                _mutate(source, data)
        try:
            log = load(source)
        except ReproError:
            return
        _assert_sound(log)
        again = scratch / ("out" if fmt == "csv" else "out.jsonl")
        save(log, again)
        _assert_same(load(again), log)


def test_undecodable_byte_in_the_first_buffer_is_typed(templates, tmp_path):
    """A non-UTF-8 byte read with the CSV header raises DataError."""
    directory = tmp_path / "csv"
    shutil.copytree(templates / "csv", directory)
    records = directory / "records.csv"
    blob = bytearray(records.read_bytes())
    blob[30] = 0xFF
    records.write_bytes(bytes(blob))
    with pytest.raises(DataError, match=str(records)):
        load_csv(directory)
