"""Hostile bytes in a K-DB directory fail with a typed error.

Each example starts from a valid directory, either a framed sharded one
(with live logs, a quarantine sidecar from an earlier repair and a
stale lockfile, as a killed process leaves it) or a flat ``save()`` one
that opening migrates, and changes one or two files: truncates, flips
bytes in, deletes or replaces with garbage, or swaps one node of a
manifest for an arbitrary JSON value. Only ``repro.exceptions`` types
may escape ``fsck`` (read-only and repairing) and
``KnowledgeBase.open_sharded``, and a flat directory that fails to open
must be left byte-for-byte as it was.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.knowledge import KnowledgeItem
from repro.exceptions import ReproError
from repro.kdb.fsck import fsck
from repro.kdb.kdb import KnowledgeBase
from tests.flat_store import write_flat_store

_MANIFESTS = {"framed": "_shards.json", "flat": "_manifest.json"}


def _fill(kdb: KnowledgeBase) -> None:
    for i in range(6):
        item = KnowledgeItem(
            kind="cluster",
            end_goal="fuzz",
            title=f"cluster {i}",
            quality={"sse": float(i)},
        )
        item.score = i / 6
        kdb.store_item(item)
        kdb.record_feedback(item, "dr-f", "high" if i % 2 else "low")


@pytest.fixture(scope="module")
def templates(tmp_path_factory):
    root = tmp_path_factory.mktemp("templates")
    framed = KnowledgeBase.open_sharded(root / "framed", n_shards=1)
    _fill(framed)
    framed.store.close()
    # Damage an interior log record; the next open quarantines it into
    # a sidecar and compaction leaves the store clean again.
    log = root / "framed" / "feedback.shard-0000.log.jsonl"
    lines = log.read_bytes().splitlines(True)
    lines[1] = b"damaged\n"
    log.write_bytes(b"".join(lines))
    framed = KnowledgeBase.open_sharded(root / "framed")
    framed.compact()
    framed.record_feedback(framed.items()[0], "dr-g", "medium")
    framed.store.simulate_crash()
    assert (root / "framed" / "feedback.shard-0000.quarantine.jsonl").exists()
    flat = KnowledgeBase()
    _fill(flat)
    write_flat_store(flat.store, root / "flat")
    return {"framed": root / "framed", "flat": root / "flat"}


def _json_paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _json_paths(child, prefix + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _json_paths(child, prefix + (index,))


def _replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


def _json_containers(children):
    return st.lists(children, max_size=3) | st.dictionaries(
        st.text(max_size=6), children, max_size=3
    )


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 10**12)
    | st.text(max_size=6),
    _json_containers,
    max_leaves=6,
)


def _parses(blob: bytes) -> bool:
    try:
        json.loads(blob)
    except ValueError:
        return False
    return True


def _mutate(directory: Path, kind: str, data) -> None:
    target = directory / _MANIFESTS[kind]
    if not target.exists() or not data.draw(
        st.booleans(), label="target the manifest"
    ):
        names = sorted(path.name for path in directory.iterdir())
        target = directory / data.draw(st.sampled_from(names), label="file")
    blob = target.read_bytes()
    how = data.draw(
        st.sampled_from(["truncate", "flip", "delete", "garbage", "node"]),
        label="mutation",
    )
    if how == "truncate":
        cut = data.draw(st.integers(0, max(0, len(blob) - 1)), label="cut")
        target.write_bytes(blob[:cut])
    elif how == "flip" and blob:
        flipped = bytearray(blob)
        for __ in range(data.draw(st.integers(1, 4), label="flips")):
            offset = data.draw(st.integers(0, len(blob) - 1), label="at")
            flipped[offset] ^= data.draw(st.integers(1, 255), label="mask")
        target.write_bytes(bytes(flipped))
    elif how == "delete":
        target.unlink()
    elif how == "node" and _parses(blob):
        layout = json.loads(blob)
        path = data.draw(
            st.sampled_from(list(_json_paths(layout))), label="node"
        )
        layout = _replaced(layout, path, data.draw(json_values, label="new"))
        target.write_text(json.dumps(layout))
    else:
        target.write_bytes(data.draw(st.binary(max_size=64), label="bytes"))


def _files(directory: Path):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


@given(kind=st.sampled_from(sorted(_MANIFESTS)), data=st.data())
@settings(max_examples=150, deadline=None)
def test_hostile_bytes_raise_only_typed_errors(templates, kind, data):
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch) / "kdb"
        shutil.copytree(templates[kind], directory)
        for __ in range(data.draw(st.integers(1, 2), label="files")):
            _mutate(directory, kind, data)
        before = _files(directory)
        try:
            fsck(directory)
        except ReproError:
            pass
        try:
            kdb = KnowledgeBase.open_sharded(directory)
        except ReproError:
            if kind == "flat":
                assert _files(directory) == before
        else:
            kdb.store.close()
        try:
            fsck(directory, repair=True)
        except ReproError:
            pass
