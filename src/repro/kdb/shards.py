"""Hash-sharded, append-only persistence for the K-DB document store.

A :class:`ShardedDocumentStore` keeps the whole store in memory (it is
a :class:`~repro.kdb.documentstore.DocumentStore`) but persists each
collection as ``N`` hash partitions on disk:

* ``<collection>.shard-0007.jsonl`` — the *base*: one full document per
  line, rewritten only by compaction (crash-safe via
  ``atomic_write``/``os.replace``), and
* ``<collection>.shard-0007.log.jsonl`` — the *log*: an append-only
  stream of ``{"op": "put"|"del"|"clear", ...}`` records, one per
  mutation, flushed on every append.

Every mutation therefore costs one small append instead of rewriting a
collection-sized file — the write path that makes million-document
collections practical. Opening the store replays base-then-log per
shard; :meth:`ShardedDocumentStore.compact` folds the logs back into
fresh bases (new bases are written atomically *before* the logs are
removed, and replaying a full log over a compacted base converges to
the same state, so a crash at any point during compaction loses
nothing). Compaction can also be triggered automatically every
``auto_compact_ops`` journaled ops.

This is the K-DB's only on-disk format. A directory written by the
retired flat ``DocumentStore.save`` (``_manifest.json`` plus one
``<collection>.jsonl`` each, no ``_shards.json``) is migrated once when
it is opened: the flat files are read strictly — any malformed line
raises :class:`~repro.exceptions.StoreError` naming the file and line,
before a single byte is written — then written as framed bases and a
shard manifest, and only then removed. A crash part-way through leaves
the flat files in place, and the next open migrates again.

Since PR 10 every record is written in the checksummed v2 framing of
:mod:`repro.kdb.framing` (CRC-32 + per-file sequence number +
compaction generation) and every byte reaches disk through the
pluggable :mod:`repro.kdb.storage` layer, so recovery can tell the
*expected* crash signature from real damage:

* a **torn tail** — the final log line fails its checksum — is the
  in-flight append of a crash: it is truncated away silently and
  metered as ``kdb.recovery.torn_tail``;
* **interior corruption** — a bad line *before* the end, a sequence
  gap, a mid-file generation switch, or any bad line in an
  atomically-written base — is never silently dropped: the raw line is
  preserved in a ``.quarantine.jsonl`` sidecar, the collection is
  flagged in :attr:`ShardedDocumentStore.degraded_collections`, and
  ``kdb.recovery.quarantined`` is metered;
* a **stale log** (generation older than its base) is the signature of
  a crash between compaction's base writes and its log removals: the
  ops are already folded into the base, so recovery completes the
  interrupted removal (``kdb.recovery.stale_log``);
* a **missing base** past manifest generation 0 is damage, since
  compaction lands every base before the manifest names its
  generation: the collection is flagged degraded with a load warning
  and ``kdb.recovery.gen_mismatch`` is metered;
* **orphan shard files** — files of a collection the manifest does not
  list — are what a crash part-way through a drop leaves behind (the
  drop rewrites the manifest first). Opening the store leaves them in
  place, since a damaged manifest that lost an entry looks the same on
  disk; ``kdb fsck`` reports them and ``--repair`` removes them, and a
  collection re-created under that name removes its own leftovers
  before the manifest lists it, so it starts empty.

Pre-checksum (v1) files still replay — plain JSON lines — and upgrade
to v2 framing on their next compaction. A journal append that fails
with an ``OSError`` (``ENOSPC``) write-protects the store until
:meth:`compact` rewrites a consistent on-disk state.

Shard placement hashes the canonical JSON of the document ``_id`` with
CRC-32 (:func:`shard_of`), so placement is stable across processes and
Python hash randomisation.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.exceptions import DuplicateKeyError, StoreError
from repro.kdb.documentstore import (
    _INDEX_KINDS,
    Collection,
    DocumentStore,
    _index_key,
)
from repro.kdb.framing import (
    CorruptLine,
    ScannedFile,
    frame_line,
    header_line,
    scan_file,
)
from repro.kdb.storage import LocalStorage
from repro.obs.metrics import KDB_RECOVERY_COUNTERS

_MANIFEST_NAME = "_shards.json"
#: Current manifest version; version-1 manifests (pre-generation) are
#: still accepted on open.
_MANIFEST_VERSION = 2
#: Shard numbers are written with four digits (``shard-0007``).
_MAX_SHARDS = 10_000
_LOCKFILE_NAME = "_shards.lock"
#: Manifest of a flat ``DocumentStore.save`` directory (migrated on open).
_FLAT_MANIFEST_NAME = "_manifest.json"
#: Name of a shard file: base, log or quarantine sidecar. The suffix is
#: fixed, so the greedy group is exactly the collection name.
_SHARD_FILE = re.compile(
    r"(?P<name>.+)\.shard-\d{4}\.(?:jsonl|log\.jsonl|quarantine\.jsonl)"
)

#: Metric counters the recovery path maintains (pre-registered by
#: :meth:`ShardedDocumentStore.bind_metrics` so snapshots always carry
#: them; mirrored in :attr:`ShardedDocumentStore.recovery_stats`).
RECOVERY_COUNTERS = KDB_RECOVERY_COUNTERS

#: Directories this process currently holds open (resolved paths).
#: Lets the lockfile distinguish "same pid, still open" (a genuine
#: double-open) from "same pid, stale file left by a crashed
#: predecessor object".
_OWNED_DIRS: Set[str] = set()


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for a lockfile holder."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # exists but not ours (EPERM etc.)
    return True


def _read_lock_pid(path: Path) -> Optional[int]:
    """The pid holding a lockfile, or ``None`` if the file is stale.

    Lockfiles are written as ``<pid>\\n``; the trailing newline is a
    completeness marker. A crash between creating the lockfile and
    finishing the pid write leaves a torn prefix (``"2"`` out of
    ``"29020\\n"``) that could parse as some other *live* process —
    without the marker such a lockfile could never be safely broken.
    """
    try:
        content = path.read_text()
    except (OSError, ValueError):  # ValueError: not UTF-8
        return None
    if not content.endswith("\n"):
        return None  # torn write: the holder never finished creating it
    try:
        return int(content.strip() or "0")
    except ValueError:
        return None


def _shard_files(directory: Path) -> Iterator[Tuple[str, Path]]:
    """``(collection name, path)`` of every shard file in ``directory``."""
    for path in sorted(directory.glob("*.shard-*.jsonl")):
        match = _SHARD_FILE.fullmatch(path.name)
        if match is not None:
            yield match.group("name"), path


def orphan_shard_files(directory: Path, names: Any) -> List[Path]:
    """Shard files of collections the manifest does not list.

    A drop rewrites the manifest before it removes the dropped
    collection's files, so these are what a crash part-way through a
    drop leaves behind.
    """
    known = set(names)
    return [
        path for name, path in _shard_files(directory) if name not in known
    ]


def shard_of(doc_id: Any, n_shards: int) -> int:
    """Stable shard number for a document id (CRC-32 of canonical JSON)."""
    canonical = json.dumps(doc_id, sort_keys=True, default=str)
    return zlib.crc32(canonical.encode("utf-8")) % n_shards


def _is_count(value: Any) -> bool:
    return (
        isinstance(value, int) and not isinstance(value, bool) and value >= 0
    )


def _read_json(path: Path) -> Any:
    try:
        return json.loads(path.read_bytes().decode("utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or JSON
        raise StoreError(f"{path.name}: unreadable ({exc})") from exc


def _check_collection_name(name: str, where: str) -> None:
    """Collection names become file names: refuse anything that would
    address a file outside the store directory."""
    if name in ("", ".", "..") or any(ch in name for ch in "/\\\0"):
        raise StoreError(f"{where}: {name!r} is not a collection name")


def _check_index_specs(indexes: Any, where: str) -> None:
    if not isinstance(indexes, list):
        raise StoreError(f"{where}: index list expected")
    for spec in indexes:
        if not (
            isinstance(spec, dict)
            and isinstance(spec.get("path"), str)
            and spec["path"]
            and isinstance(spec.get("unique", False), bool)
            # a tuple compares by ==: an unhashable kind cannot raise
            and spec.get("kind", "hash") in tuple(_INDEX_KINDS)
        ):
            raise StoreError(f"{where}: malformed index spec {spec!r}")


def read_layout(path: Path) -> Dict[str, Any]:
    """Parse and validate a shard manifest (``_shards.json``).

    Raises :class:`StoreError` naming the file for anything replay
    could not follow: bytes that are not UTF-8 JSON, an unsupported
    version, a shard count outside ``1.._MAX_SHARDS`` or a malformed
    collection entry.
    """
    layout = _read_json(path)
    if not isinstance(layout, dict):
        raise StoreError(f"{path.name}: not a shard manifest object")
    if layout.get("version") not in (1, _MANIFEST_VERSION):
        raise StoreError(f"unsupported shard manifest version in {path}")
    n_shards = layout.get("n_shards")
    if not (_is_count(n_shards) and 1 <= n_shards <= _MAX_SHARDS):
        raise StoreError(f"{path.name}: bad n_shards {n_shards!r}")
    collections = layout.get("collections", {})
    if not isinstance(collections, dict):
        raise StoreError(f"{path.name}: collections must be an object")
    for name, info in collections.items():
        where = f"{path.name}: collection {name!r}"
        _check_collection_name(name, where)
        if not isinstance(info, dict) or not _is_count(
            info.get("generation", 0)
        ):
            raise StoreError(f"{where}: malformed entry")
        _check_index_specs(info.get("indexes", []), where)
    return layout


def _read_flat_documents(
    path: Path,
) -> Iterator[Tuple[str, Dict[str, Any]]]:
    """``(file:line, document)`` per non-blank line of a flat
    ``<collection>.jsonl``, read strictly: a missing file, or a line
    that is not a UTF-8 JSON object with a scalar ``_id``, raises
    :class:`StoreError` naming the file and line."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise StoreError(f"{path.name}: unreadable ({exc})") from exc
    for lineno, line in enumerate(raw.splitlines(), start=1):
        at = f"{path.name}:{lineno}"
        try:
            text = line.decode("utf-8")
            if not text.strip():
                continue
            document = json.loads(text)
        except ValueError as exc:  # bad UTF-8 or JSON
            raise StoreError(f"{at}: corrupt line ({exc})") from exc
        if not (
            isinstance(document, dict)
            and "_id" in document
            and not isinstance(document["_id"], (dict, list))
        ):
            raise StoreError(
                f"{at}: not a stored document (an object with a scalar"
                " _id)"
            )
        yield at, document


class _ShardFiles:
    """Filenames, append handles and framing state for one collection."""

    def __init__(
        self,
        directory: Path,
        name: str,
        n_shards: int,
        storage: Any,
    ) -> None:
        self.directory = directory
        self.name = name
        self.n_shards = n_shards
        self.storage = storage
        self._handles: Dict[int, Any] = {}
        #: Log records appended since the last compaction.
        self.pending = 0
        #: Compaction generation stamped into every frame.
        self.gen = 0
        #: Next frame sequence per shard log (None: open a new framed
        #: run — fresh log, or a legacy v1 tail).
        self.next_seq: Dict[int, Optional[int]] = {}

    def base_path(self, shard: int) -> Path:
        return self.directory / f"{self.name}.shard-{shard:04d}.jsonl"

    def log_path(self, shard: int) -> Path:
        return (
            self.directory / f"{self.name}.shard-{shard:04d}.log.jsonl"
        )

    def quarantine_path(self, shard: int) -> Path:
        return (
            self.directory
            / f"{self.name}.shard-{shard:04d}.quarantine.jsonl"
        )

    def append(self, shard: int, record: Dict[str, Any]) -> None:
        handle = self._handles.get(shard)
        if handle is None:
            handle = self.storage.open_append(self.log_path(shard))
            self._handles[shard] = handle
        seq = self.next_seq.get(shard)
        if seq is None:
            # Open a new framed run: fresh log, or appending after a
            # legacy v1 tail (the header resets sequence expectations).
            handle.write_line(header_line(self.gen))
            seq = 1
        handle.write_line(frame_line(record, seq, self.gen))
        self.next_seq[shard] = seq + 1
        self.pending += 1

    def close_handles(self, sync: bool = False) -> None:
        for handle in self._handles.values():
            handle.close(sync=sync)
        self._handles.clear()

    def remove_logs(self) -> None:
        self.close_handles()
        for shard in range(self.n_shards):
            self.storage.remove(self.log_path(shard))
        self.pending = 0
        self.next_seq = {}

    def remove_all(self) -> None:
        self.remove_logs()
        for shard in range(self.n_shards):
            self.storage.remove(self.base_path(shard))
            self.storage.remove(self.quarantine_path(shard))

    def disk_bytes(self) -> Dict[str, int]:
        base = log = 0
        for shard in range(self.n_shards):
            if self.base_path(shard).exists():
                base += self.base_path(shard).stat().st_size
            if self.log_path(shard).exists():
                log += self.log_path(shard).stat().st_size
        return {"base_bytes": base, "log_bytes": log}


class ShardedDocumentStore(DocumentStore):
    """A :class:`DocumentStore` persisted as hash-sharded partitions.

    Opening a directory that already holds a shard manifest replays it
    (base files, then append logs, per shard); a flat ``save()``
    directory is migrated once (see the module docstring); a directory
    without ``.jsonl`` files starts a fresh store, and one that holds
    some but neither manifest raises :class:`StoreError`. Every
    mutation is journaled synchronously to the owning shard's log, so
    the on-disk state trails memory by at most the one record being
    appended.

    ``storage`` is the I/O funnel every write goes through — the real
    filesystem by default, or a seeded
    :class:`repro.kdb.storage.FaultyStorage` so chaos tests can kill
    the store at every write boundary. ``metrics`` binds a
    :class:`repro.obs.Metrics` registry *before* replay, so the
    recovery counters (``kdb.recovery.*``) observe what opening the
    directory had to repair; the same tallies are always available in
    :attr:`recovery_stats`.

    A store is single-threaded: one thread per process uses it (see
    DESIGN.md, "One thread per process"), so it takes no locks.

    Cross-process safety: opening a directory takes an exclusive pid
    lockfile (``_shards.lock``, created ``O_CREAT|O_EXCL``), so a
    second process gets a clear :class:`StoreError` instead of silently
    interleaving log appends. A lockfile whose recorded pid is dead is
    broken automatically (stale-lock detection); :meth:`close` releases
    it. The stale-break itself is not atomic across processes — two
    openers racing a *dead* holder can both proceed — which is the
    documented limit of a lockfile without fcntl range locks.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        n_shards: int = 8,
        auto_compact_ops: Optional[int] = None,
        storage: Optional[Any] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        super().__init__()
        if n_shards < 1:
            raise StoreError("n_shards must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.n_shards = n_shards
        self.auto_compact_ops = auto_compact_ops
        self.storage = storage if storage is not None else LocalStorage()
        self._files: Dict[str, _ShardFiles] = {}
        self._loading = False
        self._closed = False
        #: One human-readable line per record that replay could not
        #: use as-is (quarantined, out of sequence, missing ``_id``).
        self.load_warnings: List[str] = []
        #: Collections whose on-disk history shows unexpected damage
        #: (quarantined records, sequence gaps, generation mismatches).
        #: Cleared by the compaction that rewrites them.
        self.degraded_collections: Set[str] = set()
        #: What opening this directory had to recover (mirrors the
        #: ``kdb.recovery.*`` counters).
        self.recovery_stats: Dict[str, int] = {
            "torn_tail": 0,
            "quarantined": 0,
            "stale_log": 0,
            "seq_gap": 0,
            "gen_mismatch": 0,
        }
        #: Collection whose journal append failed (ENOSPC...): memory
        #: is ahead of disk, so mutations raise until compact().
        self._journal_failed: Optional[str] = None
        if metrics is not None:
            self.bind_metrics(metrics)
        self._lock_key = str(self.directory.resolve())
        self._has_lockfile = False
        self._has_lockfile = self._acquire_lockfile()
        try:
            if (self.directory / _MANIFEST_NAME).exists():
                self._replay()
            elif (self.directory / _FLAT_MANIFEST_NAME).exists():
                self._migrate_flat()
            elif any(self.directory.glob("*.jsonl")):
                raise StoreError(
                    f"{self.directory} holds .jsonl files but neither"
                    f" {_MANIFEST_NAME} nor {_FLAT_MANIFEST_NAME};"
                    " refusing to open it as an empty store"
                )
            else:
                self._write_manifest()
        except BaseException:
            self._release_lockfile()
            raise

    def bind_metrics(self, metrics) -> None:
        """Attach a metrics registry (query plans *and* recovery)."""
        super().bind_metrics(metrics)
        for name in RECOVERY_COUNTERS:
            metrics.counter(name)

    def _meter(self, event: str, count: int = 1) -> None:
        if self._metrics is not None:
            self._metrics.counter(f"kdb.recovery.{event}").inc(count)

    # -- single-writer lockfile ------------------------------------------
    def _acquire_lockfile(self) -> bool:
        path = self.directory / _LOCKFILE_NAME
        for attempt in (0, 1):
            try:
                # trailing newline = completeness marker; see
                # _read_lock_pid
                self.storage.create_exclusive(
                    path, f"{os.getpid()}\n"
                )
            except FileExistsError:
                open_here = self._lock_key in _OWNED_DIRS
                holder = _read_lock_pid(path)
                if open_here:
                    raise StoreError(
                        f"{self.directory} is already open in this"
                        " process; a sharded store directory has"
                        " exactly one writer"
                    )
                stale = (
                    holder is None
                    or holder == os.getpid()
                    or not _pid_alive(holder)
                )
                if attempt == 0 and stale:
                    self.storage.remove(path)
                    continue
                raise StoreError(
                    f"{self.directory} is locked by pid {holder}"
                    f" ({path.name}); close the other"
                    " ShardedDocumentStore first, or delete the"
                    " lockfile if that process is gone"
                )
            _OWNED_DIRS.add(self._lock_key)
            return True
        raise StoreError(  # two stale-break attempts lost the race
            f"could not acquire {path}: another opener raced the"
            " stale-lock takeover"
        )

    def _release_lockfile(self) -> None:
        if not self._has_lockfile:
            return
        self._has_lockfile = False
        _OWNED_DIRS.discard(self._lock_key)
        self.storage.remove(self.directory / _LOCKFILE_NAME)

    # -- wiring ----------------------------------------------------------
    def _attach_collection(self, collection: Collection) -> None:
        name = collection.name
        created = name not in self._files
        if created:
            self._files[name] = _ShardFiles(
                self.directory, name, self.n_shards, self.storage
            )

        def journal(op: str, payload: Any = None) -> None:
            self._on_mutation(name, op, payload)

        collection._journal = journal
        collection._write_guard = self._refuse_if_write_protected
        write_manifest = not self._loading
        if created and write_manifest:
            # An interrupted drop can leave this name's old files
            # behind; remove them before the manifest lists the
            # name again, or the next open would replay them.
            for leftover, path in _shard_files(self.directory):
                if leftover == name:
                    self.storage.remove(path)
        if write_manifest:
            self._write_manifest()

    def _refuse_if_write_protected(self) -> None:
        """Pre-mutation veto (installed as each collection's
        ``_write_guard``): refuse writes *before* they land in memory.

        The journal-failure check must run here rather than in
        :meth:`_on_mutation` — by journal time the document is already
        applied in memory, and compact() reconciles *from* memory, so a
        refusal raised after the apply would silently persist the op it
        claimed to refuse.
        """
        if self._loading:
            return
        if self._closed:
            raise StoreError("sharded store is closed")
        if self._journal_failed is not None:
            raise StoreError(
                f"journal append for"
                f" {self._journal_failed!r} failed earlier (disk"
                " full?); the store is write-protected until"
                " compact() rewrites a consistent on-disk state"
            )

    def _on_mutation(self, name: str, op: str, payload: Any) -> None:
        if self._loading:
            return
        index_changed = False
        if self._closed:
            raise StoreError("sharded store is closed")
        files = self._files[name]
        try:
            if op == "put":
                files.append(
                    shard_of(payload["_id"], self.n_shards),
                    {"op": "put", "doc": payload},
                )
            elif op == "del":
                files.append(
                    shard_of(payload, self.n_shards),
                    {"op": "del", "id": payload},
                )
            elif op == "clear":
                for shard in range(self.n_shards):
                    files.append(shard, {"op": "clear"})
            elif op == "index":
                index_changed = True
            else:
                raise StoreError(f"unknown journal op: {op!r}")
        except OSError as exc:
            # The op is applied in memory but its journal record
            # never landed: write-protect until compact() folds
            # the (ahead) memory state into fresh bases.
            self._journal_failed = name
            raise StoreError(
                f"journal append for {name!r} failed: {exc};"
                " in-memory state is ahead of disk — compact()"
                " to reconcile and re-enable writes"
            ) from exc
        compact_due = (
            not index_changed
            and self.auto_compact_ops is not None
            and files.pending >= self.auto_compact_ops
        )
        if index_changed:
            self._write_manifest()
        elif compact_due:
            self.compact(name)

    # -- manifest --------------------------------------------------------
    def _write_manifest(self) -> None:
        layout = {
            "version": _MANIFEST_VERSION,
            "n_shards": self.n_shards,
            "collections": {
                name: {
                    "indexes": [
                        {
                            "path": index.path,
                            "unique": index.unique,
                            "kind": index.kind,
                        }
                        for index in collection._indexes.values()
                    ],
                    "generation": (
                        self._files[name].gen
                        if name in self._files
                        else 0
                    ),
                }
                for name, collection in self._collections.items()
            },
        }
        self.storage.atomic_write(
            self.directory / _MANIFEST_NAME,
            json.dumps(layout, indent=2, sort_keys=True),
        )

    # -- replay ----------------------------------------------------------
    def _replay(self) -> None:
        layout = read_layout(self.directory / _MANIFEST_NAME)
        collections = layout.get("collections", {})
        self.n_shards = int(layout["n_shards"])
        self._loading = True
        try:
            for name, info in collections.items():
                collection = self.collection(name)
                manifest_gen = int(info.get("generation", 0))
                self._files[name].gen = manifest_gen
                for shard in range(self.n_shards):
                    for document in self._replay_shard(
                        name, shard, manifest_gen
                    ):
                        collection._install(document)
                for index in info.get("indexes", []):
                    collection.create_index(
                        index["path"],
                        unique=index.get("unique", False),
                        kind=index.get("kind", "hash"),
                    )
        finally:
            self._loading = False

    def _migrate_flat(self) -> None:
        """Rewrite a flat ``save()`` directory as framed shards, once.

        Everything is parsed and installed in memory before the first
        write, so a malformed file raises with the directory untouched.
        Compaction then lands the framed bases and ``_shards.json``;
        the flat files are removed only after that, manifest first, so
        a crash in between leaves either a directory that migrates
        again or a finished store with stray ``<name>.jsonl`` files.
        """
        manifest = _read_json(self.directory / _FLAT_MANIFEST_NAME)
        if not isinstance(manifest, dict):
            raise StoreError(
                f"{_FLAT_MANIFEST_NAME}: expected an object of"
                " collection -> index list"
            )
        self._loading = True
        try:
            for name, indexes in manifest.items():
                where = f"{_FLAT_MANIFEST_NAME}: collection {name!r}"
                _check_collection_name(name, where)
                _check_index_specs(indexes, where)
                collection = self.collection(name)
                for at, document in _read_flat_documents(
                    self.directory / f"{name}.jsonl"
                ):
                    try:
                        collection._install(document)
                    except DuplicateKeyError as exc:
                        raise StoreError(f"{at}: {exc}") from exc
                for index in indexes:
                    collection.create_index(
                        index["path"],
                        unique=index.get("unique", False),
                        kind=index.get("kind", "hash"),
                    )
        finally:
            self._loading = False
        self.compact()
        self.storage.remove(self.directory / _FLAT_MANIFEST_NAME)
        for name in manifest:
            self.storage.remove(self.directory / f"{name}.jsonl")

    def _replay_shard(
        self, name: str, shard: int, manifest_gen: int
    ) -> List[Dict[str, Any]]:
        """Final documents for one shard: base records, then log ops.

        The stale-log baseline is strictly per shard — the manifest
        generation plus *this shard's own* base — never the running
        collection maximum: a crash mid-compaction leaves early shards
        on the new generation while later shards still carry their
        (unfolded!) old-generation logs, and judging those against a
        neighbour's generation would discard real ops.
        """
        files = self._files[name]
        state: Dict[Any, Dict[str, Any]] = {}
        base_gen = manifest_gen
        base = scan_file(files.base_path(shard))
        if base is None and manifest_gen > 0:
            # Compaction lands every shard's base before the manifest
            # records its generation, so past generation 0 no crash
            # leaves a base missing: its documents are lost.
            self.recovery_stats["gen_mismatch"] += 1
            self.degraded_collections.add(name)
            self.load_warnings.append(
                f"{files.base_path(shard).name}: base missing at"
                f" manifest generation {manifest_gen}; its"
                " documents are lost"
            )
            self._meter("gen_mismatch")
        if base is not None:
            if base.gen is not None:
                base_gen = max(base_gen, base.gen)
            for document in base.records:
                if isinstance(document, dict) and "_id" in document:
                    state[_index_key(document["_id"])] = document
                else:
                    self.load_warnings.append(
                        f"{base.path.name}: skipped"
                        " document without _id"
                    )
            # Bases are written atomically (whole file or nothing), so
            # *any* undecodable base line — even the last — is real
            # damage, never an in-flight append: quarantine it.
            bad = list(base.corrupt)
            if base.torn_tail:
                bad.append(
                    CorruptLine(0, base.torn_raw, "torn base tail")
                )
            if bad:
                self._quarantine(name, shard, base.path, bad)
            self._flag_anomalies(name, base)
        log = scan_file(files.log_path(shard))
        if log is not None:
            log_gen = log.gen if log.gen is not None else base_gen
            if log_gen < base_gen:
                # Crash signature of compaction: bases landed, this
                # log's removal did not. Its ops are already folded
                # into the base — finish the removal.
                self._recover_stale_log(name, files, shard)
            else:
                if log_gen > base_gen:
                    self.recovery_stats["gen_mismatch"] += 1
                    self.degraded_collections.add(name)
                    self.load_warnings.append(
                        f"{log.path.name}: log generation"
                        f" {log_gen} ahead of base generation"
                        f" {base_gen} (base missing or rolled"
                        " back?)"
                    )
                    self._meter("gen_mismatch")
                files.pending += self._replay_log(
                    name, shard, log, state
                )
                if log.torn_tail:
                    # The expected crash signature: the final append
                    # never completed. Truncate it away — silent,
                    # metered, never a warning.
                    self.storage.truncate(log.path, log.keep_bytes)
                    self.recovery_stats["torn_tail"] += 1
                    self._meter("torn_tail")
                files.next_seq[shard] = log.next_seq
                base_gen = max(base_gen, log_gen)
        files.gen = max(files.gen, base_gen)
        return list(state.values())

    def _replay_log(
        self,
        name: str,
        shard: int,
        log: ScannedFile,
        state: Dict[Any, Dict[str, Any]],
    ) -> int:
        """Apply one scanned log's ops to ``state``; returns op count."""
        files = self._files[name]
        ops = 0
        for record in log.records:
            op = record.get("op") if isinstance(record, dict) else None
            if op == "put" and isinstance(record.get("doc"), dict):
                document = record["doc"]
                state[_index_key(document.get("_id"))] = document
            elif op == "del":
                state.pop(_index_key(record.get("id")), None)
            elif op == "clear":
                state.clear()
            else:
                # Decoded cleanly (checksum passed, or legacy v1) but
                # is not a log op: preserve and flag, never drop.
                self._quarantine(
                    name,
                    shard,
                    log.path,
                    [
                        CorruptLine(
                            0,
                            json.dumps(
                                record, sort_keys=True, default=str
                            ),
                            "unrecognised log record",
                        )
                    ],
                )
                continue
            ops += 1
        if log.corrupt:
            # A bad line *followed by good ones* is not a torn append:
            # something damaged the middle of the history.
            self._quarantine(name, shard, log.path, log.corrupt)
        self._flag_anomalies(name, log)
        return ops

    def _quarantine(
        self,
        name: str,
        shard: int,
        source: Path,
        lines: List[CorruptLine],
    ) -> None:
        """Preserve damaged lines in a sidecar and flag the collection."""
        files = self._files[name]
        sidecar = files.quarantine_path(shard)
        existing: Set[Any] = set()
        if sidecar.exists():
            with open(sidecar, encoding="utf-8", errors="replace") as handle:
                for line in handle:
                    try:
                        entry = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    if isinstance(entry, dict):
                        existing.add(
                            (entry.get("source"), entry.get("raw"))
                        )
        fresh = [
            line
            for line in lines
            if (source.name, line.raw) not in existing
        ]
        if fresh:
            handle = self.storage.open_append(sidecar)
            try:
                for line in fresh:
                    handle.write_line(
                        json.dumps(
                            {
                                "source": source.name,
                                "line": line.lineno,
                                "raw": line.raw,
                                "reason": line.reason,
                            },
                            sort_keys=True,
                        )
                    )
            finally:
                handle.close(sync=True)
        self.recovery_stats["quarantined"] += len(lines)
        self.degraded_collections.add(name)
        for line in lines:
            self.load_warnings.append(
                f"{source.name}:{line.lineno}: quarantined corrupt"
                f" record ({line.reason}) -> {sidecar.name}"
            )
        self._meter("quarantined", len(lines))

    def _flag_anomalies(self, name: str, scan: ScannedFile) -> None:
        """Sequence gaps / generation switches: damage, not crashes."""
        if not scan.anomalies:
            return
        self.recovery_stats["seq_gap"] += len(scan.anomalies)
        self.degraded_collections.add(name)
        for anomaly in scan.anomalies:
            self.load_warnings.append(
                f"{scan.path.name}: {anomaly}"
            )
        self._meter("seq_gap", len(scan.anomalies))

    def _recover_stale_log(
        self, name: str, files: _ShardFiles, shard: int
    ) -> None:
        self.storage.remove(files.log_path(shard))
        self.recovery_stats["stale_log"] += 1
        self._meter("stale_log")

    # -- compaction ------------------------------------------------------
    def compact(self, name: Optional[str] = None) -> None:
        """Fold append logs into fresh base files.

        With ``name`` compacts one collection, otherwise all. For each
        collection the in-memory state is partitioned and written: new
        bases land atomically first, logs are removed after — a crash
        in between leaves logs that are
        recognised as stale (their generation trails the new bases')
        and removed on the next open. Compaction bumps the collection's
        generation, rewrites every base in v2 framing (upgrading any
        pre-checksum files), clears a degraded flag (the damaged
        history is preserved in its quarantine sidecar), and lifts a
        journal-failure write-protection once disk again reflects
        memory.
        """
        names = [name] if name is not None else list(self._collections)
        for collection_name in names:
            collection = self.existing(collection_name)
            if self._closed:
                raise StoreError("sharded store is closed")
            files = self._files[collection_name]
            new_gen = files.gen + 1
            partitions: Dict[int, List[str]] = {
                shard: [header_line(new_gen)]
                for shard in range(self.n_shards)
            }
            for document in collection._documents.values():
                shard = shard_of(document["_id"], self.n_shards)
                partitions[shard].append(
                    frame_line(
                        document,
                        len(partitions[shard]),
                        new_gen,
                    )
                )
            # Crash-safety requires this ordering: bases land
            # (fsynced) strictly before their logs are removed.
            for shard, lines in partitions.items():
                self.storage.atomic_write(
                    files.base_path(shard),
                    "".join(line + "\n" for line in lines),
                )
            files.remove_logs()
            files.gen = new_gen
            self.degraded_collections.discard(collection_name)
            if self._journal_failed == collection_name:
                self._journal_failed = None
        self._write_manifest()

    def pending_ops(self, name: Optional[str] = None) -> int:
        """Log records appended since the last compaction."""
        if name is not None:
            return self._files[name].pending
        return sum(files.pending for files in self._files.values())

    def stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-collection document counts, shard layout and disk usage."""
        out: Dict[str, Dict[str, Any]] = {}
        for name, collection in sorted(self._collections.items()):
            files = self._files[name]
            entry: Dict[str, Any] = {
                "documents": len(collection),
                "n_shards": self.n_shards,
                "pending_ops": files.pending,
                "indexes": collection.index_names(),
                "generation": files.gen,
                "degraded": name in self.degraded_collections,
            }
            entry.update(files.disk_bytes())
            out[name] = entry
        return out

    # -- lifecycle -------------------------------------------------------
    def drop_collection(self, name: str) -> None:
        """Drop a collection and delete its partition files.

        The manifest is rewritten first: once it no longer lists the
        collection, a crash during the removals leaves only orphan
        files, which ``kdb fsck --repair`` or re-creating the name
        removes.
        """
        super().drop_collection(name)
        files = self._files.pop(name, None)
        self.degraded_collections.discard(name)
        self._write_manifest()
        if files is not None:
            files.remove_all()

    def close(self) -> None:
        """Release the pid lockfile, fsync and release log handles.

        Marks the store closed — after which every journal append and
        compaction attempt raises — and releases the lockfile, then
        fsyncs and closes the log handles. Idempotent, and deliberately does *not* compact: the logs are
        already durable, and read-only tooling (``repro kdb stats``)
        must be able to open and close a store without rewriting it.
        """
        if self._closed:
            return
        self._closed = True
        self._release_lockfile()
        for files in self._files.values():
            files.close_handles(sync=True)

    def simulate_crash(self) -> None:
        """Abandon the store the way a dying process would (test API).

        Forgets the in-process ownership and drops the append handles
        *without* writing anything: the pid lockfile stays on disk
        (the next opener must prove it stale), logs keep whatever
        bytes reached the filesystem, and no fsync or compaction
        runs. The crash-point sweep uses this after
        :class:`repro.kdb.storage.SimulatedCrash` fires, so the same
        process can immediately reopen the directory and exercise
        recovery.
        """
        self._closed = True
        self._has_lockfile = False
        _OWNED_DIRS.discard(self._lock_key)
        for files in self._files.values():
            for handle in list(files._handles.values()):
                try:
                    handle.close()
                except Exception:  # torn handles may already be dead
                    continue
            files._handles.clear()

    def __enter__(self) -> "ShardedDocumentStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
