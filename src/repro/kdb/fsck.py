"""Offline invariant checker and repair for sharded store directories.

:func:`fsck` inspects a :class:`~repro.kdb.shards.ShardedDocumentStore`
directory *without* opening the store (no lockfile taken, nothing
replayed into memory) and reports every violated durability invariant:

* manifest present, parseable, and of a supported version;
* no pid lockfile left by a dead process, no orphaned ``.tmp`` files
  from interrupted atomic writes;
* every shard file checksums clean (v2 frames), with a torn *final*
  log line classified as the expected crash signature and anything
  else — interior corruption, sequence gaps, mid-file generation
  switches, torn *base* lines — as damage;
* log and base generations agree per shard (a log older than its base
  is a crashed compaction's leftover; a log *newer* than its base
  means the base is missing or rolled back), and past manifest
  generation 0 every shard has a base (compaction writes them all
  before the manifest records the generation);
* no shard files for collections the manifest does not know (a drop
  rewrites the manifest first, so these are most often an interrupted
  drop's leftovers).

With ``repair=True`` the mechanical repairs run first — delete the
stale lockfile and ``.tmp`` leftovers, truncate torn log tails, remove
stale logs and orphan shard files — and then, if any damage remains
(quarantine-level corruption, sequence gaps, generation disagreements),
the store is opened once and compacted: replay quarantines the damaged
lines into sidecars, and compaction rewrites every shard in clean v2
framing and rebuilds the manifest, which also upgrades pre-checksum v1
files. The ``repro kdb fsck [--repair]`` CLI wraps this function.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.exceptions import StoreError
from repro.kdb.framing import scan_file
from repro.kdb.shards import (
    _LOCKFILE_NAME,
    _MANIFEST_NAME,
    _pid_alive,
    _read_lock_pid,
    orphan_shard_files,
    read_layout,
)
from repro.kdb.storage import LocalStorage


@dataclass
class FsckIssue:
    """One violated invariant (or one applied repair)."""

    #: Machine-readable kind, e.g. ``"torn_tail"``, ``"corrupt_line"``.
    kind: str
    #: File the issue was found in (relative to the store directory).
    path: str
    detail: str
    #: ``"expected"`` (crash signature, auto-repairable), ``"damage"``
    #: (needs quarantine + compaction) or ``"fatal"``.
    severity: str = "damage"
    repaired: bool = False

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "path": self.path,
            "detail": self.detail,
            "severity": self.severity,
            "repaired": self.repaired,
        }


@dataclass
class FsckReport:
    """Everything one :func:`fsck` pass found (and possibly fixed)."""

    directory: Path
    issues: List[FsckIssue] = field(default_factory=list)
    #: Shard files examined (bases + logs).
    files_checked: int = 0
    #: Valid records seen across all shard files.
    records: int = 0
    repaired: bool = False

    @property
    def clean(self) -> bool:
        return not self.issues

    @property
    def ok(self) -> bool:
        """Clean, or everything found was repaired."""
        for issue in self.issues:
            if issue.severity == "fatal":
                return False
            if (
                issue.severity in ("expected", "damage")
                and not issue.repaired
            ):
                return False
        return True

    def as_dict(self) -> Dict[str, Any]:
        return {
            "directory": str(self.directory),
            "clean": self.clean,
            "ok": self.ok,
            "files_checked": self.files_checked,
            "records": self.records,
            "repaired": self.repaired,
            "issues": [issue.as_dict() for issue in self.issues],
        }


def _check_manifest(
    directory: Path, report: FsckReport
) -> Optional[Dict[str, Any]]:
    path = directory / _MANIFEST_NAME
    if not path.exists():
        report.issues.append(
            FsckIssue(
                "missing_manifest",
                _MANIFEST_NAME,
                "no shard manifest; not a sharded store directory",
                severity="fatal",
            )
        )
        return None
    try:
        return read_layout(path)
    except StoreError as exc:
        report.issues.append(
            FsckIssue(
                "corrupt_manifest",
                _MANIFEST_NAME,
                f"manifest unusable: {exc}",
                severity="fatal",
            )
        )
        return None


def _check_lockfile(
    directory: Path, report: FsckReport, repair: bool, storage
) -> bool:
    """Check the pid lockfile; True when a live process holds it."""
    path = directory / _LOCKFILE_NAME
    if not path.exists():
        return False
    holder = _read_lock_pid(path)
    if holder is not None and holder != os.getpid() and _pid_alive(holder):
        report.issues.append(
            FsckIssue(
                "live_lockfile",
                _LOCKFILE_NAME,
                f"store is open by live pid {holder}; run fsck after"
                " it closes",
                severity="fatal",
            )
        )
        return True
    issue = FsckIssue(
        "stale_lockfile",
        _LOCKFILE_NAME,
        "lockfile left by a dead process"
        if holder is not None
        else "lockfile with no readable pid (torn create?)",
        severity="expected",
    )
    if repair:
        storage.remove(path)
        issue.repaired = True
    report.issues.append(issue)
    return False


def _check_tmp_files(
    directory: Path, report: FsckReport, repair: bool, storage
) -> None:
    for path in sorted(directory.glob("*.tmp")):
        issue = FsckIssue(
            "tmp_leftover",
            path.name,
            "partial temp file from an interrupted atomic write",
            severity="expected",
        )
        if repair:
            storage.remove(path)
            issue.repaired = True
        report.issues.append(issue)


def _check_collection(
    directory: Path,
    name: str,
    n_shards: int,
    manifest_gen: int,
    report: FsckReport,
    repair: bool,
    storage,
) -> None:
    for shard in range(n_shards):
        base_path = directory / f"{name}.shard-{shard:04d}.jsonl"
        log_path = directory / f"{name}.shard-{shard:04d}.log.jsonl"
        base = scan_file(base_path)
        log = scan_file(log_path)
        base_gen = manifest_gen
        if base is None and manifest_gen > 0:
            # compaction writes every base before the manifest names
            # its generation: a missing one lost its documents
            report.issues.append(
                FsckIssue(
                    "missing_base",
                    base_path.name,
                    f"base missing at manifest generation {manifest_gen}",
                )
            )
        if base is not None:
            report.files_checked += 1
            report.records += len(base.records)
            if base.gen is not None:
                base_gen = max(base_gen, base.gen)
            for line in base.corrupt:
                report.issues.append(
                    FsckIssue(
                        "corrupt_line",
                        base_path.name,
                        f"line {line.lineno}: {line.reason}",
                    )
                )
            if base.torn_tail:
                # bases are atomic: a torn tail here is damage
                report.issues.append(
                    FsckIssue(
                        "corrupt_line",
                        base_path.name,
                        "torn final line in an atomically-written"
                        " base",
                    )
                )
            for anomaly in base.anomalies:
                report.issues.append(
                    FsckIssue("sequence", base_path.name, anomaly)
                )
        if log is None:
            continue
        report.files_checked += 1
        report.records += len(log.records)
        log_gen = log.gen if log.gen is not None else base_gen
        if log_gen < base_gen:
            issue = FsckIssue(
                "stale_log",
                log_path.name,
                f"log generation {log_gen} already folded into"
                f" generation-{base_gen} base (crashed compaction)",
                severity="expected",
            )
            if repair:
                storage.remove(log_path)
                issue.repaired = True
            report.issues.append(issue)
            continue
        if log_gen > base_gen:
            report.issues.append(
                FsckIssue(
                    "generation",
                    log_path.name,
                    f"log generation {log_gen} ahead of base"
                    f" generation {base_gen}",
                )
            )
        for line in log.corrupt:
            report.issues.append(
                FsckIssue(
                    "corrupt_line",
                    log_path.name,
                    f"line {line.lineno}: {line.reason}",
                )
            )
        for anomaly in log.anomalies:
            report.issues.append(
                FsckIssue("sequence", log_path.name, anomaly)
            )
        if log.torn_tail:
            issue = FsckIssue(
                "torn_tail",
                log_path.name,
                "final log line torn mid-append (expected crash"
                " signature)",
                severity="expected",
            )
            if repair:
                storage.truncate(log_path, log.keep_bytes)
                issue.repaired = True
            report.issues.append(issue)


def _check_orphans(
    directory: Path,
    names: List[str],
    report: FsckReport,
    repair: bool,
    storage: Any,
) -> None:
    for path in orphan_shard_files(directory, names):
        issue = FsckIssue(
            "orphan_file",
            path.name,
            "shard file of a collection the manifest does not list"
            " (an interrupted drop)",
            severity="expected",
        )
        if repair:
            storage.remove(path)
            issue.repaired = True
        report.issues.append(issue)


def fsck(
    directory: Union[str, Path],
    repair: bool = False,
    storage: Optional[Any] = None,
) -> FsckReport:
    """Check (and with ``repair=True``, fix) a sharded store directory.

    Returns a :class:`FsckReport`; raises :class:`StoreError` only if
    the directory does not exist. Repairs are two-phase: mechanical
    fixes (stale lockfile / tmp leftovers / torn tails / stale logs /
    orphan shard files) run in place, then any remaining damage is
    resolved by opening the store — whose replay quarantines corrupt
    records into sidecars — and compacting, which rewrites every shard
    in clean v2 framing and rebuilds indexes and the manifest. While a
    live process holds the store's lockfile nothing is repaired.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise StoreError(f"{directory} is not a directory")
    storage = storage if storage is not None else LocalStorage()
    report = FsckReport(directory=directory)
    layout = _check_manifest(directory, report)
    if _check_lockfile(directory, report, repair, storage):
        # A live writer may be mid-write (a fresh collection's log, a
        # temp file, an append): report what is found, repair nothing.
        repair = False
    _check_tmp_files(directory, report, repair, storage)
    if layout is None:
        return report
    collections = layout.get("collections", {})
    n_shards = int(layout.get("n_shards", 0))
    for name, info in collections.items():
        _check_collection(
            directory,
            name,
            n_shards,
            int(info.get("generation", 0) or 0),
            report,
            repair,
            storage,
        )
    _check_orphans(directory, list(collections), report, repair, storage)
    if repair:
        damage = [
            issue
            for issue in report.issues
            if issue.severity == "damage"
        ]
        if damage:
            # Replay quarantines the damaged records; compaction
            # rewrites clean framed shards and a fresh manifest.
            from repro.kdb.shards import ShardedDocumentStore

            store = ShardedDocumentStore(directory, storage=storage)
            try:
                store.compact()
            finally:
                store.close()
            for issue in damage:
                issue.repaired = True
        report.repaired = any(issue.repaired for issue in report.issues)
    return report
