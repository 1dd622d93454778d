"""Pluggable storage I/O for the K-DB persistence stack.

Every byte the persistence layer puts on disk — shard bases, append
logs, manifests, lockfiles, quarantine sidecars — goes through a
*storage* object implementing the small protocol below, so chaos tests
can interpose a deterministic fault model between the store and the
filesystem. Two implementations ship:

* :class:`LocalStorage` — the real filesystem, writing whole files
  by the tmp-file + ``fsync`` + ``os.replace`` discipline; and
* :class:`FaultyStorage` — a seeded wrapper that counts *write events*
  (appends, atomic writes, syncs, removals, truncations, exclusive
  creates) and can inject, at any chosen event: a torn write (the
  payload truncated at a seeded byte offset), ``ENOSPC``, or a hard
  crash point (:class:`SimulatedCrash`) after which the storage is
  dead — the moral equivalent of SIGKILL mid-write. With
  ``lose_unsynced=True`` a crash additionally rolls every append file
  back to its last *fsynced* length, modelling a kernel that never
  wrote the page cache out.

adalint rule ADA023 enforces the funnel: no raw ``open(..., "w")`` /
``os.replace`` / ``Path.write_text`` in :mod:`repro.kdb` outside this
module, so a fault schedule provably covers every persistence-path
write.
"""

from __future__ import annotations

import errno
import os
import random
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

PathLike = Union[str, Path]


class SimulatedCrash(BaseException):
    """Raised by :class:`FaultyStorage` at its scheduled crash point.

    Deliberately a ``BaseException``: a crash models the process dying
    mid-write, so no library ``except Exception`` handler may absorb it
    and keep writing — exactly as nothing survives a SIGKILL.
    """


def atomic_write(path: Path, content: str) -> None:
    """Write ``content`` to ``path`` via a temp file and ``os.replace``.

    The canonical crash-safe whole-file write (PR 5): readers observe
    either the previous complete file or the new complete file, never a
    truncated hybrid.
    """
    temporary = path.with_name(path.name + ".tmp")
    with open(temporary, "w") as handle:
        handle.write(content)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, path)


class AppendHandle:
    """An open append cursor over one file.

    ``write_line`` appends one newline-terminated record and flushes
    (the record reaches the kernel); :meth:`sync` makes everything
    written so far durable with ``fsync``.
    """

    def __init__(self, path: Path, handle) -> None:
        self.path = path
        self._handle = handle

    def write_line(self, text: str) -> None:
        self._handle.write(text + "\n")
        self._handle.flush()

    def sync(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self, sync: bool = False) -> None:
        if self._handle is None:
            return
        if sync:
            self.sync()
        self._handle.close()
        self._handle = None


class LocalStorage:
    """The real filesystem (default storage for every store)."""

    name = "local"

    def open_append(self, path: PathLike) -> AppendHandle:
        """Open ``path`` for appending records."""
        path = Path(path)
        return AppendHandle(path, open(path, "a"))

    def atomic_write(self, path: PathLike, content: str) -> None:
        """Crash-safe whole-file write (tmp + fsync + replace)."""
        atomic_write(Path(path), content)

    def create_exclusive(self, path: PathLike, content: str) -> None:
        """Create ``path`` with ``content``; raises ``FileExistsError``
        if it already exists (``O_CREAT | O_EXCL`` — the lockfile
        primitive)."""
        fd = os.open(str(path), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        with os.fdopen(fd, "w") as handle:
            handle.write(content)
            handle.flush()
            os.fsync(handle.fileno())

    def remove(self, path: PathLike) -> None:
        """Delete ``path``; missing files are a no-op."""
        try:
            os.unlink(str(path))
        except FileNotFoundError:
            pass

    def truncate(self, path: PathLike, size: int) -> None:
        """Cut ``path`` to ``size`` bytes (torn-tail recovery)."""
        os.truncate(str(path), size)


class _FaultyAppendHandle(AppendHandle):
    """Append handle whose writes report to the owning fault model."""

    def __init__(
        self, storage: "FaultyStorage", path: Path, handle
    ) -> None:
        super().__init__(path, handle)
        self._storage = storage

    def write_line(self, text: str) -> None:
        self._storage._before_append(self, text + "\n")
        super().write_line(text)

    def sync(self) -> None:
        self._storage._before_sync(self)
        super().sync()
        self._storage._mark_durable(self.path)

    def close(self, sync: bool = False) -> None:
        # Closing is not a counted event: a dead storage's handles may
        # still be released by test teardown without "writing".
        if self._handle is None:
            return
        if sync and not self._storage.crashed:
            self.sync()
            super().close(sync=False)
        else:
            super().close(sync=False)


class FaultyStorage(LocalStorage):
    """A seeded, deterministic fault model over :class:`LocalStorage`.

    Parameters
    ----------
    seed:
        Seeds the tear offsets and apply/skip coin flips; the same
        ``(seed, crash_at)`` pair always produces the same post-crash
        bytes on disk.
    crash_at:
        1-based write-event index at which :class:`SimulatedCrash`
        raises. The in-flight write is *torn*: a seeded prefix of its
        payload reaches the file (appends and exclusive creates), the
        temp file of an atomic write is left partial with the target
        untouched, and a removal/truncation/sync lands or not on a
        coin flip. After the crash the storage is dead — every further
        operation raises :class:`SimulatedCrash` immediately.
    enospc_at:
        1-based write-event index at which the write fails with
        ``OSError(ENOSPC)`` *without* crashing (the disk filled up);
        subsequent writes succeed, modelling space being freed.
    lose_unsynced:
        On crash, roll every append file back to its last
        :meth:`AppendHandle.sync`'d length before tearing the in-flight
        write — flushed-but-unsynced records do not survive. Off by
        default (the kernel usually writes the cache out).

    A clean pass (``crash_at=None``) simply counts: run the workload
    once, read :attr:`events`, then sweep ``crash_at`` over
    ``1..events`` to kill the store at every write boundary.
    """

    name = "faulty"

    def __init__(
        self,
        seed: int = 0,
        crash_at: Optional[int] = None,
        enospc_at: Optional[int] = None,
        lose_unsynced: bool = False,
    ) -> None:
        self.seed = seed
        self.crash_at = crash_at
        self.enospc_at = enospc_at
        self.lose_unsynced = lose_unsynced
        self.events = 0
        self.crashed = False
        #: (event index, operation, file name) per counted event.
        self.log: List[Tuple[int, str, str]] = []
        self._rng = random.Random(seed)
        #: Last known durable size per append path (lose_unsynced).
        self._durable: Dict[str, int] = {}
        self._open_paths: List[Path] = []

    # -- event accounting ----------------------------------------------
    def _event(self, op: str, path: Path) -> bool:
        """Count one write event; returns True at the crash point."""
        if self.crashed:
            raise SimulatedCrash(f"storage died before {op}")
        self.events += 1
        self.log.append((self.events, op, path.name))
        if self.enospc_at is not None and self.events == self.enospc_at:
            raise OSError(errno.ENOSPC, "injected: no space left", str(path))
        return self.crash_at is not None and self.events == self.crash_at

    def _die(self, message: str) -> None:
        self.crashed = True
        if self.lose_unsynced:
            self._roll_back_unsynced()
        raise SimulatedCrash(message)

    def _roll_back_unsynced(self) -> None:
        for key, size in self._durable.items():
            try:
                if os.path.getsize(key) > size:
                    os.truncate(key, size)
            except OSError:  # file vanished: nothing left to roll back
                continue

    def _mark_durable(self, path: Path) -> None:
        try:
            self._durable[str(path)] = os.path.getsize(str(path))
        except OSError:
            self._durable[str(path)] = 0

    def _tear_bytes(self, payload: bytes) -> bytes:
        """A seeded strict prefix of ``payload`` (may be empty)."""
        if not payload:
            return payload
        return payload[: self._rng.randrange(0, len(payload))]

    # -- append path ----------------------------------------------------
    def open_append(self, path: PathLike) -> AppendHandle:
        if self.crashed:
            raise SimulatedCrash("storage died before open_append")
        path = Path(path)
        if str(path) not in self._durable:
            if path.exists():
                self._mark_durable(path)
            else:
                self._durable[str(path)] = 0
        self._open_paths.append(path)
        return _FaultyAppendHandle(self, path, open(path, "a"))

    def _before_append(
        self, handle: _FaultyAppendHandle, line: str
    ) -> None:
        if self._event("append", handle.path):
            handle._handle.flush()
            torn = self._tear_bytes(line.encode("utf-8"))
            with open(handle.path, "ab") as raw:
                raw.write(torn)
                raw.flush()
            self._die(
                f"crash at event {self.events}: append to"
                f" {handle.path.name} torn at byte {len(torn)}"
            )

    def _before_sync(self, handle: _FaultyAppendHandle) -> None:
        if self._event("sync", handle.path):
            if self._rng.random() < 0.5:  # the sync itself landed
                handle._handle.flush()
                os.fsync(handle._handle.fileno())
                self._mark_durable(handle.path)
            self._die(
                f"crash at event {self.events}: sync of"
                f" {handle.path.name}"
            )

    # -- whole-file path ------------------------------------------------
    def atomic_write(self, path: PathLike, content: str) -> None:
        path = Path(path)
        if self._event("atomic_write", path):
            temporary = path.with_name(path.name + ".tmp")
            with open(temporary, "wb") as raw:
                raw.write(self._tear_bytes(content.encode("utf-8")))
            self._die(
                f"crash at event {self.events}: atomic write of"
                f" {path.name} left a partial temp file"
            )
        super().atomic_write(path, content)
        self._mark_durable(path)

    def create_exclusive(self, path: PathLike, content: str) -> None:
        path = Path(path)
        if self._event("create_exclusive", path):
            fd = os.open(
                str(path), os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
            with os.fdopen(fd, "wb") as raw:
                raw.write(self._tear_bytes(content.encode("utf-8")))
            self._die(
                f"crash at event {self.events}: exclusive create of"
                f" {path.name} torn"
            )
        super().create_exclusive(path, content)
        self._mark_durable(path)

    def remove(self, path: PathLike) -> None:
        path = Path(path)
        if self._event("remove", path):
            if self._rng.random() < 0.5:  # the unlink landed
                super().remove(path)
                self._durable.pop(str(path), None)
            self._die(
                f"crash at event {self.events}: removal of {path.name}"
            )
        super().remove(path)
        self._durable.pop(str(path), None)

    def truncate(self, path: PathLike, size: int) -> None:
        path = Path(path)
        if self._event("truncate", path):
            if self._rng.random() < 0.5:  # the truncation landed
                super().truncate(path, size)
                self._mark_durable(path)
            self._die(
                f"crash at event {self.events}: truncation of"
                f" {path.name}"
            )
        super().truncate(path, size)
        self._mark_durable(path)
