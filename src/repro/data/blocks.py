"""Shared-memory transport: zero-copy matrices for process workers.

The paper's premise is automated analysis over *large* clinical exam
logs, but a naive parallel sweep pickles the full patient-by-exam
matrix into every worker task — the dominant cost of the process
backend. This module provides the zero-copy alternative:

* :class:`SharedMatrix` — a numpy array backed by a
  ``multiprocessing.shared_memory`` segment with an explicit
  create/attach/close/unlink lifecycle. Its picklable
  :class:`SharedMatrixHandle` is a ~100-byte descriptor (name, shape,
  dtype, memory order), so a :class:`repro.cloud.TaskSpec` ships the
  descriptor and workers map the data instead of receiving it.
* :func:`open_matrix` — the worker-side resolver: a context manager
  that turns an array or a handle into an ndarray view and guarantees
  the segment is detached afterwards.

The serial backend never touches shared memory: leases short-circuit
to direct views (see :mod:`repro.cloud.transport`).

Cleanup discipline
------------------
Every segment created here is tracked in a module-level registry and
named with :data:`SEGMENT_PREFIX`, so tests (and operators) can assert
that a run — even a faulty one — left zero segments behind via
:func:`leaked_segments`. Owners unlink in ``finally`` blocks; workers
only ever attach and close.
"""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import DataError

#: Prefix of every shared-memory segment created by this library;
#: :func:`leaked_segments` scans for it.
SEGMENT_PREFIX = "adarepro-"

def leaked_segments() -> List[str]:
    """Library-created segments still present on the host.

    Scans the POSIX shared-memory directory (``/dev/shm`` on Linux) for
    :data:`SEGMENT_PREFIX` names. An empty list after a run — faulty or
    not — is the cleanup invariant the test suite pins. On hosts
    without a scannable segment directory the check degrades to an
    empty answer rather than guessing.
    """
    root = "/dev/shm"
    if not os.path.isdir(root):  # non-POSIX host: nothing to scan
        return []
    return sorted(
        name
        for name in os.listdir(root)
        if name.startswith(SEGMENT_PREFIX)
    )


def reap_segments(names: Optional[Sequence[str]] = None) -> List[str]:
    """Unlink leaked library segments; returns the names removed.

    The orphan reaper for crashed runs (``repro shm reap``): a worker
    killed hard — SIGKILL, OOM — never reaches its ``finally`` block,
    so its :data:`SEGMENT_PREFIX` segments pin host memory until
    something removes them. Only library-prefixed names are touched
    (foreign ``/dev/shm`` entries are never reaped); ``names``
    restricts the reap further. A segment that vanishes concurrently
    is skipped, so the reaper is safe to run repeatedly or in
    parallel.
    """
    root = "/dev/shm"
    if not os.path.isdir(root):  # non-POSIX host: nothing to reap
        return []
    targets = leaked_segments() if names is None else [
        name for name in names if name.startswith(SEGMENT_PREFIX)
    ]
    reaped = []
    for name in targets:
        try:
            os.unlink(os.path.join(root, name))
        except FileNotFoundError:
            continue
        reaped.append(name)
    return reaped


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Unregister an *attached* segment from the resource tracker.

    On CPython < 3.13 every ``SharedMemory(name=...)`` attach registers
    the segment with ``resource_tracker``, which unlinks it when the
    attaching process exits — destroying data the owner still serves.
    Attachers are not owners; only the creator may unlink.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass


@dataclass(frozen=True)
class SharedMatrixHandle:
    """Picklable descriptor of a :class:`SharedMatrix` segment.

    This is the object a :class:`repro.cloud.TaskSpec` ships instead of
    the matrix: ~100 bytes regardless of the array size.
    """

    name: str
    shape: Tuple[int, ...]
    dtype: str
    #: Memory order of the segment bytes ("C" or "F"). Preserving the
    #: source array's order keeps floating-point summation order — and
    #: therefore results — bit-identical between a worker's mapped view
    #: and the owner's original array.
    order: str = "C"

    @property
    def nbytes(self) -> int:
        """Size of the described array in bytes."""
        count = 1
        for extent in self.shape:
            count *= extent
        return count * np.dtype(self.dtype).itemsize


class SharedMatrix:
    """A numpy array in a named shared-memory segment.

    Create one from an in-memory array with :meth:`create` (the calling
    process becomes the *owner*, responsible for :meth:`unlink`), or
    map an existing segment with :meth:`attach` (workers; they only
    :meth:`close`). Using the instance as a context manager closes on
    exit and — for owners — unlinks, so no exit path leaks a segment.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        shape: Tuple[int, ...],
        dtype: np.dtype,
        owner: bool,
        order: str = "C",
    ) -> None:
        self._shm: Optional[shared_memory.SharedMemory] = shm
        self.shape = shape
        self.dtype = np.dtype(dtype)
        self.owner = owner
        self.order = order
        self.name = shm.name

    # -- lifecycle -----------------------------------------------------
    @classmethod
    def create(cls, matrix) -> "SharedMatrix":
        """Copy ``matrix`` into a fresh segment owned by this process.

        The source array's memory order survives the copy: a
        Fortran-ordered matrix (e.g. the L2 normaliser's output) maps
        back Fortran-ordered in the worker, so every downstream
        reduction sums in the same order and results stay bit-identical
        to the serial path.
        """
        matrix = np.asarray(matrix)
        order = (
            "F"
            if matrix.ndim > 1
            and matrix.flags.f_contiguous
            and not matrix.flags.c_contiguous
            else "C"
        )
        matrix = np.asarray(matrix, order=order)
        name = SEGMENT_PREFIX + secrets.token_hex(8)
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, matrix.nbytes), name=name
        )
        shared = cls(shm, matrix.shape, matrix.dtype, owner=True, order=order)
        shared.array[...] = matrix
        return shared

    @classmethod
    def attach(cls, handle: SharedMatrixHandle) -> "SharedMatrix":
        """Map an existing segment described by ``handle`` (no copy)."""
        try:
            shm = shared_memory.SharedMemory(name=handle.name)
        except FileNotFoundError as exc:
            raise DataError(
                f"shared segment {handle.name!r} does not exist"
                " (owner already unlinked it?)"
            ) from exc
        _untrack(shm)
        return cls(
            shm,
            tuple(handle.shape),
            np.dtype(handle.dtype),
            owner=False,
            order=handle.order,
        )

    def close(self) -> None:
        """Detach the mapping; idempotent. Views become invalid."""
        if self._shm is not None:
            self._shm.close()
            self._shm = None

    def unlink(self) -> None:
        """Destroy the segment (owner only); idempotent."""
        if not self.owner:
            raise DataError(
                f"only the owner may unlink segment {self.name!r}"
            )
        self.close()
        try:
            segment = shared_memory.SharedMemory(name=self.name)
        except FileNotFoundError:
            return
        # The re-attach registered the name with the resource tracker;
        # unlink() unregisters it. Unregistering it a second time makes
        # the tracker process raise KeyError.
        try:
            segment.unlink()
        finally:
            # The re-attach above created a fresh mapping of its own;
            # unlink destroys the *name*, not this process's mapping.
            segment.close()

    def __enter__(self) -> "SharedMatrix":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.owner:
            self.unlink()
        else:
            self.close()

    # -- access --------------------------------------------------------
    @property
    def array(self) -> np.ndarray:
        """The live ndarray view into the segment."""
        if self._shm is None:
            raise DataError(f"segment {self.name!r} is closed")
        return np.ndarray(
            self.shape,
            dtype=self.dtype,
            buffer=self._shm.buf,
            order=self.order,
        )

    def handle(self) -> SharedMatrixHandle:
        """The picklable descriptor workers attach with."""
        return SharedMatrixHandle(
            name=self.name,
            shape=tuple(self.shape),
            dtype=self.dtype.str,
            order=self.order,
        )


@contextmanager
def open_matrix(
    ref: Union[np.ndarray, SharedMatrixHandle]
) -> Iterator[np.ndarray]:
    """Resolve a matrix reference into an ndarray view.

    Arrays pass through unchanged (the serial short-circuit: zero
    copies, zero syscalls). :class:`SharedMatrixHandle` attaches the
    segment for the duration of the ``with`` block and detaches in
    ``finally`` — the worker-side half of the cleanup contract. Results
    computed from the view must be fresh arrays (labels, centres,
    scores all are), never views into the segment.
    """
    if isinstance(ref, SharedMatrixHandle):
        shared = SharedMatrix.attach(ref)
        try:
            yield shared.array
        finally:
            shared.close()
    else:
        yield np.asarray(ref)
