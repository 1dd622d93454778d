"""Robustness rule: persistence writes through the storage layer
(ADA023).

A K-DB write that bypasses :mod:`repro.kdb.storage` is invisible to
fault injection, so the crash-point sweep would vouch for durability
the store does not have.
"""

from __future__ import annotations

import ast

from repro.lint.base import Rule, RuleContext, dotted_name, register

#: Write modes of the ``open`` builtin (anything not read-only).
_WRITE_MODE_CHARS = frozenset("wax+")

#: ``os`` functions that mutate the filesystem behind the store.
_OS_WRITE_CALLS = frozenset(
    {
        "os.replace",
        "os.rename",
        "os.fsync",
        "os.truncate",
        "os.ftruncate",
        "os.unlink",
        "os.remove",
        "os.write",
        "os.open",
    }
)

#: ``Path`` methods that write whole files.
_PATH_WRITE_METHODS = frozenset(
    {"write_text", "write_bytes", "touch", "unlink", "rename", "replace"}
)


@register
class PersistenceWritesThroughStorage(Rule):
    """ADA023: K-DB file writes must go through ``repro.kdb.storage``.

    The crash-consistency guarantee of PR 10 rests on a single funnel:
    every byte the persistence stack puts on disk flows through the
    pluggable storage layer, so a seeded
    :class:`~repro.kdb.storage.FaultyStorage` provably covers every
    write boundary of a workload. A raw ``open(..., "w")``,
    ``os.replace`` or ``Path.write_text`` inside :mod:`repro.kdb`
    punches a hole in that coverage — the chaos sweep would pass while
    the bypassing write stays un-crash-tested. Reads are unrestricted;
    ``kdb/storage.py`` itself is the funnel and therefore exempt.
    """

    rule_id = "ADA023"
    name = "persistence-writes-through-storage"
    description = (
        "K-DB persistence writes must use repro.kdb.storage, not raw"
        " open(w)/os.replace/Path.write_*"
    )
    default_paths = ("src/repro/kdb",)

    #: The funnel itself: the one module allowed to touch the disk.
    _EXEMPT_SUFFIX = "kdb/storage.py"

    def run(self, context: RuleContext):
        if context.relpath.endswith(self._EXEMPT_SUFFIX):
            return []
        return super().run(context)

    def visit_Call(self, node: ast.Call) -> None:
        chain = dotted_name(node.func)
        if chain == "open" and _opens_for_write(node):
            self.report(
                node,
                "open() with a write mode bypasses the storage layer;"
                " use storage.open_append/atomic_write so fault"
                " injection covers this write",
            )
        elif chain in _OS_WRITE_CALLS:
            self.report(
                node,
                f"{chain} bypasses the storage layer; route this"
                " write through repro.kdb.storage so the crash sweep"
                " covers it",
            )
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _PATH_WRITE_METHODS
            and dotted_name(node.func) not in _OS_WRITE_CALLS
        ):
            self.report(
                node,
                f".{node.func.attr}() writes to disk outside the"
                " storage layer; use repro.kdb.storage so fault"
                " injection covers this write",
            )
        self.generic_visit(node)


def _opens_for_write(node: ast.Call) -> bool:
    mode = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return False  # default mode "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(_WRITE_MODE_CHARS & set(mode.value))
    return True  # dynamic mode: cannot prove read-only
