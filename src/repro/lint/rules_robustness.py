"""Robustness rules: no bare assert (ADA005), disciplined broad
exception handling (ADA006), no ad-hoc retry sleeping (ADA013),
persistence writes through the storage layer (ADA023).

Library invariants guarded by ``assert`` vanish under ``python -O``;
``except Exception`` that neither re-raises nor reports turns real
failures into silent wrong answers — the one thing an *automated*
analysis engine must never do. Hand-rolled ``time.sleep`` retry
loops bypass the seeded, bounded backoff of
:class:`repro.cloud.resilience.RetryPolicy`, losing both determinism
and the retry/timeout telemetry. And a K-DB write that bypasses
:mod:`repro.kdb.storage` is invisible to fault injection, so the
crash-point sweep would vouch for durability the store does not have.
"""

from __future__ import annotations

import ast

from repro.lint.base import Rule, RuleContext, dotted_name, register

#: Minimum comment payload (after ``#``) accepted as a justification.
_MIN_JUSTIFICATION = 3

#: Call-name fragments that count as "reporting" a swallowed exception.
_REPORTING_FRAGMENTS = (
    "log", "warn", "report", "record", "fail", "exception",
)


@register
class NoBareAssert(Rule):
    """ADA005: library code must not guard runtime invariants with
    ``assert``.

    Asserts are compiled away under ``python -O``; an invariant that
    matters at runtime must raise an explicit exception
    (``NotFittedError``, ``RuntimeError``...) that survives
    optimisation.
    """

    rule_id = "ADA005"
    name = "no-bare-assert"
    description = (
        "runtime invariants must raise explicit exceptions, not"
        " assert (stripped under python -O)"
    )

    def visit_Assert(self, node: ast.Assert) -> None:
        self.report(
            node,
            "assert is stripped under python -O; raise an explicit"
            " exception (NotFittedError, RuntimeError, ...) instead",
        )
        self.generic_visit(node)


@register
class BroadExceptPolicy(Rule):
    """ADA006: ``except Exception`` must re-raise, report, or justify.

    A broad handler is acceptable when it (a) re-raises, (b) visibly
    reports the failure (logging / metrics / TaskFailure recording), or
    (c) carries a same-line justification comment explaining why
    swallowing is correct. Bare ``except:`` is never acceptable — it
    also catches ``KeyboardInterrupt``/``SystemExit``.
    """

    rule_id = "ADA006"
    name = "broad-except-policy"
    description = (
        "except Exception must re-raise, report, or carry a"
        " justification comment"
    )

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(
                node,
                "bare except also catches KeyboardInterrupt/SystemExit;"
                " catch Exception (with a justification) at most",
            )
        elif _is_broad(node.type) and not (
            _reraises(node) or _reports(node) or self._justified(node)
        ):
            self.report(
                node,
                "broad except swallows the failure; re-raise, report"
                " it, or add a same-line justification comment",
            )
        self.generic_visit(node)

    def _justified(self, node: ast.ExceptHandler) -> bool:
        comment = self.context.comment_on(node.lineno) if (
            self.context is not None
        ) else ""
        return len(comment.lstrip("#").strip()) >= _MIN_JUSTIFICATION


@register
class NoAdHocRetrySleep(Rule):
    """ADA013: no bare ``time.sleep`` retry loops outside the
    resilience layer.

    A ``time.sleep`` inside a ``while``/``for`` body is the signature
    of a hand-rolled retry/backoff loop: unbounded, unseeded and
    invisible to the resilience counters. Backoff belongs to
    :class:`repro.cloud.resilience.RetryPolicy` (whose ``sleep`` is
    the one sanctioned home of retry sleeping), so
    ``cloud/resilience.py`` itself is exempt.
    """

    rule_id = "ADA013"
    name = "no-adhoc-retry-sleep"
    description = (
        "retry backoff must go through resilience.RetryPolicy, not a"
        " time.sleep loop"
    )

    #: The one module allowed to sleep for backoff purposes.
    _EXEMPT_SUFFIX = "cloud/resilience.py"

    def run(self, context: RuleContext):
        if context.relpath.endswith(self._EXEMPT_SUFFIX):
            return []
        self._loop_depth = 0
        return super().run(context)

    def visit_While(self, node: ast.While) -> None:
        self._visit_loop(node)

    def visit_For(self, node: ast.For) -> None:
        self._visit_loop(node)

    def _visit_loop(self, node: ast.AST) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_def(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_def(node)

    def _visit_def(self, node: ast.AST) -> None:
        # A function defined inside a loop body starts its own scope:
        # its sleeps only loop if *it* loops.
        outer = self._loop_depth
        self._loop_depth = 0
        self.generic_visit(node)
        self._loop_depth = outer

    def visit_Call(self, node: ast.Call) -> None:
        chain = dotted_name(node.func)
        if self._loop_depth and chain in ("time.sleep", "sleep"):
            self.report(
                node,
                "time.sleep in a loop is an ad-hoc retry/backoff;"
                " use repro.cloud.resilience.RetryPolicy instead",
            )
        self.generic_visit(node)


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


def _is_broad(exception_type: ast.AST) -> bool:
    names = (
        exception_type.elts
        if isinstance(exception_type, ast.Tuple)
        else [exception_type]
    )
    return any(
        isinstance(name, ast.Name)
        and name.id in ("Exception", "BaseException")
        for name in names
    )


def _handler_nodes(handler: ast.ExceptHandler):
    """Walk the handler body without descending into nested defs."""
    stack = list(handler.body)
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(
        isinstance(node, ast.Raise) for node in _handler_nodes(handler)
    )


def _reports(handler: ast.ExceptHandler) -> bool:
    """Does the handler visibly record the failure somewhere?"""
    for node in _handler_nodes(handler):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        name = (
            callee.attr
            if isinstance(callee, ast.Attribute)
            else callee.id
            if isinstance(callee, ast.Name)
            else ""
        ).lower()
        if any(fragment in name for fragment in _REPORTING_FRAGMENTS):
            return True
        if name == "taskfailure":
            return True
    return False
