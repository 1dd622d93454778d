"""Resource-lifecycle rule: ADA017.

ADA017 is a per-function AST pass over the release protocols below:
an object whose constructor carries a release obligation (a shared
memory mapping, a process pool, a sharded K-DB store...) must be
released on every path or handed to a tracked owner.

The engine is single-threaded per process (DESIGN.md, "One thread per
process"), so adalint checks no lock discipline;
``tests/test_architecture.py`` guards that no product module starts a
thread.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path
from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro.lint.base import Rule, RuleContext, dotted_name, register

# ----------------------------------------------------------------------
# ADA017 — resources with a release protocol released on all paths
# ----------------------------------------------------------------------
#: Constructors whose result carries a release obligation, mapped to
#: the method set that discharges it. ADA017 matches the constructor by
#: dotted-chain *tail* (``shared_memory.SharedMemory`` and
#: ``SharedMemory`` both hit the ``SharedMemory`` entry; classmethod
#: factories are listed as ``Class.method``). The set means "calling
#: any one of these releases the resource": a ``SharedMemory`` mapping
#: is only released by ``close()`` — ``unlink()`` destroys the segment
#: but leaks the caller's own mapping, which is exactly the bug class
#: the rule exists for.
_RESOURCE_PROTOCOLS = {
    "SharedMemory": frozenset({"close"}),
    "SharedMatrix.create": frozenset({"close", "unlink"}),
    "SharedMatrix.attach": frozenset({"close"}),
    "ThreadPoolExecutor": frozenset({"shutdown"}),
    "ProcessPoolExecutor": frozenset({"shutdown"}),
    "ShardedDocumentStore": frozenset({"close"}),
    "TemporaryDirectory": frozenset({"cleanup"}),
}

#: Sources, relative to the ``repro`` package, scanned for further
#: context-managed resource classes.
_RESOURCE_SOURCES = ("data/blocks.py", "cloud/executor.py")


@lru_cache(maxsize=1)
def resource_protocols() -> Dict[str, FrozenSet[str]]:
    """Release protocols for ADA017, keyed by constructor tail.

    The baked table is the contract; the source scan only *extends* it:
    any class in :data:`_RESOURCE_SOURCES` defining both ``__enter__``
    and a ``close``/``shutdown``/``cleanup`` method is added with that
    method as its protocol, so new pooled/mapped resources are covered
    without editing the linter. The sources are parsed, never imported.
    """
    protocols = dict(_RESOURCE_PROTOCOLS)
    package = Path(__file__).resolve().parents[1]
    for relpath in _RESOURCE_SOURCES:
        try:
            source = (package / relpath).read_text(encoding="utf-8")
            tree = ast.parse(source)
        except (OSError, SyntaxError):
            continue
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {
                item.name
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            }
            if "__enter__" not in methods:
                continue
            release = methods & {"close", "shutdown", "cleanup"}
            if release and node.name not in protocols:
                protocols[node.name] = frozenset(release)
    return protocols


@register
class MustReleaseResources(Rule):
    """ADA017: resources carrying a release obligation must be released
    on all paths.

    The protocol table (:func:`resource_protocols`) maps constructors
    to the methods that discharge the obligation — e.g. a
    ``shared_memory.SharedMemory`` mapping is released only by
    ``close()``; ``unlink()`` destroys the segment but leaks the
    caller's own mapping. Acceptable custody:
    a ``with`` block, a release call in a ``finally`` block, or handing
    the object to a tracked owner (returned/yielded, stored on an
    object, passed to a call, aliased). A release reachable only on the
    happy path is still a leak on the exception path and is flagged.
    """

    rule_id = "ADA017"
    name = "must-release-resource"
    severity = "error"
    description = (
        "objects with a close/shutdown/unlink protocol must be"
        " released on every path (with / try-finally) or handed to a"
        " tracked owner"
    )
    default_paths = ("src",)

    def run(self, context: RuleContext):
        self.protocols = resource_protocols()
        return super().run(context)

    # -- constructor matching ------------------------------------------
    def _protocol_for(self, call: ast.AST) -> Optional[FrozenSet[str]]:
        if not isinstance(call, ast.Call):
            return None
        chain = dotted_name(call.func)
        if not chain:
            return None
        parts = chain.rsplit(".", 2)
        tail = parts[-1]
        pair = ".".join(parts[-2:]) if len(parts) > 1 else tail
        if pair in self.protocols:
            return self.protocols[pair]
        if tail in self.protocols:
            return self.protocols[tail]
        return None

    # -- per-function lexical analysis ---------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def _check_function(self, func: ast.AST) -> None:
        acquisitions: Dict[str, Tuple[ast.AST, FrozenSet[str]]] = {}
        released_finally: Set[str] = set()
        released_happy: Set[str] = set()
        escaped: Set[str] = set()
        with_managed: Set[str] = set()

        def scan(node: ast.AST, in_finally: bool) -> None:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                return  # nested functions are checked separately
            if isinstance(node, ast.Try):
                for part in node.body + node.orelse:
                    scan(part, in_finally)
                for handler in node.handlers:
                    scan(handler, in_finally)
                for part in node.finalbody:
                    scan(part, True)
                return
            self._classify(
                node,
                in_finally,
                acquisitions,
                released_finally,
                released_happy,
                escaped,
                with_managed,
            )
            for child in ast.iter_child_nodes(node):
                scan(child, in_finally)

        for statement in getattr(func, "body", []):
            scan(statement, False)

        for name, (site, releases) in acquisitions.items():
            if name in escaped or name in with_managed:
                continue
            if name in released_finally:
                continue
            if name in released_happy:
                self.report(
                    site,
                    f"{name} ({'/'.join(sorted(releases))}) is"
                    " released only on the happy path — an exception"
                    " before the release leaks it; use with or"
                    " try/finally",
                )
            else:
                self.report(
                    site,
                    f"{name} is acquired but never released"
                    f" ({'/'.join(sorted(releases))}); use with,"
                    " try/finally, or hand it to a tracked owner",
                )

    def _classify(
        self,
        node: ast.AST,
        in_finally: bool,
        acquisitions,
        released_finally,
        released_happy,
        escaped,
        with_managed,
    ) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if self._protocol_for(item.context_expr) is not None:
                    if isinstance(item.optional_vars, ast.Name):
                        with_managed.add(item.optional_vars.id)
                if isinstance(item.context_expr, ast.Name):
                    with_managed.add(item.context_expr.id)
            return
        if isinstance(node, ast.Assign):
            releases = self._protocol_for(node.value)
            if releases is not None and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    acquisitions[target.id] = (node, releases)
                    return
                # Stored straight into an attribute/subscript: the
                # owner tracks it.
                return
            if isinstance(node.value, ast.Name):
                escaped.add(node.value.id)  # alias: custody transferred
            return
        if isinstance(node, ast.Expr):
            value = node.value
            releases = self._protocol_for(value)
            if releases is not None:
                self.report(
                    node,
                    "resource constructed and discarded without a"
                    f" release ({'/'.join(sorted(releases))}); bind it"
                    " or use with",
                )
                return
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
            ):
                receiver = value.func.value
                inner = self._protocol_for(receiver)
                if inner is not None:
                    # Ctor(...).method(...): released only when the
                    # method discharges the protocol.
                    if value.func.attr not in inner:
                        self.report(
                            node,
                            f"temporary resource released via"
                            f" .{value.func.attr}() which does not"
                            " discharge its protocol"
                            f" ({'/'.join(sorted(inner))}); the"
                            " mapping itself leaks — bind it and"
                            " release in finally",
                        )
                    return
        # Release calls and escapes.
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) and isinstance(
                node.func.value, ast.Name
            ):
                name = node.func.value.id
                held = acquisitions.get(name)
                if held is not None and node.func.attr in held[1]:
                    (released_finally if in_finally else (
                        released_happy
                    )).add(name)
                    return
            for argument in list(node.args) + [
                keyword.value for keyword in node.keywords
            ]:
                for sub in ast.walk(argument):
                    if isinstance(sub, ast.Name):
                        escaped.add(sub.id)
            return
        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            value = getattr(node, "value", None)
            if value is not None:
                for sub in ast.walk(value):
                    if isinstance(sub, ast.Name):
                        escaped.add(sub.id)
