"""Dataflow rules: ADA009, ADA012 and ADA014.

ADA009 consumes the whole-program view built by
:mod:`repro.lint.graph`. When the runner linted a full project the
:class:`~repro.lint.graph.ProjectGraph` arrives on the
:class:`~repro.lint.base.RuleContext`; a rule run on a lone snippet
(the unit-test path) builds a single-file graph on the fly, so
fixtures behave identically.

ADA012 is registered here for the catalogue, config scoping and
``--select`` but produces no findings itself: unused-suppression
accounting lives in the runner, which is the only place that knows
which pragmas matched a finding.
"""

from __future__ import annotations

import ast
from typing import Set, Tuple

from repro.lint.base import Rule, RuleContext, dotted_name, register
from repro.lint.graph import (
    ProjectGraph,
    extract_summary,
    module_name_for,
)
from repro.lint.rules_parallelism import (
    _is_process_pool_call,
    _task_argument,
)


class _Line:
    """Minimal report anchor for findings not tied to a visited node."""

    def __init__(self, lineno: int, col_offset: int = 0) -> None:
        self.lineno = lineno
        self.col_offset = col_offset


def _graph_and_module(
    context: RuleContext,
) -> Tuple[ProjectGraph, str]:
    """The project graph for this run, or a single-file stand-in."""
    if context.project is not None and context.module:
        return context.project, context.module
    relpath = context.relpath
    if not relpath.endswith(".py"):
        relpath = "snippet.py"
    if context.project is not None:
        return context.project, module_name_for(relpath)
    summary = extract_summary(context.tree, relpath)
    return ProjectGraph([summary]), summary.module


# ----------------------------------------------------------------------
# ADA009 — tasks shipped to workers must be transitively effect-free
# ----------------------------------------------------------------------
@register
class EffectFreeTasks(Rule):
    """ADA009: callables submitted for parallel execution must be
    transitively effect-free.

    A task that reads the wall clock, draws from unseeded RNG, performs
    I/O, writes module state or mutates its arguments gives different
    answers serial vs. fanned-out (worker mutations happen on pickled
    copies and silently vanish). The effect inference follows the call
    graph, so the offence may sit arbitrarily deep below the submitted
    function — the finding cites the originating site and call chain.
    """

    rule_id = "ADA009"
    name = "effect-free-parallel-tasks"
    severity = "error"
    description = (
        "callables handed to TaskSpec / process-pool submission must"
        " be transitively free of clock, RNG, I/O and mutation effects"
    )

    def run(self, context: RuleContext):
        self._pools: Set[str] = set()
        self.graph, self.module = _graph_and_module(context)
        return super().run(context)

    # -- process-pool bindings (file-wide; threads are exempt) ---------
    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_process_pool_call(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._pools.add(target.id)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if _is_process_pool_call(item.context_expr) and isinstance(
                item.optional_vars, ast.Name
            ):
                self._pools.add(item.optional_vars.id)
        self.generic_visit(node)

    visit_AsyncWith = visit_With

    # -- submission sites ----------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        callee = node.func
        tail = dotted_name(callee).rsplit(".", 1)[-1]
        target = None
        via = None
        if tail == "TaskSpec":
            target = _task_argument(node)
            via = "TaskSpec"
        elif (
            isinstance(callee, ast.Attribute)
            and callee.attr == "submit"
            and isinstance(callee.value, ast.Name)
            and callee.value.id in self._pools
        ):
            target = node.args[0] if node.args else None
            via = f"{callee.value.id}.submit"
        if target is not None and via is not None:
            self._check_task(node, target, via)
        self.generic_visit(node)

    def _check_task(
        self, node: ast.Call, target: ast.AST, via: str
    ) -> None:
        chain = dotted_name(target)
        if not chain:
            return  # lambdas/odd expressions are ADA003's problem
        qualid = self.graph.resolve_symbol(self.module, chain)
        if qualid is None:
            return  # unresolvable target: under-approximate
        for effect in self.graph.effects(qualid):
            origin = f"{effect.module}:{effect.qualname}:{effect.line}"
            evidence = f"{effect.description} (at {origin}"
            path = self.graph.call_path(
                qualid,
                lambda q: q == f"{effect.module}:{effect.qualname}",
            )
            if path and len(path) > 1:
                steps = " -> ".join(
                    q.partition(":")[2] for q in path
                )
                evidence += f", via {steps}"
            evidence += ")"
            self.report(
                node,
                f"task {chain!r} handed to {via} is not effect-free:"
                f" {evidence}",
            )


# ----------------------------------------------------------------------
# ADA014 — large arrays must not ride the pickle path to workers
# ----------------------------------------------------------------------
@register
class NoLargeArrayPickle(Rule):
    """ADA014: ndarrays must not be pickled into task submissions.

    A ``TaskSpec`` (or tracked process-pool ``submit``) argument that is
    statically known to be a numpy array ships a full copy of the data
    through pickle to every worker — the multi-megabyte payload the
    shared-memory transport exists to avoid. Route the array through
    :func:`repro.cloud.matrix_lease` (or a
    :class:`repro.data.SharedMatrix`) and ship its ~100-byte handle
    instead; workers reattach with :func:`repro.data.open_matrix`.

    A name counts as an ndarray when a parameter annotation says so or
    when it was assigned from a numpy constructor (``np.asarray``,
    ``np.zeros``, ...) — including slices, ``.copy()``/``.astype()``
    chains and aliases of such names. The inference is per function and
    deliberately under-approximates: lease handles, fold indexes and
    anything of unknown type pass silently.
    """

    rule_id = "ADA014"
    name = "no-large-array-pickle"
    severity = "warning"
    description = (
        "ndarray arguments must not be pickled into TaskSpec /"
        " process-pool submissions; lease a shared-memory handle"
        " instead"
    )

    _CONSTRUCTORS = frozenset(
        {
            "array", "asarray", "ascontiguousarray", "asfortranarray",
            "zeros", "ones", "empty", "full", "zeros_like",
            "ones_like", "empty_like", "full_like", "arange",
            "linspace", "logspace", "eye", "identity", "vstack",
            "hstack", "stack", "column_stack", "concatenate", "copy",
            "tile", "repeat", "outer", "loadtxt", "load",
        }
    )

    def run(self, context: RuleContext):
        self._numpy_aliases: Set[str] = set()
        self._numpy_bare: Set[str] = set()
        return super().run(context)

    # -- numpy import aliases (file-wide) ------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "numpy" or alias.name.startswith("numpy."):
                self._numpy_aliases.add(
                    alias.asname or alias.name.split(".")[0]
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.module.split(".")[0] == "numpy":
            for alias in node.names:
                if alias.name in self._CONSTRUCTORS:
                    self._numpy_bare.add(alias.asname or alias.name)
        self.generic_visit(node)

    # -- per-function inference ----------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def _check_function(self, node) -> None:
        arrays: Set[str] = set()
        pools: Set[str] = set()
        arguments = node.args
        for arg in (
            list(arguments.posonlyargs)
            + list(arguments.args)
            + list(arguments.kwonlyargs)
        ):
            if arg.annotation is not None and _mentions_ndarray(
                arg.annotation
            ):
                arrays.add(arg.arg)
        scope = sorted(
            _scope_nodes(node),
            key=lambda n: (getattr(n, "lineno", 0),
                           getattr(n, "col_offset", 0)),
        )
        for statement in scope:  # pass 1: track arrays and pools
            if isinstance(statement, ast.Assign):
                if _is_process_pool_call(statement.value):
                    pools.update(
                        t.id
                        for t in statement.targets
                        if isinstance(t, ast.Name)
                    )
                elif self._is_array_expression(statement.value, arrays):
                    arrays.update(
                        t.id
                        for t in statement.targets
                        if isinstance(t, ast.Name)
                    )
            elif isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                if _mentions_ndarray(statement.annotation):
                    arrays.add(statement.target.id)
            elif isinstance(statement, (ast.With, ast.AsyncWith)):
                for item in statement.items:
                    if _is_process_pool_call(
                        item.context_expr
                    ) and isinstance(item.optional_vars, ast.Name):
                        pools.add(item.optional_vars.id)
        if not arrays:
            return
        for call in scope:  # pass 2: submission sites
            if isinstance(call, ast.Call):
                self._check_submission(call, arrays, pools)

    def _is_array_expression(
        self, node: ast.AST, arrays: Set[str]
    ) -> bool:
        """True when ``node`` statically evaluates to a tracked array."""
        if isinstance(node, ast.Name):
            return node.id in arrays
        if isinstance(node, ast.Subscript):  # matrix[train] slicing
            return self._is_array_expression(node.value, arrays)
        if isinstance(node, ast.Call):
            callee = node.func
            if isinstance(callee, ast.Name):
                return callee.id in self._numpy_bare
            if isinstance(callee, ast.Attribute):
                root = callee.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if (
                    isinstance(root, ast.Name)
                    and root.id in self._numpy_aliases
                    and callee.attr in self._CONSTRUCTORS
                ):
                    return True
                # method chains on a tracked array: m.copy(), m.astype()
                return self._is_array_expression(callee.value, arrays)
        return False

    def _check_submission(
        self, node: ast.Call, arrays: Set[str], pools: Set[str]
    ) -> None:
        callee = node.func
        tail = dotted_name(callee).rsplit(".", 1)[-1]
        via = None
        payload: list = []
        if tail == "TaskSpec":
            via = "TaskSpec"
            payload = list(node.args[1:]) + [
                k.value for k in node.keywords if k.arg != "fn"
            ]
        elif (
            isinstance(callee, ast.Attribute)
            and callee.attr == "submit"
            and isinstance(callee.value, ast.Name)
            and callee.value.id in pools
        ):
            via = f"{callee.value.id}.submit"
            payload = list(node.args[1:]) + [
                k.value for k in node.keywords
            ]
        if via is None:
            return
        for expression in payload:
            for name in ast.walk(expression):
                if (
                    isinstance(name, ast.Name)
                    and name.id in arrays
                ):
                    self.report(
                        node,
                        f"ndarray {name.id!r} is pickled into {via};"
                        " ship a shared-memory handle instead (route"
                        " it through repro.cloud.matrix_lease and"
                        " reattach with repro.data.open_matrix)",
                    )


def _mentions_ndarray(annotation: ast.AST) -> bool:
    """True for ``np.ndarray``-ish annotations (incl. strings/Optional)."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(
            node.value, str
        ):
            if node.value.rsplit(".", 1)[-1].startswith("ndarray"):
                return True
        chain = dotted_name(node)
        if chain and chain.rsplit(".", 1)[-1] == "ndarray":
            return True
    return False


def _scope_nodes(node):
    """Every node in ``node``'s body, pruning nested callables.

    Nested functions and lambdas form their own scopes — a later
    ``visit_FunctionDef`` analyses them with their own parameters and
    assignments, so descending here would double-report.
    """
    nested = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    stack = [child for child in node.body if not isinstance(child, nested)]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(
            child
            for child in ast.iter_child_nodes(current)
            if not isinstance(child, nested)
        )


# ----------------------------------------------------------------------
# ADA012 — unused / unknown suppression pragmas
# ----------------------------------------------------------------------
@register
class NoUnusedSuppressions(Rule):
    """ADA012: ``# adalint: disable`` pragmas must suppress something.

    A pragma that no longer matches any finding is stale armour — it
    hides future regressions of exactly the rule it names. Unknown rule
    ids in pragmas (and in ``[tool.adalint]`` ``select``/``ignore``/
    ``paths``) are reported too: a typo like ``ADA01`` silently
    disables nothing.

    The findings are produced by the runner, which owns suppression
    matching; this class contributes the id, catalogue entry and
    config/scoping surface. Accounting is single-pass: a pragma only
    counts as used if it suppressed a finding from the same run.
    """

    rule_id = "ADA012"
    name = "no-unused-suppressions"
    severity = "warning"
    description = (
        "suppression pragmas must name known rules and actually"
        " suppress a finding"
    )

    def run(self, context: RuleContext):
        return []
