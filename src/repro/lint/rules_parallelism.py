"""Parallelism-safety rule: picklable tasks (ADA003).

``ProcessPoolExecutorBackend`` ships tasks to workers by pickling;
a lambda or closure handed to :class:`TaskSpec` (or submitted straight
onto a process pool) dies with ``PicklingError`` only at runtime, under
spawn, on the unlucky backend. ADA003 moves that failure to lint time.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.lint.base import Rule, dotted_name, register


class _FunctionScope:
    """Names that would not survive pickling if shipped to a worker."""

    def __init__(self, node: ast.AST, is_function: bool) -> None:
        self.is_function = is_function
        self.nested_defs: Set[str] = set()
        self.lambda_names: Set[str] = set()
        self.process_pools: Set[str] = set()
        if is_function:
            self._scan(node)

    def _scan(self, function: ast.AST) -> None:
        """Collect this function's own nested defs and lambda binds."""
        for statement in ast.walk(function):
            if statement is function:
                continue
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                self.nested_defs.add(statement.name)
            elif isinstance(statement, ast.Assign) and isinstance(
                statement.value, ast.Lambda
            ):
                for target in statement.targets:
                    if isinstance(target, ast.Name):
                        self.lambda_names.add(target.id)


@register
class NoUnpicklableTask(Rule):
    """ADA003: no lambdas/closures/local functions handed to
    ``TaskSpec`` or submitted onto a process pool.

    Only module-level callables are importable in a spawned worker;
    anything defined inside a function (or anonymously) fails to
    pickle. Thread-pool ``submit`` is exempt — threads share the
    interpreter and never pickle.
    """

    rule_id = "ADA003"
    name = "no-unpicklable-tasks"
    description = (
        "TaskSpec / process-pool submit need module-level callables"
        " (closures cannot cross a spawn boundary)"
    )

    def run(self, context):
        self._scopes: List[_FunctionScope] = [
            _FunctionScope(context.tree, is_function=False)
        ]
        return super().run(context)

    # -- scope tracking --------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._scopes.append(_FunctionScope(node, is_function=True))
        self.generic_visit(node)
        self._scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_process_pool_call(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._scopes[-1].process_pools.add(target.id)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if _is_process_pool_call(item.context_expr) and isinstance(
                item.optional_vars, ast.Name
            ):
                self._scopes[-1].process_pools.add(item.optional_vars.id)
        self.generic_visit(node)

    visit_AsyncWith = visit_With

    # -- the check -------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        callee = node.func
        tail = dotted_name(callee).rsplit(".", maxsplit=1)[-1]
        target = None
        via = None
        if tail == "TaskSpec":
            target = _task_argument(node)
            via = "TaskSpec"
        elif (
            isinstance(callee, ast.Attribute)
            and callee.attr == "submit"
            and isinstance(callee.value, ast.Name)
            and self._is_process_pool(callee.value.id)
        ):
            target = node.args[0] if node.args else None
            via = f"{callee.value.id}.submit"
        if target is not None and via is not None:
            self._check_task(node, target, via)
        self.generic_visit(node)

    def _is_process_pool(self, name: str) -> bool:
        return any(name in scope.process_pools for scope in self._scopes)

    def _check_task(
        self, node: ast.Call, target: ast.AST, via: str
    ) -> None:
        if isinstance(target, ast.Lambda):
            self.report(
                target,
                f"lambda handed to {via} cannot be pickled for a"
                " spawned worker; use a module-level function",
            )
            return
        if not isinstance(target, ast.Name):
            return
        for scope in self._scopes:
            if not scope.is_function:
                continue
            if target.id in scope.nested_defs:
                self.report(
                    node,
                    f"nested function {target.id!r} handed to {via}"
                    " cannot be pickled for a spawned worker; move it"
                    " to module level",
                )
                return
            if target.id in scope.lambda_names:
                self.report(
                    node,
                    f"{target.id!r} is bound to a lambda; {via} needs"
                    " a module-level function to survive pickling",
                )
                return


def _task_argument(call: ast.Call):
    """The callable slot of a ``TaskSpec(fn, args...)`` construction."""
    if call.args:
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg == "fn":
            return keyword.value
    return None


def _is_process_pool_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    tail = dotted_name(node.func).rsplit(".", maxsplit=1)[-1]
    return tail == "ProcessPoolExecutor"
