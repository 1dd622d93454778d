"""Schema rules: docstore operators (ADA007), manifest keys (ADA008),
versioned-schema drift (ADA021).

The rules cross-check string literals in the code being linted against
contracts extracted from the implementing modules (see
:mod:`repro.lint.contracts`), so a query operator the store never
implemented — or a manifest key the schema doesn't know — fails at
lint time instead of silently matching nothing at runtime.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Optional, Set

from repro.lint.base import Rule, dotted_name, register
from repro.lint.contracts import (
    ManifestSchema,
    contract_for_tag,
    docstore_operators,
    manifest_schema,
    schema_contracts,
)


@register
class DocstoreOperatorSet(Rule):
    """ADA007: ``$``-operator keys in query/update/aggregation documents
    must be operators the document store implements.

    A typo like ``{"age": {"$gth": 30}}`` raises ``QueryError`` only
    when that query finally runs; this rule catches it statically.
    """

    rule_id = "ADA007"
    name = "docstore-operator-set"
    description = (
        "query documents may only use operators documentstore"
        " implements"
    )

    def run(self, context):
        self._operators = docstore_operators()
        return super().run(context)

    def visit_Dict(self, node: ast.Dict) -> None:
        for key in node.keys:
            if (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and key.value.startswith("$")
                and key.value not in self._operators
            ):
                self.report(
                    key,
                    f"unknown docstore operator {key.value!r}; the"
                    " store implements: "
                    + ", ".join(sorted(self._operators)),
                )
        self.generic_visit(node)


@register
class ManifestSchemaKeys(Rule):
    """ADA008: string-literal keys on run-manifest documents must exist
    in the current ``ada-health/run-manifest`` schema.

    Tracks, per function: parameters/variables named ``manifest``,
    results of ``.finish()``/``.fail()``/``validate_manifest()``, and
    loop variables over ``run_history()`` (manifest documents) or over
    a manifest's ``goals`` list (goal records). Subscripts and
    ``.get()`` reads with literal keys on those variables — and dict
    literals that stamp the manifest ``schema`` tag — are checked
    against the field sets extracted from ``repro/obs/manifest.py``.
    """

    rule_id = "ADA008"
    name = "manifest-schema-keys"
    description = (
        "manifest keys must exist in the current ada-health/run-manifest"
        " schema"
    )

    def run(self, context):
        self._schema: ManifestSchema = manifest_schema()
        return super().run(context)

    # -- module / function dispatch --------------------------------------
    def visit_Module(self, node: ast.Module) -> None:
        self._check_scope(node, params_are_manifests=False)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_scope(
            node,
            params_are_manifests="manifest" in node.name.lower(),
        )

    visit_AsyncFunctionDef = visit_FunctionDef

    def _check_scope(self, scope: ast.AST, params_are_manifests: bool):
        """Two flow-insensitive passes over one def (or the module)."""
        manifests, goals = self._collect_vars(
            scope, params_are_manifests
        )
        for node in _scope_nodes(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.visit_FunctionDef(node)
                continue
            self._check_node(node, manifests, goals)

    # -- pass 1: which names hold manifest/goal documents ---------------
    def _collect_vars(self, scope, params_are_manifests: bool):
        manifests: Set[str] = set()
        goals: Set[str] = set()
        if params_are_manifests and isinstance(
            scope, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            for argument in scope.args.args:
                if argument.arg in ("manifest", "document"):
                    manifests.add(argument.arg)
        if _names_in(scope, "manifest"):
            manifests.add("manifest")
        loops = []
        for node in _scope_nodes(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Assign):
                if _is_manifest_producer(node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            manifests.add(target.id)
            elif isinstance(node, (ast.For, ast.AsyncFor)) and isinstance(
                node.target, ast.Name
            ):
                loops.append(node)
        # Outer loops bind before the loops nested inside them.
        for node in sorted(loops, key=lambda n: n.lineno):
            if _is_run_history_call(node.iter):
                manifests.add(node.target.id)
            elif (
                _literal_key(node.iter) == "goals"
                and _base_name(node.iter) in manifests
            ):
                goals.add(node.target.id)
        return manifests, goals

    # -- pass 2: check literal keys --------------------------------------
    def _check_node(
        self, node: ast.AST, manifests: Set[str], goals: Set[str]
    ) -> None:
        if isinstance(node, ast.Dict):
            self._check_manifest_literal(node)
            return
        key = _literal_key(node)
        if key is None:
            return
        base = node.value if isinstance(node, ast.Subscript) else (
            node.func.value  # .get(...) call
        )
        if isinstance(base, ast.Name):
            if base.id in manifests:
                self._require(node, key, self._schema.top_fields, "run")
            elif base.id in goals:
                self._require(
                    node, key, self._schema.goal_fields, "goal record"
                )
        elif isinstance(base, ast.Attribute) and isinstance(
            base.value, ast.Name
        ) and base.value.id in manifests:
            fields = self._schema.fields_for_attr(base.attr)
            if fields is not None:
                self._require(
                    node, key, fields, f"manifest {base.attr} record"
                )

    def _check_manifest_literal(self, node: ast.Dict) -> None:
        """A dict literal stamping the schema tag IS a manifest."""
        if not self._stamps_schema(node):
            return
        for key in node.keys:
            if isinstance(key, ast.Constant) and isinstance(
                key.value, str
            ):
                self._require(
                    key, key.value, self._schema.top_fields, "manifest"
                )

    def _stamps_schema(self, node: ast.Dict) -> bool:
        for key, value in zip(node.keys, node.values):
            if not (
                isinstance(key, ast.Constant) and key.value == "schema"
            ):
                continue
            if isinstance(value, ast.Constant):
                return value.value == self._schema.schema_tag
            return dotted_name(value).endswith("MANIFEST_SCHEMA")
        return False

    def _require(
        self,
        node: ast.AST,
        key: str,
        fields: FrozenSet[str],
        kind: str,
    ) -> None:
        if key not in fields:
            self.report(
                node,
                f"key {key!r} does not exist in the {kind} schema"
                f" ({self._schema.schema_tag}); known fields: "
                + ", ".join(sorted(fields)),
            )


# ----------------------------------------------------------------------
# ADA021 — versioned JSON schemas must not drift from their contracts
# ----------------------------------------------------------------------
@register
class SchemaDrift(Rule):
    """ADA021: every versioned JSON producer must match its consumer.

    The contract registry
    (:func:`repro.lint.contracts.schema_contracts`) pairs each
    versioned record — findings documents, SARIF logs,
    analysis-cache entries, shard log records, run manifests — with the ``*_FIELDS`` constant its consumer
    validates against. Producing a key the consumer does not declare
    is drift: bump the schema tag or update the consumer contract
    (and its ``validate_*``) in the same change. Literals elsewhere
    that stamp a registered schema tag are checked against the same
    field set (the generalisation of ADA008's manifest check).
    """

    rule_id = "ADA021"
    name = "schema-drift"
    severity = "error"
    description = (
        "versioned JSON producers must only emit fields their"
        " registered consumer contract declares (registry:"
        " repro.lint.contracts.schema_contracts)"
    )

    def run(self, context: RuleContext):
        self.findings = []
        self.context = context
        self._producer_modules = {
            contract.producer_module for contract in schema_contracts()
        }
        for contract in schema_contracts():
            if contract.producer_module == context.module:
                self._check_producer(context, contract)
        self.visit(context.tree)
        return self.findings

    def _check_producer(self, context, contract) -> None:
        scope = self._scope_node(context.tree, contract.producer_scope)
        if scope is None:
            return
        allowed = contract.fields | contract.nested
        for key, node in self._produced_keys(scope):
            if key not in allowed:
                self.report(
                    node,
                    f"field {key!r} produced for"
                    f" {contract.name} is not declared by"
                    f" {contract.consumer_module}."
                    f"{contract.consumer_constant}; bump the schema"
                    " tag or update the consumer contract",
                )

    @staticmethod
    def _scope_node(tree: ast.AST, scope: str) -> Optional[ast.AST]:
        """Find ``fn`` or ``Class.method`` in a module tree."""
        parts = scope.split(".")
        body = getattr(tree, "body", [])
        for part in parts:
            found = None
            for node in body:
                if (
                    isinstance(
                        node,
                        (
                            ast.FunctionDef,
                            ast.AsyncFunctionDef,
                            ast.ClassDef,
                        ),
                    )
                    and node.name == part
                ):
                    found = node
                    break
            if found is None:
                return None
            body = found.body
        return found

    @staticmethod
    def _produced_keys(scope: ast.AST):
        """(key, node) for every produced string key in a scope:
        dict-literal keys plus subscript-assignment targets."""
        for node in ast.walk(scope):
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    if isinstance(key, ast.Constant) and isinstance(
                        key.value, str
                    ):
                        yield key.value, key
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)
                    ):
                        yield target.slice.value, target

    # -- tag-stamped literals anywhere ---------------------------------
    def visit_Dict(self, node: ast.Dict) -> None:
        tag = None
        for key, value in zip(node.keys, node.values):
            if (
                isinstance(key, ast.Constant)
                and key.value == "schema"
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                tag = value.value
        contract = contract_for_tag(tag) if tag else None
        if (
            contract is not None
            # ADA008 owns the manifest literal check; the producer
            # modules are already covered by the registry pass above.
            and contract.name != "run-manifest"
            and self.context is not None
            and self.context.module != contract.producer_module
        ):
            allowed = (
                contract.fields | contract.nested | {"schema"}
            )
            for key in node.keys:
                if (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and key.value not in allowed
                ):
                    self.report(
                        key,
                        f"unknown field {key.value!r} in a literal"
                        f" stamped {contract.schema_tag!r}; the"
                        f" {contract.name} contract declares"
                        f" {contract.consumer_module}."
                        f"{contract.consumer_constant}",
                    )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# Small AST predicates
# ----------------------------------------------------------------------
def _scope_nodes(scope: ast.AST):
    """Direct contents of a def/module, not descending into nested
    defs (those are handled as their own scopes)."""
    body = getattr(scope, "body", [])
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _literal_key(node: ast.AST) -> Optional[str]:
    """The string key of ``x["key"]`` or ``x.get("key", ...)``."""
    if isinstance(node, ast.Subscript):
        slice_node = node.slice
        if isinstance(slice_node, ast.Constant) and isinstance(
            slice_node.value, str
        ):
            return slice_node.value
        return None
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    ):
        return node.args[0].value
    return None


def _base_name(node: ast.AST) -> str:
    if isinstance(node, ast.Subscript):
        base = node.value
    elif isinstance(node, ast.Call) and isinstance(
        node.func, ast.Attribute
    ):
        base = node.func.value
    else:
        return ""
    return base.id if isinstance(base, ast.Name) else ""


def _is_manifest_producer(node: ast.AST) -> bool:
    """finish()/fail() on a manifest, or validate_manifest(...)."""
    if not isinstance(node, ast.Call):
        return False
    callee = node.func
    if isinstance(callee, ast.Name):
        return callee.id == "validate_manifest"
    if isinstance(callee, ast.Attribute):
        if callee.attr == "validate_manifest":
            return True
        if callee.attr in ("finish", "fail") and isinstance(
            callee.value, ast.Name
        ):
            return "manifest" in callee.value.id.lower()
    return False


def _is_run_history_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "run_history"
    )


def _names_in(scope: ast.AST, name: str) -> bool:
    """Is a plain Name with this id used anywhere in the scope?"""
    return any(
        isinstance(node, ast.Name) and node.id == name
        for node in _scope_nodes(scope)
    )
