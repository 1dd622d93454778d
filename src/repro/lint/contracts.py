"""Engine contracts the schema rules cross-check against, derived
statically.

ADA007 needs the operator set :mod:`repro.kdb.documentstore` actually
implements; ADA008 needs the field sets of the current
``ada-health/run-manifest`` schema from :mod:`repro.obs.manifest`.
Rather than freezing copies that drift, both are extracted from the
real modules' *source* (located via :func:`importlib.util.find_spec`,
parsed with :mod:`ast` — nothing is executed). Baked-in fallbacks keep
the linter usable if the modules cannot be located.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import FrozenSet, Optional

_OPERATOR = re.compile(r"\$\w+\Z")

#: Modules whose source defines the store's operator surface.
_DOCSTORE_MODULES = ("repro.kdb.documentstore",)

#: The operator set of the current document store, used only as a
#: fallback (a test pins it to the set derived from source).
_DOCSTORE_FALLBACK = frozenset(
    {"$set", "$group", "$sort", "$count", "$avg", "$max"}
)


def _module_tree(module: str) -> Optional[ast.AST]:
    """Parse a module's source without importing it (None if missing)."""
    try:
        spec = importlib.util.find_spec(module)
    except (ImportError, ValueError):
        return None
    if spec is None or not spec.origin or not os.path.isfile(spec.origin):
        return None
    try:
        with open(spec.origin, encoding="utf-8") as handle:
            return ast.parse(handle.read())
    except (OSError, SyntaxError):
        return None


@lru_cache(maxsize=1)
def docstore_operators() -> FrozenSet[str]:
    """Every ``$operator`` the document store implements.

    Extraction rule: any string constant in the store's implementing
    modules (:data:`_DOCSTORE_MODULES`) that is exactly a ``$word``
    token. The ``$set`` update, the aggregation stages and the
    accumulators all surface their operators as such constants, so the
    set tracks the implementation for free.
    """
    found = set()
    for module in _DOCSTORE_MODULES:
        tree = _module_tree(module)
        if tree is None:
            continue
        found.update(
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _OPERATOR.match(node.value)
        )
    return frozenset(found) if found else _DOCSTORE_FALLBACK


@dataclass(frozen=True)
class ManifestSchema:
    """Field sets of the ``ada-health/run-manifest`` schema."""

    schema_tag: str = "ada-health/run-manifest/v2"
    top_fields: FrozenSet[str] = field(default_factory=frozenset)
    goal_fields: FrozenSet[str] = field(default_factory=frozenset)
    assessed_fields: FrozenSet[str] = field(default_factory=frozenset)
    dataset_fields: FrozenSet[str] = field(default_factory=frozenset)
    cache_fields: FrozenSet[str] = field(default_factory=frozenset)
    executor_fields: FrozenSet[str] = field(default_factory=frozenset)
    resilience_fields: FrozenSet[str] = field(default_factory=frozenset)

    def fields_for_attr(self, attr: str) -> Optional[FrozenSet[str]]:
        """Known sub-document field set for a builder attribute."""
        return {
            "dataset": self.dataset_fields,
            "cache": self.cache_fields,
            "executor": self.executor_fields,
            "resilience": self.resilience_fields,
        }.get(attr)


_MANIFEST_FALLBACK = ManifestSchema(
    top_fields=frozenset(
        {
            "schema", "status", "dataset", "user", "seed", "started_at",
            "finished_at", "wall_s", "goals_assessed", "goals", "cache",
            "executor", "metrics", "n_items", "resilience", "error",
        }
    ),
    goal_fields=frozenset(
        {
            "name", "status", "wall_s", "n_items", "cached",
            "algorithms", "params", "error",
        }
    ),
    assessed_fields=frozenset({"name", "viable", "reason"}),
    dataset_fields=frozenset({"id", "name", "fingerprint"}),
    cache_fields=frozenset({"enabled", "hits", "misses", "stores"}),
    executor_fields=frozenset({"backend", "workers", "task_failures"}),
    resilience_fields=frozenset(
        {
            "retries", "timeouts", "worker_crashes", "fallbacks",
            "faults_injected", "breaker", "degraded_goals",
        }
    ),
)


def _dict_keys(node: ast.AST) -> FrozenSet[str]:
    """String keys of every dict literal under ``node``."""
    keys = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Dict):
            for key in sub.keys:
                if isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                ):
                    keys.add(key.value)
    return frozenset(keys)


@lru_cache(maxsize=1)
def manifest_schema() -> ManifestSchema:
    """The run-manifest schema, read out of ``repro/obs/manifest.py``.

    ``MANIFEST_FIELDS`` and ``MANIFEST_SCHEMA`` give the top level;
    the builder methods' dict literals give each record type:
    ``add_goal`` the goal records, ``assess_goal`` the assessments,
    ``record_cache``/``record_executor`` and the ``__init__`` defaults
    the sub-documents, ``_document`` any extra top-level keys (the
    ``error`` slot lives only there).
    """
    tree = _module_tree("repro.obs.manifest")
    if tree is None:
        return _MANIFEST_FALLBACK

    schema_tag = _MANIFEST_FALLBACK.schema_tag
    top, goal, assessed = set(), set(), set()
    subs = {
        "dataset": set(),
        "cache": set(),
        "executor": set(),
        "resilience": set(),
    }
    for node in getattr(tree, "body", []):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if not isinstance(target, ast.Name):
                    continue
                if target.id == "MANIFEST_FIELDS" and isinstance(
                    node.value, (ast.Tuple, ast.List)
                ):
                    top.update(
                        element.value
                        for element in node.value.elts
                        if isinstance(element, ast.Constant)
                        and isinstance(element.value, str)
                    )
                elif target.id == "MANIFEST_SCHEMA" and isinstance(
                    node.value, ast.Constant
                ):
                    schema_tag = str(node.value.value)
        elif (
            isinstance(node, ast.ClassDef)
            and node.name == "RunManifestBuilder"
        ):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                keys = _dict_keys(item)
                if item.name == "add_goal":
                    goal.update(keys)
                elif item.name == "assess_goal":
                    assessed.update(keys)
                elif item.name == "record_cache":
                    subs["cache"].update(keys)
                elif item.name == "record_executor":
                    subs["executor"].update(keys)
                elif item.name == "record_resilience":
                    subs["resilience"].update(keys)
                elif item.name == "_document":
                    top.update(keys)
                elif item.name == "__init__":
                    for statement in item.body:
                        if not isinstance(statement, ast.Assign):
                            continue
                        for target in statement.targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and target.attr in subs
                            ):
                                subs[target.attr].update(
                                    _dict_keys(statement.value)
                                )
    if not top:
        return _MANIFEST_FALLBACK
    top.add("error")  # fail() stores the error string at top level
    return ManifestSchema(
        schema_tag=schema_tag,
        top_fields=frozenset(top),
        goal_fields=goal and frozenset(goal)
        or _MANIFEST_FALLBACK.goal_fields,
        assessed_fields=assessed and frozenset(assessed)
        or _MANIFEST_FALLBACK.assessed_fields,
        dataset_fields=subs["dataset"]
        and frozenset(subs["dataset"])
        or _MANIFEST_FALLBACK.dataset_fields,
        cache_fields=subs["cache"]
        and frozenset(subs["cache"])
        or _MANIFEST_FALLBACK.cache_fields,
        executor_fields=subs["executor"]
        and frozenset(subs["executor"])
        or _MANIFEST_FALLBACK.executor_fields,
        resilience_fields=subs["resilience"]
        and frozenset(subs["resilience"])
        or _MANIFEST_FALLBACK.resilience_fields,
    )


#: Constructors whose result carries a release obligation, mapped to
#: the method set that discharges it. ADA017 matches the constructor by
#: dotted-chain *tail* (``shared_memory.SharedMemory`` and
#: ``SharedMemory`` both hit the ``SharedMemory`` entry; classmethod
#: factories are listed as ``Class.method``). The set means "calling
#: any one of these releases the resource": a ``SharedMemory`` mapping
#: is only released by ``close()`` — ``unlink()`` destroys the segment
#: but leaks the caller's own mapping, which is exactly the bug class
#: the rule exists for.
_RESOURCE_FALLBACK = {
    "SharedMemory": frozenset({"close"}),
    "SharedMatrix.create": frozenset({"close", "unlink"}),
    "SharedMatrix.attach": frozenset({"close"}),
    "ThreadPoolExecutor": frozenset({"shutdown"}),
    "ProcessPoolExecutor": frozenset({"shutdown"}),
    "ShardedDocumentStore": frozenset({"close"}),
    "TemporaryDirectory": frozenset({"cleanup"}),
}


@lru_cache(maxsize=1)
def resource_protocols() -> "dict[str, FrozenSet[str]]":
    """Release protocols for ADA017, keyed by constructor tail.

    The baked table is the contract; the source scan only *extends* it:
    any class in :mod:`repro.data.blocks` or :mod:`repro.cloud.executor`
    defining both ``__enter__`` and a ``close``/``shutdown`` method is
    added with that method as its protocol, so new pooled/mapped
    resources are covered without editing the linter.
    """
    protocols = dict(_RESOURCE_FALLBACK)
    for module in ("repro.data.blocks", "repro.cloud.executor"):
        tree = _module_tree(module)
        if tree is None:
            continue
        for node in getattr(tree, "body", []):
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


# ----------------------------------------------------------------------
# The versioned-schema contract registry (ADA021)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SchemaContract:
    """One producer/consumer pair of a versioned JSON record.

    The *producer* is the function (or method) whose dict literals
    build the record; the *consumer* is the tuple constant naming the
    fields the reading side understands (a ``validate_*`` companion or
    replay loop enforces it at runtime). ADA021 extracts both sides
    from source and reports producer keys the consumer does not
    declare — the "added a field without bumping the schema" drift
    ADA007/ADA008 only caught for two hand-picked schemas.
    """

    name: str  #: short label, e.g. ``"analysis-cache-entry"``
    schema_tag: str  #: ``"schema"`` stamp value; "" for untagged records
    producer_module: str
    producer_scope: str  #: ``fn`` or ``Class.method`` in that module
    consumer_module: str
    consumer_constant: str  #: ``*_FIELDS`` tuple naming the contract
    fields: FrozenSet[str]  #: resolved consumer field set
    #: Keys the producer may emit beyond the per-record contract —
    #: sub-document keys of nested literals inside the same scope.
    nested: FrozenSet[str] = frozenset()


def _tuple_constant(module: str, name: str) -> FrozenSet[str]:
    """String elements of ``NAME = (...)`` in a module (may be empty)."""
    tree = _module_tree(module)
    if tree is None:
        return frozenset()
    for node in getattr(tree, "body", []):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Name)
                and target.id == name
                and isinstance(node.value, (ast.Tuple, ast.List))
            ):
                return frozenset(
                    element.value
                    for element in node.value.elts
                    if isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                )
    return frozenset()


def _fields_or(module: str, name: str, fallback) -> FrozenSet[str]:
    extracted = _tuple_constant(module, name)
    return extracted if extracted else frozenset(fallback)


#: SARIF 2.1.0 vocabulary the fixed mapping in ``sarif_document`` may
#: emit (top level plus the nested objects it builds). SARIF is an
#: external standard, so the consumer side is this pin, not a
#: ``validate_*`` in the tree.
_SARIF_FIELDS = frozenset(
    {
        "$schema", "version", "runs", "tool", "driver", "results",
        "name", "rules", "id", "shortDescription", "text",
        "defaultConfiguration", "level", "ruleId", "message",
        "locations", "physicalLocation", "artifactLocation", "uri",
        "region", "startLine", "startColumn", "partialFingerprints",
    }
)


@lru_cache(maxsize=1)
def schema_contracts() -> "tuple[SchemaContract, ...]":
    """Every versioned JSON producer/consumer pair in the tree.

    Consumer field sets are extracted from the named ``*_FIELDS``
    constants in the consumer modules (baked fallbacks keep the rule
    usable outside a checkout); producer key sets are read from the
    producing scope's dict literals at lint time, so the check always
    judges the source being linted.
    """
    findings_fields = _fields_or(
        "repro.lint.findings",
        "FINDINGS_FIELDS",
        {"schema", "files_checked", "counts", "findings",
         "rule_stats"},
    )
    cache_fields = _fields_or(
        "repro.core.cache",
        "CACHE_ENTRY_FIELDS",
        {"key", "dataset", "algorithm", "params", "payload", "crc"},
    )
    log_fields = _fields_or(
        "repro.kdb.shards",
        "LOG_RECORD_FIELDS",
        {"op", "doc", "id"},
    )
    manifest = manifest_schema()
    return (
        SchemaContract(
            name="lint-findings",
            schema_tag="adalint/findings/v1",
            producer_module="repro.lint.findings",
            producer_scope="report_document",
            consumer_module="repro.lint.findings",
            consumer_constant="FINDINGS_FIELDS",
            fields=findings_fields,
        ),
        SchemaContract(
            name="lint-sarif",
            schema_tag="",  # stamps "$schema", not "schema"
            producer_module="repro.lint.findings",
            producer_scope="sarif_document",
            consumer_module="repro.lint.contracts",
            consumer_constant="_SARIF_FIELDS",
            fields=_SARIF_FIELDS,
        ),
        SchemaContract(
            name="analysis-cache-entry",
            schema_tag="",
            producer_module="repro.core.cache",
            producer_scope="AnalysisCache.put",
            consumer_module="repro.core.cache",
            consumer_constant="CACHE_ENTRY_FIELDS",
            fields=cache_fields,
        ),
        SchemaContract(
            name="shard-log-record",
            schema_tag="",
            producer_module="repro.kdb.shards",
            producer_scope="ShardedDocumentStore._on_mutation",
            consumer_module="repro.kdb.shards",
            consumer_constant="LOG_RECORD_FIELDS",
            fields=log_fields,
        ),
        SchemaContract(
            name="run-manifest",
            schema_tag=manifest.schema_tag,
            producer_module="repro.obs.manifest",
            producer_scope="RunManifestBuilder._document",
            consumer_module="repro.obs.manifest",
            consumer_constant="MANIFEST_FIELDS",
            fields=manifest.top_fields,
            # resilience["degraded_goals"] is a sub-document write
            nested=frozenset({"degraded_goals"}),
        ),
    )


def contract_for_tag(tag: str) -> Optional[SchemaContract]:
    """The registered contract stamping ``tag``, if any."""
    for contract in schema_contracts():
        if contract.schema_tag and contract.schema_tag == tag:
            return contract
    return None
