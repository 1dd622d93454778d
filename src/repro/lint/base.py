"""The rule plugin API: :class:`Rule`, :class:`RuleContext`, registry.

A rule is an :class:`ast.NodeVisitor` with an ``ADAnnn`` id, a severity
and an optional default path scope. Subclasses implement ordinary
``visit_*`` methods and call :meth:`Rule.report` on violations; the
runner handles file discovery, config scoping and suppression pragmas.

Registering is one decorator::

    @register
    class NoSpooky(Rule):
        rule_id = "ADA099"
        name = "no-spooky-action"
        description = "forbid spooky action at a distance"

        def visit_Call(self, node):
            ...
            self.generic_visit(node)
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.lint.findings import SEVERITIES, Finding


@dataclass
class RuleContext:
    """Everything a rule may inspect about the file being linted."""

    path: str  #: path as reported in findings
    relpath: str  #: project-root-relative POSIX path (used for scoping)
    source: str
    tree: ast.AST
    lines: List[str] = field(default_factory=list)
    #: Whole-program view (:class:`repro.lint.graph.ProjectGraph`) when
    #: the runner built one; inter-procedural rules fall back to a
    #: single-file graph when absent (the unit-test path).
    project: Optional[Any] = None
    #: Dotted module name of this file within the project graph.
    module: str = ""


class Rule(ast.NodeVisitor):
    """Base class for adalint rules.

    Class attributes
    ----------------
    rule_id:
        Stable ``ADAnnn`` identifier used in output and pragmas.
    name:
        Short kebab-case label for ``--list-rules``.
    severity:
        ``"error"`` or ``"warning"``.
    description:
        One-line summary of the contract the rule enforces.
    default_paths:
        Path prefixes/globs (project-root relative) the rule applies to
        by default; empty means every linted file. Overridable per
        project via ``[tool.adalint.paths]``.
    """

    rule_id: str = "ADA000"
    name: str = "unnamed-rule"
    severity: str = "error"
    description: str = ""
    default_paths: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.findings: List[Finding] = []
        self.context: Optional[RuleContext] = None

    # -- runner interface ------------------------------------------------
    def run(self, context: RuleContext) -> List[Finding]:
        """Visit one parsed file; returns this rule's findings."""
        self.findings = []
        self.context = context
        self.visit(context.tree)
        return self.findings

    def report(
        self,
        node: ast.AST,
        message: str,
        severity: Optional[str] = None,
    ) -> None:
        """Record a violation anchored at ``node``."""
        assert self.context is not None
        self.findings.append(
            Finding(
                path=self.context.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule_id=self.rule_id,
                message=message,
                severity=severity or self.severity,
            )
        )


def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain ('' for anything else)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif parts:  # chain rooted in a call/subscript: keep the tail only
        pass
    else:
        return ""
    return ".".join(reversed(parts))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    rule_id = rule_class.rule_id
    if not rule_id or rule_id == Rule.rule_id:
        raise ValueError(f"{rule_class.__name__} needs a unique rule_id")
    if rule_class.severity not in SEVERITIES:
        raise ValueError(
            f"{rule_class.__name__}: unknown severity"
            f" {rule_class.severity!r}"
        )
    existing = _REGISTRY.get(rule_id)
    if existing is not None and existing is not rule_class:
        raise ValueError(f"duplicate rule id {rule_id}")
    _REGISTRY[rule_id] = rule_class
    return rule_class


def all_rules() -> List[Type[Rule]]:
    """Every registered rule class, ordered by id."""
    # Importing the bundled rule modules registers them on first use.
    from repro.lint import (  # noqa: F401 - imported for side effect
        rules_concurrency,
        rules_dataflow,
        rules_determinism,
        rules_parallelism,
        rules_robustness,
    )

    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Type[Rule]:
    """Look one rule up by id (raises ``KeyError`` on unknown ids)."""
    all_rules()
    return _REGISTRY[rule_id]
