"""Whole-program analysis layer for adalint.

``summary`` extracts per-module facts from ``ast`` (the target modules
are never imported); ``project`` links them into a
:class:`ProjectGraph` with cross-module call resolution and a
transitive effect fixed point. ADA009 reads the effects.
"""

from repro.lint.graph.project import ProjectGraph
from repro.lint.graph.summary import (
    CallSite,
    ClassInfo,
    Effect,
    FunctionInfo,
    ModuleSummary,
    extract_summary,
    module_name_for,
)

__all__ = [
    "CallSite",
    "ClassInfo",
    "Effect",
    "FunctionInfo",
    "ModuleSummary",
    "ProjectGraph",
    "extract_summary",
    "module_name_for",
]
