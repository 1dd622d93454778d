"""Whole-program analysis layer for adalint.

``summary`` extracts per-module facts from ``ast`` (the target modules
are never imported); ``project`` links them into a
:class:`ProjectGraph` with cross-module call resolution, a transitive
effect fixed point and the project-wide lock-order graph. ADA009 reads
the effects; ADA015 and ADA016 read the lock model.
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
