"""adalint: AST-based invariant checks for the ADA-HEALTH engine.

The engine's correctness rests on contracts a unit test sees only when
they break under load: goal pipelines must be picklable and
effect-free to fan out through process pools, miners must draw
randomness only from seeded generators, pooled and mapped resources
must be released on every path, and every K-DB write must pass
through the storage layer the crash sweep injects faults into. This package checks them
statically with :mod:`ast`, no dependencies:

========  =============================================================
ADA001    mining/core randomness only via ``np.random.default_rng(seed)``
ADA002    no wall-clock reads in mining or cache-key paths
ADA003    no lambdas/closures handed to ``TaskSpec`` / process pools
ADA009    tasks handed to workers are transitively effect-free
ADA012    suppression pragmas and config ids name known, used rules
ADA014    ndarrays travel to workers by shared-memory lease, not pickle
ADA017    resources with a release protocol are released on all paths
ADA023    K-DB writes go through ``repro.kdb.storage``
========  =============================================================

Run it with ``python -m repro.lint [paths]`` (or ``repro lint``); it
exits nonzero on findings so it can gate commits. Suppress with
``# adalint: disable=ADA001`` (line) or
``# adalint: disable-file=ADA001`` (file), and scope rules per path
via ``[tool.adalint]`` in pyproject.toml. Writing a new rule is a
:class:`~repro.lint.base.Rule` subclass plus ``@register``.
"""

from repro.lint.base import (
    Rule,
    RuleContext,
    all_rules,
    get_rule,
    register,
)
from repro.lint.config import LintConfig, load_config, path_matches
from repro.lint.findings import FINDINGS_SCHEMA, Finding, report_document
from repro.lint.runner import (
    LintReport,
    find_project_root,
    lint_paths,
    lint_source,
)

__all__ = [
    "FINDINGS_SCHEMA",
    "Finding",
    "LintConfig",
    "LintReport",
    "Rule",
    "RuleContext",
    "all_rules",
    "find_project_root",
    "get_rule",
    "lint_paths",
    "lint_source",
    "load_config",
    "path_matches",
    "register",
    "report_document",
]
