"""The lint runner: discovery, project graph, rule dispatch.

Suppression syntax
------------------
``# adalint: disable=ADA001,ADA002`` on a code line suppresses those
rules for findings reported *on that line*;
``# adalint: disable-file=ADA023`` anywhere in a file suppresses the
rule for the whole file. ``all`` suppresses every rule.

Pragmas are accounted for: one that names an unknown rule id, or that
suppressed no finding in the run (for a rule that actually ran on the
file), is itself reported as an ADA012 warning. Accounting is
single-pass — a pragma counts as used only against findings from the
same run.

Every run is cold: each file is parsed once, summarised into the
project graph, then linted against it. Findings are sorted, so the
report does not depend on discovery order.
"""

from __future__ import annotations

import ast
import io
import re
import time
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.base import Rule, RuleContext, all_rules, get_rule
from repro.lint.config import LintConfig, load_config
from repro.lint.findings import Finding, report_document
from repro.lint.graph import (
    ModuleSummary,
    ProjectGraph,
    extract_summary,
    module_name_for,
)

_PRAGMA = re.compile(
    r"#\s*adalint:\s*(disable(?:-file)?)\s*=\s*([A-Za-z0-9_,\s]+)"
)

#: Rule id reported for files that fail to parse.
PARSE_ERROR_ID = "ADA000"

#: Version of the rule set, reported as the SARIF tool version; bump
#: it when a rule is added, removed or changes what it reports.
RULESET_VERSION = "adalint/9"

#: Id under which pragma/config hygiene findings are reported.
_SUPPRESSION_RULE_ID = "ADA012"


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: Per-rule profiling over the files linted this run:
    #: ``rule id -> {"wall_s": float, "findings": int}``.
    rule_stats: Dict[str, Dict] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    def format_human(self) -> str:
        lines = [
            finding.format()
            for finding in sorted(self.findings, key=Finding.sort_key)
        ]
        noun = "finding" if len(self.findings) == 1 else "findings"
        lines.append(
            f"{self.files_checked} files checked,"
            f" {len(self.findings)} {noun}"
        )
        return "\n".join(lines)

    def format_stats(self) -> str:
        lines = [f"{self.files_checked} files checked"]
        by_cost = sorted(
            self.rule_stats.items(),
            key=lambda item: (-item[1]["wall_s"], item[0]),
        )
        for rule_id, stats in by_cost:
            noun = (
                "finding" if stats["findings"] == 1 else "findings"
            )
            lines.append(
                f"  {rule_id}: {stats['wall_s'] * 1000:.1f} ms,"
                f" {stats['findings']} {noun}"
            )
        return "\n".join(lines)

    def to_document(self) -> Dict:
        return report_document(
            self.findings, self.files_checked, self.rule_stats
        )


# ----------------------------------------------------------------------
# Suppression pragmas
# ----------------------------------------------------------------------
@dataclass
class _PragmaEntry:
    """One rule id named by one pragma occurrence."""

    pragma_line: int  #: line the pragma comment sits on
    scope_line: Optional[int]  #: line it guards; None = whole file
    rule_id: str
    used: bool = False


@dataclass
class _Suppressions:
    entries: List[_PragmaEntry] = field(default_factory=list)

    def match(self, finding: Finding) -> bool:
        """True if any pragma suppresses ``finding`` (marks it used)."""
        hit = False
        for entry in self.entries:
            if entry.rule_id not in ("all", finding.rule_id):
                continue
            if entry.scope_line is None or (
                entry.scope_line == finding.line
            ):
                entry.used = True
                hit = True
        return hit


def scan_comments(source: str) -> Dict[int, str]:
    """``lineno -> comment text`` for every comment token."""
    comments: Dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # adalint findings will come from ast.parse instead
    return comments


def parse_suppressions(comments: Dict[int, str]) -> _Suppressions:
    suppressions = _Suppressions()
    for lineno in sorted(comments):
        for match in _PRAGMA.finditer(comments[lineno]):
            scope = (
                None if match.group(1) == "disable-file" else lineno
            )
            for rule_id in match.group(2).split(","):
                rule_id = rule_id.strip()
                if rule_id:
                    suppressions.entries.append(
                        _PragmaEntry(
                            pragma_line=lineno,
                            scope_line=scope,
                            rule_id=rule_id,
                        )
                    )
    return suppressions


def _known_rule_ids() -> Set[str]:
    return {rule_class.rule_id for rule_class in all_rules()} | {
        PARSE_ERROR_ID
    }


def _pragma_findings(
    suppressions: _Suppressions,
    ran_ids: Set[str],
    path: str,
) -> List[Finding]:
    """ADA012 warnings for unknown / unused pragma ids.

    Unused is only decided for rules that actually ran on the file
    (plus ``all`` and the parse sentinel): a pragma for a rule the
    config scopes elsewhere is dormant, not dead.
    """
    known = _known_rule_ids()
    findings: List[Finding] = []
    for entry in suppressions.entries:
        if entry.rule_id != "all" and entry.rule_id not in known:
            findings.append(
                Finding(
                    path=path,
                    line=entry.pragma_line,
                    col=1,
                    rule_id=_SUPPRESSION_RULE_ID,
                    message=(
                        f"unknown rule id {entry.rule_id!r} in"
                        " suppression pragma (known ids:"
                        " ADA001..ADA023, ADA000, all)"
                    ),
                    severity="warning",
                )
            )
            continue
        if entry.used:
            continue
        if entry.rule_id != "all" and entry.rule_id not in ran_ids:
            continue  # dormant, not unused: the rule never ran here
        scope = (
            "this file"
            if entry.scope_line is None
            else "this line"
        )
        findings.append(
            Finding(
                path=path,
                line=entry.pragma_line,
                col=1,
                rule_id=_SUPPRESSION_RULE_ID,
                message=(
                    f"unused suppression: {entry.rule_id} matched no"
                    f" finding on {scope}; remove the pragma"
                ),
                severity="warning",
            )
        )
    return findings


def _config_id_findings(
    config: LintConfig, config_path: str
) -> List[Finding]:
    """ADA012 warnings for unknown rule ids in ``[tool.adalint]``."""
    known = _known_rule_ids()
    findings: List[Finding] = []
    slots = [
        ("select", config.select),
        ("ignore", config.ignore),
        ("paths", sorted(config.paths)),
    ]
    for slot, ids in slots:
        for rule_id in ids:
            if rule_id in known:
                continue
            findings.append(
                Finding(
                    path=config_path,
                    line=1,
                    col=1,
                    rule_id=_SUPPRESSION_RULE_ID,
                    message=(
                        f"unknown rule id {rule_id!r} in"
                        f" [tool.adalint] {slot}; it selects nothing"
                    ),
                    severity="warning",
                )
            )
    return findings


# ----------------------------------------------------------------------
# Project layout
# ----------------------------------------------------------------------
def find_project_root(start: Path) -> Path:
    """Nearest ancestor holding a pyproject.toml (else ``start``)."""
    start = start.resolve()
    probe = start if start.is_dir() else start.parent
    for candidate in (probe, *probe.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return probe


def relative_posix(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def iter_python_files(paths: Sequence[Path]) -> Iterable[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def default_src_paths(root: Optional[Path] = None) -> Tuple[Path, ...]:
    """The conventional lint targets: src, benchmarks and examples."""
    root = root or find_project_root(Path.cwd())
    targets = tuple(
        Path(root) / name
        for name in ("src", "benchmarks", "examples")
        if (Path(root) / name).is_dir()
    )
    return targets if targets else (Path(root),)


# ----------------------------------------------------------------------
# Single-file linting
# ----------------------------------------------------------------------
def _lint_file(
    source: str,
    path: str,
    relpath: str,
    rule_classes: Sequence[type],
    project: Optional[ProjectGraph] = None,
    module: str = "",
    emit_unused: bool = False,
    tree: Optional[ast.AST] = None,
    stats: Optional[Dict[str, Dict]] = None,
) -> List[Finding]:
    """Lint one parsed (or parseable) file; returns kept findings.

    With ``stats``, each rule's wall time and raw finding count are
    accumulated into it (profiling; monotonic clock, never persisted
    into artifacts).
    """
    suppressions = parse_suppressions(scan_comments(source))
    if tree is None:
        try:
            tree = ast.parse(source)
        except SyntaxError as error:
            return [
                Finding(
                    path=path,
                    line=error.lineno or 1,
                    col=(error.offset or 1),
                    rule_id=PARSE_ERROR_ID,
                    message=f"syntax error: {error.msg}",
                )
            ]
    context = RuleContext(
        path=path,
        relpath=relpath,
        source=source,
        tree=tree,
        lines=source.splitlines(),
        project=project,
        module=module or module_name_for(relpath),
    )
    raw: List[Finding] = []
    for rule_class in rule_classes:
        rule: Rule = rule_class()
        started = time.perf_counter()
        found = rule.run(context)
        if stats is not None:
            slot = stats.setdefault(
                rule_class.rule_id, {"wall_s": 0.0, "findings": 0}
            )
            slot["wall_s"] += time.perf_counter() - started
            slot["findings"] += len(found)
        raw.extend(found)
    kept = [
        finding for finding in raw if not suppressions.match(finding)
    ]
    if emit_unused:
        ran_ids = {
            rule_class.rule_id for rule_class in rule_classes
        } | {PARSE_ERROR_ID}
        hygiene = _pragma_findings(suppressions, ran_ids, path)
        kept.extend(
            finding
            for finding in hygiene
            if not suppressions.match(finding)
        )
    return kept


def lint_source(
    source: str,
    path: str = "<snippet>",
    relpath: Optional[str] = None,
    rules: Optional[Sequence[type]] = None,
    config: Optional[LintConfig] = None,
) -> List[Finding]:
    """Lint one source string (the unit-test surface).

    With explicit ``rules``, exactly those run (path scoping is
    bypassed — the snippet is judged as if in scope). Otherwise every
    registered rule runs, scoped by ``config`` against ``relpath``.
    Inter-procedural rules see a single-file project graph.
    """
    config = config or LintConfig()
    relpath = relpath if relpath is not None else path
    if rules is None:
        rule_classes = [
            rule_class
            for rule_class in all_rules()
            if config.rule_applies(rule_class, relpath)
        ]
    else:
        rule_classes = [
            rule_class
            for rule_class in rules
            if config.rule_enabled(rule_class.rule_id)
        ]
    emit_unused = any(
        rule_class.rule_id == _SUPPRESSION_RULE_ID
        for rule_class in rule_classes
    )
    return _lint_file(
        source,
        path,
        relpath,
        rule_classes,
        emit_unused=emit_unused,
    )


# ----------------------------------------------------------------------
# Project linting
# ----------------------------------------------------------------------
def lint_paths(
    paths: Sequence,
    config: Optional[LintConfig] = None,
    root: Optional[Path] = None,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> LintReport:
    """Lint files/directories; the CLI and tier-1 gate call this.

    ``config`` defaults to the ``[tool.adalint]`` table of the nearest
    pyproject.toml above the first path. ``select``/``ignore`` narrow
    the rule set on top of the config. Findings are sorted.
    """
    path_objects = [Path(p) for p in paths]
    if root is None:
        root = find_project_root(
            path_objects[0] if path_objects else Path.cwd()
        )
    root = Path(root)
    pyproject = root / "pyproject.toml"
    if config is None:
        config = load_config(pyproject)
    if select:
        config.select = list(select)
    if ignore:
        config.ignore = list(config.ignore) + list(ignore)

    report = LintReport()
    config_path = (
        str(pyproject) if pyproject.is_file() else "<config>"
    )
    report.findings.extend(_config_id_findings(config, config_path))

    rule_classes = all_rules()
    ada012 = get_rule(_SUPPRESSION_RULE_ID)

    # -- discovery -----------------------------------------------------
    lint_files: List[Tuple[Path, str]] = []  # (path, relpath)
    seen: Set[str] = set()
    for file_path in iter_python_files(path_objects):
        relpath = relative_posix(file_path, root)
        if relpath in seen:
            continue
        seen.add(relpath)
        if config.file_excluded(relpath):
            continue
        lint_files.append((file_path, relpath))

    # The graph covers the linted files plus the project's src tree,
    # so cross-module rules resolve engine internals even when only a
    # subset (one file, benchmarks/) is being linted.
    graph_files: Dict[str, Path] = {
        relpath: file_path for file_path, relpath in lint_files
    }
    src_tree = root / "src"
    if src_tree.is_dir():
        for file_path in iter_python_files([src_tree]):
            relpath = relative_posix(file_path, root)
            graph_files.setdefault(relpath, file_path)

    # -- sources -------------------------------------------------------
    sources: Dict[str, str] = {}
    for relpath, file_path in graph_files.items():
        try:
            sources[relpath] = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            if any(rel == relpath for _, rel in lint_files):
                report.findings.append(
                    Finding(
                        path=str(file_path),
                        line=1,
                        col=1,
                        rule_id=PARSE_ERROR_ID,
                        message=f"unreadable file: {error}",
                    )
                )

    # -- module summaries ----------------------------------------------
    trees: Dict[str, ast.AST] = {}
    summaries: List[ModuleSummary] = []
    for relpath in sorted(sources):
        module = module_name_for(relpath)
        try:
            tree = ast.parse(sources[relpath])
        except SyntaxError:
            summaries.append(
                ModuleSummary(module=module, relpath=relpath)
            )
            continue
        trees[relpath] = tree
        summaries.append(extract_summary(tree, relpath, module))
    graph = ProjectGraph(summaries)

    # -- per-file findings ---------------------------------------------
    for file_path, relpath in lint_files:
        if relpath not in sources:
            continue
        report.files_checked += 1
        applicable = [
            rule_class
            for rule_class in rule_classes
            if config.rule_applies(rule_class, relpath)
        ]
        emit_unused = config.rule_applies(ada012, relpath)
        if not applicable and not emit_unused:
            continue
        report.findings.extend(
            _lint_file(
                sources[relpath],
                str(file_path),
                relpath,
                applicable,
                project=graph,
                module=module_name_for(relpath),
                emit_unused=emit_unused,
                tree=trees.get(relpath),
                stats=report.rule_stats,
            )
        )
    report.findings.sort(key=Finding.sort_key)
    return report
