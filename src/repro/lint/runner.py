"""The lint driver: discovery, project graph, caching, rule dispatch.

Suppression syntax
------------------
``# adalint: disable=ADA001,ADA005`` on a code line suppresses those
rules for findings reported *on that line*;
``# adalint: disable-file=ADA007`` anywhere in a file suppresses the
rule for the whole file. ``all`` suppresses every rule.

Pragmas are accounted for: one that names an unknown rule id, or that
suppressed no finding in the run (for a rule that actually ran on the
file), is itself reported as an ADA012 warning. Accounting is
single-pass — a pragma counts as used only against findings from the
same run.

Incremental runs
----------------
:func:`lint_paths` can reuse a :class:`~repro.lint.cache.LintCache`:
module summaries are keyed on content hashes, per-file findings on
content hash + ruleset version + the file's import-closure fingerprint
+ the project-wide concurrency fingerprint (the lock model the
ADA015–ADA018 rules consume is global, not closure-local) + config
fingerprint. An unchanged tree re-lints with zero parses;
editing one file re-lints it and its import-graph dependents; bumping
:data:`RULESET_VERSION` or editing ``[tool.adalint]`` invalidates
everything. With ``jobs > 1`` files are linted in parallel through the
``repro.cloud`` executor backends; findings are sorted at the end, so
serial/parallel and cold/warm runs report identically.
"""

from __future__ import annotations

import ast
import io
import re
import time
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.lint.base import Rule, RuleContext, all_rules, get_rule
from repro.lint.cache import (
    DEFAULT_CACHE_DIR,
    LintCache,
    content_hash,
    key_of,
)
from repro.lint.config import LintConfig, load_config
from repro.lint.findings import Finding, report_document
from repro.lint.graph import (
    GRAPH_VERSION,
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

#: Version of the rule set; part of every findings-cache key, so a
#: rule change (signalled by bumping this) invalidates cached results.
RULESET_VERSION = "adalint/7"

#: Id under which pragma/config hygiene findings are reported.
_SUPPRESSION_RULE_ID = "ADA012"


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: Files whose source was parsed during this run (summary
    #: extraction or linting). Zero on a warm incremental run.
    files_parsed: int = 0
    #: Per-file finding lists served from the incremental cache.
    cache_hits: int = 0
    #: Per-rule profiling over the files actually linted this run
    #: (cache-served files cost no rule time and are not attributed):
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
        lines = [
            f"{self.files_checked} files checked,"
            f" {self.files_parsed} parsed,"
            f" {self.cache_hits} served from cache"
        ]
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
def _merge_rule_stats(
    into: Dict[str, Dict], stats: Dict[str, Dict]
) -> None:
    """Accumulate per-rule wall time and finding counts."""
    for rule_id, stat in stats.items():
        slot = into.setdefault(
            rule_id, {"wall_s": 0.0, "findings": 0}
        )
        slot["wall_s"] += stat["wall_s"]
        slot["findings"] += stat["findings"]


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
    comments = scan_comments(source)
    suppressions = parse_suppressions(comments)
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
        comments=comments,
        project=project,
        module=module or module_name_for(relpath),
    )
    raw: List[Finding] = []
    for rule_class in rule_classes:
        rule: Rule = rule_class()
        started = time.perf_counter()
        found = rule.run(context)
        if stats is not None:
            _merge_rule_stats(
                stats,
                {
                    rule_class.rule_id: {
                        "wall_s": time.perf_counter() - started,
                        "findings": len(found),
                    }
                },
            )
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


def _lint_batch_task(
    batch: Sequence[Tuple[str, str, str, Tuple[str, ...], bool]],
    summary_docs: Sequence[Dict],
) -> Tuple[List[Tuple[str, List[Finding]]], Dict[str, Dict]]:
    """Worker task: lint a batch of files against a shared graph.

    Module-level and fed plain data (sources, rule ids, summary
    documents) so it pickles cleanly onto any executor backend —
    including process pools under spawn. Returns the per-file finding
    lists plus this batch's per-rule profiling stats.
    """
    graph = ProjectGraph(
        ModuleSummary.from_dict(doc) for doc in summary_docs
    )
    results: List[Tuple[str, List[Finding]]] = []
    stats: Dict[str, Dict] = {}
    for source, path, relpath, rule_ids, emit_unused in batch:
        rule_classes = [get_rule(rule_id) for rule_id in rule_ids]
        results.append(
            (
                relpath,
                _lint_file(
                    source,
                    path,
                    relpath,
                    rule_classes,
                    project=graph,
                    module=module_name_for(relpath),
                    emit_unused=emit_unused,
                    stats=stats,
                ),
            )
        )
    return results, stats


# ----------------------------------------------------------------------
# Project linting
# ----------------------------------------------------------------------
def _resolve_cache(
    cache: Union[None, bool, str, Path, LintCache], root: Path
) -> Optional[LintCache]:
    if cache is None or cache is False:
        return None
    if cache is True:
        return LintCache(Path(root) / DEFAULT_CACHE_DIR)
    if isinstance(cache, LintCache):
        return cache
    return LintCache(Path(cache))


def _concurrency_fingerprint(
    summaries: Sequence[ModuleSummary],
) -> str:
    """Fingerprint of the project's lock model.

    The concurrency rules are *global*: a lock-order cycle can be
    reported in a module that never imports its counterpart, so the
    import-closure fingerprint that serves the dataflow rules is not
    enough to invalidate their cached findings. This key digests every
    module's lock-relevant structure — acquisition refs and nesting,
    call refs with held locks, blocking ops, attribute writes, class
    lock traits — *excluding line numbers*, so edits that merely shift
    lines elsewhere keep the cache warm (the evidence lines a stale
    finding cites may then lag by a line until the citing file itself
    changes; the finding's own location cannot, since the reporting
    file's content hash is part of the key).
    """
    parts: List[str] = []
    for summary in sorted(summaries, key=lambda s: s.module):
        for qualname in sorted(summary.functions):
            info = summary.functions[qualname]
            shape = (
                summary.module,
                qualname,
                info.class_name or "",
                info.returns,
                sorted(
                    f"{a.ref}<{','.join(a.under)}"
                    for a in info.acquires
                ),
                sorted(
                    f"{site.ref!r}^{','.join(site.held_locks)}"
                    for site in info.calls
                ),
                sorted(
                    f"{op.op}^{','.join(op.held)}"
                    for op in info.blocking
                ),
                sorted(
                    f"{w.attr}^{','.join(w.held)}"
                    for w in info.attr_writes
                ),
            )
            parts.append(repr(shape))
        for class_name in sorted(summary.classes):
            class_info = summary.classes[class_name]
            parts.append(
                repr(
                    (
                        summary.module,
                        class_name,
                        sorted(class_info.lock_attrs),
                        class_info.spawns_threads,
                        list(class_info.bases),
                    )
                )
            )
    return key_of(*parts)


def _config_fingerprint(config: LintConfig) -> str:
    return key_of(
        repr(sorted(config.select)),
        repr(sorted(config.ignore)),
        repr(sorted(config.exclude)),
        repr(
            sorted(
                (rule_id, tuple(patterns))
                for rule_id, patterns in config.paths.items()
            )
        ),
    )


def _partition_round_robin(items: List, n: int) -> List[List]:
    buckets: List[List] = [[] for _ in range(max(1, n))]
    for index, item in enumerate(items):
        buckets[index % len(buckets)].append(item)
    return [bucket for bucket in buckets if bucket]


def _make_lint_executor(backend: str, jobs: int):
    from repro.cloud.executor import make_executor

    if backend == "threads":
        return make_executor("threads", max_workers=jobs)
    if backend == "process":
        return make_executor("process", workers=jobs)
    return make_executor(backend)


def lint_paths(
    paths: Sequence,
    config: Optional[LintConfig] = None,
    root: Optional[Path] = None,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    jobs: int = 1,
    backend: str = "threads",
    cache: Union[None, bool, str, Path, LintCache] = None,
) -> LintReport:
    """Lint files/directories; the CLI and tier-1 gate call this.

    ``config`` defaults to the ``[tool.adalint]`` table of the nearest
    pyproject.toml above the first path. ``select``/``ignore`` narrow
    the rule set on top of the config. ``jobs > 1`` fans per-file
    linting out over a ``repro.cloud`` executor backend; ``cache``
    (True, a path, or a :class:`LintCache`) enables incremental reuse.
    Findings are sorted, so every mode reports identically.
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

    store = _resolve_cache(cache, root)
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

    # -- sources + hashes ----------------------------------------------
    sources: Dict[str, str] = {}
    hashes: Dict[str, str] = {}
    unreadable: Set[str] = set()
    for relpath, file_path in graph_files.items():
        try:
            sources[relpath] = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            unreadable.add(relpath)
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
            continue
        hashes[relpath] = content_hash(sources[relpath])

    # -- module summaries (cached) -------------------------------------
    parsed: Set[str] = set()
    trees: Dict[str, ast.AST] = {}
    summaries: List[ModuleSummary] = []
    for relpath in sorted(sources):
        summary_key = key_of(
            GRAPH_VERSION, relpath, hashes[relpath]
        )
        document = (
            store.get_summary(summary_key) if store else None
        )
        if document is not None:
            summaries.append(ModuleSummary.from_dict(document))
            continue
        parsed.add(relpath)
        try:
            tree = ast.parse(sources[relpath])
        except SyntaxError:
            summary = ModuleSummary(
                module=module_name_for(relpath),
                relpath=relpath,
                parse_failed=True,
            )
        else:
            trees[relpath] = tree
            summary = extract_summary(
                tree, relpath, module_name_for(relpath)
            )
        summaries.append(summary)
        if store:
            store.put_summary(summary_key, summary.to_dict())
    graph = ProjectGraph(summaries)
    module_hashes = {
        summary.module: hashes.get(summary.relpath, "")
        for summary in summaries
    }

    def closure_fingerprint(module: str) -> str:
        closure = sorted(graph.import_closure(module))
        return key_of(
            *(
                f"{name}={module_hashes.get(name, '')}"
                for name in closure
            )
        )

    # -- per-file findings (cached) ------------------------------------
    config_fp = _config_fingerprint(config)
    concurrency_fp = _concurrency_fingerprint(summaries)
    results: Dict[str, List[Finding]] = {}
    pending: List[Tuple[str, str, str, Tuple[str, ...], bool]] = []
    finding_keys: Dict[str, str] = {}
    for file_path, relpath in lint_files:
        if relpath in unreadable:
            continue
        report.files_checked += 1
        applicable = tuple(
            rule_class.rule_id
            for rule_class in rule_classes
            if config.rule_applies(rule_class, relpath)
        )
        emit_unused = config.rule_applies(ada012, relpath)
        if not applicable and not emit_unused:
            continue
        module = module_name_for(relpath)
        finding_key = key_of(
            RULESET_VERSION,
            relpath,
            str(file_path),
            hashes[relpath],
            closure_fingerprint(module),
            concurrency_fp,
            config_fp,
            ",".join(applicable),
            "unused" if emit_unused else "",
        )
        finding_keys[relpath] = finding_key
        cached = store.get_findings(finding_key) if store else None
        if cached is not None:
            report.cache_hits += 1
            results[relpath] = cached
            continue
        pending.append(
            (
                sources[relpath],
                str(file_path),
                relpath,
                applicable,
                emit_unused,
            )
        )

    # -- lint what the cache could not serve ---------------------------
    if pending:
        parsed.update(entry[2] for entry in pending)
        if jobs > 1 and len(pending) > 1:
            summary_docs = [
                summary.to_dict() for summary in summaries
            ]
            batches = _partition_round_robin(
                pending, min(jobs, len(pending))
            )
            executor = _make_lint_executor(backend, jobs)
            outcome = executor.run(
                [
                    _batch_spec(batch, summary_docs)
                    for batch in batches
                ]
            )
            for value in outcome.results:
                if not isinstance(value, tuple):  # TaskFailure
                    raise value.error
                batch_results, batch_stats = value
                for relpath, findings in batch_results:
                    results[relpath] = findings
                _merge_rule_stats(report.rule_stats, batch_stats)
        else:
            for source, path, relpath, rule_ids, emit_unused in (
                pending
            ):
                results[relpath] = _lint_file(
                    source,
                    path,
                    relpath,
                    [get_rule(rule_id) for rule_id in rule_ids],
                    project=graph,
                    module=module_name_for(relpath),
                    emit_unused=emit_unused,
                    tree=trees.get(relpath),
                    stats=report.rule_stats,
                )
        if store:
            fresh = {entry[2] for entry in pending}
            for relpath in fresh:
                store.put_findings(
                    finding_keys[relpath], results.get(relpath, [])
                )

    for relpath in sorted(results):
        report.findings.extend(results[relpath])
    report.files_parsed = len(parsed)
    report.findings.sort(key=Finding.sort_key)
    return report


def _batch_spec(batch, summary_docs):
    """A picklable :class:`TaskSpec` for one lint batch."""
    from repro.cloud.executor import TaskSpec

    return TaskSpec(_lint_batch_task, (batch, summary_docs))
