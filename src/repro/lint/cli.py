"""The adalint command line: ``python -m repro.lint [paths...]``.

Exit status is 0 when the tree is clean and 1 when there are findings
(any severity), so the command can gate commits and CI. ``--format
json`` emits the ``adalint/findings/v1`` document and ``--format
sarif`` a SARIF 2.1.0 log (for code-scanning upload).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.base import all_rules
from repro.lint.config import load_config
from repro.lint.findings import sarif_document
from repro.lint.runner import (
    RULESET_VERSION,
    default_src_paths,
    find_project_root,
    lint_paths,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description=(
            "adalint: AST-based invariant checks for the ADA-HEALTH"
            " engine (determinism, parallelism, resource and storage"
            " contracts)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the src/ tree)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json", "sarif"),
        default="human",
        dest="output_format",
        help="output format: human lines (default), the"
        " adalint/findings/v1 JSON document, or a SARIF 2.1.0 log",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="IDS",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--config",
        metavar="PYPROJECT",
        help="pyproject.toml to read [tool.adalint] from",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="also print per-rule profiling to stderr",
    )
    return parser


def _split_ids(value: Optional[str]) -> List[str]:
    if not value:
        return []
    return [part.strip() for part in value.split(",") if part.strip()]


def list_rules_text() -> str:
    lines = []
    for rule_class in all_rules():
        scope = (
            ", ".join(rule_class.default_paths)
            if rule_class.default_paths
            else "all files"
        )
        lines.append(
            f"{rule_class.rule_id}  {rule_class.name}"
            f"  [{rule_class.severity}]\n"
            f"    {rule_class.description}\n"
            f"    scope: {scope}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(list_rules_text())
        return 0

    if args.paths:
        paths = [Path(p) for p in args.paths]
        missing = [str(p) for p in paths if not p.exists()]
        if missing:
            print(
                f"error: no such path: {', '.join(missing)}",
                file=sys.stderr,
            )
            return 2
        root = find_project_root(paths[0])
    else:
        root = find_project_root(Path.cwd())
        paths = list(default_src_paths(root))

    config = None
    if args.config:
        config = load_config(Path(args.config))

    report = lint_paths(
        paths,
        config=config,
        root=root,
        select=_split_ids(args.select),
        ignore=_split_ids(args.ignore),
    )
    if args.output_format == "json":
        print(json.dumps(report.to_document(), indent=2, sort_keys=True))
    elif args.output_format == "sarif":
        document = sarif_document(
            report.findings,
            rules=all_rules(),
            tool_version=RULESET_VERSION,
            sources=_finding_sources(report.findings),
        )
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(report.format_human())
    if args.stats:
        print(report.format_stats(), file=sys.stderr)
    return 0 if report.ok else 1


def _finding_sources(findings) -> dict:
    """``finding.path -> source lines`` for fingerprinting."""
    sources: dict = {}
    for finding in findings:
        if finding.path in sources:
            continue
        try:
            sources[finding.path] = Path(finding.path).read_text(
                encoding="utf-8"
            ).splitlines()
        except (OSError, UnicodeDecodeError):
            sources[finding.path] = []
    return sources


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
