"""The :class:`Finding` model and its serialisations.

A finding is one rule violation at one source location. Findings render
in three stable formats: the classic compiler-style human line
(``path:line:col: RULE [severity] message``), a JSON document
(schema ``adalint/findings/v1``) whose key set is pinned by
``tests/test_lint.py`` so downstream tooling can rely on it, and a
SARIF 2.1.0 log (:func:`sarif_document`) for code-scanning UIs — a
fixed mapping from the v1 fields, so the v1 document stays the source
of truth.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

#: Recognised severities, most severe first.
SEVERITIES = ("error", "warning")

#: Schema tag stamped on every JSON report (bump on breaking changes).
FINDINGS_SCHEMA = "adalint/findings/v1"

#: Top-level fields of the JSON report (``rule_stats`` is present only
#: when profiling ran).
FINDINGS_FIELDS = (
    "schema",
    "files_checked",
    "counts",
    "findings",
    "rule_stats",
)


def validate_report(document: Dict[str, Any]) -> Dict[str, Any]:
    """Check a findings report is well-formed; returns it (or raises)."""
    if document.get("schema") != FINDINGS_SCHEMA:
        raise ValueError(
            f"unknown findings schema {document.get('schema')!r}"
        )
    unknown = sorted(set(document) - set(FINDINGS_FIELDS))
    if unknown:
        raise ValueError(f"unknown report fields: {unknown}")
    required = [
        name
        for name in FINDINGS_FIELDS
        if name != "rule_stats" and name not in document
    ]
    if required:
        raise ValueError(f"report missing fields: {required}")
    if not isinstance(document["findings"], list):
        raise ValueError("report findings must be a list")
    return document


@dataclass(frozen=True)
class Finding:
    """One rule violation at one ``file:line:col`` location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    severity: str = "error"

    def format(self) -> str:
        """The human one-liner (compiler style, clickable in editors)."""
        return (
            f"{self.path}:{self.line}:{self.col}:"
            f" {self.rule_id} [{self.severity}] {self.message}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-serialisable record (stable key set)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "severity": self.severity,
            "message": self.message,
        }

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule_id)


def report_document(
    findings: List[Finding],
    files_checked: int,
    rule_stats: Optional[Dict[str, Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """The full JSON report for one lint run.

    ``rule_stats`` (per-rule profiling: ``{"wall_s", "findings"}``
    keyed by rule id) is included only when the runner collected it,
    so reports stay byte-compatible for consumers that predate it.
    """
    counts = {severity: 0 for severity in SEVERITIES}
    for finding in findings:
        counts[finding.severity] = counts.get(finding.severity, 0) + 1
    document = {
        "schema": FINDINGS_SCHEMA,
        "files_checked": files_checked,
        "counts": counts,
        "findings": [
            finding.to_dict()
            for finding in sorted(findings, key=Finding.sort_key)
        ],
    }
    if rule_stats is not None:
        document["rule_stats"] = {
            rule_id: dict(stats)
            for rule_id, stats in sorted(rule_stats.items())
        }
    return validate_report(document)


#: Key under ``partialFingerprints`` carrying adalint's stable
#: finding identity (bump if the fingerprint recipe changes).
FINGERPRINT_KEY = "adalint/v1"


def finding_fingerprint(finding: Finding, line_text: str = "") -> str:
    """Content-relative identity of one finding across runs.

    Hashes the rule id, the (slash-normalised) path and the stripped
    source line text — deliberately *not* the line number or message,
    so a finding that merely moved (code inserted above it) or whose
    message embeds positions keeps its identity in code-scanning UIs.
    """
    digest = hashlib.sha256()
    for part in (
        finding.rule_id,
        finding.path.replace("\\", "/"),
        line_text.strip(),
    ):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x1e")
    return digest.hexdigest()


#: SARIF spec pin; ``version`` and ``$schema`` in every emitted log.
SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA_URI = (
    "https://docs.oasis-open.org/sarif/sarif/v2.1.0/errata01/os/"
    "schemas/sarif-schema-2.1.0.json"
)


def sarif_document(
    findings: List[Finding],
    rules: Optional[Sequence[Any]] = None,
    tool_version: str = "",
    sources: Optional[Dict[str, Sequence[str]]] = None,
) -> Dict[str, Any]:
    """The SARIF 2.1.0 log for one lint run.

    Mapping from ``adalint/findings/v1``: one run, one ``result`` per
    finding (``rule`` → ``ruleId``, ``severity`` → ``level``,
    ``path``/``line``/``col`` → a single physical location). ``rules``
    takes the registered rule classes so the driver carries the full
    catalogue (id, name, description, default level) — viewers use it
    to title and group results. ``sources`` maps a finding's path to
    its source lines; when given, each result carries a
    ``partialFingerprints`` entry (:func:`finding_fingerprint`) that
    code-scanning UIs match results across runs on.
    """
    driver: Dict[str, Any] = {
        "name": "adalint",
        "rules": [
            {
                "id": rule.rule_id,
                "name": rule.name,
                "shortDescription": {"text": rule.description},
                "defaultConfiguration": {"level": rule.severity},
            }
            for rule in (rules or [])
        ],
    }
    if tool_version:
        driver["version"] = tool_version
    results = []
    for finding in sorted(findings, key=Finding.sort_key):
        result: Dict[str, Any] = {
            "ruleId": finding.rule_id,
            "level": (
                finding.severity
                if finding.severity in SEVERITIES
                else "warning"
            ),
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path.replace("\\", "/"),
                        },
                        "region": {
                            "startLine": max(1, finding.line),
                            "startColumn": max(1, finding.col),
                        },
                    }
                }
            ],
        }
        if sources is not None:
            lines = sources.get(finding.path, ())
            text = (
                lines[finding.line - 1]
                if 0 < finding.line <= len(lines)
                else ""
            )
            result["partialFingerprints"] = {
                FINGERPRINT_KEY: finding_fingerprint(finding, text)
            }
        results.append(result)
    return {
        "$schema": _SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [{"tool": {"driver": driver}, "results": results}],
    }
