"""Project configuration: the ``[tool.adalint]`` table in pyproject.toml.

Recognised keys::

    [tool.adalint]
    select = ["ADA001", ...]   # enable only these rules (default: all)
    ignore = ["ADA004"]        # disable these rules
    exclude = ["src/gen/*"]    # path globs never linted

    [tool.adalint.paths]       # per-rule path scoping (overrides the
    ADA001 = ["src/repro/mining", "src/repro/core"]   # rule's default)

Parsing prefers :mod:`tomllib` (Python >= 3.11); on older interpreters a
deliberately small TOML-subset parser — tables, strings, booleans,
integers and single/multi-line string arrays — keeps the linter
zero-dependency.
"""

from __future__ import annotations

import ast as _ast
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Any, Dict, List, Optional

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - py39/py310 fallback
    tomllib = None


@dataclass
class LintConfig:
    """Resolved adalint configuration."""

    select: List[str] = field(default_factory=list)
    ignore: List[str] = field(default_factory=list)
    exclude: List[str] = field(default_factory=list)
    #: rule id -> path prefixes/globs the rule is scoped to.
    paths: Dict[str, List[str]] = field(default_factory=dict)

    def rule_enabled(self, rule_id: str) -> bool:
        if rule_id in self.ignore:
            return False
        if self.select:
            return rule_id in self.select
        return True

    def scope_for(self, rule_class) -> List[str]:
        """The path scope for a rule (config overrides the default)."""
        if rule_class.rule_id in self.paths:
            return list(self.paths[rule_class.rule_id])
        return list(rule_class.default_paths)

    def rule_applies(self, rule_class, relpath: str) -> bool:
        """Is the rule enabled and in scope for this file?"""
        if not self.rule_enabled(rule_class.rule_id):
            return False
        scope = self.scope_for(rule_class)
        if not scope:
            return True
        return any(path_matches(relpath, pattern) for pattern in scope)

    def file_excluded(self, relpath: str) -> bool:
        return any(
            path_matches(relpath, pattern) for pattern in self.exclude
        )


def path_matches(relpath: str, pattern: str) -> bool:
    """Match a root-relative POSIX path against a scope pattern.

    Glob patterns use :func:`fnmatch`; plain patterns match the whole
    path, any directory prefix, or any path suffix — so
    ``src/repro/mining``, ``repro/mining`` and ``core/cache.py`` all
    scope the files you expect without anchoring ceremony.
    """
    pattern = pattern.strip().replace("\\", "/")
    while pattern.startswith("./"):
        pattern = pattern[2:]
    pattern = pattern.rstrip("/")
    if not pattern:
        return True
    if any(char in pattern for char in "*?["):
        return fnmatch(relpath, pattern) or fnmatch(
            relpath, pattern + "/*"
        )
    padded = "/" + relpath
    needle = "/" + pattern
    return (
        padded == needle
        or padded.endswith(needle)
        or (needle + "/") in padded
    )


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def load_config(pyproject: Optional[Path]) -> LintConfig:
    """Read ``[tool.adalint]`` out of a pyproject.toml (missing is ok)."""
    if pyproject is None or not pyproject.is_file():
        return LintConfig()
    text = pyproject.read_text(encoding="utf-8")
    if tomllib is not None:
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError:
            data = {}
    else:  # pragma: no cover - exercised only on py<3.11
        data = _parse_toml_subset(text)
    table = data.get("tool", {}).get("adalint", {})
    return config_from_table(table)


def config_from_table(table: Dict[str, Any]) -> LintConfig:
    """Build a :class:`LintConfig` from a decoded ``[tool.adalint]``."""
    paths = {
        str(rule_id): [str(p) for p in patterns]
        for rule_id, patterns in dict(
            table.get("paths", {}) or {}
        ).items()
        if isinstance(patterns, (list, tuple))
    }
    return LintConfig(
        select=[str(r) for r in table.get("select", []) or []],
        ignore=[str(r) for r in table.get("ignore", []) or []],
        exclude=[str(p) for p in table.get("exclude", []) or []],
        paths=paths,
    )


def _parse_toml_subset(text: str) -> Dict[str, Any]:
    """Tiny TOML-subset parser for interpreters without :mod:`tomllib`.

    Handles dotted table headers, ``key = value`` pairs whose values
    are single- or double-quoted strings, booleans, integers, floats,
    (possibly multi-line) arrays with trailing commas, and one-line
    inline tables ``{ k = v }``. Comments — including inline comments
    after a value — are stripped quote-awarely, so a ``#`` inside a
    string survives. Anything fancier is silently skipped — adalint's
    own config never needs more, and ``tests/test_lint.py`` pins this
    fallback against :mod:`tomllib` on the repo's own pyproject.toml.
    """
    root: Dict[str, Any] = {}
    current = root
    pending_key: Optional[str] = None
    pending_value = ""
    for raw in text.splitlines():
        line = _strip_comment(raw).strip()
        if pending_key is not None:
            pending_value += " " + line
            if _brackets_balanced(pending_value):
                current[pending_key] = _parse_value(pending_value)
                pending_key = None
            continue
        if not line:
            continue
        if (
            line.startswith("[")
            and line.endswith("]")
            and "=" not in line
        ):
            current = root
            for part in line.strip("[]").split("."):
                part = part.strip().strip('"').strip("'")
                nested = current.setdefault(part, {})
                if not isinstance(nested, dict):  # key/table clash
                    nested = current[part] = {}
                current = nested
            continue
        if "=" not in line:
            continue
        key, __, value = line.partition("=")
        key = key.strip().strip('"').strip("'")
        value = value.strip()
        if not _brackets_balanced(value):
            pending_key, pending_value = key, value
            continue
        current[key] = _parse_value(value)
    return root


def _iter_outside_strings(value: str):
    """Yield ``(index, char)`` for characters outside string literals.

    Tracks TOML's two quote styles: basic strings (``"``, with ``\\``
    escapes) and literal strings (``'``, no escapes).
    """
    quote = ""
    escaped = False
    for index, char in enumerate(value):
        if quote:
            if escaped:
                escaped = False
            elif quote == '"' and char == "\\":
                escaped = True
            elif char == quote:
                quote = ""
            continue
        if char in "\"'":
            quote = char
            continue
        yield index, char


def _strip_comment(line: str) -> str:
    """Drop a ``#`` comment unless the ``#`` sits inside a string."""
    for index, char in _iter_outside_strings(line):
        if char == "#":
            return line[:index]
    return line


def _brackets_balanced(value: str) -> bool:
    depth = 0
    for _, char in _iter_outside_strings(value):
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
    return depth <= 0


def _split_top_level(value: str) -> List[str]:
    """Split on commas not nested in strings, arrays or inline tables."""
    parts: List[str] = []
    depth = 0
    cut = 0
    for index, char in _iter_outside_strings(value):
        if char in "[{":
            depth += 1
        elif char in "]}":
            depth -= 1
        elif char == "," and depth == 0:
            parts.append(value[cut:index])
            cut = index + 1
    parts.append(value[cut:])
    return [part.strip() for part in parts]


def _parse_value(value: str) -> Any:
    value = value.strip()
    if value.endswith(","):
        value = value[:-1].rstrip()
    if value in ("true", "false"):
        return value == "true"
    if value.startswith("[") and value.endswith("]"):
        inner = value[1:-1].strip()
        if not inner:
            return []
        return [
            _parse_value(element)
            for element in _split_top_level(inner)
            if element
        ]
    if value.startswith("{") and value.endswith("}"):
        table: Dict[str, Any] = {}
        inner = value[1:-1].strip()
        for pair in _split_top_level(inner):
            if "=" not in pair:
                continue
            key, __, item = pair.partition("=")
            key = key.strip().strip('"').strip("'")
            table[key] = _parse_value(item)
        return table
    try:
        return _ast.literal_eval(value)
    except (ValueError, SyntaxError):
        return value.strip('"').strip("'")
