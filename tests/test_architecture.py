"""Tests for the architecture graph (paper Figure 1) and the engine's
one-thread-per-process contract."""

import ast
from pathlib import Path

import pytest

from repro.core import COMPONENTS, INTERACTIONS, adjacency, render_text
from repro.core.architecture import component_by_key, validate
from repro.exceptions import EngineError


def test_validate_passes():
    validate()


def test_all_paper_blocks_present():
    keys = {component.key for component in COMPONENTS}
    assert {
        "user",
        "characterization",
        "optimization",
        "endgoals",
        "mining",
        "kdb",
        "navigation",
    } <= keys


def test_component_lookup():
    assert component_by_key("kdb").title.startswith("Knowledge Base")
    with pytest.raises(EngineError):
        component_by_key("blockchain")


def test_modules_exist():
    """Every block's implementing module actually imports."""
    import importlib

    for component in COMPONENTS:
        if component.module.startswith("("):
            continue  # human actor, not a module
        for module in component.module.split(","):
            importlib.import_module(module.strip())


def test_interactions_reference_known_components():
    keys = {component.key for component in COMPONENTS}
    for source, target, label in INTERACTIONS:
        assert source in keys
        assert target in keys
        assert label


def test_self_learning_loop_closed():
    """The feedback loop user -> kdb -> endgoals exists (paper SSIII)."""
    graph = adjacency()
    assert "kdb" in graph["user"]
    assert "endgoals" in graph["kdb"]
    assert "user" in graph["navigation"]


def test_render_mentions_every_component():
    text = render_text()
    for component in COMPONENTS:
        assert component.key in text
    assert "Figure 1" in text


def test_adjacency_covers_all_nodes():
    graph = adjacency()
    assert set(graph) == {component.key for component in COMPONENTS}


#: Imports and constructors that would put a second thread into a
#: process. ``ProcessPoolExecutor`` stays allowed: its workers get
#: pickled copies, never shared objects.
_THREAD_MODULES = frozenset({"threading", "_thread"})
_THREAD_CONSTRUCTORS = frozenset({"Thread", "ThreadPoolExecutor"})


def _thread_uses(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in _THREAD_MODULES:
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] in _THREAD_MODULES:
                yield node.lineno, f"from {node.module} import ..."
            for alias in node.names:
                if alias.name in _THREAD_CONSTRUCTORS:
                    yield node.lineno, f"imports {alias.name}"
        elif isinstance(node, ast.Call):
            func = node.func
            name = (
                func.attr if isinstance(func, ast.Attribute)
                else getattr(func, "id", "")
            )
            if name in _THREAD_CONSTRUCTORS:
                yield node.lineno, f"constructs {name}"


def test_product_modules_start_no_threads():
    """The K-DB and the telemetry take no locks because one thread per
    process uses them (DESIGN.md, "One thread per process"). No module
    under ``src/repro`` but the linter may import a threading module or
    construct a thread or a thread pool."""
    package = Path(__file__).resolve().parents[1] / "src" / "repro"
    offenders = []
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package.parent).as_posix()
        if relative.startswith("repro/lint/"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), relative)
        offenders.extend(
            f"{relative}:{line}: {what}" for line, what in _thread_uses(tree)
        )
    assert offenders == [], "\n".join(offenders)
