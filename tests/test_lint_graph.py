"""Tests for the whole-program analysis layer (repro.lint.graph).

Covers module-summary extraction, cross-module symbol resolution, the
transitive effect inference (including its documented approximations)
and call-path evidence. Everything here is pure AST analysis — no
fixture module is ever imported.
"""

import textwrap

import pytest

from repro.lint.graph import ProjectGraph, extract_summary, module_name_for

pytestmark = pytest.mark.lint


def build_graph(modules):
    """``{module name: source}`` -> linked :class:`ProjectGraph`."""
    summaries = [
        extract_summary(
            textwrap.dedent(source),
            "src/" + name.replace(".", "/") + ".py",
            name,
        )
        for name, source in modules.items()
    ]
    return ProjectGraph(summaries)


def effect_kinds(graph, qualid):
    return {effect.kind for effect in graph.effects(qualid)}


# ----------------------------------------------------------------------
# Module naming and summary extraction
# ----------------------------------------------------------------------
def test_module_name_for_strips_src_and_init():
    assert module_name_for("src/repro/core/engine.py") == (
        "repro.core.engine"
    )
    assert module_name_for("src/repro/__init__.py") == "repro"
    assert module_name_for("benchmarks/bench_engine.py") == (
        "benchmarks.bench_engine"
    )


def test_direct_effects_are_classified():
    graph = build_graph(
        {
            "m": """
            import time
            import numpy as np

            COUNTER = []

            def stamp():
                return time.time()

            def draw():
                return np.random.default_rng()

            def log(message):
                print(message)

            def bump():
                COUNTER.append(1)

            def extend(items):
                items.append(1)

            def pure(x):
                return x + 1
            """
        }
    )
    assert effect_kinds(graph, "m:stamp") == {"wall-clock"}
    assert effect_kinds(graph, "m:draw") == {"unseeded-rng"}
    assert effect_kinds(graph, "m:log") == {"io"}
    assert effect_kinds(graph, "m:bump") == {"global-write"}
    assert effect_kinds(graph, "m:extend") == {"mutates-param"}
    assert graph.effects("m:pure") == ()


def test_seeded_rng_is_not_an_effect():
    graph = build_graph(
        {
            "m": """
            import numpy as np

            def draw(seed):
                return np.random.default_rng(seed)
            """
        }
    )
    assert graph.effects("m:draw") == ()


# ----------------------------------------------------------------------
# Cross-module propagation
# ----------------------------------------------------------------------
def test_effects_propagate_across_modules_with_origin():
    graph = build_graph(
        {
            "helper": """
            import time

            def now():
                return time.time()
            """,
            "app": """
            from helper import now

            def task():
                return now()

            def pure(x):
                return x + 1
            """,
        }
    )
    effects = graph.effects("app:task")
    assert {effect.kind for effect in effects} == {"wall-clock"}
    # the origin of the effect is preserved through propagation
    assert effects[0].module == "helper"
    assert effects[0].qualname == "now"
    assert graph.effects("app:pure") == ()


def test_resolve_symbol_follows_imports_and_dotted_chains():
    graph = build_graph(
        {
            "helper": """
            def work(x):
                return x
            """,
            "app": """
            import helper
            from helper import work

            def a():
                return work(1)

            def b():
                return helper.work(2)
            """,
        }
    )
    assert graph.resolve_symbol("app", "work") == "helper:work"
    assert graph.resolve_symbol("app", "helper.work") == "helper:work"
    assert graph.resolve_symbol("app", "nothing") is None


# ----------------------------------------------------------------------
# Mutation binding at call boundaries
# ----------------------------------------------------------------------
def test_param_mutation_maps_through_argument_binding():
    graph = build_graph(
        {
            "m": """
            def fill(bucket):
                bucket.append(1)

            def caller(items):
                fill(items)

            def local_only():
                fresh = []
                fill(fresh)
                return fresh
            """
        }
    )
    # caller passes its own parameter -> the mutation is visible to
    # *its* callers too
    assert effect_kinds(graph, "m:caller") == {"mutates-param"}
    # a fresh local absorbs the mutation: not an external effect
    assert graph.effects("m:local_only") == ()


def test_mutating_module_state_via_callee_becomes_global_write():
    graph = build_graph(
        {
            "m": """
            REGISTRY = []

            def fill(bucket):
                bucket.append(1)

            def register():
                fill(REGISTRY)
            """
        }
    )
    assert effect_kinds(graph, "m:register") == {"global-write"}


def test_constructor_self_writes_are_absorbed():
    graph = build_graph(
        {
            "m": """
            class Model:
                def __init__(self, k):
                    self.k = k
                    self.labels = []

            def build(k):
                return Model(k)
            """
        }
    )
    # __init__ mutates the fresh instance, not anything the caller
    # passed in — building an object is effect-free from outside.
    assert graph.effects("m:build") == ()


def test_self_private_writes_are_treated_as_memoisation():
    graph = build_graph(
        {
            "m": """
            class Table:
                def rows(self):
                    self._rows = [1, 2]
                    return self._rows

                def publish(self):
                    self.total = 3
            """
        }
    )
    # lazy caching into an underscore-private slot: documented blind
    # spot, not reported; a public attribute write still is.
    assert graph.effects("m:Table.rows") == ()
    assert effect_kinds(graph, "m:Table.publish") == {"mutates-param"}


def test_typed_parameter_resolves_method_calls():
    graph = build_graph(
        {
            "eng": """
            import time

            class Engine:
                def run(self):
                    return time.time()
            """,
            "use": """
            def drive(engine: "Engine"):
                return engine.run()
            """,
        }
    )
    assert effect_kinds(graph, "use:drive") == {"wall-clock"}


# ----------------------------------------------------------------------
# Fixed point, reachability, call-path evidence
# ----------------------------------------------------------------------
def test_mutually_recursive_functions_terminate():
    graph = build_graph(
        {
            "m": """
            def a(n):
                return b(n)

            def b(n):
                if n:
                    return a(n - 1)
                return 0
            """
        }
    )
    assert graph.effects("m:a") == ()
    assert graph.effects("m:b") == ()


def test_reachable_from_and_call_path():
    graph = build_graph(
        {
            "m": """
            import time

            def leaf():
                return time.time()

            def mid():
                return leaf()

            def top():
                return mid()
            """
        }
    )
    path = graph.call_path("m:top", lambda q: q == "m:leaf")
    assert path == ["m:top", "m:mid", "m:leaf"]
    assert graph.call_path("m:leaf", lambda q: q == "m:top") is None
