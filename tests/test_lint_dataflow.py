"""Tests for the dataflow rules ADA009, ADA012 and ADA014.

Each rule gets bad fixtures proving it fires (for ADA009 with the
offence arbitrarily deep below the reported site) and good fixtures
proving it stays quiet. The ADA012 half covers suppression hygiene:
unused pragmas, unknown rule ids in pragmas and in ``[tool.adalint]``.
"""

import textwrap

import pytest

from repro.lint import LintConfig, lint_paths, lint_source
from repro.lint.rules_dataflow import (
    EffectFreeTasks,
    NoLargeArrayPickle,
    NoUnusedSuppressions,
)
from repro.lint.rules_determinism import NoUnseededRandomness

pytestmark = pytest.mark.lint


def run_rule(rule_class, source):
    return lint_source(textwrap.dedent(source), rules=[rule_class])


# ----------------------------------------------------------------------
# ADA009 — tasks shipped to workers must be transitively effect-free
# ----------------------------------------------------------------------
def test_ada009_flags_wall_clock_task_given_to_taskspec():
    findings = run_rule(
        EffectFreeTasks,
        """
        import time

        from repro.cloud.executor import TaskSpec

        def task(x):
            return time.time() + x

        def build():
            return TaskSpec(task, (1,))
        """,
    )
    assert len(findings) == 1
    assert findings[0].rule_id == "ADA009"
    assert "not effect-free" in findings[0].message
    assert "task" in findings[0].message


def test_ada009_follows_the_call_graph_below_the_task():
    findings = run_rule(
        EffectFreeTasks,
        """
        from repro.cloud.executor import TaskSpec

        STATE = []

        def helper():
            STATE.append(1)

        def task(x):
            helper()
            return x

        def build():
            return TaskSpec(task, ())
        """,
    )
    assert len(findings) == 1
    # the finding cites the originating helper and the call chain
    assert "helper" in findings[0].message


def test_ada009_flags_process_pool_submit_but_not_threads():
    bad = run_rule(
        EffectFreeTasks,
        """
        import time
        from concurrent.futures import ProcessPoolExecutor

        def task():
            return time.time()

        def run():
            with ProcessPoolExecutor() as pool:
                return pool.submit(task)
        """,
    )
    good = run_rule(
        EffectFreeTasks,
        """
        import time
        from concurrent.futures import ThreadPoolExecutor

        def task():
            return time.time()

        def run():
            with ThreadPoolExecutor() as pool:
                return pool.submit(task)
        """,
    )
    assert len(bad) == 1
    assert good == []


def test_ada009_quiet_on_pure_task_and_mutation_of_locals():
    findings = run_rule(
        EffectFreeTasks,
        """
        from repro.cloud.executor import TaskSpec

        def task(values):
            totals = []
            totals.append(sum(values))
            return totals

        def build(values):
            return TaskSpec(task, (values,))
        """,
    )
    assert findings == []


# ----------------------------------------------------------------------
# ADA014 — large arrays must not ride the pickle path to workers
# ----------------------------------------------------------------------
def test_ada014_flags_ndarray_local_shipped_in_taskspec():
    findings = run_rule(
        NoLargeArrayPickle,
        """
        import numpy as np

        from repro.cloud.executor import TaskSpec

        def work(ref, k):
            return ref

        def sweep(k_values):
            matrix = np.asarray([[1.0, 2.0]])
            return [TaskSpec(work, (matrix, k)) for k in k_values]
        """,
    )
    assert len(findings) == 1
    assert findings[0].rule_id == "ADA014"
    assert "matrix" in findings[0].message
    assert "matrix_lease" in findings[0].message


def test_ada014_flags_annotated_parameter_in_pool_submit():
    findings = run_rule(
        NoLargeArrayPickle,
        """
        import numpy as np
        from concurrent.futures import ProcessPoolExecutor

        def work(chunk):
            return chunk.sum()

        def run_all(data: np.ndarray):
            folds = data[:10]
            with ProcessPoolExecutor() as pool:
                return pool.submit(work, folds)
        """,
    )
    assert len(findings) == 1
    assert "folds" in findings[0].message
    assert "pool.submit" in findings[0].message


def test_ada014_tracks_slices_and_method_chains():
    findings = run_rule(
        NoLargeArrayPickle,
        """
        import numpy as np

        from repro.cloud.executor import TaskSpec

        def work(x):
            return x

        def go():
            base = np.zeros((4, 4))
            view = base[1:].copy()
            return TaskSpec(work, (view,))
        """,
    )
    assert len(findings) == 1
    assert "view" in findings[0].message


def test_ada014_quiet_when_the_array_travels_by_lease():
    findings = run_rule(
        NoLargeArrayPickle,
        """
        import numpy as np

        from repro.cloud.executor import TaskSpec
        from repro.cloud.transport import matrix_lease

        def work(ref, k):
            return ref

        def sweep(executor, k_values):
            matrix = np.asarray([[1.0, 2.0]])
            with matrix_lease(executor, matrix) as (ref,):
                return executor.run(
                    [TaskSpec(work, (ref, k)) for k in k_values]
                )
        """,
    )
    assert findings == []


def test_ada014_quiet_on_local_array_use_and_unknown_types():
    findings = run_rule(
        NoLargeArrayPickle,
        """
        import numpy as np

        from repro.cloud.executor import TaskSpec

        def work(x):
            return x

        def local_only(data: np.ndarray):
            copy = data.copy()
            return copy.sum()

        def unknown(handle):
            return TaskSpec(work, (handle,))
        """,
    )
    assert findings == []


def test_ada014_nested_functions_are_their_own_scope():
    findings = run_rule(
        NoLargeArrayPickle,
        """
        import numpy as np

        from repro.cloud.executor import TaskSpec

        def work(x):
            return x

        def outer():
            matrix = np.ones((2, 2))

            def inner():
                return TaskSpec(work, (matrix,))

            return TaskSpec(work, (matrix,)), inner
        """,
    )
    # exactly one finding: the outer submission; the nested def is a
    # separate scope where ``matrix`` is an untracked closure variable
    assert len(findings) == 1


# ----------------------------------------------------------------------
# ADA012 — unused / unknown suppressions
# ----------------------------------------------------------------------
def test_ada012_flags_a_pragma_that_suppresses_nothing():
    findings = lint_source(
        textwrap.dedent(
            """
            def draw(rng):
                value = rng.random()  # adalint: disable=ADA001
                return value
            """
        ),
        rules=[NoUnseededRandomness, NoUnusedSuppressions],
    )
    assert [f.rule_id for f in findings] == ["ADA012"]
    assert findings[0].severity == "warning"
    assert "unused suppression" in findings[0].message
    assert findings[0].line == 3


def test_ada012_quiet_when_the_pragma_earns_its_keep():
    findings = lint_source(
        textwrap.dedent(
            """
            import numpy as np

            rng = np.random.default_rng()  # adalint: disable=ADA001
            """
        ),
        rules=[NoUnseededRandomness, NoUnusedSuppressions],
    )
    assert findings == []


def test_ada012_flags_unused_file_level_pragma():
    findings = lint_source(
        textwrap.dedent(
            """
            # adalint: disable-file=ADA001
            def draw(rng):
                return rng.random()
            """
        ),
        rules=[NoUnseededRandomness, NoUnusedSuppressions],
    )
    assert [f.rule_id for f in findings] == ["ADA012"]
    assert "this file" in findings[0].message


def test_ada012_dormant_pragma_for_rule_that_did_not_run():
    # ADA002 is not in the run's rule set: the pragma is dormant, not
    # dead, so only the unseeded generator is reported.
    findings = lint_source(
        textwrap.dedent(
            """
            import numpy as np

            rng = np.random.default_rng()  # adalint: disable=ADA002
            """
        ),
        rules=[NoUnseededRandomness, NoUnusedSuppressions],
    )
    assert [f.rule_id for f in findings] == ["ADA001"]


def test_ada012_flags_unknown_rule_id_in_pragma():
    findings = lint_source(
        textwrap.dedent(
            """
            def check(x):
                return x  # adalint: disable=ADA999
            """
        ),
        rules=[NoUnusedSuppressions],
    )
    assert [f.rule_id for f in findings] == ["ADA012"]
    assert "unknown rule id 'ADA999'" in findings[0].message


def test_ada012_flags_unknown_rule_ids_in_config(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("VALUE = 1\n", encoding="utf-8")
    report = lint_paths(
        [clean],
        config=LintConfig(
            select=["ADA001", "ADA042"],
            paths={"ADA01": ["src"]},
        ),
        root=tmp_path,
    )
    messages = [f.message for f in report.findings]
    assert any(
        "'ADA042'" in m and "select" in m for m in messages
    ), messages
    assert any(
        "'ADA01'" in m and "paths" in m for m in messages
    ), messages
    assert all(f.rule_id == "ADA012" for f in report.findings)


def test_ada012_quiet_on_known_config_ids(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("VALUE = 1\n", encoding="utf-8")
    report = lint_paths(
        [clean],
        config=LintConfig(ignore=["ADA014"]),
        root=tmp_path,
    )
    assert report.findings == []
