"""Tests for adalint, the AST-based invariant checker (repro.lint).

Covers every registered rule on a bad fixture (and the bundled good
ones), the suppression pragmas, ``[tool.adalint]`` config behaviour,
the JSON report schema, the CLI exit codes, and — the tier-1 gate —
that the repository's own ``src/`` tree is clean.
"""

import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    FINDINGS_SCHEMA,
    Finding,
    LintConfig,
    all_rules,
    get_rule,
    lint_paths,
    lint_source,
    load_config,
    path_matches,
)
from repro.lint.cli import main as lint_main
from repro.lint.findings import finding_fingerprint
from repro.lint.rules_concurrency import MustReleaseResources
from repro.lint.rules_dataflow import (
    EffectFreeTasks,
    NoLargeArrayPickle,
    NoUnusedSuppressions,
)
from repro.lint.rules_determinism import NoUnseededRandomness, NoWallClock
from repro.lint.rules_parallelism import NoUnpicklableTask
from repro.lint.rules_robustness import PersistenceWritesThroughStorage
from repro.lint.runner import PARSE_ERROR_ID

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_rule(rule_class, source):
    return lint_source(textwrap.dedent(source), rules=[rule_class])


#: A file with one ADA003 finding (a lambda handed to TaskSpec) at 2:17;
#: rules with no default scope run on it wherever it is linted.
_BAD_FILE = (
    "from repro.cloud.executor import TaskSpec\n"
    "SPEC = TaskSpec(lambda: 1, ())\n"
)

#: One ADA003 and one ADA014 finding: a lambda task shipping an array.
_TWO_RULES = """
    import numpy as np

    from repro.cloud.executor import TaskSpec

    def build():
        matrix = np.zeros((3, 3))
        return TaskSpec(lambda m: m, (matrix,))
    """


# ----------------------------------------------------------------------
# The tier-1 gate: the repository's own trees are clean
# ----------------------------------------------------------------------
def test_repo_is_clean():
    report = lint_paths(
        [
            REPO_ROOT / "src",
            REPO_ROOT / "benchmarks",
            REPO_ROOT / "examples",
        ],
        root=REPO_ROOT,
    )
    assert report.files_checked > 80
    assert report.findings == [], "\n" + report.format_human()


# ----------------------------------------------------------------------
# Rule registry
# ----------------------------------------------------------------------
def test_registry_ships_the_eight_rules():
    ids = [rule.rule_id for rule in all_rules()]
    assert ids == [
        "ADA001", "ADA002", "ADA003", "ADA009", "ADA012",
        "ADA014", "ADA017", "ADA023",
    ]
    assert all(r.severity in ("error", "warning") for r in all_rules())


def test_get_rule_round_trips():
    assert get_rule("ADA003") is NoUnpicklableTask
    with pytest.raises(KeyError):
        get_rule("ADA999")


# ----------------------------------------------------------------------
# Per-rule fixtures: every registered rule fires on bad code; the
# bundled good fixtures stay silent
# ----------------------------------------------------------------------
_BAD = {
    NoUnseededRandomness: """
        import numpy as np

        def draw(values):
            rng = np.random.default_rng()
            return np.random.choice(values)
        """,
    NoWallClock: """
        import time

        def stamp():
            return time.time()
        """,
    NoUnpicklableTask: """
        from concurrent.futures import ProcessPoolExecutor

        def run(items):
            with ProcessPoolExecutor() as pool:
                return [pool.submit(lambda x: x + 1, i) for i in items]
        """,
    PersistenceWritesThroughStorage: """
        import os
        from pathlib import Path

        def save(path, tmp, content):
            with open(tmp, "w") as handle:
                handle.write(content)
            os.replace(tmp, path)
            Path(path).with_suffix(".bak").write_text(content)
        """,
    EffectFreeTasks: """
        import time

        from repro.cloud.executor import TaskSpec

        def task(x):
            return time.time() + x

        def build():
            return TaskSpec(task, (1,))
        """,
    NoUnusedSuppressions: """
        VALUE = 1  # adalint: disable=ADA999
        """,
    NoLargeArrayPickle: """
        import numpy as np

        from repro.cloud.executor import TaskSpec

        def work(ref, k):
            return ref

        def sweep(k_values):
            matrix = np.asarray([[1.0, 2.0]])
            return [TaskSpec(work, (matrix, k)) for k in k_values]
        """,
    MustReleaseResources: """
        from multiprocessing import shared_memory

        def attach(name):
            segment = shared_memory.SharedMemory(name=name)
            size = segment.size
            return size
        """,
}

_GOOD = {
    NoUnseededRandomness: """
        import numpy as np

        def draw(values, seed):
            rng = np.random.default_rng(seed)
            return rng.choice(values)
        """,
    NoWallClock: """
        import time

        def stamp():
            return time.perf_counter()
        """,
    NoUnpicklableTask: """
        from concurrent.futures import ProcessPoolExecutor

        def work(x):
            return x + 1

        def run(items):
            with ProcessPoolExecutor() as pool:
                return [pool.submit(work, i) for i in items]
        """,
    PersistenceWritesThroughStorage: """
        import json

        def load(path, storage):
            with open(path) as handle:
                data = json.load(handle)
            storage.atomic_write(path, json.dumps(data))
            handle = storage.open_append(path)
            handle.write_line("x")
            return data
        """,
}


@pytest.mark.parametrize(
    "rule_class", all_rules(), ids=lambda r: r.rule_id
)
def test_rule_fires_on_bad_snippet(rule_class):
    """The registry test: every registered rule has a bad fixture here
    and fires on it, so a rule cannot be added without one."""
    assert rule_class in _BAD, f"{rule_class.rule_id} has no bad fixture"
    findings = run_rule(rule_class, _BAD[rule_class])
    assert findings, f"{rule_class.rule_id} missed its bad snippet"
    assert all(f.rule_id == rule_class.rule_id for f in findings)
    assert all(f.line > 0 and f.col > 0 for f in findings)


@pytest.mark.parametrize(
    "rule_class", list(_GOOD), ids=lambda r: r.rule_id
)
def test_rule_silent_on_good_snippet(rule_class):
    findings = run_rule(rule_class, _GOOD[rule_class])
    assert findings == [], "\n".join(f.format() for f in findings)


#: Ids the suppression tests use precisely because no rule has them.
_UNREGISTERED_IDS = {"ADA042", "ADA999"}


def test_fixtures_name_only_registered_rules():
    """No lint test names a rule the registry no longer ships."""
    named = set()
    for module in Path(__file__).parent.glob("test_lint*.py"):
        named |= set(
            re.findall(r"\bADA\d{3}\b", module.read_text(encoding="utf-8"))
        )
    known = {rule.rule_id for rule in all_rules()} | {PARSE_ERROR_ID}
    assert named - known == _UNREGISTERED_IDS


# ----------------------------------------------------------------------
# Rule-specific edges
# ----------------------------------------------------------------------
def test_ada001_flags_stdlib_random_and_legacy_np():
    findings = run_rule(
        NoUnseededRandomness,
        """
        import random
        import numpy as np

        STATE = np.random.RandomState(0)
        """,
    )
    assert len(findings) == 2


def test_ada001_accepts_seed_keyword():
    findings = run_rule(
        NoUnseededRandomness,
        """
        import numpy as np

        def draw(seed):
            return np.random.default_rng(seed=seed)
        """,
    )
    assert findings == []


def test_ada001_rejects_explicit_none_seed():
    findings = run_rule(
        NoUnseededRandomness,
        """
        import numpy as np

        rng = np.random.default_rng(None)
        """,
    )
    assert len(findings) == 1


def test_ada002_flags_datetime_now_but_not_perf_counter():
    findings = run_rule(
        NoWallClock,
        """
        import time
        from datetime import datetime

        def run():
            start = time.perf_counter()
            stamp = datetime.now()
            return stamp, time.perf_counter() - start
        """,
    )
    assert len(findings) == 1
    assert "datetime.now" in findings[0].message


def test_ada003_thread_pool_closures_are_fine():
    findings = run_rule(
        NoUnpicklableTask,
        """
        from concurrent.futures import ThreadPoolExecutor

        def run(items):
            with ThreadPoolExecutor() as pool:
                return [pool.submit(lambda x: x, i) for i in items]
        """,
    )
    assert findings == []


def test_ada003_flags_nested_def_handed_to_taskspec():
    findings = run_rule(
        NoUnpicklableTask,
        """
        from repro.cloud.executor import TaskSpec

        def build(goal):
            def helper(matrix):
                return goal, matrix
            return TaskSpec(helper, ())
        """,
    )
    assert len(findings) == 1
    assert "helper" in findings[0].message


def test_ada023_storage_module_is_exempt():
    source = textwrap.dedent(
        """
        import os

        def atomic_write(path, tmp, content):
            with open(tmp, "w") as handle:
                handle.write(content)
            os.replace(tmp, path)
        """
    )
    # inside the funnel module: clean
    assert (
        lint_source(
            source,
            relpath="src/repro/kdb/storage.py",
            rules=[PersistenceWritesThroughStorage],
        )
        == []
    )
    # the same code anywhere else in kdb: flagged
    findings = lint_source(
        source,
        relpath="src/repro/kdb/shards.py",
        rules=[PersistenceWritesThroughStorage],
    )
    assert len(findings) == 2


def test_ada023_scoped_to_kdb_by_default():
    config = load_config(REPO_ROOT / "pyproject.toml")
    rule = get_rule("ADA023")
    assert config.rule_applies(rule, "src/repro/kdb/shards.py")
    assert not config.rule_applies(rule, "src/repro/core/cache.py")


def test_ada023_dynamic_mode_and_reads():
    # a mode the AST cannot prove read-only is flagged
    findings = run_rule(
        PersistenceWritesThroughStorage,
        """
        def touch(path, mode):
            return open(path, mode)
        """,
    )
    assert len(findings) == 1
    # plain reads (default mode or explicit "r"/"rb") are fine
    assert (
        run_rule(
            PersistenceWritesThroughStorage,
            """
            def read(path):
                with open(path, "rb") as handle:
                    return handle.read()
            """,
        )
        == []
    )


# ----------------------------------------------------------------------
# Suppression pragmas
# ----------------------------------------------------------------------
def test_line_pragma_suppresses_only_that_line():
    findings = run_rule(
        NoUnseededRandomness,
        """
        import numpy as np

        def draw():
            a = np.random.default_rng()  # adalint: disable=ADA001
            b = np.random.default_rng()
            return a, b
        """,
    )
    assert len(findings) == 1
    assert findings[0].line == 6


def test_file_pragma_suppresses_whole_file():
    findings = run_rule(
        NoUnseededRandomness,
        """
        # adalint: disable-file=ADA001
        import numpy as np

        def draw():
            return np.random.default_rng(), np.random.default_rng()
        """,
    )
    assert findings == []


def test_all_wildcard_suppresses_every_rule():
    findings = lint_source(
        textwrap.dedent(
            """
            import numpy as np

            from repro.cloud.executor import TaskSpec

            def build():
                rng = np.random.default_rng()  # adalint: disable=all
                return TaskSpec(lambda: rng, ())
            """
        ),
        rules=[NoUnseededRandomness, NoUnpicklableTask],
    )
    assert [f.rule_id for f in findings] == ["ADA003"]


def test_pragma_with_unrelated_rule_does_not_suppress():
    findings = run_rule(
        NoUnseededRandomness,
        """
        import numpy as np

        rng = np.random.default_rng()  # adalint: disable=ADA002
        """,
    )
    assert len(findings) == 1


# ----------------------------------------------------------------------
# Config: path scoping, select/ignore, exclusion
# ----------------------------------------------------------------------
def test_default_paths_scope_determinism_rules():
    source = textwrap.dedent(
        """
        import numpy as np

        rng = np.random.default_rng()
        """
    )
    in_scope = lint_source(
        source, relpath="src/repro/mining/kmeans.py"
    )
    out_of_scope = lint_source(
        source, relpath="src/repro/obs/tracing.py"
    )
    assert [f.rule_id for f in in_scope] == ["ADA001"]
    assert out_of_scope == []


def test_config_paths_override_rule_scope():
    config = LintConfig(paths={"ADA023": ["src/repro/core"]})
    source = textwrap.dedent(
        """
        def save(path, text):
            with open(path, "w") as handle:
                handle.write(text)
        """
    )
    hit = lint_source(
        source, relpath="src/repro/core/cache.py", config=config
    )
    miss = lint_source(
        source, relpath="src/repro/kdb/kdb.py", config=config
    )
    assert "ADA023" in [f.rule_id for f in hit]
    assert "ADA023" not in [f.rule_id for f in miss]


def test_config_select_and_ignore():
    source = textwrap.dedent(_TWO_RULES)
    only_003 = lint_source(
        source, config=LintConfig(select=["ADA003"])
    )
    without_003 = lint_source(
        source, config=LintConfig(ignore=["ADA003"])
    )
    assert [f.rule_id for f in only_003] == ["ADA003"]
    assert [f.rule_id for f in without_003] == ["ADA014"]


def test_path_matches_globs_and_prefixes():
    assert path_matches("src/repro/mining/kmeans.py", "src/repro/mining")
    assert path_matches("src/repro/mining/kmeans.py", "**/kmeans.py")
    assert not path_matches("src/repro/obs/tracing.py", "src/repro/mining")


def test_load_config_reads_tool_adalint(tmp_path):
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text(
        textwrap.dedent(
            """
            [tool.adalint]
            ignore = ["ADA014"]
            exclude = ["src/vendored"]

            [tool.adalint.paths]
            ADA023 = ["src/repro/kdb"]
            """
        ),
        encoding="utf-8",
    )
    config = load_config(pyproject)
    assert config.ignore == ["ADA014"]
    assert config.file_excluded("src/vendored/thing.py")
    assert config.paths["ADA023"] == ["src/repro/kdb"]


def test_repo_pyproject_scopes_determinism_rules():
    config = load_config(REPO_ROOT / "pyproject.toml")
    assert config.paths["ADA001"] == ["src/repro/mining", "src/repro/core"]
    assert config.paths["ADA002"] == ["src/repro/mining", "src/repro/core"]


# ----------------------------------------------------------------------
# The py<3.11 TOML-subset fallback agrees with tomllib
# ----------------------------------------------------------------------
_TOML_CASES = {
    "inline-comment": 'select = ["ADA001"]  # trailing words\n',
    "hash-inside-string": 'exclude = ["src/#gen", "x # y"]\n',
    "single-quoted-strings": "ignore = ['ADA014', 'ADA023']\n",
    "trailing-comma": 'select = [\n    "ADA001",\n    "ADA002",\n]\n',
    "comments-in-multiline-array": (
        "select = [\n"
        '    "ADA001",  # first\n'
        "    # a full-line comment\n"
        '    "ADA002",\n'
        "]\n"
    ),
    "inline-table": 'license = { text = "MIT", osi = true }\n',
    "scalars": 'flag = true\noff = false\ncount = 3\nratio = 0.5\n',
    "nested-tables": (
        "[tool.adalint]\n"
        'select = ["ADA001"]\n'
        "[tool.adalint.paths]\n"
        'ADA023 = ["src"]\n'
    ),
}


@pytest.mark.parametrize("case", sorted(_TOML_CASES))
def test_toml_fallback_matches_tomllib(case):
    import tomllib

    from repro.lint.config import _parse_toml_subset

    text = _TOML_CASES[case]
    assert _parse_toml_subset(text) == tomllib.loads(text)


def test_toml_fallback_parses_repo_pyproject_like_tomllib():
    import tomllib

    from repro.lint.config import _parse_toml_subset

    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert _parse_toml_subset(text) == tomllib.loads(text)


# ----------------------------------------------------------------------
# Findings, JSON report schema, syntax errors
# ----------------------------------------------------------------------
def test_finding_format_is_path_line_col():
    finding = Finding(
        path="src/x.py", line=3, col=7, rule_id="ADA023",
        message="raw write",
    )
    assert finding.format() == (
        "src/x.py:3:7: ADA023 [error] raw write"
    )


def test_json_document_schema_is_stable(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(_BAD_FILE, encoding="utf-8")
    report = lint_paths([bad], config=LintConfig(), root=tmp_path)
    document = report.to_document()
    assert document["schema"] == FINDINGS_SCHEMA == "adalint/findings/v1"
    assert sorted(document) == [
        "counts", "files_checked", "findings", "rule_stats", "schema",
    ]
    assert document["files_checked"] == 1
    assert set(document["counts"]) == {"error", "warning"}
    for stats in document["rule_stats"].values():
        assert sorted(stats) == ["findings", "wall_s"]
    for entry in document["findings"]:
        assert sorted(entry) == [
            "col", "line", "message", "path", "rule", "severity",
        ]
    json.dumps(document)  # must be serialisable as-is


def test_syntax_error_becomes_parse_finding():
    findings = lint_source("def broken(:\n    pass\n")
    assert [f.rule_id for f in findings] == [PARSE_ERROR_ID]


# ----------------------------------------------------------------------
# CLI: exit codes and output formats
# ----------------------------------------------------------------------
def test_cli_clean_tree_exits_zero(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("VALUE = 1\n", encoding="utf-8")
    assert lint_main([str(clean)]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_cli_findings_exit_one_and_print_location(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(_BAD_FILE, encoding="utf-8")
    assert lint_main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "bad.py:2:17: ADA003" in out


def test_cli_json_output_parses(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(_BAD_FILE, encoding="utf-8")
    assert lint_main(["--format", "json", str(bad)]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["schema"] == FINDINGS_SCHEMA
    assert document["counts"]["error"] == 1


def test_cli_missing_path_exits_two(tmp_path, capsys):
    assert lint_main([str(tmp_path / "nope.py")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_cli_select_and_ignore(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(_BAD_FILE, encoding="utf-8")
    assert lint_main(["--select", "ADA001", str(bad)]) == 0
    assert lint_main(["--ignore", "ADA003,ADA014", str(bad)]) == 0


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_class in all_rules():
        assert rule_class.rule_id in out


def test_repro_cli_lint_subcommand(tmp_path, capsys):
    from repro.cli import main as repro_main

    bad = tmp_path / "bad.py"
    bad.write_text(_BAD_FILE, encoding="utf-8")
    assert repro_main(["lint", "--format", "json", str(bad)]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["counts"]["error"] == 1


# ----------------------------------------------------------------------
# Extensibility: a custom Rule plugs into the same machinery
# ----------------------------------------------------------------------
def test_custom_rule_subclass_runs_through_lint_source():
    import ast

    from repro.lint import Rule

    class NoPrint(Rule):
        rule_id = "XYZ001"
        name = "no-print"
        description = "print() is for humans, not libraries"

        def visit_Call(self, node):
            if isinstance(node.func, ast.Name) and node.func.id == "print":
                self.report(node, "use logging instead of print()")
            self.generic_visit(node)

    findings = lint_source("print('hi')\n", rules=[NoPrint])
    assert [f.rule_id for f in findings] == ["XYZ001"]


# ----------------------------------------------------------------------
# SARIF fingerprints and per-rule profiling
# ----------------------------------------------------------------------
def test_fingerprint_ignores_line_number_and_message():
    at_three = Finding(
        path="src/a.py", line=3, col=5, rule_id="ADA001",
        message="unseeded default_rng() (line 3)",
    )
    at_nine = Finding(
        path="src/a.py", line=9, col=5, rule_id="ADA001",
        message="unseeded default_rng() (line 9)",
    )
    assert finding_fingerprint(
        at_three, "    rng = default_rng()"
    ) == finding_fingerprint(at_nine, "  rng = default_rng()  ")


def test_rule_stats_profile_wall_time_and_findings(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(textwrap.dedent(_TWO_RULES), encoding="utf-8")
    report = lint_paths([bad], config=LintConfig(), root=tmp_path)
    assert report.rule_stats["ADA003"]["findings"] == 1
    assert report.rule_stats["ADA014"]["findings"] == 1
    for stats in report.rule_stats.values():
        assert stats["wall_s"] >= 0.0
    formatted = report.format_stats()
    assert "ADA003" in formatted and "ms" in formatted
