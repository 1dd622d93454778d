"""The paper-scale session digest: one cold ``analyze`` pinned end to end.

``sessionbench/expected_digest.json["paper"]`` is the SHA-256 of the
ranked ``(kind, title, score)`` list a cold paper-cohort session must
produce; the session benchmark counts a run as failed when its ranking
hashes to anything else. This test recomputes that digest outside the
harness, so a change that moves any ranked item, title or score fails
the paper-claims gate rather than only the benchmark's success rate.
A second test takes the warm-revisit path: a cached cold analyze into
an on-disk K-DB, then a revisit of the reopened K-DB that restores the
dataset profile and every goal from the analysis cache, and must rank
to the same digest without characterising the cohort again. The digest
file is read, never written.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import repro.core.engine as engine_module
from repro.core import ADAHealth, EngineConfig
from repro.kdb.kdb import KnowledgeBase

from conftest import BENCH_SEED

pytestmark = pytest.mark.paper

EXPECTED_DIGESTS = (
    Path(__file__).resolve().parent.parent
    / "sessionbench"
    / "expected_digest.json"
)

#: The dataset name a cold session analyses under.
COHORT_NAME = "diabetes-cohort"


def _digest(result) -> str:
    ranked = [(item.kind, item.title, item.score) for item in result.items]
    return hashlib.sha256(json.dumps(ranked).encode()).hexdigest()


def test_cold_paper_analyze_matches_the_session_digest(paper_log):
    expected = json.loads(EXPECTED_DIGESTS.read_text())["paper"]
    result = ADAHealth(seed=BENCH_SEED).analyze(paper_log, name=COHORT_NAME)
    assert _digest(result) == expected


def _cached_analyze(directory: Path, log):
    kdb = KnowledgeBase.open_sharded(directory)
    try:
        engine = ADAHealth(
            kdb=kdb, config=EngineConfig(use_cache=True), seed=BENCH_SEED
        )
        return engine.analyze(log, name=COHORT_NAME)
    finally:
        kdb.store.close()


def test_warm_paper_revisit_matches_the_session_digest(
    paper_log, tmp_path, monkeypatch
):
    expected = json.loads(EXPECTED_DIGESTS.read_text())["paper"]
    cold = _cached_analyze(tmp_path / "kdb", paper_log)
    assert _digest(cold) == expected

    def refuse(log):
        raise AssertionError("a warm revisit characterised the cohort")

    monkeypatch.setattr(engine_module, "characterize_log", refuse)
    warm = _cached_analyze(tmp_path / "kdb", paper_log)
    assert warm.profile == cold.profile
    assert _digest(warm) == expected
