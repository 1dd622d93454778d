"""The paper-scale session digest: one cold ``analyze`` pinned end to end.

``sessionbench/expected_digest.json["paper"]`` is the SHA-256 of the
ranked ``(kind, title, score)`` list a cold paper-cohort session must
produce; the session benchmark counts a run as failed when its ranking
hashes to anything else. This test recomputes that digest outside the
harness, so a change that moves any ranked item, title or score fails
the paper-claims gate rather than only the benchmark's success rate.
The digest file is read, never written.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core import ADAHealth

from conftest import BENCH_SEED

pytestmark = pytest.mark.paper

EXPECTED_DIGESTS = (
    Path(__file__).resolve().parent.parent
    / "sessionbench"
    / "expected_digest.json"
)

#: The dataset name a cold session analyses under.
COHORT_NAME = "diabetes-cohort"


def test_cold_paper_analyze_matches_the_session_digest(paper_log):
    expected = json.loads(EXPECTED_DIGESTS.read_text())["paper"]
    result = ADAHealth(seed=BENCH_SEED).analyze(paper_log, name=COHORT_NAME)
    ranked = [(item.kind, item.title, item.score) for item in result.items]
    digest = hashlib.sha256(json.dumps(ranked).encode()).hexdigest()
    assert digest == expected
