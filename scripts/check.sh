#!/usr/bin/env sh
# The repository gate: adalint, the marker smokes, the paper's shape
# claims, then the tier-1 test suite.
# Usage: scripts/check.sh [extra pytest args...]
# Mirrors .github/workflows/check.yml so local runs and CI agree.
set -eu

cd "$(dirname "$0")/.."

echo "==> adalint (src/ benchmarks/ examples/)"
# One lint run writes the SARIF log (the CI artifact upload) and gates
# on its exit status; on findings, each result is listed as
# path:line RULE message.
lint_status=0
PYTHONPATH=src python -m repro.lint --format sarif >adalint.sarif \
    || lint_status=$?
python - "$lint_status" <<'EOF'
import json
import sys

doc = json.load(open("adalint.sarif"))
run = doc["runs"][0]
print(
    f"==> lint stats: {len(run['results'])} findings across"
    f" {len(run['tool']['driver']['rules'])} rules"
    f" (SARIF {doc['version']} -> adalint.sarif)"
)
if sys.argv[1] != "0":
    for result in run["results"]:
        location = result["locations"][0]["physicalLocation"]
        print(
            f"{location['artifactLocation']['uri']}"
            f":{location['region']['startLine']}"
            f" {result['ruleId']} {result['message']['text']}"
        )
EOF
[ "$lint_status" -eq 0 ]

echo "==> chaos suite (seeded fault injection)"
PYTHONPATH=src python -m pytest -x -q -m faults

echo "==> shared-memory transport smoke"
PYTHONPATH=src python -m pytest -x -q -m shm

echo "==> K-DB scale smoke (sharded store + indexed reads)"
PYTHONPATH=src python -m pytest -x -q -m kdb_scale benchmarks/test_kdb_scale.py

echo "==> crash-consistency sweep (fault injection + fsck recovery)"
PYTHONPATH=src python -m pytest -x -q -m crash

echo "==> session benchmark harness smoke (ledger hooks, digest check)"
# A tiny-cohort run of every workload: an engine change that renames a
# callable the per-layer ledger wraps (e.g. DBSCAN.fit) fails here.
python -m pytest -x -q sessionbench/test_smoke.py

echo "==> paper shape claims"
# EXPERIMENTS.md E1-E10 at paper scale, plus a cold analyze whose
# ranking must match sessionbench/expected_digest.json["paper"].
PYTHONPATH=src python -m pytest -x -q -m paper --benchmark-disable benchmarks/

echo "==> tier-1 tests"
PYTHONPATH=src python -m pytest -x -q "$@"
