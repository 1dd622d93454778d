#!/usr/bin/env sh
# The repository gate: adalint, then the tier-1 test suite.
# Usage: scripts/check.sh [extra pytest args...]
# Mirrors .github/workflows/check.yml so local runs and CI agree.
set -eu

cd "$(dirname "$0")/.."

echo "==> purity certificates (byte-stable reproduction)"
# Re-emit the adalint/certificates/v1 artifact and compare against the
# committed copy: any semantic drift in src/ must come with a
# re-emitted artifact in the same change.
PYTHONPATH=src python -m repro.lint --emit-certs \
    --certs-path certificates.regen.json >/dev/null
if ! cmp -s contracts/certificates.json certificates.regen.json; then
    echo "error: contracts/certificates.json is stale —" \
         "re-run: PYTHONPATH=src python -m repro.lint --emit-certs" >&2
    rm -f certificates.regen.json
    exit 1
fi
rm -f certificates.regen.json

echo "==> adalint (src/ benchmarks/ examples/)"
# Emit the SARIF log first (for the CI artifact upload) even when
# there are findings, then the human report with parse/cache stats;
# the gate fails afterwards if either run reported anything. The
# baseline diff (adalint.diff.sarif) carries only findings new since
# the committed baseline, when one exists.
lint_status=0
PYTHONPATH=src python -m repro.lint --format sarif >adalint.sarif \
    || lint_status=$?
if [ -f contracts/adalint.baseline.sarif ]; then
    PYTHONPATH=src python -m repro.lint --format sarif \
        --baseline contracts/adalint.baseline.sarif \
        >adalint.diff.sarif || true
fi
PYTHONPATH=src python -m repro.lint --stats || lint_status=$?
echo "==> lint stats: $(python - <<'EOF'
import json
doc = json.load(open("adalint.sarif"))
run = doc["runs"][0]
print(
    f"{len(run['results'])} findings across"
    f" {len(run['tool']['driver']['rules'])} rules"
    f" (SARIF {doc['version']} -> adalint.sarif)"
)
EOF
)"
[ "$lint_status" -eq 0 ]

echo "==> chaos suite (seeded fault injection)"
PYTHONPATH=src python -m pytest -x -q -m faults

echo "==> block-identity smoke (out-of-core data plane)"
PYTHONPATH=src python -m pytest -x -q -m blocks

echo "==> K-DB scale smoke (sharded store + planner)"
PYTHONPATH=src python -m pytest -x -q -m kdb_scale benchmarks/test_kdb_scale.py

echo "==> crash-consistency sweep (fault injection + fsck recovery)"
PYTHONPATH=src python -m pytest -x -q -m crash

echo "==> session benchmark harness smoke (ledger hooks, digest check)"
# A tiny-cohort run of every workload: an engine change that renames a
# callable the per-layer ledger wraps (e.g. DBSCAN.fit) fails here.
python -m pytest -x -q sessionbench/test_smoke.py

echo "==> tier-1 tests"
PYTHONPATH=src python -m pytest -x -q "$@"
