"""E14 — the K-DB at EHR scale: sharded storage + indexed reads.

The paper stores the Knowledge Base "on a cluster of MongoDBs"; the
EHR-mining survey in PAPERS.md puts real workloads at millions of
records. This benchmark drives the reproduction's substitute store to
that scale: knowledge-item documents are bulk-inserted into a
:class:`~repro.kdb.shards.ShardedDocumentStore`, an equality
(``bucket``) query is timed first as a full scan and then through a
hash index, the top 10 by ``score`` are read through a sorted index's
ordered view, and the shard files are closed, replayed and compacted
with every document verified across the round trip.

Two tiers share one harness:

* the **smoke tier** (always, wired into ``scripts/check.sh``) runs the
  whole protocol at 20k documents — correctness on every gate, CI-safe
  wall time — and records nothing, so a gate run leaves the tree as it
  found it;
* the **full tier** (``REPRO_KDB_FULL=1``) runs 1,000,000 documents and
  records the headline numbers in ``benchmarks/BENCH_kdb.json``:
  indexed point latency versus scan, indexed-vs-scan result identity,
  index build time, index-ordered top-10 time, replay and compaction
  time.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

import pytest

from repro.kdb.shards import ShardedDocumentStore

from conftest import BENCH_SEED

pytestmark = pytest.mark.kdb_scale

RESULT_PATH = Path(__file__).resolve().parent / "BENCH_kdb.json"

KINDS = ("cluster", "itemset", "rule", "outlier")
GOALS = tuple(f"goal-{i:02d}" for i in range(50))

FULL = os.environ.get("REPRO_KDB_FULL") == "1"
N_SMOKE = 20_000
N_FULL = 1_000_000
N_SHARDS = 16


def _record(section: str, payload: dict) -> None:
    data = {}
    if RESULT_PATH.exists():
        data = json.loads(RESULT_PATH.read_text())
    data[section] = payload
    data["host"] = {"cpu_count": os.cpu_count()}
    RESULT_PATH.write_text(json.dumps(data, indent=2, sort_keys=True))


def _items(n: int):
    rng = random.Random(BENCH_SEED)
    for i in range(n):
        yield {
            "_id": i,
            "kind": KINDS[i % len(KINDS)],
            "end_goal": GOALS[i % len(GOALS)],
            # ~100 documents per bucket at any n: the point-query target.
            "bucket": i % max(1, n // 100),
            "score": round(rng.random(), 6),
            "support": rng.randint(1, 500),
        }


def _timed(fn, repeats: int = 3):
    """(best wall seconds, last result) over ``repeats`` runs."""
    best, result = None, None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def _canonical(rows) -> str:
    return json.dumps(sorted(rows, key=lambda r: r["_id"]), sort_keys=True)


def _run_scale_protocol(n_items: int, tmp_path: Path, section: str):
    point_query = {"bucket": 7}
    stats: dict = {"n_items": n_items, "n_shards": N_SHARDS}

    store = ShardedDocumentStore(tmp_path / "kdb", n_shards=N_SHARDS)
    items = store.collection("discovered_knowledge")

    start = time.perf_counter()
    for document in _items(n_items):
        items.insert_one(document)
    stats["insert_wall_s"] = time.perf_counter() - start
    stats["insert_per_s"] = n_items / stats["insert_wall_s"]

    # -- scans first (no indexes yet) -----------------------------------
    scan_point_s, scan_point = _timed(
        lambda: items.find(point_query).to_list()
    )
    assert items.last_plan.kind == "scan"

    # -- index build ----------------------------------------------------
    start = time.perf_counter()
    items.create_index("bucket")
    items.create_index("score", kind="sorted")
    stats["index_build_s"] = time.perf_counter() - start

    indexed_point_s, indexed_point = _timed(
        lambda: items.find(point_query).to_list()
    )
    point_plan = items.last_plan
    assert point_plan.kind == "point" and point_plan.index == "bucket_1"

    # indexed vs scan: byte-identical result sets
    assert _canonical(indexed_point) == _canonical(scan_point)
    assert len(scan_point) > 0

    # indexed access must beat the scan it replaces
    assert indexed_point_s < scan_point_s

    # index-ordered top-k: resolves via the sorted index's ordered view
    # (built on the first walk), same answer as a full sort
    top_indexed_s, top_indexed = _timed(
        lambda: items.find({}).sort("score", -1).limit(10).to_list()
    )
    top_scores = [row["score"] for row in top_indexed]
    assert top_scores == sorted(top_scores, reverse=True)
    assert len(top_indexed) == 10
    assert top_scores == sorted(
        (document["score"] for document in items._documents.values()),
        reverse=True,
    )[:10]

    stats.update(
        scan_point_s=scan_point_s,
        indexed_point_s=indexed_point_s,
        point_speedup=scan_point_s / indexed_point_s,
        top10_sorted_s=top_indexed_s,
        point_rows=len(scan_point),
        planner_identical=True,
    )

    # -- shard round trip: close -> replay -> compact -> replay ----------
    originals = dict(items._documents)
    store.close()

    start = time.perf_counter()
    reopened = ShardedDocumentStore(tmp_path / "kdb", n_shards=N_SHARDS)
    stats["replay_s"] = time.perf_counter() - start
    replayed = reopened.collection("discovered_knowledge")
    assert len(replayed) == n_items
    assert replayed._documents == originals
    assert reopened.load_warnings == []

    start = time.perf_counter()
    reopened.compact()
    stats["compact_s"] = time.perf_counter() - start
    assert reopened.pending_ops() == 0
    disk = reopened.stats()["discovered_knowledge"]
    assert disk["log_bytes"] == 0
    stats["base_bytes"] = disk["base_bytes"]
    reopened.close()

    compacted = ShardedDocumentStore(tmp_path / "kdb", n_shards=N_SHARDS)
    assert (
        compacted.collection("discovered_knowledge")._documents
        == originals
    )
    assert compacted.load_warnings == []
    compacted.close()
    stats["round_trip_ok"] = True

    print()
    print(f"E14 — K-DB scale ({section}, {n_items:,} items)")
    print(f"insert throughput:   {stats['insert_per_s']:>12,.0f} docs/s")
    print(f"point query:         {scan_point_s * 1e3:>9.2f} ms scan"
          f" -> {indexed_point_s * 1e3:.3f} ms indexed"
          f" ({stats['point_speedup']:.0f}x)")
    print(f"top 10 by score:     {top_indexed_s * 1e3:>9.2f} ms")
    print(f"replay / compact:    {stats['replay_s']:>9.2f} s /"
          f" {stats['compact_s']:.2f} s")
    return stats


def test_kdb_scale_smoke(tmp_path):
    """CI tier: the full protocol, 20k documents."""
    _run_scale_protocol(N_SMOKE, tmp_path, "smoke")


@pytest.mark.skipif(
    not FULL, reason="full 1M-item tier runs with REPRO_KDB_FULL=1"
)
def test_kdb_scale_full_million(tmp_path):
    """Acceptance tier: 1,000,000 knowledge items (BENCH_kdb.json)."""
    stats = _run_scale_protocol(N_FULL, tmp_path, "full_1m")
    _record("full_1m", stats)
    # sub-linear access at scale: orders of magnitude, not epsilon
    assert stats["point_speedup"] > 50
