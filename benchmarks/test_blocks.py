"""E13 — out-of-core analysis at 10x the paper's dataset.

The paper's scalability claim is that the methodology "can be applied
to large volumes of data"; its own cohort stops at 95,788 records. This
benchmark pushes the reproduction one order of magnitude past that:
a >= 957,880-record cohort is *streamed* through the engine's data
plane — :meth:`DiabeticExamLogGenerator.generate_blocks` emits
patient-partitioned blocks, K-means consumes them through
:meth:`KMeans.partial_fit`, and frequent-itemset mining runs blockwise
through :func:`apriori_blocks` — without the full record set, patient
matrix or transaction database ever being resident at once.

Recorded in ``benchmarks/BENCH_blocks.json``: wall time per stage,
block count, records processed, and the peak-block versus full-matrix
memory ratio that makes the out-of-core claim concrete.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.data import GeneratorConfig, DiabeticExamLogGenerator
from repro.data.blocks import leaked_segments
from repro.mining.itemsets import apriori_blocks
from repro.mining.kmeans import KMeans
from repro.preprocess import VSMBuilder

from conftest import BENCH_SEED, host_facts

RESULT_PATH = Path(__file__).resolve().parent / "BENCH_blocks.json"

#: 10x the paper's 95,788 records is the floor this benchmark pins.
PAPER_RECORDS = 95_788
SCALE_FLOOR = 10 * PAPER_RECORDS

#: Patients per generated block (16 blocks over the 10x cohort).
BLOCK_PATIENTS = 4_000


def _record(section: str, payload: dict) -> None:
    data = {}
    if RESULT_PATH.exists():
        data = json.loads(RESULT_PATH.read_text())
    data[section] = payload
    data["host"] = host_facts()
    RESULT_PATH.write_text(json.dumps(data, indent=2, sort_keys=True))


def test_tenfold_scale_blocked_pipeline(benchmark):
    config = GeneratorConfig(
        n_patients=63_800,
        n_exam_types=159,
        target_records=1_053_668,  # 11x target, safely over the floor
    )
    generator = DiabeticExamLogGenerator(config, seed=BENCH_SEED)
    builder = VSMBuilder("binary", exam_codes=range(159))
    stats = {}

    def streamed_run():
        model = KMeans(n_clusters=8, seed=BENCH_SEED)
        total_records = 0
        n_blocks = 0
        peak_block_bytes = 0
        peak_block_records = 0

        def transaction_blocks():
            nonlocal total_records, n_blocks
            nonlocal peak_block_bytes, peak_block_records
            for block_log in generator.generate_blocks(
                block_rows=BLOCK_PATIENTS
            ):
                total_records += block_log.n_records
                n_blocks += 1
                peak_block_records = max(
                    peak_block_records, block_log.n_records
                )
                block_matrix = builder.build(block_log).matrix
                peak_block_bytes = max(
                    peak_block_bytes, block_matrix.nbytes
                )
                model.partial_fit(block_matrix)
                yield block_log.transactions(by="patient")

        itemsets = apriori_blocks(
            transaction_blocks(), min_support=0.3, max_length=3
        )
        stats.update(
            total_records=total_records,
            n_blocks=n_blocks,
            peak_block_bytes=peak_block_bytes,
            peak_block_records=peak_block_records,
            n_frequent_itemsets=len(itemsets),
            patients_clustered=model.n_seen_,
        )
        return itemsets

    start = time.perf_counter()
    benchmark.pedantic(streamed_run, rounds=1, iterations=1)
    wall_seconds = time.perf_counter() - start

    full_matrix_bytes = config.n_patients * config.n_exam_types * 8
    block_fraction = stats["peak_block_bytes"] / full_matrix_bytes

    print()
    print("E13 — blocked pipeline at 10x paper scale")
    print(f"records streamed:     {stats['total_records']:>12,}"
          f"   (paper: {PAPER_RECORDS:,})")
    print(f"blocks:               {stats['n_blocks']:>12}"
          f"   ({BLOCK_PATIENTS:,} patients each)")
    print(f"frequent itemsets:    {stats['n_frequent_itemsets']:>12}")
    print(f"peak block matrix:    {stats['peak_block_bytes']:>12,} B"
          f"   ({block_fraction:.1%} of the full matrix)")
    print(f"wall time:            {wall_seconds:>12.2f} s")

    _record(
        "tenfold_scale_pipeline",
        {
            "target_records": config.target_records,
            "records_streamed": stats["total_records"],
            "scale_over_paper": stats["total_records"] / PAPER_RECORDS,
            "n_blocks": stats["n_blocks"],
            "block_patients": BLOCK_PATIENTS,
            "patients_clustered": stats["patients_clustered"],
            "n_frequent_itemsets": stats["n_frequent_itemsets"],
            "peak_block_matrix_bytes": stats["peak_block_bytes"],
            "full_matrix_bytes": full_matrix_bytes,
            "peak_block_fraction": block_fraction,
            "wall_seconds": wall_seconds,
        },
    )
    benchmark.extra_info["records"] = stats["total_records"]

    assert stats["total_records"] >= SCALE_FLOOR
    assert stats["patients_clustered"] == config.n_patients
    assert stats["n_frequent_itemsets"] >= 1
    # out-of-core: no block ever holds more than a sliver of the data
    assert block_fraction <= 0.125
    assert leaked_segments() == []
