"""E3 — Figure 1: the ADA-HEALTH system architecture.

The paper's only figure is the architecture block diagram. The
benchmark regenerates it *from the live system*: the component registry
in :mod:`repro.core.architecture` is what the engine is assembled from,
and the rendering below is checked against the paper's block list and
exercised end-to-end by running the engine once per benchmark round.
"""

from __future__ import annotations

import pytest

from repro.core import ADAHealth, COMPONENTS, EngineConfig, render_text
from repro.core.architecture import adjacency
from repro.data import small_dataset

from conftest import BENCH_SEED

pytestmark = pytest.mark.paper

#: The blocks named in the paper's SSIII walk-through of Figure 1.
PAPER_BLOCKS = {
    "characterization",  # Data characterization and transformation
    "optimization",  # Data analytics optimization
    "endgoals",  # Identification of viable end-goals
    "navigation",  # Knowledge navigation
    "kdb",  # Knowledge Base (K-DB)
    "user",
    "mining",
}


def test_figure1(benchmark):
    """Render Figure 1 and drive every component once."""
    log = small_dataset(
        n_patients=250, n_exam_types=40, target_records=3500,
        seed=BENCH_SEED,
    )
    config = EngineConfig(
        k_values=(4, 6),
        partial_fractions=(0.4, 1.0),
        partial_k_values=(4,),
        n_folds=3,
    )

    def run_engine():
        engine = ADAHealth(config=config, seed=BENCH_SEED)
        return engine.analyze(log, name="figure1-drive")

    result = benchmark.pedantic(run_engine, rounds=1, iterations=1)

    print()
    print(render_text())
    print()
    print("live drive-through (all components exercised):")
    print(result.summary())

    benchmark.extra_info["n_components"] = len(COMPONENTS)
    benchmark.extra_info["n_items"] = len(result.items)


def test_figure1_blocks_match_paper():
    assert {component.key for component in COMPONENTS} == PAPER_BLOCKS


def test_figure1_interaction_graph_connected():
    """Every component participates in at least one interaction."""
    graph = adjacency()
    incoming = {target for targets in graph.values() for target in targets}
    for key in graph:
        assert graph[key] or key in incoming
