"""The self-learning loop: K-DB, expert feedback, end-goal prediction.

The paper's key vision: the system "will be continuously enriched with
new health care professionals feedbacks" and gets better at (i)
predicting the interestingness of knowledge items and (ii) selecting
end-goals as interactions accumulate. This example runs two analysis
sessions separated by simulated-expert feedback, persists the K-DB to
disk between them, and shows both learned models at work.

Run:  python examples/knowledge_feedback_loop.py
"""

import tempfile
from pathlib import Path

from repro.core import (
    ADAHealth,
    EngineConfig,
    SimulatedExpert,
    clinician_profile,
)
from repro.data import small_dataset
from repro.kdb import KnowledgeBase


def main() -> None:
    log = small_dataset(
        n_patients=600, n_exam_types=50, target_records=9000, seed=5
    )
    config = EngineConfig(k_values=(4, 6, 8), n_folds=4)
    expert = SimulatedExpert(clinician_profile(), seed=5)

    with tempfile.TemporaryDirectory() as workdir:
        kdb_path = Path(workdir) / "kdb"

        # ---------------- session 1: cold start -----------------------
        kdb = KnowledgeBase.open_sharded(kdb_path)
        engine = ADAHealth(kdb=kdb, config=config, seed=5)
        first = engine.analyze(log, name="monday-cohort", user="dr-rossi")
        print("== session 1 (cold start) ==")
        print(first.summary())

        session = first.navigate(page_size=12)
        for item in session.page(0):
            session.give_feedback(item, expert.label(item))
        for run in first.runs:
            liked = any(i.degree == "high" for i in run.items[:5])
            engine.record_goal_feedback(
                run.goal.name, first.profile, liked
            )
        print(f"\nrecorded {engine.kdb.feedback_count()} feedback labels"
              f" from {expert.profile.name}")
        kdb.store.close()

        # ---------------- session 2: warm start ------------------------
        warm = ADAHealth(
            kdb=KnowledgeBase.open_sharded(kdb_path), config=config, seed=5
        )
        second = warm.analyze(log, name="friday-cohort", user="dr-rossi")
        print("\n== session 2 (warm start from persisted K-DB) ==")
        print(
            "degrees now predicted by the decision tree trained on"
            " the recorded feedback:"
        )
        for item in second.top(6):
            print("   ", item.describe())

        predictor = warm.kdb.train_degree_predictor()
        agreements = sum(
            1
            for item in second.items
            if predictor.predict(item) == expert.label(item)
        )
        print(
            f"\npredictor vs expert agreement on session 2:"
            f" {agreements}/{len(second.items)}"
        )
        print("\nK-DB after both sessions:", warm.kdb.counts())
        warm.kdb.store.close()


if __name__ == "__main__":
    main()
