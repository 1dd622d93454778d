"""One benchmark workload, run in its own process by ``run.py``.

The launcher starts this file with the BLAS/OpenMP thread variables set
to 1 and ``src/`` on ``PYTHONPATH``; run it through ``run.py``. It
prints one JSON line: the metrics, the output checks, the host facts
and (with ``--trace 1``) the per-layer ledger.

Each workload is one closed-loop client calling the public
``ADAHealth.analyze`` back-to-back on a generated cohort.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ledger import Recorder, ledger_metrics, per_layer_metrics, traced
from repro.core import ADAHealth, EngineConfig
from repro.data.blocks import leaked_segments
from repro.data.records import ExamLog, ExamRecord
from repro.data.synthetic import paper_dataset, small_dataset
from repro.kdb.fsck import fsck
from repro.kdb.kdb import KnowledgeBase

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
EXPECTED_DIGESTS = BENCH_DIR / "expected_digest.json"
#: The engine seed `repro analyze` uses by default. It is held fixed
#: because it too switches the cross-validation cost between modes.
ENGINE_SEED = 0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
COHORT_NAME = "diabetes-cohort"
#: Feedback given on the top items of every warm-revisit session: enough
#: entries (>= 10) for the engine to train its degree predictor.
FEEDBACK_ITEMS = 10
FEEDBACK_DEGREES = ("high", "medium", "low")
#: Cohort set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 7

END_TO_END = {
    "session_s.min": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_rate": "ratio",
}

Ranking = List[Tuple[str, str, float]]


def ranking(result) -> Ranking:
    """The output a session is checked on: ranked (kind, title, score)."""
    return [(item.kind, item.title, item.score) for item in result.items]


def digest(ranked: Ranking) -> str:
    return hashlib.sha256(json.dumps(ranked).encode()).hexdigest()


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def make_cohort(cohort: str, seed: int) -> ExamLog:
    """The cohort of one run: a fixed base cohort under seeded pseudonyms.

    The base cohort is always generated with seed 0, because the cost
    of a session depends on the cohort: on 2 of 7 paper-scale cohort
    seeds, the optimizer's cross-validation takes 9-10 s instead of
    2.3 s. The run seed replaces every patient id by a fresh, strictly
    increasing random id. Sorted order is kept, so every run does the
    same work and ranks the same items, on input whose bytes, K-DB
    documents and cache keys differ from seed to seed.
    """
    base = paper_dataset(0) if cohort == "paper" else small_dataset(seed=0)
    old_ids = base.patient_ids()
    rng = np.random.default_rng(seed)
    new_ids = np.cumsum(rng.integers(1, 1000, size=len(old_ids))).tolist()
    pseudonym = dict(zip(old_ids, new_ids))
    records = [
        ExamRecord(pseudonym[r.patient_id], r.day, r.exam_code)
        for r in base.records
    ]
    patients = [
        replace(info, patient_id=pseudonym[info.patient_id])
        for info in base.patients.values()
        if info.patient_id in pseudonym
    ]
    return ExamLog(records, taxonomy=base.taxonomy, patients=patients)


def give_feedback(result) -> None:
    """Record expert degrees on the top items, as an analyst would."""
    navigation = result.navigate(page_size=FEEDBACK_ITEMS)
    for position, item in enumerate(navigation.page(0)):
        navigation.give_feedback(
            item, FEEDBACK_DEGREES[position % len(FEEDBACK_DEGREES)]
        )


def dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


# ----------------------------------------------------------------------
# Workloads: set-up returns the reference ranking every timed session
# must reproduce, plus any problem found while setting up.
# ----------------------------------------------------------------------
class ColdAnalyze:
    """First analysis of a cohort: fresh engine and in-memory K-DB,
    cache off, serial execution."""

    pooled = False

    def __init__(self, log, workdir: Path) -> None:
        self.log = log

    def setup(self) -> Tuple[Ranking, List[str]]:
        return ranking(self.session()), []

    def prepare(self, session: int) -> None:
        pass

    def session(self):
        engine = ADAHealth(seed=ENGINE_SEED)
        return engine.analyze(self.log, name=COHORT_NAME)

    def check(self, result) -> List[str]:
        return []

    def finish(self) -> List[str]:
        return []

    def extra_metrics(self, sessions: List[int]) -> Dict[str, float]:
        return {"kdb.bytes_written": 0.0}


class WarmRevisit(ColdAnalyze):
    """The analyst comes back: open the on-disk K-DB, analyse with the
    cache on, give feedback on the top items, close the store.

    Set-up fills a template K-DB with one cold analysis and feedback;
    every session starts from an untimed copy of it, so session time
    cannot drift with run length.
    """

    def __init__(self, log, workdir: Path) -> None:
        super().__init__(log, workdir)
        self.template = workdir / "template"
        self.directory = workdir / "session"
        self.bytes_written: Dict[int, int] = {}
        self._session = -1
        self._size_before = 0

    def _revisit(self, directory: Path):
        kdb = KnowledgeBase.open_sharded(directory)
        try:
            engine = ADAHealth(
                kdb=kdb, config=EngineConfig(use_cache=True), seed=ENGINE_SEED
            )
            result = engine.analyze(self.log, name=COHORT_NAME)
            give_feedback(result)
        finally:
            kdb.store.close()
        return result

    def setup(self) -> Tuple[Ranking, List[str]]:
        cold = ranking(self._revisit(self.template))
        self.prepare(-1)
        problems = []
        if ranking(self.session()) != cold:
            problems.append("warm revisit differs from the cold analysis")
        return cold, problems

    def prepare(self, session: int) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)
        shutil.copytree(self.template, self.directory)
        self._session = session
        self._size_before = dir_bytes(self.directory)

    def session(self):
        return self._revisit(self.directory)

    def check(self, result) -> List[str]:
        self.bytes_written[self._session] = (
            dir_bytes(self.directory) - self._size_before
        )
        return []

    def finish(self) -> List[str]:
        report = fsck(self.directory)
        return [
            f"fsck: {issue.as_dict()}" for issue in report.issues
        ]

    def extra_metrics(self, sessions: List[int]) -> Dict[str, float]:
        return {
            "kdb.bytes_written": sum(
                self.bytes_written.get(s, 0) for s in sessions
            )
            / len(sessions)
        }


class PooledAnalyze(ColdAnalyze):
    """Cold analysis with the goal fan-out on a process pool of one
    worker per usable CPU (never more)."""

    pooled = True

    def setup(self) -> Tuple[Ranking, List[str]]:
        from multiprocessing import resource_tracker

        # Starting the tracker here keeps its spawn out of session one.
        resource_tracker.ensure_running()
        result = self.session()
        return ranking(result), self.check(result)

    def session(self):
        config = EngineConfig(
            executor="process", executor_workers=usable_cpus()
        )
        engine = ADAHealth(config=config, seed=ENGINE_SEED)
        return engine.analyze(self.log, name=COHORT_NAME)

    def check(self, result) -> List[str]:
        leaked = leaked_segments()
        return [f"leaked shared-memory segments {leaked}"] if leaked else []


WORKLOADS = {
    "cold-analyze": ColdAnalyze,
    "warm-revisit": WarmRevisit,
    "pooled-analyze": PooledAnalyze,
}


# ----------------------------------------------------------------------
def host_facts() -> Dict[str, Any]:
    """What a reader needs to know about the host a number came from."""
    facts: Dict[str, Any] = {
        "nproc": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    facts.update({var: os.environ.get(var) for var in THREAD_VARS})
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError, AttributeError):
        facts["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    facts["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return facts


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024  # ru_maxrss is in KiB on Linux


def expected_digest_problems(cohort: str, found: str) -> List[str]:
    """Pseudonyms never change the ranking, so one digest per cohort
    holds for every seed."""
    expected = json.loads(EXPECTED_DIGESTS.read_text())[cohort]
    if found != expected:
        return [f"ranking digest {found} != committed {expected}"]
    return []


def run(args) -> Dict[str, Any]:
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timed_setup(cohort: str, seed: int) -> Tuple[ExamLog, float]:
    """Generate the cohort ``SETUP_REPEATS`` times; the median time.

    The warm-up session that follows runs once and is not part of
    ``setup_s``: one multi-second sample would carry one session's
    noise into a metric that has no median to damp it.
    """
    seconds = []
    for _ in range(SETUP_REPEATS):
        log = None  # never hold two cohorts, so set-up cannot set the peak
        started = time.perf_counter()
        log = make_cohort(cohort, seed)
        seconds.append(time.perf_counter() - started)
    return log, median(seconds)


def _measure(args, workdir: Path) -> Dict[str, Any]:
    log, setup_s = timed_setup(args.cohort, args.seed)
    workload = WORKLOADS[args.workload](log, workdir)
    reference, setup_problems = workload.setup()
    found = digest(reference)
    setup_problems += expected_digest_problems(args.cohort, found)

    recorder = Recorder() if args.trace else None
    min_sessions = 2 if args.trace else 1
    untraced: List[float] = []
    traced_s: List[float] = []
    traced_ids: List[int] = []
    failed_ids: List[int] = []
    problems = list(setup_problems)
    session = 0
    loop_start = time.perf_counter()
    while session < min_sessions or (
        time.perf_counter() - loop_start < args.seconds
    ):
        if args.sessions is not None and session >= args.sessions:
            break
        workload.prepare(session)
        # Traced runs alternate traced and untraced sessions, so the
        # tracing overhead is measured within the same run.
        tracing = recorder is not None and session % 2 == 0
        context = (
            traced(recorder, session, workload.pooled)
            if tracing
            else nullcontext()
        )
        result, error = None, None
        with context:
            t0 = time.perf_counter()
            try:
                result = workload.session()
            except Exception:  # a failed session is counted, not fatal
                error = traceback.format_exc()
            seconds = time.perf_counter() - t0
        (traced_s if tracing else untraced).append(seconds)
        if tracing:
            traced_ids.append(session)
        found_problems = [error] if error else []
        if result is not None:
            if ranking(result) != reference:
                found_problems.append("ranking differs from the reference")
            found_problems += workload.check(result)
        if found_problems or setup_problems:
            failed_ids.append(session)
            problems += found_problems
        session += 1
    final_problems = workload.finish()
    if final_problems:
        problems += final_problems
        if session - 1 not in failed_ids:
            failed_ids.append(session - 1)
    for problem in problems[:5]:
        print(f"session check failed: {problem}", file=sys.stderr)

    attempted, failed = session, len(failed_ids)
    outcome: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "cohort": args.cohort,
        "records": log.n_records,
        "patients": log.n_patients,
        "exam_types": log.n_exam_types,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "samples": len(untraced),
        "session_seconds": untraced,
        "host": host_facts(),
    }
    if recorder is None:
        values = {
            # Every session does the same work, so the fastest is the
            # one the shared host slowed least: steadier than the median.
            "session_s.min": min(untraced),
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": setup_s,
            "success_rate": 1 - failed / attempted,
        }
        units = END_TO_END
    else:
        values = ledger_metrics(
            recorder,
            traced_ids,
            traced_s,
            median(untraced),
            workload.extra_metrics(traced_ids),
        )
        units = per_layer_metrics()
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        recorder.write(str(spans))
        outcome["spans_file"] = str(spans)
    outcome["metrics"] = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
    }
    return outcome


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--cohort", choices=("paper", "small"), required=True)
    parser.add_argument("--sessions", type=int, default=None)
    args = parser.parse_args(argv)
    if args.trace and args.sessions is not None and args.sessions < 2:
        parser.error("a traced run needs --sessions >= 2")
    unset = [var for var in THREAD_VARS if os.environ.get(var) != "1"]
    if unset:
        print(f"run through run.py: {unset} must be 1", file=sys.stderr)
        return 2
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        print(f"repro imported from outside {SRC}", file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
