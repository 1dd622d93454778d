"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``   write a synthetic examination log to disk (CSV or JSONL)
``describe``   print the statistical characterisation of a log
``analyze``    run the full ADA-HEALTH engine and print ranked knowledge
``table1``     regenerate the paper's Table I on a log
``partial``    regenerate the §IV-B partial-mining experiment
``figure1``    print the architecture diagram (paper Figure 1)
``kdb``        inspect (``stats``), compact, or ``fsck [--repair]`` a
               sharded K-DB directory
``shm``        list (``ls``) or reclaim (``reap``) shared-memory
               segments leaked by crashed runs
``lint``       run the adalint invariant checks (see :mod:`repro.lint`)

Every command that reads a dataset accepts either a JSONL file produced
by ``generate --format jsonl`` or a directory produced with
``--format csv``; ``--synthetic N`` generates an N-patient cohort on
the fly instead. A library error (a malformed log, say) prints one
``repro: <message>`` line on stderr and exits with status 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.core import (
    ADAHealth,
    HorizontalPartialMiner,
    KMeansOptimizer,
    render_text,
)
from repro.data import (
    DiabeticExamLogGenerator,
    ExamLog,
    GeneratorConfig,
    load_csv,
    load_jsonl,
    save_csv,
    save_jsonl,
)
from repro.exceptions import ReproError
from repro.preprocess import (
    L2Normalizer,
    VSMBuilder,
    characterize_log,
    feature_profiles,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ADA-HEALTH: automated medical data analysis",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="write a synthetic examination log"
    )
    generate.add_argument("output", help="output path (file or directory)")
    generate.add_argument("--patients", type=int, default=6380)
    generate.add_argument("--exam-types", type=int, default=159)
    generate.add_argument("--records", type=int, default=95788)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--format", choices=("jsonl", "csv"), default="jsonl"
    )

    for name, help_text in (
        ("describe", "characterise a log"),
        ("analyze", "run the full engine"),
        ("table1", "regenerate Table I"),
        ("partial", "regenerate the partial-mining experiment"),
    ):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument(
            "dataset",
            nargs="?",
            help="JSONL file or CSV directory (omit with --synthetic)",
        )
        sub.add_argument(
            "--synthetic",
            type=int,
            metavar="N",
            help="generate an N-patient cohort instead of reading one",
        )
        sub.add_argument("--seed", type=int, default=0)
        if name == "analyze":
            sub.add_argument("--user", default="cli-user")
            sub.add_argument("--top", type=int, default=10)
            sub.add_argument(
                "--goal",
                action="append",
                dest="goals",
                help="restrict to an end-goal (repeatable)",
            )
            sub.add_argument(
                "--trace",
                metavar="FILE",
                help="write nested execution spans to FILE as JSONL",
            )
            sub.add_argument(
                "--metrics",
                action="store_true",
                help="print the metrics snapshot (JSON) after the run",
            )
            sub.add_argument(
                "--on-goal-error",
                choices=("raise", "degrade"),
                default="raise",
                dest="on_goal_error",
                help="degrade: record a failing goal in the manifest"
                " and keep the surviving goals (default: raise)",
            )
            sub.add_argument(
                "--retries",
                type=int,
                default=0,
                help="retry attempts beyond the first for each goal"
                " task, on every backend (seeded backoff jitter;"
                " default: 0)",
            )
            sub.add_argument(
                "--task-timeout",
                type=float,
                default=None,
                dest="task_timeout",
                metavar="SECONDS",
                help="per-task wall-clock budget for pooled"
                " backends; hung tasks fail with TaskTimeoutError",
            )
            sub.add_argument(
                "--executor",
                choices=(
                    "serial",
                    "threads",
                    "process",
                    "auto",
                ),
                default="serial",
                help="goal fan-out backend; auto picks serial on"
                " single-core hosts or small logs, otherwise a"
                " process pool over shared memory (default: serial)",
            )
        if name == "table1":
            sub.add_argument(
                "--k",
                type=int,
                nargs="+",
                default=None,
                help="K values to sweep (default: the paper's)",
            )
            sub.add_argument("--folds", type=int, default=10)

    commands.add_parser("figure1", help="print the architecture diagram")

    kdb = commands.add_parser(
        "kdb", help="inspect or maintain a sharded K-DB directory"
    )
    kdb_commands = kdb.add_subparsers(dest="kdb_command", required=True)
    for name, help_text in (
        ("stats", "print per-collection document counts and disk usage"),
        ("compact", "fold append logs into fresh base partitions"),
    ):
        sub = kdb_commands.add_parser(name, help=help_text)
        sub.add_argument("directory", help="sharded K-DB directory")
        sub.add_argument(
            "--collection",
            default=None,
            help="restrict to one collection (compact only)",
        )
    fsck = kdb_commands.add_parser(
        "fsck",
        help="check durability invariants (checksums, sequences,"
        " generations, lockfile); --repair fixes what it finds",
    )
    fsck.add_argument("directory", help="sharded K-DB directory")
    fsck.add_argument(
        "--repair",
        action="store_true",
        help="truncate torn tails, drop stale logs/locks, quarantine"
        " and re-compact damaged shards",
    )
    fsck.add_argument("--json", action="store_true", dest="as_json")

    shm = commands.add_parser(
        "shm",
        help="list or reclaim shared-memory segments leaked by"
        " crashed runs",
    )
    shm_commands = shm.add_subparsers(dest="shm_command", required=True)
    shm_commands.add_parser(
        "ls", help="list leaked library segments in /dev/shm"
    )
    shm_commands.add_parser(
        "reap", help="unlink every leaked library segment"
    )

    # ``repro lint ARGS`` hands ARGS unchanged to ``python -m
    # repro.lint``, whose parser owns them (see ``main``).
    commands.add_parser(
        "lint",
        add_help=False,
        help="check the engine's determinism/parallelism invariants"
        " (options: python -m repro.lint --help)",
    )
    return parser


def _load_dataset(args) -> ExamLog:
    if args.synthetic is not None:
        config = GeneratorConfig(
            n_patients=args.synthetic,
            n_exam_types=max(20, min(159, args.synthetic // 4)),
            target_records=args.synthetic * 15,
        )
        return DiabeticExamLogGenerator(config, seed=args.seed).generate()
    if not args.dataset:
        raise SystemExit(
            "error: provide a dataset path or use --synthetic N"
        )
    path = Path(args.dataset)
    if path.is_dir():
        return load_csv(path)
    return load_jsonl(path)


def cmd_generate(args) -> int:
    config = GeneratorConfig(
        n_patients=args.patients,
        n_exam_types=args.exam_types,
        target_records=args.records,
    )
    log = DiabeticExamLogGenerator(config, seed=args.seed).generate()
    if args.format == "csv":
        save_csv(log, args.output)
    else:
        save_jsonl(log, args.output)
    print(f"wrote {log.n_records} records for {log.n_patients} patients"
          f" to {args.output}")
    return 0


def cmd_describe(args) -> int:
    log = _load_dataset(args)
    profile = characterize_log(log)
    summary = log.summary()
    print(f"patients      : {summary['n_patients']}")
    print(f"records       : {summary['n_records']}")
    print(f"exam types    : {summary['n_exam_types']}")
    if summary["age_min"] is not None:
        print(f"age range     : {summary['age_min']}-{summary['age_max']}")
    print(f"days spanned  : {summary['days_spanned']}")
    print(f"sparsity      : {profile.sparsity:.3f}")
    print(f"frequency gini: {profile.gini:.3f}")
    print("type coverage : "
          + ", ".join(
              f"top {pct}% -> {share:.1%}"
              for pct, share in profile.top_share.items()
          ))
    print("most frequent exams:")
    for feature in feature_profiles(log)[:8]:
        print(
            f"  {feature.name:<40} {feature.frequency:>7} records,"
            f" {feature.patient_coverage:.1%} of patients"
        )
    return 0


def cmd_analyze(args) -> int:
    import json

    from repro.core.engine import EngineConfig
    from repro.obs import JsonlSink, Metrics, Tracer

    log = _load_dataset(args)
    tracer = Tracer(sinks=[JsonlSink(args.trace)]) if args.trace else None
    metrics = Metrics() if (args.metrics or args.trace) else None
    config = EngineConfig(
        tracer=tracer,
        metrics=metrics,
        on_goal_error=args.on_goal_error,
        retries=args.retries,
        task_timeout=args.task_timeout,
        executor=args.executor,
    )
    engine = ADAHealth(config=config, seed=args.seed)
    result = engine.analyze(
        log, name=args.dataset or "synthetic", user=args.user,
        goals=args.goals,
    )
    print(result.summary())
    print()
    print(f"top {args.top} knowledge items:")
    for rank, item in enumerate(result.top(args.top), start=1):
        print(f"{rank:>3}. {item.describe()}")
    if args.trace:
        print(f"\ntrace written to {args.trace}")
    if args.metrics:
        print("\nmetrics snapshot:")
        print(json.dumps(engine.metrics.snapshot(), indent=2))
    return 0


def cmd_table1(args) -> int:
    from repro.core.optimizer import PAPER_K_VALUES

    log = _load_dataset(args)
    miner = HorizontalPartialMiner(seed=args.seed)
    codes = miner.subset_codes(log, 0.4)
    matrix = L2Normalizer().transform(
        VSMBuilder("binary", exam_codes=codes).build(log).matrix
    )
    k_values = tuple(args.k) if args.k else PAPER_K_VALUES
    k_values = tuple(k for k in k_values if k < matrix.shape[0])
    optimizer = KMeansOptimizer(
        k_values=k_values, n_folds=args.folds, seed=args.seed
    )
    report = optimizer.optimize(matrix)
    print(report.format_table())
    return 0


def cmd_partial(args) -> int:
    log = _load_dataset(args)
    miner = HorizontalPartialMiner(seed=args.seed)
    result = miner.mine(log)
    print(result.format_table())
    return 0


def cmd_figure1(args) -> int:
    print(render_text())
    return 0


def cmd_kdb(args) -> int:
    import json

    from repro.kdb.shards import ShardedDocumentStore

    directory = Path(args.directory)
    flat = not (directory / "_shards.json").exists()
    if flat and (
        args.kdb_command == "fsck"
        or not (directory / "_manifest.json").exists()
    ):
        print(f"no sharded K-DB at {directory}", file=sys.stderr)
        return 1
    if args.kdb_command == "fsck":
        return _cmd_kdb_fsck(directory, args)
    store = ShardedDocumentStore(directory)
    if flat:
        print(
            f"migrated the flat K-DB at {directory} to framed shards",
            file=sys.stderr,
        )
    try:
        if args.kdb_command == "compact":
            before = store.pending_ops(args.collection)
            store.compact(args.collection)
            scope = args.collection or "all collections"
            print(f"compacted {scope}: folded {before} pending op(s)")
        else:
            print(json.dumps(store.stats(), indent=2, sort_keys=True))
        if store.load_warnings:
            for warning in store.load_warnings:
                print(f"warning: {warning}", file=sys.stderr)
    finally:
        store.close()
    return 0


def _cmd_kdb_fsck(directory: Path, args) -> int:
    import json

    from repro.kdb.fsck import fsck

    report = fsck(directory, repair=args.repair)
    if args.as_json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        for issue in report.issues:
            status = "repaired" if issue.repaired else issue.severity
            print(f"[{status}] {issue.path}: {issue.detail}")
        print(
            f"checked {report.files_checked} file(s),"
            f" {report.records} record(s):"
            f" {'clean' if report.clean else f'{len(report.issues)} issue(s)'}"
        )
    return 0 if report.ok else 1


def cmd_shm(args) -> int:
    from repro.data.blocks import leaked_segments, reap_segments

    if args.shm_command == "reap":
        reaped = reap_segments()
        for name in reaped:
            print(f"reaped {name}")
        print(f"reaped {len(reaped)} segment(s)")
        return 0
    segments = leaked_segments()
    for name in segments:
        print(name)
    print(f"{len(segments)} leaked segment(s)", file=sys.stderr)
    return 0


def cmd_lint(args) -> int:
    from repro.lint.cli import main as lint_main

    return lint_main(args.lint_args)


_COMMANDS = {
    "generate": cmd_generate,
    "describe": cmd_describe,
    "analyze": cmd_analyze,
    "table1": cmd_table1,
    "partial": cmd_partial,
    "figure1": cmd_figure1,
    "kdb": cmd_kdb,
    "shm": cmd_shm,
    "lint": cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if args.command == "lint":
        args.lint_args = extra
    elif extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"repro: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # e.g. ``repro figure1 | head``
        try:
            sys.stdout.close()
        except Exception:  # noqa: BLE001 - best-effort flush
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
