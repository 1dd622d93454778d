"""Session benchmark for ADA-HEALTH: closed-loop ``analyze`` workloads.

Run one workload, or all three, from the root of the repository::

    python3 sessionbench/run.py --workload cold-analyze --seed 0 --seconds 25
    python3 sessionbench/run.py --workload all
    python3 sessionbench/run.py --workload warm-revisit --trace 1

Each workload runs in its own process, started with the BLAS/OpenMP
thread variables pinned to 1 before numpy loads. The launcher prints
every metric with its unit (with ``--trace 1``, the per-layer ledger as
an inclusive/self table) and ends with one JSON line holding
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md in
this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median
from typing import Any, Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("cold-analyze", "warm-revisit", "pooled-analyze")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Time a workload process may take beyond its ``--seconds``: imports,
#: set-up, the warm-up session and the last session that starts in time.
SETUP_MARGIN_S = 145
#: The resource tracker's traceback on exit of a pooled session, for a
#: shared-memory segment it no longer tracks: a known transport bug.
#: Counted and reported per run, never a session failure.
TRACKER_KEYERROR = re.compile(
    r"Traceback \(most recent call last\):\n(?:[ \t].*\n)*?"
    r"KeyError: '/adarepro-[0-9a-f]+'\n"
)


def run_workload(name: str, args) -> Dict[str, Any]:
    """Run one workload process; returns its JSON outcome."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    command = [
        sys.executable,
        str(BENCH_DIR / "workload.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--cohort", args.cohort,
    ]
    if args.sessions is not None:
        command += ["--sessions", str(args.sessions)]
    # Its own session, so a timeout can stop the pool workers and the
    # resource tracker along with it.
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    timeout = args.seconds + SETUP_MARGIN_S
    try:
        out, err = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise SystemExit(f"{name}: no result within {timeout:g} s")
    tracker_keyerrors = len(TRACKER_KEYERROR.findall(err))
    sys.stderr.write(TRACKER_KEYERROR.sub("", err))
    if process.returncode != 0:
        raise SystemExit(f"{name}: workload exited with {process.returncode}")
    outcome = json.loads(out.strip().splitlines()[-1])
    outcome["tracker_keyerrors"] = tracker_keyerrors
    return outcome


def report(outcome: Dict[str, Any]) -> None:
    """Print one workload's metrics (and ledger) for a reader."""
    host = outcome["host"]
    print(
        f"== {outcome['workload']} (seed {outcome['seed']},"
        f" {outcome['cohort']} cohort: {outcome['patients']} patients x"
        f" {outcome['exam_types']} exam types,"
        f" {outcome['records']} records)"
    )
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    metrics = outcome["metrics"]
    if "session_s.min" in metrics:
        for name, metric in metrics.items():
            print(f"  {name:<16} {metric['value']:>12.6g} {metric['unit']}")
        times = outcome["session_seconds"]
        p50 = median(times)
        print(
            f"  sessions timed: {outcome['samples']} (min {min(times):.4g} s,"
            f" p50 {p50:.4g} s, max {max(times):.4g} s)"
        )
        print(f"  records/s at p50: {outcome['records'] / p50:.0f}")
    else:
        print_ledger(metrics)
    print(
        f"  error_rate: {outcome['error_rate']:g}"
        f" ({outcome['failed']} failed / {outcome['attempted']} attempted)"
    )
    print(
        "  resource_tracker KeyError tracebacks:"
        f" {outcome['tracker_keyerrors']}"
    )


def print_ledger(metrics: Dict[str, Dict[str, Any]]) -> None:
    """The per-layer table (per traced session), then the rest."""
    calls = [name for name in metrics if name.endswith(".calls")]
    layers = sorted(
        (name[: -len(".calls")] for name in calls),
        key=lambda layer: -metrics[f"{layer}.self_s"]["value"],
    )
    # Their metrics are 0 because the workload never enters them.
    idle = [
        layer for layer in layers if not metrics[f"{layer}.calls"]["value"]
    ]
    print(f"  {'layer':<24} {'calls':>9} {'inclusive_s':>12} {'self_s':>10}")
    shown = set()
    for layer in layers:
        names = [f"{layer}.{f}" for f in ("calls", "total_s", "self_s")]
        shown.update(names)
        if layer in idle:
            continue
        count, total, own = (metrics[name]["value"] for name in names)
        print(f"  {layer:<24} {count:>9.4g} {total:>12.6f} {own:>10.6f}")
    for name, metric in metrics.items():
        if name not in shown:
            print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    if idle:
        print(f"  not entered on this workload: {', '.join(sorted(idle))}")


def summary_line(outcomes: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The final JSON line; with several workloads, metric names are
    prefixed by the workload. Every workload checked its ranking against
    the committed digest, so their outputs already agree."""
    if len(outcomes) == 1:
        only = outcomes[0]
        keys = ("correct", "attempted", "failed", "metrics")
        return {key: only[key] for key in keys}
    return {
        "correct": all(o["correct"] for o in outcomes),
        "attempted": sum(o["attempted"] for o in outcomes),
        "failed": sum(o["failed"] for o in outcomes),
        "metrics": {
            f"{o['workload']}/{name}": metric
            for o in outcomes
            for name, metric in o["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=WORKLOADS + ("all",), required=True
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--cohort",
        choices=("paper", "small"),
        default="paper",
        help="paper: 6,380 patients x 159 exam types; small: smoke tests",
    )
    parser.add_argument(
        "--sessions", type=int, default=None,
        help="stop after this many timed sessions (smoke tests)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no engine sources at {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = [run_workload(name, args) for name in names]
    for outcome in outcomes:
        report(outcome)
    print(json.dumps(summary_line(outcomes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
