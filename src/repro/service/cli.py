"""``python -m repro.service`` — run a batch manifest.

Reads a JSON batch manifest (or the built-in six-case batch), schedules
it over the worker pool, prints the per-job summary table, and
optionally writes the full JSON report::

    python -m repro.service examples/service_batch.json --jobs 4
    python -m repro.service --six-cases --store /tmp/repro-store \\
        --report batch_report.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import threading
from contextlib import contextmanager
from typing import Any, Iterator, List, Optional

from .faults import FaultPlan
from .job import JobError
from .manifest import load_manifest
from .scheduler import BatchOptions, default_jobs, run_batch
from .store import ResultStore, default_store_dir


def finite_seconds(text: str) -> float:
    """An ``argparse`` type: a finite number of seconds.

    ``float`` alone accepts ``inf`` and ``nan``, which no deadline can
    mean.
    """
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"expected a finite number of seconds, got {text!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run a batch of proof-repair jobs.",
    )
    parser.add_argument(
        "manifest",
        nargs="?",
        help="path to a JSON batch manifest",
    )
    parser.add_argument(
        "--six-cases",
        action="store_true",
        help="run the built-in six-case-study batch instead of a manifest",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        metavar="N",
        help=f"worker pool width (default: $REPRO_JOBS or {default_jobs()})",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help=f"result store directory (default: {default_store_dir()})",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="disable the persistent result store entirely",
    )
    parser.add_argument(
        "--store-max-entries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "bound the store to N records, evicting least-recently-"
            "used (default: unbounded)"
        ),
    )
    parser.add_argument(
        "--refresh",
        action="store_true",
        help="recompute every job even when a stored result exists",
    )
    parser.add_argument(
        "--timeout",
        type=finite_seconds,
        default=None,
        metavar="S",
        help="per-job timeout in seconds (default: none)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="retry budget for crashed workers (default: 2)",
    )
    parser.add_argument(
        "--no-pool",
        dest="pool",
        action="store_false",
        help=(
            "retire each worker after one job, so every attempt runs "
            "in a fresh process (default: workers stay warm)"
        ),
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="JSON",
        help='inject faults, e.g. \'{"add": {"0": "crash"}}\'',
    )
    parser.add_argument(
        "--impact",
        action="store_true",
        help=(
            "build/reuse a change-impact plan and skip jobs it "
            "certifies unaffected"
        ),
    )
    parser.add_argument(
        "--no-impact",
        action="store_true",
        help=(
            "escape hatch: run everything, then differentially assert "
            "every job the plan would have skipped was byte-identical; "
            "exits 3 on a violation"
        ),
    )
    parser.add_argument(
        "--impact-store",
        default=None,
        metavar="DIR",
        help=(
            "plan store directory (default: $REPRO_IMPACT_STORE or "
            "~/.cache/repro/impact)"
        ),
    )
    parser.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="also write the full JSON batch report here ('-' for stdout)",
    )
    return parser


@contextmanager
def _terminate_guard() -> Iterator[None]:
    """SIGTERM/SIGINT → hard-kill every worker group, then exit.

    The polite alternative — raising and unwinding — deadlocks: the
    scheduler's executor threads sit blocked reading frames from (
    possibly hung) workers, and ``ThreadPoolExecutor.__exit__`` waits
    on those threads forever, leaking the worker process groups the
    interrupt was supposed to stop.  Killing the groups first unblocks
    everything; ``os._exit`` then skips the unwinding entirely with
    the conventional ``128 + signum`` status.

    Handlers are restored on the way out so in-process callers (tests,
    other tools embedding :func:`main`) keep their own behaviour.
    """
    from .pool import emergency_shutdown

    def _terminate(signum: int, frame: Any) -> None:
        emergency_shutdown()
        os._exit(128 + signum)

    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = {
        signum: signal.signal(signum, _terminate)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if bool(args.manifest) == bool(args.six_cases):
        parser.error("give a manifest path or --six-cases (not both)")
    try:
        if args.six_cases:
            from .cases import six_case_jobs

            batch, jobs = "six-cases", six_case_jobs()
        else:
            batch, jobs = load_manifest(args.manifest)
        fault_plan = (
            FaultPlan.from_json(args.fault_plan) if args.fault_plan else None
        )
    except (JobError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    store = (
        None
        if args.no_store
        else ResultStore(args.store, max_entries=args.store_max_entries)
    )
    if args.impact and args.no_impact:
        parser.error("--impact and --no-impact are mutually exclusive")
    from .planner import (
        MODE_CHECK,
        MODE_PRUNE,
        build_batch_impact,
        verify_impact,
    )

    impact_mode: Optional[str] = None
    if args.impact:
        impact_mode = MODE_PRUNE
    elif args.no_impact:
        impact_mode = MODE_CHECK
    impact = None
    if impact_mode is not None:
        from ..analysis.impact import PlanStore

        try:
            impact = build_batch_impact(
                jobs, store=PlanStore(args.impact_store)
            )
        except JobError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    options = BatchOptions(
        jobs=args.jobs,
        timeout_s=args.timeout,
        retries=args.retries,
        refresh=args.refresh,
        store=store,
        fault_plan=fault_plan,
        impact=impact if impact_mode == MODE_PRUNE else None,
        pool=args.pool,
    )
    try:
        with _terminate_guard():
            report = run_batch(jobs, options, batch=batch)
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render_table())
    violations: List[str] = []
    if impact is not None and impact_mode == MODE_CHECK:
        violations = verify_impact(report, impact)
        for violation in violations:
            print(f"impact violation: {violation}", file=sys.stderr)
    if args.report:
        document = report.to_dict()
        if impact is not None:
            document["impact"] = {
                "mode": impact_mode,
                "plans": impact.digests(),
                "violations": violations,
            }
        payload = json.dumps(document, indent=2, sort_keys=True)
        if args.report == "-":
            print(payload)
        else:
            with open(args.report, "w") as handle:
                handle.write(payload + "\n")
    if violations:
        return 3
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
