"""Write BENCH_service.json: batch wall-time scaling across pool widths.

Runs the eight-job six-case batch (:func:`repro.service.cases.six_case_jobs`)
through the service scheduler at ``--jobs 1``, ``2``, and ``4`` with a cold
store each time, then replays the ``jobs=1`` batch against its warm store.
Every cold width runs on one-job workers (a ``WorkerPool`` with
``max_jobs_per_worker=1``, the ``--no-pool`` mode: a fresh process per
attempt) — including ``jobs=1`` — so the scaling ratios compare
identical per-job cost and measure only the parallelism, not in-process
vs subprocess dispatch overhead.

Phases (shared schema, :mod:`report_schema`)::

    cold/jobs1, cold/jobs2, cold/jobs4   # fresh store, one-job workers
    warm/jobs1                           # same store as cold/jobs1 => cached
    cold_start/scratch                   # storeless batch, scratch boots
    warm_pool/cold                       # persistent pool, first (boot) pass
    warm_pool/jobs1, /jobs2, /jobs4      # same pool, every env resident

plus a ``scaling`` extra with the ``jobsN / jobs1`` wall-time ratios.
The ``warm_pool`` family runs the batch twice per width on one
persistent :class:`~repro.service.pool.WorkerPool` — the first pass
pays interpreter + import + boot once per worker, the second measures
the steady state the pool exists for.  The width-1 warm pass is gated
hard: every job must report ``env_boot == "warm"``, every
``result_digest`` must be byte-identical to its scratch-boot one-job
worker twin, and its wall time must be at most ``--max-warm-pool-ratio``
(default 0.5) of ``cold_start/scratch`` — both sides serial, so this
gate holds on single-core boxes too.
``cold_start/scratch`` runs the same eight-job batch through one
one-job worker per job with no result store: every job elaborates
its environment from scratch, which is the reference both the ratio
gate and the digest-parity gate compare the warm pool against.
The run fails when ``cold/jobs4`` is not at least ``--max-ratio`` (default
0.8) of ``cold/jobs1`` — parallel dispatch must actually buy wall time —
or when a single service job's repair output is not byte-identical to the
``Repair`` vernacular (the service must be a scheduler, not a semantics).
The scaling gate needs parallel hardware: on a box with fewer than two
usable CPUs (single-core CI containers), the ratios are still recorded
but the hard check is skipped — CPU-bound workers cannot beat serial on
one core, and failing the bench there would measure the machine, not
the pool.

Usage::

    PYTHONPATH=src python benchmarks/bench_service_report.py \
        [OUTPUT.json] [--max-ratio 0.8]
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from typing import Any, Dict, List, Tuple

from report_schema import make_report, write_report

from repro.service import BatchOptions, ResultStore, WorkerPool, run_batch
from repro.service.cases import six_case_jobs

WIDTHS = (1, 2, 4)


def _run_width(jobs: List[Any], width: int, store_dir: str) -> Any:
    with WorkerPool(width, max_jobs_per_worker=1) as pool:
        report = run_batch(
            jobs,
            BatchOptions(
                jobs=width,
                store=ResultStore(store_dir),
                timeout_s=600,
                backoff_s=0.0,
            ),
            runner=pool.run_job,
            batch=f"six-cases/jobs{width}",
        )
    _require_ok(report, f"jobs={width}")
    return report


def _phase(report: Any, width: int) -> Dict[str, Any]:
    return {
        "wall_time_s": round(report.wall_time_s, 6),
        "count": len(report.outcomes),
        "jobs": width,
        "workers": min(width, len(report.outcomes)),
        "cache_hit_rates": {"store": round(report.cache_hit_rate, 4)},
    }


def _require_ok(report: Any, what: str) -> None:
    bad = [o for o in report.outcomes if not o.ok]
    if bad:
        raise RuntimeError(
            "%s batch failed: %s"
            % (what, ", ".join(f"{o.job.name}={o.status}" for o in bad))
        )


def _run_cold_start(
    jobs: List[Any],
) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, str]]:
    """The ``cold_start/scratch`` phase: one scratch-booted worker per job.

    Also returns the per-job ``result_digest`` table — the reference
    the ``warm_pool`` parity gate compares against.
    """
    from repro.service.job import result_digest

    with WorkerPool(1, max_jobs_per_worker=1) as pool:
        report = run_batch(
            jobs,
            BatchOptions(jobs=1, timeout_s=600, backoff_s=0.0),
            runner=pool.run_job,
            batch="six-cases/cold_start-scratch",
        )
    _require_ok(report, "cold_start/scratch")
    digests = {o.job.name: result_digest(o.result) for o in report.outcomes}
    return {"cold_start/scratch": _phase(report, 1)}, digests


def _run_warm_pool(
    jobs: List[Any], scratch_digests: Dict[str, str]
) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, Any]]:
    """The ``warm_pool/*`` phases: persistent workers, cold then warm.

    Per width, one :class:`WorkerPool` serves the batch twice: the
    first pass boots (interpreter + imports + env, amortized), the
    second measures steady-state warm serving.  The width-1 warm pass
    is the gated one — serial on both sides of the comparison, every
    environment resident, so it must be all-``warm`` and byte-identical
    to the scratch one-job worker run.  Wider warm passes are recorded for
    scaling but not gated: which worker a job lands on is not
    deterministic, so some may still boot.
    """
    from repro.service.job import result_digest

    phases: Dict[str, Dict[str, Any]] = {}
    pool_stats: Dict[str, Any] = {}
    for width in WIDTHS:
        with WorkerPool(width) as pool:
            cold = run_batch(
                jobs,
                BatchOptions(jobs=width, timeout_s=600, backoff_s=0.0),
                runner=pool.runner(),
                batch=f"six-cases/warm_pool-cold-jobs{width}",
            )
            _require_ok(cold, f"warm_pool cold jobs={width}")
            warm = run_batch(
                jobs,
                BatchOptions(jobs=width, timeout_s=600, backoff_s=0.0),
                runner=pool.runner(),
                batch=f"six-cases/warm_pool-jobs{width}",
            )
            _require_ok(warm, f"warm_pool warm jobs={width}")
            if width == 1:
                phases["warm_pool/cold"] = _phase(cold, width)
                not_warm = sorted(
                    o.job.name
                    for o in warm.outcomes
                    if o.result.get("env_boot") != "warm"
                )
                if not_warm:
                    raise RuntimeError(
                        "warm_pool/jobs1 jobs re-booted despite a warmed "
                        "pool: " + ", ".join(not_warm)
                    )
                mismatched = sorted(
                    o.job.name
                    for o in warm.outcomes
                    if result_digest(o.result)
                    != scratch_digests[o.job.name]
                )
                if mismatched:
                    raise RuntimeError(
                        "warm pool changed repair output (digest differs "
                        "from the scratch one-job worker run): "
                        + ", ".join(mismatched)
                    )
                pool_stats = pool.stats()
            phases[f"warm_pool/jobs{width}"] = _phase(warm, width)
    return phases, pool_stats


def check_transparency() -> None:
    """A service job must repair to the byte-identical vernacular output."""
    from repro.cases.quickstart import setup_environment
    from repro.commands import CommandSession
    from repro.kernel.pretty import pretty
    from repro.service import RepairJob
    from repro.service.job import fingerprint_source

    setup = "repro.service.cases:quickstart_env"
    job = RepairJob(
        name="transparency",
        setup=setup,
        target="rev_app_distr",
        config={"kind": "auto", "a": "list", "b": "New.list"},
        old=("list",),
        rename={"kind": "suffix", "value": "'"},
        env_fingerprint=fingerprint_source(setup),
    )
    record = run_batch([job], BatchOptions(jobs=1)).outcomes[0].result
    session = CommandSession(setup_environment())
    vernacular = session.execute("Repair list New.list in rev_app_distr").results[0]
    if (
        record["new_name"] != vernacular.new_name
        or record["term"] != pretty(vernacular.term)
        or record["type"] != pretty(vernacular.type)
    ):
        raise RuntimeError(
            "service job output differs from the Repair vernacular — the "
            "service layer must not change repair semantics"
        )


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def build_report() -> Tuple[dict, dict]:
    jobs = six_case_jobs()
    phases: Dict[str, Dict[str, Any]] = {}
    walls: Dict[int, float] = {}
    utilization: Dict[str, float] = {}
    warm_store: str = ""
    with tempfile.TemporaryDirectory(prefix="bench_service_") as tmp:
        for width in WIDTHS:
            store_dir = f"{tmp}/store{width}"
            report = _run_width(jobs, width, store_dir)
            phases[f"cold/jobs{width}"] = _phase(report, width)
            walls[width] = report.wall_time_s
            utilization[f"jobs{width}"] = round(report.worker_utilization, 4)
            if width == 1:
                warm_store = store_dir
        warm = run_batch(
            jobs,
            BatchOptions(jobs=1, store=ResultStore(warm_store)),
            batch="six-cases/warm",
        )
        cached = sum(1 for o in warm.outcomes if o.status == "cached")
        if cached != len(warm.outcomes):
            raise RuntimeError(
                f"warm rerun expected all cached, got {warm.counts}"
            )
        entry = _phase(warm, 1)
        phases["warm/jobs1"] = entry
        cold_start_phases, scratch_digests = _run_cold_start(jobs)
        phases.update(cold_start_phases)
        warm_pool_phases, pool_stats = _run_warm_pool(jobs, scratch_digests)
        phases.update(warm_pool_phases)
    scaling = {
        f"jobs{width}_vs_jobs1": round(walls[width] / max(walls[1], 1e-9), 4)
        for width in WIDTHS
        if width != 1
    }
    scaling["warm_vs_cold_jobs1"] = round(
        phases["warm/jobs1"]["wall_time_s"] / max(walls[1], 1e-9), 4
    )
    # Warm pool vs the per-attempt (one-job worker) mode, both serial
    # and storeless — the amortization the pool exists to buy.
    scratch_wall = max(phases["cold_start/scratch"]["wall_time_s"], 1e-9)
    scaling["warm_pool_vs_subprocess"] = round(
        phases["warm_pool/jobs1"]["wall_time_s"] / scratch_wall, 4
    )
    scaling["warm_pool_cold_vs_subprocess"] = round(
        phases["warm_pool/cold"]["wall_time_s"] / scratch_wall, 4
    )
    report = make_report(
        "service",
        phases,
        scaling=scaling,
        worker_utilization=utilization,
        cpus=usable_cpus(),
        pool=pool_stats,
    )
    return report, scaling


def print_summary(report: dict, scaling: dict) -> None:
    for name in sorted(report["phases"]):
        entry = report["phases"][name]
        print(
            f"{name:<12} {entry['wall_time_s']:8.4f}s  "
            f"x{entry['count']}  jobs={entry['jobs']}  "
            f"store={entry['cache_hit_rates']['store']:.0%}"
        )
    for name, ratio in sorted(scaling.items()):
        print(f"scaling {name}: {ratio}")


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", nargs="?", default="BENCH_service.json")
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=0.8,
        help="fail when cold/jobs4 exceeds this fraction of cold/jobs1 "
        "(0 disables the check; default: 0.8)",
    )
    parser.add_argument(
        "--max-warm-pool-ratio",
        type=float,
        default=0.5,
        help="fail when warm_pool/jobs1 exceeds this fraction of "
        "cold_start/scratch (0 disables the check; default: 0.5 — warm "
        "per-job wall must be at most half the per-attempt one-job "
        "worker mode; both sides serial, so no CPU-count escape hatch)",
    )
    args = parser.parse_args(argv[1:])

    try:
        check_transparency()
        print("service transparency: repair output identical to vernacular")
        report, scaling = build_report()
        write_report(args.output, report)
    except Exception as exc:
        # A failed batch or malformed report must fail the job instead of
        # leaving a partial report behind (write_report is atomic).
        print(f"bench_service_report: {exc}", file=sys.stderr)
        return 1
    print_summary(report, scaling)
    print(f"wrote {args.output}")
    ratio = scaling["jobs4_vs_jobs1"]
    cpus = report["cpus"]
    if args.max_ratio and cpus < 2:
        print(
            f"note: {cpus} usable CPU(s) — recording scaling ratios but "
            "skipping the pool-scaling gate (parallel workers cannot beat "
            "serial on one core)"
        )
    elif args.max_ratio and ratio > args.max_ratio:
        print(
            f"bench_service_report: cold/jobs4 is {ratio}x of cold/jobs1 "
            f"(limit {args.max_ratio}) — the pool is not scaling",
            file=sys.stderr,
        )
        return 1
    pool_ratio = scaling["warm_pool_vs_subprocess"]
    if args.max_warm_pool_ratio and pool_ratio > args.max_warm_pool_ratio:
        print(
            f"bench_service_report: warm_pool/jobs1 is {pool_ratio}x of "
            f"cold_start/scratch (limit {args.max_warm_pool_ratio}) — "
            "warm workers are not amortizing boot cost",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
