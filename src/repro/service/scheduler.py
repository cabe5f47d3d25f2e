"""The dependency-aware batch scheduler and worker pool.

:func:`run_batch` turns a list of :class:`~repro.service.job.RepairJob`
into per-job outcomes:

1. jobs are validated and topologically ordered over their ``after``
   edges (cycles and dangling references are rejected up front);
2. when a job becomes ready, the persistent store is consulted — a hit
   completes it as ``cached`` without any repair work;
3. misses are dispatched by one loop whatever the width.  Above
   ``--jobs 1`` (or ``$REPRO_JOBS``), the threads of a
   :class:`concurrent.futures.ThreadPoolExecutor` drive a
   :class:`~repro.service.pool.WorkerPool`: long-lived workers that
   boot once and keep their environments resident, or, under
   ``--no-pool``, workers recycled after one job, so every attempt gets
   a fresh process.  Either way a crashing worker takes down only its
   own job, never the pool (the reason this is not a
   ``ProcessPoolExecutor``: one abrupt child death there poisons every
   pending future with ``BrokenProcessPool``).  ``--jobs 1`` runs each
   attempt inline through a deterministic in-process executor;
4. crashes and injected errors are retried with bounded backoff;
   timeouts are reported as ``timeout``; deterministic repair failures
   as ``failed``; and every job downstream of a non-ok job is marked
   ``skipped-dependency`` without being dispatched.

The batch is traced as a ``service_batch`` span carrying queue-depth,
worker-utilization, and store hit-rate gauges; the in-process executor
additionally nests a ``service_job`` span per attempt.
"""

from __future__ import annotations

import os
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
)

from ..obs import span
from .faults import FaultPlan, JobTimeout, WorkerCrash
from .job import (
    SCHEMA_VERSION,
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SKIPPED,
    STATUS_SKIPPED_UNAFFECTED,
    STATUS_TIMEOUT,
    JobError,
    RepairJob,
    result_digest,
)
from .pool import WorkerPool
from .store import ResultStore
from .graph import toposort

if TYPE_CHECKING:  # pragma: no cover — type-only import (avoids a cycle)
    from .planner import BatchImpact

#: Environment variable giving the default worker-pool width.
JOBS_ENV_VAR = "REPRO_JOBS"

#: A runner executes one attempt: (payload, attempt, timeout_s) -> record.
Runner = Callable[[Dict[str, Any], int, Optional[float]], Dict[str, Any]]


def default_jobs() -> int:
    """``$REPRO_JOBS`` when set to a positive int, else 1."""
    raw = os.environ.get(JOBS_ENV_VAR, "")
    try:
        jobs = int(raw)
    except ValueError:
        return 1
    return jobs if jobs >= 1 else 1


@dataclass
class BatchOptions:
    """Knobs for one batch run."""

    jobs: int = 0  # 0 -> default_jobs()
    timeout_s: Optional[float] = None
    retries: int = 2
    backoff_s: float = 0.05
    refresh: bool = False
    store: Optional[ResultStore] = None
    fault_plan: Optional[FaultPlan] = None
    #: Change-impact plans for the batch (see
    #: :mod:`repro.service.planner`); when set, jobs whose targets the
    #: plan certifies ``unaffected`` complete as ``skipped-unaffected``
    #: without dispatching a worker.
    impact: Optional["BatchImpact"] = None
    #: Keep parallel batches' workers warm across jobs; False recycles
    #: each worker after one job (``--no-pool``).  Only consulted when
    #: ``jobs > 1`` and no explicit runner is passed.
    pool: bool = True

    def __post_init__(self) -> None:
        if self.jobs <= 0:
            self.jobs = default_jobs()


@dataclass
class JobOutcome:
    """What happened to one job."""

    job: RepairJob
    status: str
    attempts: int = 0
    wall_time_s: float = 0.0
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    #: Evidence for an impact skip: verdict, RA code, evidence digest,
    #: and the digest of the plan that licensed it.
    impact: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.status in (
            STATUS_OK,
            STATUS_CACHED,
            STATUS_SKIPPED_UNAFFECTED,
        )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.job.name,
            "key": self.job.key,
            "target": self.job.target,
            "status": self.status,
            "attempts": self.attempts,
            "wall_time_s": round(self.wall_time_s, 6),
        }
        if self.error is not None:
            out["error"] = self.error
        if self.impact is not None:
            out["impact"] = self.impact
        if self.result is not None:
            out["new_name"] = self.result.get("new_name")
            out["result_digest"] = result_digest(self.result)
            boot = self.result.get("env_boot")
            if boot is not None:
                out["env_boot"] = boot
        return out


@dataclass
class BatchReport:
    """Per-job outcomes plus batch-level accounting."""

    batch: str
    jobs: int
    outcomes: List[JobOutcome] = field(default_factory=list)
    wall_time_s: float = 0.0
    store_hits: int = 0
    store_misses: int = 0
    max_queue_depth: int = 0
    worker_utilization: float = 0.0
    #: Worker-pool lifecycle counters (:meth:`WorkerPool.stats`), present
    #: only when the batch ran on a pool it owned.
    pool: Optional[Dict[str, Any]] = None

    @property
    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def cache_hit_rate(self) -> float:
        total = self.store_hits + self.store_misses
        return self.store_hits / total if total else 0.0

    def outcome(self, name: str) -> JobOutcome:
        for outcome in self.outcomes:
            if outcome.job.name == name:
                return outcome
        raise KeyError(name)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "batch": self.batch,
            "jobs": self.jobs,
            "wall_time_s": round(self.wall_time_s, 6),
            "counts": self.counts,
            "store": {
                "hits": self.store_hits,
                "misses": self.store_misses,
                "hit_rate": round(self.cache_hit_rate, 4),
            },
            "max_queue_depth": self.max_queue_depth,
            "worker_utilization": round(self.worker_utilization, 4),
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
        }
        if self.pool is not None:
            out["pool"] = self.pool
        return out

    def render_table(self) -> str:
        """The human-readable per-job summary the CLI prints."""
        width = max([len(o.job.name) for o in self.outcomes] + [4])
        lines = [
            f"{'job':<{width}}  {'status':<18} {'tries':>5} {'wall(s)':>8}"
        ]
        for o in self.outcomes:
            lines.append(
                f"{o.job.name:<{width}}  {o.status:<18} "
                f"{o.attempts:>5} {o.wall_time_s:>8.3f}"
            )
        counts = ", ".join(
            f"{n} {status}" for status, n in sorted(self.counts.items())
        )
        lines.append(
            f"batch {self.batch!r}: {len(self.outcomes)} job(s) — {counts}; "
            f"wall {self.wall_time_s:.3f}s, workers={self.jobs}, "
            f"store {self.store_hits} hit(s) / {self.store_misses} miss(es)"
        )
        if self.pool is not None:
            lines.append(
                f"pool: {self.pool.get('spawned', 0)} worker(s) spawned, "
                f"{self.pool.get('warm_jobs', 0)}/{self.pool.get('jobs', 0)} "
                f"job(s) warm (reuse {self.pool.get('reuse_rate', 0.0):.0%})"
            )
        return "\n".join(lines)


# -- Executors ----------------------------------------------------------------


@contextmanager
def _job_alarm(timeout_s: Optional[float]) -> Iterator[None]:
    """Raise :class:`JobTimeout` after ``timeout_s`` (POSIX, main thread).

    ``SIGALRM`` can only be armed on the main thread of a Unix process.
    When a timeout is requested somewhere it cannot be honoured (a
    non-main thread, or a platform without ``SIGALRM``), the job runs
    without one — with a :class:`RuntimeWarning`, because a silently
    ignored timeout is how hung jobs stall whole batches.
    """
    import signal
    import threading

    wanted = timeout_s is not None and timeout_s > 0
    usable = (
        wanted
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        if wanted:
            warnings.warn(
                "per-job timeout requested but SIGALRM is unavailable "
                "here (non-main thread or non-POSIX); running without "
                "a timeout",
                RuntimeWarning,
                stacklevel=3,
            )
        yield
        return

    def _on_alarm(signum: int, frame: Any) -> None:
        raise JobTimeout(f"job exceeded {timeout_s}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, float(timeout_s or 0))
        except OverflowError:
            pass  # past the platform's time_t: a deadline never reached
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def inprocess_runner(fault_plan: Optional[FaultPlan] = None) -> Runner:
    """The deterministic in-process executor (``--jobs 1`` and tests).

    Each attempt boots its environment into a fresh resident table, so
    every attempt boots, builds and repairs from scratch: this hermetic
    path is the reference the warm pool's digests are compared with.
    """
    from .worker import attempt_job, execute_warm

    def run(
        payload: Dict[str, Any], attempt: int, timeout_s: Optional[float]
    ) -> Dict[str, Any]:
        with span(
            "service_job",
            category="service",
            job=payload.get("name", payload["target"]),
            attempt=attempt,
        ):
            with _job_alarm(timeout_s):
                return attempt_job(
                    lambda: execute_warm({}, payload),
                    payload,
                    attempt,
                    fault_plan,
                    in_process=True,
                )

    return run


def _run_inline(runner: Runner, *args: Any) -> Future:
    """Run one attempt on the calling thread; return it as a done future.

    Serial batches submit through this rather than a thread, so the
    in-process executor stays on the main thread, where it can arm
    ``SIGALRM`` for ``--timeout``.
    """
    future: Future = Future()
    try:
        future.set_result(runner(*args))
    except Exception as exc:  # noqa: BLE001 — finish_attempt triages it
        future.set_exception(exc)
    return future


# -- The scheduler ------------------------------------------------------------


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


class _BatchState:
    """Mutable bookkeeping for one run: readiness, outcomes, cascades."""

    def __init__(self, jobs: List[RepairJob]) -> None:
        names = [job.name for job in jobs]
        if len(set(names)) != len(names):
            dupes = sorted(
                {name for name in names if names.count(name) > 1}
            )
            raise JobError(f"duplicate job name(s): {dupes}")
        edges = {job.name: tuple(job.after) for job in jobs}
        try:
            toposort(names, edges)
        except ValueError as exc:
            raise JobError(str(exc)) from exc
        self.jobs = {job.name: job for job in jobs}
        self.order = names
        self.pending: Dict[str, set] = {
            job.name: set(job.after) for job in jobs
        }
        self.dependents: Dict[str, List[str]] = {name: [] for name in names}
        for job in jobs:
            for dep in job.after:
                self.dependents[dep].append(job.name)
        self.outcomes: Dict[str, JobOutcome] = {}
        self.ready: Deque[RepairJob] = deque(
            job for job in jobs if not job.after
        )

    def complete(self, outcome: JobOutcome) -> None:
        """Record an outcome; unblock or cascade-skip the dependents."""
        name = outcome.job.name
        self.outcomes[name] = outcome
        if outcome.ok:
            for dependent in self.dependents[name]:
                waiting = self.pending[dependent]
                waiting.discard(name)
                if not waiting and dependent not in self.outcomes:
                    self.ready.append(self.jobs[dependent])
        else:
            self._skip_dependents(name)

    def _skip_dependents(self, name: str) -> None:
        for dependent in self.dependents[name]:
            if dependent in self.outcomes:
                continue
            self.outcomes[dependent] = JobOutcome(
                job=self.jobs[dependent],
                status=STATUS_SKIPPED,
                error=f"dependency {name!r} did not complete",
            )
            self._skip_dependents(dependent)

    @property
    def done(self) -> bool:
        return len(self.outcomes) == len(self.jobs)

    def ordered_outcomes(self) -> List[JobOutcome]:
        return [self.outcomes[name] for name in self.order]


def _store_record(job: RepairJob, result: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "key": job.key,
        "job": job.payload(),
        "result": result,
        "created_at": _utc_now(),
    }


def run_batch(
    jobs: List[RepairJob],
    options: Optional[BatchOptions] = None,
    runner: Optional[Runner] = None,
    batch: str = "batch",
    on_cached: Optional[Callable[[RepairJob, Dict[str, Any]], None]] = None,
) -> BatchReport:
    """Schedule ``jobs`` over the worker pool; return per-job outcomes.

    ``runner`` defaults, when ``options.jobs > 1``, to a
    :class:`WorkerPool` of that width whose workers stay warm
    (``options.pool``) or retire after one job (``--no-pool``); serial
    batches use the deterministic in-process executor.  A pool created
    here is owned here: it is drained before the report is returned,
    and its lifecycle counters land in ``report.pool``.  ``on_cached``
    is invoked for every store hit (live batches use it to replay the
    cached definitions into the session environment).
    """
    options = options or BatchOptions()
    worker_pool: Optional[WorkerPool] = None
    if runner is None:
        if options.jobs > 1:
            worker_pool = WorkerPool(
                options.jobs,
                options.fault_plan,
                max_jobs_per_worker=None if options.pool else 1,
            )
            runner = worker_pool.run_job
        else:
            runner = inprocess_runner(options.fault_plan)
    state = _BatchState(list(jobs))
    store = options.store
    report = BatchReport(batch=batch, jobs=options.jobs)
    busy_s = 0.0
    started = time.perf_counter()

    def resolve_impact(job: RepairJob) -> bool:
        """Skip a job the plan certifies ``unaffected`` (with evidence)."""
        if options.impact is None:
            return False
        evidence = options.impact.skippable(job)
        if evidence is None:
            return False
        state.complete(
            JobOutcome(
                job=job,
                status=STATUS_SKIPPED_UNAFFECTED,
                attempts=0,
                impact=evidence,
            )
        )
        return True

    def resolve_from_store(job: RepairJob) -> bool:
        if store is None or options.refresh:
            return False
        record = store.get(job.key)
        if record is None:
            return False
        result = record["result"]
        if on_cached is not None:
            try:
                on_cached(job, result)
            except Exception:  # noqa: BLE001 — replay failed: recompute
                return False
        state.complete(
            JobOutcome(
                job=job,
                status=STATUS_CACHED,
                attempts=0,
                result=result,
            )
        )
        return True

    def finish_attempt(
        job: RepairJob,
        attempt: int,
        wall: float,
        record: Optional[Dict[str, Any]],
        error: Optional[BaseException],
    ) -> Optional[int]:
        """Complete the job or return the next attempt number."""
        nonlocal busy_s
        busy_s += wall
        if error is not None:
            if isinstance(error, JobTimeout):
                state.complete(
                    JobOutcome(
                        job=job,
                        status=STATUS_TIMEOUT,
                        attempts=attempt + 1,
                        wall_time_s=wall,
                        error=str(error),
                    )
                )
                return None
            retryable = isinstance(error, WorkerCrash)
            if retryable and attempt < options.retries:
                return attempt + 1
            state.complete(
                JobOutcome(
                    job=job,
                    status=STATUS_FAILED,
                    attempts=attempt + 1,
                    wall_time_s=wall,
                    error=f"{type(error).__name__}: {error}",
                )
            )
            return None
        assert record is not None
        if record.get("status") == STATUS_OK:
            if store is not None:
                store.put(job.key, _store_record(job, record))
            state.complete(
                JobOutcome(
                    job=job,
                    status=STATUS_OK,
                    attempts=attempt + 1,
                    wall_time_s=wall,
                    result=record,
                )
            )
            return None
        if record.get("retryable") and attempt < options.retries:
            return attempt + 1
        state.complete(
            JobOutcome(
                job=job,
                status=STATUS_FAILED,
                attempts=attempt + 1,
                wall_time_s=wall,
                error=record.get("error", "worker reported failure"),
            )
        )
        return None

    def backoff(attempt: int) -> None:
        if options.backoff_s > 0 and attempt > 0:
            time.sleep(options.backoff_s * attempt)

    # Pin every key this batch may read or write: a bounded store being
    # pruned by a concurrent batch must never evict a record between
    # this batch's cache probe and its use of the result.
    pin_guard = (
        store.pin([job.key for job in state.jobs.values()])
        if store is not None
        else nullcontext()
    )
    # Serial batches run each attempt inline (see _run_inline); wider
    # ones on executor threads.  Either way one loop fills up to
    # ``options.jobs`` attempts, retries first, and triages whichever
    # finishes first.
    executor: Optional[ThreadPoolExecutor] = None
    submit: Callable[..., Future] = _run_inline
    if options.jobs > 1:
        executor = ThreadPoolExecutor(max_workers=options.jobs)
        submit = executor.submit
    in_flight: Dict[Future, Tuple[RepairJob, int, float]] = {}
    retry_queue: Deque[Tuple[RepairJob, int]] = deque()
    with worker_pool or nullcontext(), pin_guard, span(
        "service_batch", category="service", batch=batch, jobs=options.jobs
    ) as batch_span:
        with executor or nullcontext():
            while not state.done:
                while (
                    retry_queue or state.ready
                ) and len(in_flight) < options.jobs:
                    if retry_queue:
                        job, attempt = retry_queue.popleft()
                    else:
                        job = state.ready.popleft()
                        attempt = 0
                        if resolve_impact(job) or resolve_from_store(job):
                            continue
                    queued = len(state.ready) + len(retry_queue)
                    report.max_queue_depth = max(
                        report.max_queue_depth, queued + len(in_flight) + 1
                    )
                    backoff(attempt)
                    t0 = time.perf_counter()
                    future = submit(
                        runner, job.payload(), attempt, options.timeout_s
                    )
                    in_flight[future] = (job, attempt, t0)
                if not in_flight:
                    continue  # every remaining job resolved via cache/skip
                done, _ = wait(set(in_flight), return_when=FIRST_COMPLETED)
                for future in done:
                    job, attempt, t0 = in_flight.pop(future)
                    record: Optional[Dict[str, Any]] = None
                    error: Optional[BaseException] = None
                    try:
                        record = future.result()
                    except Exception as exc:  # noqa: BLE001
                        error = exc
                    next_attempt = finish_attempt(
                        job, attempt, time.perf_counter() - t0, record, error
                    )
                    if next_attempt is not None:
                        retry_queue.append((job, next_attempt))
        if worker_pool is not None:
            # Drain before reading the counters so they are final; the
            # pool's own exit is then an idempotent no-op.
            worker_pool.shutdown()
            report.pool = worker_pool.stats()
        report.wall_time_s = time.perf_counter() - started
        report.outcomes = state.ordered_outcomes()
        if store is not None:
            report.store_hits = store.hits
            report.store_misses = store.misses
        if report.wall_time_s > 0:
            report.worker_utilization = min(
                busy_s / (options.jobs * report.wall_time_s), 1.0
            )
        batch_span.gauge("jobs_total", float(len(report.outcomes)))
        batch_span.gauge("queue_depth_max", float(report.max_queue_depth))
        batch_span.gauge("worker_utilization", report.worker_utilization)
        batch_span.gauge("store_hit_rate", report.cache_hit_rate)
        if report.pool is not None:
            batch_span.gauge(
                "worker_reuse_rate",
                float(report.pool.get("reuse_rate", 0.0)),
            )
            pool_jobs = int(report.pool.get("jobs", 0))
            if pool_jobs:
                batch_span.gauge(
                    "pool_boots_per_job",
                    float(report.pool.get("env_boots", 0)) / pool_jobs,
                )
    return report
