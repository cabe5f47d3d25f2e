"""repro.service — the parallel batch-repair job engine.

Repairing a real development is rarely one command: it is a batch of
related repairs over one or more environments, some depending on
others, some already done last run, some that will crash a worker.
This package turns :mod:`repro.core.repair` into a job service:

* :mod:`~repro.service.job` — content-addressed :class:`RepairJob`
  descriptions with environment fingerprints;
* :mod:`~repro.service.graph` — the reverse-dependency analysis the
  scheduler orders jobs by (shared, as an oracle, with the tests for
  ``Repair module``);
* :mod:`~repro.service.scheduler` — :func:`run_batch`: the
  dependency-aware scheduler, worker pool, retry/timeout semantics, and
  per-batch report;
* :mod:`~repro.service.worker` — the per-job executor and the worker
  process body (``python -m repro.service.worker``);
* :mod:`~repro.service.pool` — the worker pool (boot once, serve many
  jobs over the framed protocol, or one job each under ``--no-pool``);
* :mod:`~repro.service.proto` — length-prefixed JSON framing for the
  worker wire protocol;
* :mod:`~repro.service.store` — the persistent content-addressed
  result store;
* :mod:`~repro.service.faults` — deterministic fault injection;
* :mod:`~repro.service.live` — batches over a live session
  environment (the ``Repair Batch`` vernacular command);
* :mod:`~repro.service.manifest` / :mod:`~repro.service.cli` — the
  ``python -m repro.service`` batch front end;
* :mod:`~repro.service.cases` — the standard six-case-study batch;
* :mod:`~repro.service.planner` — change-impact plans for the
  scheduler (prune certified-unaffected jobs; differential soundness
  gate) over :mod:`repro.analysis.impact`;
* :mod:`~repro.service.synth` — a deterministic synthetic wide
  environment for the change-impact tests.
"""

from .faults import CRASH_EXIT_CODE, FaultInjected, FaultPlan, JobTimeout, WorkerCrash
from .job import (
    LIVE_SETUP,
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SKIPPED,
    STATUS_SKIPPED_UNAFFECTED,
    STATUS_TIMEOUT,
    STATUSES,
    JobError,
    RepairJob,
    fingerprint_env,
    fingerprint_source,
)
from .planner import BatchImpact, build_batch_impact, verify_impact
from .pool import WorkerPool
from .scheduler import (
    JOBS_ENV_VAR,
    BatchOptions,
    BatchReport,
    JobOutcome,
    default_jobs,
    inprocess_runner,
    run_batch,
)
from .store import STORE_ENV_VAR, ResultStore, default_store_dir

__all__ = [
    "BatchImpact",
    "BatchOptions",
    "BatchReport",
    "CRASH_EXIT_CODE",
    "FaultInjected",
    "FaultPlan",
    "JOBS_ENV_VAR",
    "JobError",
    "JobOutcome",
    "JobTimeout",
    "LIVE_SETUP",
    "RepairJob",
    "ResultStore",
    "STATUS_CACHED",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_SKIPPED",
    "STATUS_SKIPPED_UNAFFECTED",
    "STATUS_TIMEOUT",
    "STATUSES",
    "STORE_ENV_VAR",
    "WorkerCrash",
    "WorkerPool",
    "build_batch_impact",
    "default_jobs",
    "default_store_dir",
    "fingerprint_env",
    "fingerprint_source",
    "inprocess_runner",
    "run_batch",
    "verify_impact",
]
