"""Live batches: the engine driven over an in-session environment.

The ``Repair Batch`` vernacular command schedules several repairs over
the *session's* environment rather than hermetic worker rebuilds.  The
jobs carry :data:`~repro.service.job.LIVE_SETUP` and a structural
environment fingerprint (:func:`~repro.service.job.fingerprint_env`),
their edges are inferred from the reverse-dependency graph
(:func:`~repro.service.graph.infer_edges`), and they execute through
the deterministic in-process executor against one shared
:class:`~repro.core.repair.RepairSession`.

Persistent-store hits are *replayed*: the cached pretty-printed
definitions are parsed back and defined into the live environment
(dependencies first), and registered in the session's results and
constant map so later jobs build on them without redoing the repair.  A
definition that fails to re-parse or re-check simply demotes the hit to
a recompute — the cache can slow a batch down, never corrupt it.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

from ..core.repair import RepairResult, RepairSession
from ..kernel.env import Environment
from ..kernel.stats import stats_mark
from ..syntax.parser import parse
from . import faults
from .graph import infer_edges
from .job import LIVE_SETUP, RepairJob, fingerprint_env
from .scheduler import BatchOptions, BatchReport, Runner, run_batch
from .worker import attempt_job, build_record


def live_jobs(
    env: Environment,
    a: str,
    b: str,
    targets: Sequence[str],
    rename: Optional[Dict[str, Any]] = None,
    skip: Sequence[str] = (),
) -> List[RepairJob]:
    """Jobs for repairing ``targets`` across ``a ~= b`` in ``env``,
    with ``after`` edges inferred from the dependency graph."""
    fingerprint = fingerprint_env(env)
    jobs = [
        RepairJob(
            name=target,
            setup=LIVE_SETUP,
            target=target,
            config={"kind": "live", "a": a, "b": b},
            old=(a,),
            rename=rename,
            skip=tuple(skip),
            env_fingerprint=fingerprint,
        )
        for target in targets
    ]
    edges = infer_edges(env, jobs)
    return [
        RepairJob(
            name=job.name,
            setup=job.setup,
            target=job.target,
            config=job.config,
            old=job.old,
            rename=job.rename,
            skip=job.skip,
            after=edges.get(job.name, ()),
            env_fingerprint=job.env_fingerprint,
        )
        for job in jobs
    ]


def replay_record(
    env: Environment, session: RepairSession, result: Dict[str, Any]
) -> None:
    """Define a cached job's constants into the live environment.

    Raises on any parse or check failure — the scheduler treats that as
    a store miss and recomputes the job from scratch.
    """
    for entry in result.get("defined", ()):
        old, new = entry["old"], entry["new"]
        if old in session.results:
            continue
        term = parse(env, entry["term"])
        ty = parse(env, entry["type"])
        if not env.has_constant(new):
            env.define(new, term, type=ty)
        session.results[old] = RepairResult(
            old_name=old, new_name=new, term=term, type=ty
        )
        session.config.const_map[old] = new


def live_runner(
    session: RepairSession,
    fault_plan: Optional[faults.FaultPlan] = None,
) -> Runner:
    """The in-process executor bound to one shared live session."""
    env = session.env

    def run(
        payload: Dict[str, Any], attempt: int, timeout_s: Optional[float]
    ) -> Dict[str, Any]:
        def execute() -> Dict[str, Any]:
            started = time.perf_counter()
            before = stats_mark()
            already = set(session.results)
            result = session.repair_constant(
                payload["target"], new_name=payload.get("new_name")
            )
            return build_record(
                env, session, result, before, started, exclude=already
            )

        return attempt_job(
            execute, payload, attempt, fault_plan, in_process=True
        )

    return run


def run_live_batch(
    session: RepairSession,
    jobs: List[RepairJob],
    options: Optional[BatchOptions] = None,
    batch: str = "live",
) -> BatchReport:
    """Run a live batch over ``session``; always serial, always ordered."""
    options = options or BatchOptions()
    options.jobs = 1  # the live environment is shared mutable state
    return run_batch(
        jobs,
        options,
        runner=live_runner(session, options.fault_plan),
        batch=batch,
        on_cached=lambda job, result: replay_record(
            session.env, session, result
        ),
    )
