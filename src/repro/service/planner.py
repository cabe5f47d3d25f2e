"""Batch-level impact planning: plans in, skips and soundness out.

This is the bridge between :mod:`repro.analysis.impact` and the
scheduler.  :func:`build_batch_impact` groups a batch's jobs by the
environment they run in (setup reference, old globals, skip set,
environment fingerprint), obtains one :class:`RepairPlan` per group —
from the plan store when the fingerprint matches, rebuilding and
persisting otherwise — and wraps them as a :class:`BatchImpact` the
scheduler consults per job.

Two consumption modes, selected by ``--impact``/``--no-impact`` (or
the ``impact``/``no-impact`` keyword of ``Repair Batch``):

* **prune** — :attr:`BatchOptions.impact
  <repro.service.scheduler.BatchOptions.impact>` is set; jobs whose
  targets the plan certifies ``unaffected`` complete as
  ``skipped-unaffected`` with the evidence digest, no worker spawned;
* **check** — everything runs, then :func:`verify_impact` asserts that
  every job the plan *would* have skipped produced a term and type
  byte-identical to the original declaration (compared through the
  digests recorded in the plan).  This differential run is the
  soundness gate CI's impact job executes.

A plan whose fingerprint disagrees with a job's ``env_fingerprint`` is
never consulted — a stale plan can cost time (the job runs), never
correctness.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.impact import (
    VERDICT_UNAFFECTED,
    ImpactEntry,
    PlanStore,
    RepairPlan,
    ensure_plan,
)
from ..kernel.env import Environment
from .job import LIVE_SETUP, STATUS_SKIPPED_UNAFFECTED, JobError, RepairJob
from .scheduler import BatchReport

MODE_PRUNE = "prune"
MODE_CHECK = "check"


#: One environment a batch repairs in: the plan cache key within a batch.
GroupKey = Tuple[str, Tuple[str, ...], Tuple[str, ...], str]


def _group_key(job: RepairJob) -> GroupKey:
    return (job.setup, job.old, job.skip, job.env_fingerprint)


class BatchImpact:
    """Plans for every distinct environment of a batch."""

    def __init__(self, plans: Dict[GroupKey, RepairPlan]) -> None:
        self._plans = plans

    @property
    def plans(self) -> Dict[GroupKey, RepairPlan]:
        return dict(self._plans)

    def digests(self) -> Dict[str, str]:
        """Plan digest per setup reference (for batch reports)."""
        return {
            key[0]: plan.digest for key, plan in self._plans.items()
        }

    def plan_for(self, job: RepairJob) -> Optional[RepairPlan]:
        plan = self._plans.get(_group_key(job))
        if plan is None or plan.fingerprint != job.env_fingerprint:
            return None
        return plan

    def entry_for(self, job: RepairJob) -> Optional[ImpactEntry]:
        plan = self.plan_for(job)
        return plan.entries.get(job.target) if plan is not None else None

    def skippable(self, job: RepairJob) -> Optional[Dict[str, Any]]:
        """Evidence record when the plan certifies ``job`` unaffected."""
        plan = self.plan_for(job)
        if plan is None:
            return None
        entry = plan.entries.get(job.target)
        if entry is None or entry.verdict != VERDICT_UNAFFECTED:
            return None
        return {
            "verdict": entry.verdict,
            "code": entry.code,
            "evidence_digest": entry.def_digest,
            "plan_digest": plan.digest,
        }


def build_batch_impact(
    jobs: Sequence[RepairJob],
    store: Optional[PlanStore] = None,
    env: Optional[Environment] = None,
) -> BatchImpact:
    """One plan per distinct environment in ``jobs``.

    ``env`` serves groups whose setup is :data:`LIVE_SETUP` (the
    ``Repair Batch`` vernacular passes the session environment —
    live jobs carry no rebuildable script).  Dotted setups rebuild
    through the worker's environment builder, but only on a plan-store
    miss.
    """
    from .worker import build_environment

    plans: Dict[GroupKey, RepairPlan] = {}
    for job in jobs:
        key = _group_key(job)
        if key in plans:
            continue
        if job.setup == LIVE_SETUP:
            if env is None:
                raise JobError(
                    f"job {job.name!r} is live; build_batch_impact "
                    "needs the session environment"
                )
            live_env = env
            plans[key] = ensure_plan(
                job.env_fingerprint,
                job.old,
                lambda live_env=live_env: live_env,
                allow=job.skip,
                store=store,
            )
        else:
            plans[key] = ensure_plan(
                job.env_fingerprint,
                job.old,
                lambda setup=job.setup: build_environment(setup),
                allow=job.skip,
                store=store,
            )
    return BatchImpact(plans)


def _digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verify_impact(
    report: BatchReport, impact: BatchImpact
) -> List[str]:
    """The differential soundness gate: skipped ⇒ byte-identical.

    For every job of a *force-run* batch whose target the plan
    certifies ``unaffected``, assert the worker's repaired term and
    type hash to the original declaration's digests recorded in the
    plan.  Returns human-readable violations; empty means the plan is
    sound for this batch.
    """
    violations: List[str] = []
    for outcome in report.outcomes:
        entry = impact.entry_for(outcome.job)
        if entry is None or entry.verdict != VERDICT_UNAFFECTED:
            continue
        if outcome.status == STATUS_SKIPPED_UNAFFECTED:
            continue  # pruned, nothing to compare
        name = outcome.job.name
        if not outcome.ok or outcome.result is None:
            violations.append(
                f"{name}: certified unaffected but force-run ended "
                f"{outcome.status!r} ({outcome.error or 'no result'})"
            )
            continue
        term = outcome.result.get("term")
        if entry.term_digest is not None and (
            term is None or _digest_text(term) != entry.term_digest
        ):
            violations.append(
                f"{name}: certified unaffected but the repaired term "
                "differs from the original body"
            )
        type_ = outcome.result.get("type")
        if entry.type_digest is not None and (
            type_ is None or _digest_text(type_) != entry.type_digest
        ):
            violations.append(
                f"{name}: certified unaffected but the repaired type "
                "differs from the original type"
            )
    return violations
