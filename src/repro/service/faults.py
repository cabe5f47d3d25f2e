"""Injectable fault hooks, used by the tests to prove fault tolerance.

Workers consult :func:`injected_kind` at the start of every attempt.
Faults come from a :class:`FaultPlan` — an explicit, deterministic
``target -> {attempt: kind}`` table, passed programmatically
(``BatchOptions.fault_plan``) or through the ``REPRO_FAULT_PLAN``
environment variable as JSON, e.g. ``{"add": {"0": "crash"}}`` crashes
the first attempt at repairing ``add`` and lets the retry through.

Kinds: ``crash`` (the worker process dies with :data:`CRASH_EXIT_CODE`,
no output), ``error`` (a retryable :class:`FaultInjected` is raised),
``hang`` (the worker sleeps until the per-job timeout kills it).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

#: Environment variable carrying a JSON fault plan.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Exit code of a crash-injected worker (distinguishable from Python
#: tracebacks, which exit 1).
CRASH_EXIT_CODE = 13

#: How long a "hang" fault sleeps; tests shrink it via the environment.
HANG_SECONDS_ENV = "REPRO_FAULT_HANG_S"

FAULT_KINDS = ("crash", "error", "hang")


class FaultInjected(Exception):
    """A deliberately injected, retryable worker failure."""


class WorkerCrash(Exception):
    """A worker process died without producing a result (retryable)."""


class JobTimeout(Exception):
    """A job exceeded its per-job timeout (reported, not retried)."""


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic table of faults: target -> attempt -> kind."""

    faults: Mapping[str, Mapping[int, str]]

    def kind_for(self, target: str, attempt: int) -> Optional[str]:
        return self.faults.get(target, {}).get(attempt)

    def to_env(self) -> str:
        """The ``REPRO_FAULT_PLAN`` JSON encoding of this plan."""
        return json.dumps(
            {
                target: {str(a): kind for a, kind in attempts.items()}
                for target, attempts in self.faults.items()
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(raw: str) -> "FaultPlan":
        data = json.loads(raw)
        faults: Dict[str, Dict[int, str]] = {}
        if not isinstance(data, dict):
            raise ValueError("fault plan must be a JSON object")
        for target, attempts in data.items():
            if not isinstance(attempts, dict):
                raise ValueError(
                    f"fault plan for {target!r} must map attempts to kinds"
                )
            faults[target] = {}
            for attempt, kind in attempts.items():
                if kind not in FAULT_KINDS:
                    raise ValueError(f"unknown fault kind {kind!r}")
                faults[target][int(attempt)] = str(kind)
        return FaultPlan(faults=faults)

    @staticmethod
    def from_env() -> Optional["FaultPlan"]:
        raw = os.environ.get(FAULT_PLAN_ENV, "")
        if not raw:
            return None
        return FaultPlan.from_json(raw)


def injected_kind(
    target: str, attempt: int, plan: Optional[FaultPlan] = None
) -> Optional[str]:
    """The fault to inject for this attempt, if any.

    The plan is the argument, else ``REPRO_FAULT_PLAN``.
    """
    if plan is None:
        plan = FaultPlan.from_env()
    if plan is None:
        return None
    return plan.kind_for(target, attempt)


def inject(
    target: str,
    attempt: int,
    plan: Optional[FaultPlan] = None,
    in_process: bool = False,
) -> None:
    """Apply the injected fault for this attempt, if any.

    ``crash`` exits the process immediately (simulating an OOM-killed or
    segfaulting worker) — except under the deterministic in-process
    executor, where killing the process would kill the engine itself, so
    the crash surfaces as :class:`WorkerCrash` with the same retry
    semantics.  ``error`` raises :class:`FaultInjected`; ``hang`` sleeps
    long enough for the job timeout to fire.
    """
    kind = injected_kind(target, attempt, plan)
    if kind is None:
        return
    if kind == "crash":
        if in_process:
            raise WorkerCrash(
                f"injected crash for {target!r} attempt {attempt}"
            )
        os._exit(CRASH_EXIT_CODE)
    if kind == "error":
        raise FaultInjected(
            f"injected fault for {target!r} attempt {attempt}"
        )
    if kind == "hang":
        time.sleep(float(os.environ.get(HANG_SECONDS_ENV, "3600")))
