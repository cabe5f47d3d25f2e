"""The worker side of the batch engine: one job at a time.

A worker rebuilds its environment from the job's serialized module
script (a dotted ``pkg.mod:fn`` reference to an environment builder),
builds the configuration in a fork of it, repairs the target in a fork
of that post-build environment through a
:class:`~repro.core.repair.RepairSession` of its own (which reads and
fills the resident configuration's transform store; see
:class:`ResidentConfig`), and returns a JSON-ready record (whose report
a warm job reads from the resident report store when it can): the
repaired term and type (pretty-printed), every constant the
session defined along the way (dependencies first — the replay order),
the decompiled tactic script, a static-analysis report over the result,
and the :class:`~repro.kernel.stats.KernelStats` delta the repair cost.

:func:`execute_warm` is the one repair body for jobs that carry a setup
script (live batches repair inside their session instead; see
:mod:`repro.service.live`).  It has two callers:

* ``python -m repro.service.worker`` — the process body the worker pool
  (:mod:`repro.service.pool`) launches: it serves framed requests (see
  :mod:`repro.service.proto`) off stdin until a ``shutdown`` request or
  EOF, keeping booted environments and their configurations resident
  between jobs.  A pool that recycles each worker after one job
  (``--no-pool``) gets one fresh process per attempt from the same body;
* the in-process executor (``--jobs 1`` and tests), which passes a
  fresh resident table per attempt, so every attempt boots from scratch.

A crash-injected worker process exits with
:data:`~repro.service.faults.CRASH_EXIT_CODE` and no record; in process,
the injection raises :class:`~repro.service.faults.WorkerCrash` instead.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.caching import TransformCache
from ..core.config import ConfigError, Configuration
from ..core.repair import RepairError, RepairSession
from ..kernel.env import Environment
from ..kernel.pretty import pretty
from ..kernel.stats import KERNEL_STATS, StatsMark, stats_delta, stats_mark
from ..kernel.term import TermError
from . import faults
from .job import LIVE_SETUP, SCHEMA_VERSION, JobError
from .proto import read_frames, write_frame


def resolve_ref(ref: str) -> Any:
    """Import a ``pkg.mod:attr`` dotted reference."""
    if ":" not in ref:
        raise JobError(
            f"bad dotted reference {ref!r}: expected 'pkg.mod:attr'"
        )
    module_name, attr = ref.split(":", 1)
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise JobError(f"cannot import {module_name!r}: {exc}") from exc
    try:
        return getattr(module, attr)
    except AttributeError as exc:
        raise JobError(
            f"module {module_name!r} has no attribute {attr!r}"
        ) from exc


def build_environment(setup: str) -> Environment:
    """Rebuild a job's environment from its setup reference."""
    if setup == LIVE_SETUP:
        raise JobError(
            "live jobs carry no environment script; they must be run "
            "through their session's runner, not a worker"
        )
    env = resolve_ref(setup)()
    if not isinstance(env, Environment):
        raise JobError(
            f"setup {setup!r} returned {type(env).__name__}, "
            "not an Environment"
        )
    return env


def build_config(env: Environment, spec: Dict[str, Any]) -> Configuration:
    """Build the job's configuration from its spec."""
    kind = spec.get("kind")
    if kind == "auto":
        from ..core.search import configure

        mapping = spec.get("mapping")
        return configure(
            env,
            spec["a"],
            spec["b"],
            mapping=tuple(mapping) if mapping else None,
        )
    if kind == "dotted":
        config = resolve_ref(spec["ref"])(env)
        if not isinstance(config, Configuration):
            raise JobError(
                f"config ref {spec['ref']!r} returned "
                f"{type(config).__name__}, not a Configuration"
            )
        return config
    raise JobError(f"cannot build config of kind {kind!r} in a worker")


def make_rename(
    spec: Optional[Dict[str, Any]]
) -> Optional[Callable[[str], str]]:
    """The rename callable for a job's serializable rename spec."""
    if spec is None:
        return None
    kind = spec.get("kind")
    if kind == "prefix":
        prefix = spec["value"]
        return lambda name: f"{prefix}{name}"
    if kind == "suffix":
        suffix = spec["value"]
        return lambda name: f"{name}{suffix}"
    if kind == "map":
        table: Dict[str, str] = dict(spec["map"])
        fallback = spec.get("prefix", "")
        suffix = spec.get("suffix", "'" if not fallback else "")
        return lambda name: table.get(
            name, f"{fallback}{name}{suffix}"
        )
    if kind == "dotted":
        fn = resolve_ref(spec["ref"])
        if not callable(fn):
            raise JobError(f"rename ref {spec['ref']!r} is not callable")
        return fn  # type: ignore[no-any-return]
    raise JobError(f"unknown rename kind {kind!r}")


def _decompiled(env: Environment, result_name: str, term: Any) -> Optional[str]:
    from ..decompile.decompiler import decompile_to_script, print_script

    try:
        script = decompile_to_script(env, term)
        return print_script(script, name=result_name)
    except Exception:  # noqa: BLE001 — the script is best-effort extra
        return None


#: Mirrors every report-store lookup, as ``transform_cache`` mirrors the
#: transform store's.
_REPORT_COUNTER = KERNEL_STATS.counter("report_cache")
#: Bound on one report store, cleared wholesale at the cap (the
#: discipline of the kernel's memo tables): a naming bounds its jobs'
#: targets, but not the ``new_name``s they ask for.
_REPORT_STORE_MAX = 1 << 12

#: ``(id(term), name, declaration state)`` -> ``(term, script,
#: diagnostics)``; the value pins the term, the key the state.
ReportStore = Dict[Tuple[int, str, object], Tuple[Any, str, Tuple[Any, ...]]]


def _report(
    env: Environment,
    name: str,
    term: Any,
    reports: Optional[ReportStore],
) -> Tuple[Optional[str], List[Dict[str, Any]]]:
    """The decompiled script and scope report of ``term`` defined as
    ``name``: read from ``reports``, or made (and stored there).

    The key's declaration state pins every declaration a report reads
    (see :class:`ResidentConfig`).  A report whose decompile raised is
    not stored: the error need not be a function of the key.
    """
    if reports is not None:
        key = (id(term), name, env.declaration_state)
        entry = reports.get(key)
        if entry is not None:
            _REPORT_COUNTER.hits += 1
            return entry[1], [d.to_dict() for d in entry[2]]
        _REPORT_COUNTER.misses += 1
    from ..analysis.scope import check_constant

    script = _decompiled(env, name, term)
    diagnostics = tuple(check_constant(env, env.constant(name)))
    if reports is not None and script is not None:
        if len(reports) >= _REPORT_STORE_MAX:
            reports.clear()
        reports[key] = (term, script, diagnostics)
    return script, [d.to_dict() for d in diagnostics]


def build_record(
    env: Environment,
    session: RepairSession,
    result: Any,
    before: StatsMark,
    started: float,
    exclude: Optional[set] = None,
    reports: Optional[ReportStore] = None,
) -> Dict[str, Any]:
    """The JSON-ready ``ok`` record for one finished repair.

    ``exclude`` filters out old names already accounted for by earlier
    jobs sharing the session (live batches), so ``defined`` lists only
    what *this* job added — dependencies first, the replay order.
    ``reports`` is a resident configuration's report store (warm jobs
    only; see :class:`ResidentConfig`): the ``script`` and ``analysis``
    come from it when an earlier job reported the same term under the
    same name at the same declaration state, and are made and stored
    there otherwise.  Without a store (live batches) both are made.
    """
    defined = [
        {
            "old": r.old_name,
            "new": r.new_name,
            "term": pretty(r.term),
            "type": pretty(r.type),
        }
        for r in session.results.values()
        if not exclude or r.old_name not in exclude
    ]
    script, analysis = _report(env, result.new_name, result.term, reports)
    return {
        "status": "ok",
        "new_name": result.new_name,
        "term": pretty(result.term),
        "type": pretty(result.type),
        "script": script,
        "defined": defined,
        "analysis": analysis,
        "kernel_delta": stats_delta(before, stats_mark()),
        "wall_time_s": round(time.perf_counter() - started, 6),
    }


# -- Warm execution (persistent workers) --------------------------------------


@dataclass
class ResidentConfig:
    """The configuration a resident environment keeps between jobs.

    It is built in a fork of the boot, and that post-build environment
    (:attr:`env`) stays resident and is never written again: every job
    repairs in a fork of it, dropped with the job.  It also keeps one
    transform store, valid for one *naming*: the canonical JSON of the
    job's ``[old, skip, rename]``.  Every job with that naming repairs
    through the store; a job with another naming replaces it with a
    fresh one.  A hit is sound because a transformed subterm is a
    function of the term, its pruned context (the store's key), the
    configuration (this one object) and ``const_map`` restricted to the
    globals the term mentions, and nothing else a job can vary:

    1. The environment a matcher reads adds nothing.  Every transformed
       term is the type or body of an old declaration, so it mentions
       only declarations of :attr:`env`, and every job starts from a
       fork of it.  The B-side builders declare nothing during a
       transform: ornament support and smart eliminators are declared
       at configure time, into :attr:`env`.
    2. The restricted ``const_map`` is fixed by the naming.  A session
       repairs, and so maps, every dependency that needs repair before it
       transforms a term that mentions it, and maps it to
       ``rename(dep)``; which dependencies need repair is decided by
       ``old``, ``skip``, the configuration's iota names and :attr:`env`.
    3. A job's own target never occurs inside a term that job
       transforms (the kernel admits no self-reference), so neither
       ``target`` nor ``new_name`` reaches an entry, and jobs repairing
       different targets under one naming share the store.
    4. A ``dotted`` rename is assumed pure, as :attr:`RepairJob.key`
       already assumes when it hashes the rename spec.

    The store holds transforms of subterms of the declarations of
    :attr:`env`, so it is bounded by them; a configuration rebuild or a
    re-boot drops it with this object.

    Next to it sits a report store (:data:`ReportStore`), replaced with
    it: each job's decompiled ``script`` and scope ``analysis``, keyed
    by the identity of the repaired term, the result name and the
    environment's declaration state when the report is made.  A hit
    needs no naming argument.  A report reads only its term, its name
    and the environment's declarations; a declaration state pins
    exactly those declarations (two environments at one state hold the
    same objects); and a steady job, whose transforms are hits, declares
    the very objects its predecessor declared, so it stands on the same
    state as it and reuses its report.  The key pins the state, which
    keeps its trie node alive.
    """

    #: Canonical JSON of the job's ``config`` spec (the discipline of
    #: :attr:`RepairJob.key`): jobs with an equal key share this build.
    key: str
    config: Configuration
    #: The built ``const_map``; every job starts from a fresh copy,
    #: because a repair session records each repaired name in it.
    const_map: Dict[str, str]
    #: The environment right after the build; every job forks it.
    env: Environment
    #: The naming (see above) whose jobs filled :attr:`transforms`.
    naming: str
    #: Transformed subterms, shared by every job with :attr:`naming`.
    transforms: TransformCache
    #: Reports of the jobs with :attr:`naming`, keyed by declaration
    #: state; replaced whenever :attr:`transforms` is.
    reports: ReportStore


@dataclass
class Resident:
    """One booted environment kept alive between jobs of a warm worker."""

    #: The job-claimed source fingerprint this environment was booted
    #: under; a later job claiming a different one means the setup
    #: module changed on disk and this process (whose import graph is
    #: frozen) can no longer rebuild it honestly.
    fingerprint: str
    #: The pristine boot, never written: each configuration builds in a
    #: fork of it.
    env: Environment
    config: Optional[ResidentConfig] = None


class StaleEnvironment(Exception):
    """A job's env fingerprint no longer matches the resident boot."""


def execute_warm(
    residents: Dict[str, Resident], payload: Dict[str, Any]
) -> Dict[str, Any]:
    """Run one job against a resident environment, booting on first use.

    The job's configuration stays resident with the environment and is
    built again only for a job whose ``config`` spec has another key;
    that build runs in a fresh fork of the pristine boot, and one that
    raises leaves no configuration resident.  Every job starts from a
    fresh copy of the built ``const_map`` and repairs in a fresh fork of
    the post-build environment, dropped when the job ends (success or
    failure), so each job observes the state a fresh per-job boot and
    build would — byte-identical results, which the digest-parity gates
    assert — and nothing a job does, a ``remove`` included, reaches the
    resident environments.  A job transforms through the resident
    configuration's store when its naming matches the one that filled
    it, and through a fresh store that then stays resident otherwise
    (see :class:`ResidentConfig`).  Its ``script`` and ``analysis`` come
    from the resident report store when an earlier job with its naming
    reported the same term under the same name at the same declaration
    state, and are made and stored there otherwise.
    """
    setup = payload["setup"]
    claimed = str(payload.get("env_fingerprint", ""))
    entry = residents.get(setup)
    if entry is not None and claimed and entry.fingerprint != claimed:
        raise StaleEnvironment(
            f"setup {setup!r} changed on disk since this worker booted"
        )
    started = time.perf_counter()
    before = stats_mark()
    key = json.dumps(payload["config"], sort_keys=True, separators=(",", ":"))
    if entry is None:
        entry = Resident(fingerprint=claimed, env=build_environment(setup))
        residents[setup] = entry
        job_boot = "scratch"
    else:
        job_boot = "warm"
    naming = json.dumps(
        [payload["old"], payload.get("skip") or [], payload.get("rename")],
        sort_keys=True,
        separators=(",", ":"),
    )
    resident = entry.config
    if resident is None or resident.key != key:
        entry.config = None
        built = entry.env.fork()
        config = build_config(built, payload["config"])
        resident = entry.config = ResidentConfig(
            key,
            config,
            dict(config.const_map),
            built,
            naming,
            TransformCache(),
            {},
        )
    elif resident.naming != naming:
        resident.naming = naming
        resident.transforms = TransformCache()
        resident.reports = {}
    config = resident.config
    config.const_map = dict(resident.const_map)
    env = resident.env.fork()
    session = RepairSession(
        env,
        config,
        old_globals=tuple(payload["old"]),
        rename=make_rename(payload.get("rename")),
        cache=resident.transforms,
        skip=list(payload.get("skip") or ()) or None,
    )
    result = session.repair_constant(
        payload["target"], new_name=payload.get("new_name")
    )
    record = build_record(
        env, session, result, before, started, reports=resident.reports
    )
    record["env_boot"] = job_boot
    return record


def attempt_job(
    execute: Callable[[], Dict[str, Any]],
    payload: Dict[str, Any],
    attempt: int = 0,
    fault_plan: Optional[faults.FaultPlan] = None,
    in_process: bool = False,
) -> Dict[str, Any]:
    """One attempt at a job: fault hook, then ``execute``, then triage.

    Deterministic repair failures come back ``retryable: false``;
    injected errors come back ``retryable: true`` so the scheduler's
    bounded-retry path is exercised without real nondeterminism.
    Injected crashes kill the process (pool workers) or raise
    :class:`~repro.service.faults.WorkerCrash` (in-process executors).
    """
    try:
        faults.inject(payload["target"], attempt, fault_plan, in_process)
        return execute()
    except faults.FaultInjected as exc:
        return {"status": "failed", "error": str(exc), "retryable": True}
    except (faults.WorkerCrash, faults.JobTimeout, StaleEnvironment):
        # Crash/timeout semantics are the scheduler's to handle, and a
        # stale resident environment is the serve loop's (it answers
        # with a ``stale`` frame so the pool retires this worker).
        raise
    except (RepairError, ConfigError, TermError, JobError) as exc:
        return {
            "status": "failed",
            "error": f"{type(exc).__name__}: {exc}",
            "retryable": False,
        }
    except RecursionError:
        raise
    except Exception as exc:  # noqa: BLE001 — a worker never crashes the pool
        return {
            "status": "failed",
            "error": f"unexpected {type(exc).__name__}: {exc}",
            "retryable": False,
        }


def serve() -> int:
    """Persistent worker body: framed requests in, framed replies out.

    Requests (one JSON object per frame on stdin):

    * ``{"op": "job", "payload": .., "attempt": n}`` —
      run one job warm; replies ``{"op": "result", "record": ..}``, or
      ``{"op": "stale", "setup": ..}`` when the payload's env
      fingerprint no longer matches the resident boot (the pool retires
      this worker and redispatches to a fresh one);
    * ``{"op": "ping"}`` — replies ``{"op": "pong", "served": n}``;
    * ``{"op": "shutdown"}`` — replies ``{"op": "bye", "served": n}``
      and exits.  EOF on stdin exits the same way, sans farewell.

    Booted environments and their configurations stay resident in
    ``residents`` across jobs (the warm path); injected crashes still
    ``os._exit`` the whole process and injected hangs still stall it —
    the pool's deadline/respawn machinery handles both exactly as it
    would a real fault.
    """
    out = sys.stdout.buffer
    residents: Dict[str, Resident] = {}
    served = 0
    for request in read_frames(sys.stdin.fileno()):
        op = request.get("op")
        if op == "ping":
            write_frame(out, {"op": "pong", "served": served})
            continue
        if op == "shutdown":
            write_frame(out, {"op": "bye", "served": served})
            return 0
        if op != "job":
            write_frame(
                out, {"op": "error", "error": f"unknown op {op!r}"}
            )
            continue
        payload = request.get("payload") or {}
        attempt = int(request.get("attempt", 0))
        try:
            record = attempt_job(
                lambda: execute_warm(residents, payload),
                payload,
                attempt,
                faults.FaultPlan.from_env(),
            )
        except StaleEnvironment:
            write_frame(
                out, {"op": "stale", "setup": payload.get("setup")}
            )
            continue
        record["schema_version"] = SCHEMA_VERSION
        served += 1
        write_frame(out, {"op": "result", "record": record})
    return 0


if __name__ == "__main__":
    sys.exit(serve())
