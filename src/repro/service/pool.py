"""The worker pool: every job that leaves the calling process runs here.

:class:`WorkerPool` keeps up to ``width`` long-lived
``python -m repro.service.worker`` processes.  Each worker pays
interpreter startup, the ``repro`` import graph, and (per setup) one
environment boot exactly once, then serves many jobs over the framed
stdin/stdout protocol of :mod:`repro.service.proto` — warm jobs skip
boot entirely, which is where the per-job wall time goes on small
repairs.  ``max_jobs_per_worker=1`` is per-attempt mode (``--no-pool``):
every attempt gets a fresh process, through the same spawn, deadline,
crash and frame code.

Lifecycle, from the scheduler's point of view:

* **lazy spawn** — workers are created on demand, never ahead of it; a
  batch of three jobs on an eight-wide pool starts three processes;
* **timeout** — a job that misses its deadline gets its worker's whole
  process group SIGKILLed (workers run ``start_new_session``, so
  children they spawned die too) and surfaces as
  :class:`~repro.service.faults.JobTimeout`; only the stuck worker is
  lost, the rest of the pool keeps serving;
* **crash** — a worker that dies mid-job (injected crash, OOM kill,
  segfault) surfaces as :class:`~repro.service.faults.WorkerCrash`,
  which the scheduler retries on a fresh worker; idle workers are
  untouched;
* **stale retire** — a worker whose resident environment no longer
  matches a job's env fingerprint answers ``stale``; the pool retires
  it (a fresh process re-imports the edited setup module; re-importing
  in-process would fight ``importlib`` caching) and re-dispatches,
  bounded by :data:`STALE_BOUNCES`;
* **recycle** — only a pool given ``max_jobs_per_worker`` replaces a
  healthy worker, gracefully, after that many jobs; by default a worker
  serves until it fails or the pool drains (per-job wall and RSS stay
  flat over 2,000 jobs on one worker, which CI checks);
* **drain** — :meth:`WorkerPool.shutdown` sends every idle worker a
  ``shutdown`` frame, waits briefly, and hard-kills stragglers.

The pool is POSIX-only (``select`` on pipes, ``killpg``), like the
fault machinery it extends.  Everything here is thread-safe: the
scheduler drives one pool from many executor threads.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
import weakref
from collections import deque
from typing import IO, Any, Callable, Deque, Dict, List, Optional, Set

from .faults import CRASH_EXIT_CODE, FaultPlan, JobTimeout, WorkerCrash
from .proto import (
    FrameStream,
    FrameTimeout,
    ProtocolError,
    StreamClosed,
    write_frame,
)

#: How many consecutive ``stale`` answers one job may bounce through
#: before the pool gives up and reports a crash (each bounce retires a
#: worker and spawns a fresh one, which sees the current source).
STALE_BOUNCES = 2

#: Grace period for a retiring worker to exit after its shutdown frame.
_DRAIN_GRACE_S = 5.0

#: Every live pool, for emergency teardown on SIGTERM/SIGINT.  Weak so
#: an abandoned pool can still be collected; a registered pool whose
#: owner forgot to drain it is exactly what the emergency path is for.
_LIVE_POOLS: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()


def emergency_shutdown() -> int:
    """SIGKILL every live worker process group; returns how many died.

    This is the signal-handler path: no graceful shutdown frames, no
    waiting on executor threads — a batch CLI or server hit by SIGTERM
    must not leave worker process groups running (the executor threads
    blocked on those workers' pipes would otherwise keep the normal
    drain from ever finishing).  Safe to call repeatedly.
    """
    return sum(pool.kill() for pool in list(_LIVE_POOLS))


def worker_environ(fault_plan: Optional[FaultPlan] = None) -> Dict[str, str]:
    """The environment for a worker subprocess: import path + knobs."""
    import repro

    environ = dict(os.environ)
    src_dir = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__))
    )
    existing = environ.get("PYTHONPATH", "")
    parts = [src_dir] + ([existing] if existing else [])
    environ["PYTHONPATH"] = os.pathsep.join(parts)
    if fault_plan is not None:
        environ["REPRO_FAULT_PLAN"] = fault_plan.to_env()
    return environ


def kill_process_group(process: "subprocess.Popen[Any]") -> None:
    """SIGKILL a worker's whole process group, then reap it.

    Workers are spawned with ``start_new_session=True`` so their pid is
    their pgid — ``killpg`` takes down any children the worker spawned,
    which a bare ``process.kill()`` would leak.  Falls back to
    ``kill()`` when the group is already gone.
    """
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError, OSError):
        try:
            process.kill()
        except OSError:
            pass
    try:
        process.wait(timeout=_DRAIN_GRACE_S)
    except subprocess.TimeoutExpired:  # pragma: no cover — SIGKILL stuck
        pass


class PoolWorker:
    """One live worker process plus its framed streams."""

    def __init__(self, environ: Dict[str, str]) -> None:
        self.process: "subprocess.Popen[bytes]" = subprocess.Popen(
            [sys.executable, "-m", "repro.service.worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=environ,
            start_new_session=True,
        )
        assert self.process.stdout is not None
        self.stream = FrameStream(self.process.stdout.fileno())
        # stderr is drained only post-mortem (crash diagnostics); keep
        # it non-blocking so a quiet worker never deadlocks the drain.
        assert self.process.stderr is not None
        os.set_blocking(self.process.stderr.fileno(), False)
        #: Jobs this worker has completed (drives recycling).
        self.jobs = 0

    @property
    def _stdin(self) -> IO[bytes]:
        stdin = self.process.stdin
        assert stdin is not None
        return stdin

    def request(
        self,
        message: Dict[str, Any],
        deadline: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Send one framed request; return the worker's framed reply.

        ``deadline`` is an absolute ``time.monotonic()`` instant.
        Raises :class:`~repro.service.proto.FrameTimeout`,
        :class:`~repro.service.proto.StreamClosed`, or
        ``BrokenPipeError`` — the caller owns the kill/retire decision.
        """
        write_frame(self._stdin, message)
        return self.stream.read_frame(deadline)

    def alive(self) -> bool:
        return self.process.poll() is None

    def stderr_tail(self, lines: int = 3) -> str:
        """The last few stderr lines a dead/dying worker left behind."""
        stderr = self.process.stderr
        if stderr is None:
            return ""
        chunks: List[bytes] = []
        while True:
            try:
                chunk = os.read(stderr.fileno(), 65536)
            except (BlockingIOError, OSError, ValueError):
                break
            if not chunk:
                break
            chunks.append(chunk)
        text = b"".join(chunks).decode("utf-8", "replace").strip()
        return "; ".join(text.splitlines()[-lines:]) if text else ""

    def retire(self) -> None:
        """Graceful exit: shutdown frame, wait for EOF, then hard kill.

        Like ``communicate``, this waits on the worker's stdout, which
        reaches EOF the moment the worker exits; ``Popen.wait`` with a
        timeout polls with doubling sleeps that overshoot the exit.
        """
        try:
            write_frame(self._stdin, {"op": "shutdown"})
            self._stdin.close()
        except (BrokenPipeError, OSError, ValueError):
            pass
        deadline = time.monotonic() + _DRAIN_GRACE_S
        try:
            while True:  # the farewell frame, then EOF
                self.stream.read_frame(deadline)
        except StreamClosed:
            try:
                self.process.wait(timeout=_DRAIN_GRACE_S)
            except subprocess.TimeoutExpired:
                kill_process_group(self.process)
        except (FrameTimeout, ProtocolError, OSError):
            kill_process_group(self.process)
        self._close_pipes()

    def destroy(self) -> None:
        """Hard kill (process group) and reap; used on timeout/crash."""
        kill_process_group(self.process)
        self._close_pipes()

    def _close_pipes(self) -> None:
        for pipe in (
            self.process.stdin,
            self.process.stdout,
            self.process.stderr,
        ):
            if pipe is not None:
                try:
                    pipe.close()
                except OSError:  # pragma: no cover — close is best-effort
                    pass


class WorkerPool:
    """Up to ``width`` warm workers behind a thread-safe checkout queue."""

    def __init__(
        self,
        width: int,
        fault_plan: Optional[FaultPlan] = None,
        max_jobs_per_worker: Optional[int] = None,
    ) -> None:
        self.width = max(1, int(width))
        #: Jobs a worker serves before it is recycled; None never recycles.
        self.max_jobs_per_worker = (
            max_jobs_per_worker
            if max_jobs_per_worker and max_jobs_per_worker >= 1
            else None
        )
        self._environ = worker_environ(fault_plan)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._idle: Deque[PoolWorker] = deque()
        #: Every live worker, busy or idle — the emergency kill path
        #: must reach workers currently serving a job, which the idle
        #: queue alone cannot.
        self._members: Set[PoolWorker] = set()
        self._live = 0
        self._closed = False
        _LIVE_POOLS.add(self)
        self._counts: Dict[str, int] = {
            "spawned": 0,
            "recycled": 0,
            "stale_retired": 0,
            "timeout_kills": 0,
            "crashes": 0,
            "jobs": 0,
            "warm_jobs": 0,
            "env_boots": 0,
        }

    # -- Worker lifecycle --------------------------------------------------

    def _checkout(self) -> PoolWorker:
        """An idle worker, a fresh spawn, or a wait for one of those."""
        with self._cond:
            while True:
                if self._closed:
                    raise RuntimeError("worker pool is shut down")
                if self._idle:
                    return self._idle.popleft()
                if self._live < self.width:
                    self._live += 1
                    self._counts["spawned"] += 1
                    break
                self._cond.wait()
        try:
            worker = PoolWorker(self._environ)
        except BaseException:
            with self._cond:
                self._live -= 1
                self._counts["spawned"] -= 1
                self._cond.notify()
            raise
        with self._cond:
            self._members.add(worker)
        return worker

    def _checkin(self, worker: PoolWorker) -> None:
        """Return a healthy worker to the idle queue (or recycle it)."""
        limit = self.max_jobs_per_worker
        if limit is not None and worker.jobs >= limit:
            self._retire(worker, "recycled")
            return
        with self._cond:
            if not self._closed:
                self._idle.append(worker)
                self._cond.notify()
                return
        worker.retire()
        self._release(worker)

    def _retire(self, worker: PoolWorker, count: Optional[str]) -> None:
        """Gracefully drop one worker, freeing its pool slot."""
        if count is not None:
            with self._lock:
                self._counts[count] += 1
        worker.retire()
        self._release(worker)

    def _destroy(self, worker: PoolWorker, count: str) -> None:
        """Hard-kill one worker (process group), freeing its slot."""
        with self._lock:
            self._counts[count] += 1
        worker.destroy()
        self._release(worker)

    def _release(self, worker: PoolWorker) -> None:
        with self._cond:
            self._members.discard(worker)
            self._live = max(0, self._live - 1)
            self._cond.notify()

    def shutdown(self) -> None:
        """Drain the pool: retire every idle worker, refuse new checkouts.

        Workers currently serving a job are retired by their executor
        thread at checkin (the closed flag redirects them here), so a
        shutdown after the batch loop finishes is always complete.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            idle = list(self._idle)
            self._idle.clear()
            self._cond.notify_all()
        for worker in idle:
            worker.retire()
            self._release(worker)

    def kill(self) -> int:
        """Hard-kill every worker, busy or idle; returns how many.

        The emergency (signal-time) counterpart of :meth:`shutdown`:
        no shutdown frames, no grace for in-flight jobs.  Executor
        threads blocked on a killed worker's pipe observe EOF and
        surface :class:`~repro.service.faults.WorkerCrash` as usual —
        but the caller is typically about to ``os._exit`` anyway.
        """
        with self._cond:
            self._closed = True
            self._idle.clear()
            members = list(self._members)
            self._members.clear()
            self._live = 0
            self._cond.notify_all()
        for worker in members:
            kill_process_group(worker.process)
        return len(members)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()

    # -- Job execution -----------------------------------------------------

    def run_job(
        self,
        payload: Dict[str, Any],
        attempt: int,
        timeout_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Run one attempt on a worker; scheduler-compatible errors.

        Timeouts kill (and replace) only the worker that missed the
        deadline; crashes surface as retryable
        :class:`~repro.service.faults.WorkerCrash`.  Any other error
        destroys the worker too, so no attempt can keep its slot.
        """
        target = payload.get("target", "?")
        bounces = 0
        while True:
            worker = self._checkout()
            deadline = (
                time.monotonic() + timeout_s
                if timeout_s is not None and timeout_s > 0
                else None
            )
            request: Dict[str, Any] = {
                "op": "job",
                "payload": payload,
                "attempt": attempt,
            }
            try:
                reply = worker.request(request, deadline)
            except FrameTimeout:
                self._destroy(worker, "timeout_kills")
                raise JobTimeout(
                    f"worker for {target!r} exceeded {timeout_s}s"
                ) from None
            except (StreamClosed, BrokenPipeError, OSError):
                code = worker.process.poll()
                detail = worker.stderr_tail() or "no stderr"
                self._destroy(worker, "crashes")
                kind = (
                    "crashed"
                    if code == CRASH_EXIT_CODE
                    else f"exited {code}"
                )
                raise WorkerCrash(
                    f"warm worker for {target!r} {kind}: {detail}"
                ) from None
            except ProtocolError as exc:
                self._destroy(worker, "crashes")
                raise WorkerCrash(
                    f"warm worker for {target!r} broke protocol: {exc}"
                ) from None
            except BaseException:
                self._destroy(worker, "crashes")
                raise
            op = reply.get("op")
            if op == "result":
                record = reply.get("record")
                if not isinstance(record, dict):
                    self._destroy(worker, "crashes")
                    raise WorkerCrash(
                        f"warm worker for {target!r} sent a result "
                        "frame with no record"
                    )
                worker.jobs += 1
                with self._lock:
                    self._counts["jobs"] += 1
                    if record.get("env_boot") == "warm":
                        self._counts["warm_jobs"] += 1
                    elif "env_boot" in record:
                        self._counts["env_boots"] += 1
                self._checkin(worker)
                return record
            if op == "stale":
                # The setup module changed under this worker; only a
                # fresh process (fresh import graph) can serve the job.
                self._retire(worker, "stale_retired")
                bounces += 1
                if bounces > STALE_BOUNCES:
                    raise WorkerCrash(
                        f"job for {target!r} bounced off {bounces} "
                        "stale workers; setup keeps changing"
                    )
                continue
            self._destroy(worker, "crashes")
            raise WorkerCrash(
                f"warm worker for {target!r} sent unexpected op {op!r}"
            )

    def runner(self) -> Callable[
        [Dict[str, Any], int, Optional[float]], Dict[str, Any]
    ]:
        """This pool as a scheduler ``Runner`` (payload, attempt, timeout)."""
        return self.run_job

    # -- Introspection -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """JSON-ready lifecycle counters (plus the warm reuse rate)."""
        with self._lock:
            counts = dict(self._counts)
        jobs = counts["jobs"]
        out: Dict[str, Any] = {"width": self.width}
        out.update(counts)
        out["reuse_rate"] = (
            round(counts["warm_jobs"] / jobs, 4) if jobs else 0.0
        )
        return out
