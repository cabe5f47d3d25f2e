"""Named persistent vernacular sessions behind the HTTP front end.

A session is one long-lived :class:`~repro.commands.CommandSession` —
environment, configuration cache, transform cache, history — addressed
by name, so an interactive client (the holpy ``server/`` model: a
prover kept warm between JSON requests) pays environment boot once and
then streams vernacular commands at it.

Concurrency and lifetime rules, all enforced here so the HTTP layer
stays a thin adapter:

* **per-session lock** — commands against one session serialize; a
  request that cannot take the lock within ``busy_timeout_s`` is
  answered ``409 busy`` rather than queueing unboundedly behind a
  slow repair;
* **bounded count** — at most ``max_sessions`` live sessions; creating
  one past the bound first sweeps idle sessions, then answers
  ``503 session-limit``;
* **idle TTL** — a session untouched for ``idle_ttl_s`` is evicted by
  the sweep (periodic via the server's housekeeping thread, inline on
  every create).  A session whose lock is held is never evicted, no
  matter how old its timestamp — in-flight work wins.

Sessions boot by forking a resident base environment
(:meth:`~repro.kernel.env.Environment.fork`).  The manager builds one
base per setup, through :func:`repro.service.worker.build_environment`
(the same checked scratch elaboration pool workers run), on the first
create of that setup, and never mutates it; every session gets a fork
of it, so boot is paid once per setup per server.  The manager keeps at
most ``max_sessions`` bases, dropping the least recently forked first.
"""

from __future__ import annotations

import re
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional

from ..commands import CommandError, CommandSession
from ..kernel.env import Environment
from ..service.worker import build_environment

#: Default bound on live sessions.
DEFAULT_MAX_SESSIONS = 32

#: Default idle TTL before a session is evicted, in seconds.
DEFAULT_IDLE_TTL_S = 900.0

#: Default time a command request waits for a busy session's lock.
DEFAULT_BUSY_TIMEOUT_S = 30.0

#: The environment a session boots when the client names none.
DEFAULT_SETUP = "repro.service.cases:quickstart_env"

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class SessionRejected(Exception):
    """A session operation refused; carries the HTTP status and code."""

    def __init__(self, status: int, code: str, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.code = code
        self.detail = detail


class ManagedSession:
    """One named session plus its lock and lifetime bookkeeping."""

    def __init__(
        self, name: str, setup: str, session: CommandSession
    ) -> None:
        self.name = name
        self.setup = setup
        self.session = session
        self.lock = threading.Lock()
        self.created = time.time()
        self.last_used = time.monotonic()
        self.commands = 0

    def info(self, now: Optional[float] = None) -> Dict[str, Any]:
        now = time.monotonic() if now is None else now
        return {
            "name": self.name,
            "setup": self.setup,
            "env_boot": "fork",
            "created_at": self.created,
            "idle_s": round(max(0.0, now - self.last_used), 3),
            "commands": self.commands,
        }


class SessionManager:
    """The bounded, TTL-swept table of live sessions."""

    def __init__(
        self,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        idle_ttl_s: float = DEFAULT_IDLE_TTL_S,
        busy_timeout_s: float = DEFAULT_BUSY_TIMEOUT_S,
    ) -> None:
        self.max_sessions = max(1, int(max_sessions))
        self.idle_ttl_s = float(idle_ttl_s)
        self.busy_timeout_s = float(busy_timeout_s)
        # ``None`` marks a slot reserved by an in-flight create (the
        # boot happens outside the table lock).
        self._table: Dict[str, Optional[ManagedSession]] = {}
        self._lock = threading.Lock()
        #: setup -> its resident base environment, least recently
        #: forked first; built and dropped under ``_bases_lock``.
        self._bases: OrderedDict[str, Environment] = OrderedDict()
        self._bases_lock = threading.Lock()
        #: Lifetime counters for the metrics endpoint.
        self.created_total = 0
        self.evicted_total = 0

    # -- Lifecycle ---------------------------------------------------------

    def create(
        self, name: str, setup: Optional[str] = None
    ) -> Dict[str, Any]:
        """Boot a new named session; returns its info dict."""
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise SessionRejected(
                400,
                "bad-name",
                "session names are 1-64 chars of [A-Za-z0-9._-], "
                "starting alphanumeric",
            )
        setup = setup or DEFAULT_SETUP
        self.sweep()
        with self._lock:
            if name in self._table:
                raise SessionRejected(
                    409, "exists", f"session {name!r} already exists"
                )
            if len(self._table) >= self.max_sessions:
                raise SessionRejected(
                    503,
                    "session-limit",
                    f"session limit ({self.max_sessions}) reached",
                )
            # Reserve the slot before the (slow) boot so two concurrent
            # creates of one name cannot both pass the table check.
            self._table[name] = None
        try:
            managed = ManagedSession(
                name, setup, CommandSession(self._base(setup).fork())
            )
        except BaseException:
            with self._lock:
                self._table.pop(name, None)
            raise
        with self._lock:
            self._table[name] = managed
            self.created_total += 1
        return managed.info()

    def close(self, name: str) -> Dict[str, Any]:
        """Drop a session by name; returns its final info."""
        managed = self._live(name)
        with self._lock:
            self._table.pop(name, None)
        return managed.info()

    def close_all(self) -> int:
        """Drop every session and base (server drain).

        Returns how many sessions were dropped.
        """
        with self._lock:
            count = len(self._table)
            self._table.clear()
        with self._bases_lock:
            self._bases.clear()
        return count

    def _base(self, setup: str) -> Environment:
        """The resident base environment of ``setup``, built on first use.

        A build that raises caches nothing.  Callers fork the base and
        never mutate it, so forks may run outside the lock.
        """
        with self._bases_lock:
            base = self._bases.pop(setup, None)
            if base is None:
                base = build_environment(setup)
            self._bases[setup] = base
            if len(self._bases) > self.max_sessions:
                self._bases.popitem(last=False)
            return base

    def sweep(self, now: Optional[float] = None) -> List[str]:
        """Evict sessions idle past the TTL; returns evicted names.

        A session whose lock cannot be taken without blocking is in
        use and is skipped regardless of its timestamp.
        """
        if self.idle_ttl_s <= 0:
            return []
        now = time.monotonic() if now is None else now
        with self._lock:
            candidates = [
                m
                for m in self._table.values()
                if m is not None and now - m.last_used > self.idle_ttl_s
            ]
        evicted: List[str] = []
        for managed in candidates:
            if not managed.lock.acquire(blocking=False):
                continue
            try:
                if now - managed.last_used <= self.idle_ttl_s:
                    continue
                with self._lock:
                    if self._table.get(managed.name) is managed:
                        del self._table[managed.name]
                        self.evicted_total += 1
                        evicted.append(managed.name)
            finally:
                managed.lock.release()
        return evicted

    # -- Commands ----------------------------------------------------------

    def run(self, name: str, script: str) -> Dict[str, Any]:
        """Run vernacular lines against a session, under its lock."""
        managed = self._live(name)
        if not managed.lock.acquire(timeout=self.busy_timeout_s):
            raise SessionRejected(
                409,
                "busy",
                f"session {name!r} is busy (waited "
                f"{self.busy_timeout_s:g}s for its lock)",
            )
        try:
            started = time.perf_counter()
            try:
                results = managed.session.run(script)
            except CommandError as exc:
                raise SessionRejected(422, "command-error", str(exc))
            managed.commands += len(results)
            managed.last_used = time.monotonic()
            return {
                "session": name,
                "wall_time_s": round(
                    time.perf_counter() - started, 6
                ),
                "results": [
                    {
                        "command": r.command,
                        "summary": r.summary,
                        "new_names": [
                            res.new_name for res in r.results
                        ],
                        "text": r.text,
                    }
                    for r in results
                ],
            }
        finally:
            managed.lock.release()

    # -- Introspection -----------------------------------------------------

    def _live(self, name: str) -> ManagedSession:
        with self._lock:
            managed = self._table.get(name)
        if managed is None:
            raise SessionRejected(
                404, "unknown-session", f"no session named {name!r}"
            )
        return managed

    def info(self, name: str) -> Dict[str, Any]:
        return self._live(name).info()

    def list(self) -> List[Dict[str, Any]]:
        now = time.monotonic()
        with self._lock:
            live = [m for m in self._table.values() if m is not None]
        return sorted(
            (m.info(now) for m in live), key=lambda i: str(i["name"])
        )

    @property
    def count(self) -> int:
        with self._lock:
            return len(self._table)


__all__ = [
    "DEFAULT_BUSY_TIMEOUT_S",
    "DEFAULT_IDLE_TTL_S",
    "DEFAULT_MAX_SESSIONS",
    "DEFAULT_SETUP",
    "ManagedSession",
    "SessionManager",
    "SessionRejected",
]
