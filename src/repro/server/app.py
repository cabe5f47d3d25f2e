"""The repair server application: routes, handlers, shared state.

This is the whole server minus the sockets.  :class:`RepairApp` maps a
:class:`Request` to a :class:`Response` — the HTTP layer
(:mod:`repro.server.http`) is a thin adapter over :meth:`RepairApp.handle`,
so every handler, error path, and backpressure rule here is unit-testable
without binding a port.

State shared across requests, all owned here:

* one long-lived :class:`~repro.service.pool.WorkerPool` — every batch,
  sync or async, runs through ``run_batch(..., runner=pool.runner())``,
  so warm workers persist *across* HTTP requests instead of being
  drained per batch;
* one :class:`~repro.service.store.ResultStore` — the content-addressed
  cache tier in front of the pool; repeated manifests answer from disk;
* the :class:`~repro.server.sessions.SessionManager` of named
  vernacular sessions;
* the bounded :class:`~repro.server.queue.JobQueue` behind ``202``
  async submits;
* the per-client :class:`~repro.server.ratelimit.RateLimiter` (429s)
  and the :class:`~repro.server.metrics.ServerMetrics` registry.

Load shedding is layered: rate limit first (per client, 429), then the
drain flag (503 on everything but health/metrics), then the queue bound
(503 for async) or pool contention (sync requests queue on worker
checkout).  ``/healthz`` and ``/metrics`` are exempt from all of it —
an operator must be able to see a struggling server.
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, TextIO, Tuple

from ..service.job import JobError, RepairJob
from ..service.manifest import jobs_from_manifest
from ..service.pool import WorkerPool
from ..service.scheduler import (
    BatchOptions,
    Runner,
    inprocess_runner,
    run_batch,
)
from ..service.store import ResultStore
from .metrics import ServerMetrics
from .queue import (
    DEFAULT_MAX_PENDING,
    DEFAULT_WORKERS,
    JobQueue,
    QueueRejected,
)
from .ratelimit import DEFAULT_BURST, DEFAULT_RATE, RateLimiter
from .routes import Route, RouteError, Router
from .sessions import (
    DEFAULT_BUSY_TIMEOUT_S,
    DEFAULT_IDLE_TTL_S,
    DEFAULT_MAX_SESSIONS,
    SessionManager,
    SessionRejected,
)

#: Largest accepted request body, in bytes (the HTTP layer enforces it
#: too, before reading; this is the transport-independent backstop).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Largest ``jobs`` array accepted in one repair manifest.
DEFAULT_MAX_BATCH_JOBS = 128

#: Handlers exempt from rate limiting and the drain refusal.
EXEMPT_HANDLERS = frozenset({"healthz", "metrics"})

#: Header a client may set to identify itself to the rate limiter.
CLIENT_HEADER = "x-repro-client"


@dataclass
class ServerConfig:
    """Every knob of one server instance (CLI flags map onto this)."""

    host: str = "127.0.0.1"
    port: int = 8433
    #: Warm-worker pool width; ``1`` runs repairs in-process (tests).
    workers: int = 4
    #: Result-store directory; ``None`` uses the service default.
    store_dir: Optional[str] = None
    #: ``False`` disables the store entirely (every repair recomputes).
    store: bool = True
    #: LRU bound on stored records; ``None`` means unbounded.
    store_max_entries: Optional[int] = None
    max_sessions: int = DEFAULT_MAX_SESSIONS
    idle_ttl_s: float = DEFAULT_IDLE_TTL_S
    busy_timeout_s: float = DEFAULT_BUSY_TIMEOUT_S
    #: Per-client sustained request rate; ``0`` disables limiting.
    rate: float = DEFAULT_RATE
    burst: float = DEFAULT_BURST
    queue_pending: int = DEFAULT_MAX_PENDING
    queue_workers: int = DEFAULT_WORKERS
    #: Per-job repair timeout passed to the scheduler.
    timeout_s: Optional[float] = None
    retries: int = 2
    max_batch_jobs: int = DEFAULT_MAX_BATCH_JOBS
    #: Session idle sweep period for the housekeeping thread.
    sweep_interval_s: float = 30.0
    #: Suppress structured request logs (tests, benchmarks).
    quiet: bool = False


@dataclass
class Request:
    """One transport-independent request."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    client: str = "-"

    def header(self, name: str) -> Optional[str]:
        return self.headers.get(name.lower())


@dataclass
class Response:
    """One response: status, JSON-able payload, extra headers."""

    status: int
    payload: Any
    headers: Dict[str, str] = field(default_factory=dict)
    content_type: str = "application/json"

    def encoded(self) -> bytes:
        if self.content_type == "application/json":
            return (
                json.dumps(self.payload, sort_keys=True) + "\n"
            ).encode("utf-8")
        return str(self.payload).encode("utf-8")


class AppError(Exception):
    """A handler-raised error with its HTTP shape attached."""

    def __init__(
        self,
        status: int,
        code: str,
        detail: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__(detail)
        self.status = status
        self.code = code
        self.detail = detail
        self.headers = dict(headers or {})


def _error(
    status: int,
    code: str,
    detail: str,
    headers: Optional[Dict[str, str]] = None,
) -> Response:
    return Response(
        status,
        {"error": {"code": code, "detail": detail}},
        dict(headers or {}),
    )


#: The route table.  Handler names resolve to ``handle_<name>`` methods;
#: the name doubles as the (bounded-cardinality) metrics route label.
ROUTES: Tuple[Route, ...] = (
    Route("GET", "/healthz", "healthz"),
    Route("GET", "/metrics", "metrics"),
    Route("GET", "/v1/status", "status"),
    Route("POST", "/v1/sessions", "session_create"),
    Route("GET", "/v1/sessions", "session_list"),
    Route("GET", "/v1/sessions/{name}", "session_info"),
    Route("DELETE", "/v1/sessions/{name}", "session_close"),
    Route("POST", "/v1/sessions/{name}/command", "session_command"),
    Route("POST", "/v1/repair", "repair"),
    Route("GET", "/v1/jobs", "job_list"),
    Route("GET", "/v1/jobs/{id}", "job_get"),
)


class RepairApp:
    """The repair service: all handlers and all cross-request state."""

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        log_stream: Optional[TextIO] = None,
    ) -> None:
        self.config = config or ServerConfig()
        self.router = Router(list(ROUTES))
        self.metrics = ServerMetrics()
        self.limiter = RateLimiter(self.config.rate, self.config.burst)
        self.sessions = SessionManager(
            max_sessions=self.config.max_sessions,
            idle_ttl_s=self.config.idle_ttl_s,
            busy_timeout_s=self.config.busy_timeout_s,
        )
        self.store: Optional[ResultStore] = (
            ResultStore(
                self.config.store_dir,
                max_entries=self.config.store_max_entries,
            )
            if self.config.store
            else None
        )
        self.pool: Optional[WorkerPool] = None
        self._runner: Runner
        if self.config.workers > 1:
            self.pool = WorkerPool(self.config.workers)
            self._runner = self.pool.runner()
        else:
            self._runner = inprocess_runner()
        self.queue = JobQueue(
            self._execute_work,
            max_pending=self.config.queue_pending,
            workers=self.config.queue_workers,
        )
        self._log_stream = log_stream if log_stream is not None else sys.stderr
        self._log_lock = threading.Lock()
        self._draining = False
        self._started_at = time.time()
        self._started_mono = time.monotonic()
        self._stop_sweeper = threading.Event()
        self._sweeper: Optional[threading.Thread] = None
        self._batches = 0
        self._batch_lock = threading.Lock()
        self._register_gauges()

    # -- Lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start the queue dispatchers and the session sweeper."""
        self.queue.start()
        if self._sweeper is None and self.config.sweep_interval_s > 0:
            self._sweeper = threading.Thread(
                target=self._sweep_loop,
                name="repro-session-sweeper",
                daemon=True,
            )
            self._sweeper.start()

    def begin_drain(self) -> None:
        """Flip the drain flag: new work is refused, health stays up."""
        self._draining = True

    def drain(self, timeout_s: float = 30.0) -> Dict[str, int]:
        """Stop everything: queue, sessions, sweeper, worker pool."""
        self.begin_drain()
        self._stop_sweeper.set()
        stats = self.queue.drain(timeout_s)
        stats["sessions_closed"] = self.sessions.close_all()
        if self.pool is not None:
            self.pool.shutdown()
        return stats

    @property
    def draining(self) -> bool:
        return self._draining

    def _sweep_loop(self) -> None:
        while not self._stop_sweeper.wait(self.config.sweep_interval_s):
            try:
                self.sessions.sweep()
            except Exception:  # noqa: BLE001 — housekeeping must not die
                pass

    def _register_gauges(self) -> None:
        self.metrics.register_gauge(
            "queue_depth", lambda: float(self.queue.depth)
        )
        self.metrics.register_gauge(
            "queue_running", lambda: float(self.queue.running)
        )
        self.metrics.register_gauge(
            "active_sessions", lambda: float(self.sessions.count)
        )
        self.metrics.register_gauge(
            "ratelimit_clients", lambda: float(self.limiter.clients)
        )
        self.metrics.register_gauge(
            "ratelimit_rejected_total",
            lambda: float(self.limiter.rejected),
        )
        self.metrics.register_gauge(
            "uptime_seconds",
            lambda: time.monotonic() - self._started_mono,
        )
        if self.pool is not None:
            pool = self.pool
            self.metrics.register_gauge(
                "worker_reuse_rate",
                lambda: float(pool.stats()["reuse_rate"]),
            )
            self.metrics.register_gauge(
                "workers_spawned",
                lambda: float(pool.stats()["spawned"]),
            )
            self.metrics.register_gauge(
                "pool_jobs_total",
                lambda: float(pool.stats()["jobs"]),
            )
        if self.store is not None:
            store = self.store
            self.metrics.register_gauge(
                "store_hit_rate", lambda: float(store.hit_rate)
            )

    # -- Dispatch ----------------------------------------------------------

    def handle(self, request: Request) -> Response:
        """The whole request cycle: route, shed, dispatch, account."""
        started = time.perf_counter()
        label, response = self._dispatch(request)
        wall = time.perf_counter() - started
        self.metrics.record_request(label, response.status, wall)
        self._log_request(request, label, response.status, wall)
        return response

    def _dispatch(self, request: Request) -> Tuple[str, Response]:
        try:
            match = self.router.resolve(request.method, request.path)
        except RouteError as exc:
            headers = (
                {"Allow": ", ".join(exc.allow)} if exc.allow else {}
            )
            code = "not-found" if exc.status == 404 else "method-not-allowed"
            return "unrouted", _error(
                exc.status, code, exc.detail, headers
            )
        label = match.handler
        if label not in EXEMPT_HANDLERS:
            if self._draining:
                return label, _error(
                    503,
                    "draining",
                    "server is draining",
                    {"Retry-After": "30"},
                )
            client = request.header(CLIENT_HEADER) or request.client
            allowed, retry_after = self.limiter.allow(client)
            if not allowed:
                return label, _error(
                    429,
                    "rate-limited",
                    f"client {client!r} is over its request rate",
                    {"Retry-After": f"{max(retry_after, 0.001):.3f}"},
                )
        if len(request.body) > MAX_BODY_BYTES:
            return label, _error(
                413,
                "body-too-large",
                f"request body exceeds {MAX_BODY_BYTES} bytes",
            )
        handler: Callable[[Request, Dict[str, str]], Response] = getattr(
            self, f"handle_{label}"
        )
        try:
            return label, handler(request, match.params)
        except AppError as exc:
            return label, _error(
                exc.status, exc.code, exc.detail, exc.headers
            )
        except SessionRejected as exc:
            return label, _error(exc.status, exc.code, exc.detail)
        except QueueRejected as exc:
            return label, _error(
                exc.status,
                exc.code,
                exc.detail,
                {"Retry-After": f"{exc.retry_after:.3f}"},
            )
        except JobError as exc:
            return label, _error(400, "bad-manifest", str(exc))
        except Exception as exc:  # noqa: BLE001 — one broken request
            # must answer 500, never take down the handler thread.
            self.log_event(
                {
                    "event": "handler-error",
                    "handler": label,
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(limit=8),
                }
            )
            return label, _error(
                500, "internal-error", f"{type(exc).__name__}: {exc}"
            )

    # -- Logging -----------------------------------------------------------

    def _log_request(
        self, request: Request, label: str, status: int, wall_s: float
    ) -> None:
        if self.config.quiet:
            return
        self.log_event(
            {
                "event": "request",
                "method": request.method,
                "path": request.path,
                "route": label,
                "status": status,
                "wall_ms": round(wall_s * 1000, 3),
                "client": request.header(CLIENT_HEADER)
                or request.client,
            }
        )

    def log_event(self, event: Dict[str, Any]) -> None:
        if self.config.quiet and event.get("event") != "handler-error":
            return
        line = json.dumps(event, sort_keys=True)
        with self._log_lock:
            try:
                self._log_stream.write(line + "\n")
                self._log_stream.flush()
            except (OSError, ValueError):
                pass

    # -- Plumbing ----------------------------------------------------------

    def _json_body(self, request: Request) -> Dict[str, Any]:
        if not request.body:
            return {}
        try:
            data = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise AppError(
                400, "bad-json", f"request body is not JSON: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise AppError(
                400, "bad-json", "request body must be a JSON object"
            )
        return data

    def _batch_options(self, overrides: Dict[str, Any]) -> BatchOptions:
        timeout_s = overrides.get("timeout_s", self.config.timeout_s)
        if timeout_s is not None:
            # JSON admits Infinity, NaN and integers past any float, and
            # a bool is an int to Python; none of them is a deadline.
            try:
                finite = not isinstance(timeout_s, bool) and math.isfinite(
                    timeout_s
                )
            except (TypeError, OverflowError):
                finite = False
            if not finite:
                raise AppError(
                    400, "bad-manifest", "timeout_s must be a finite number"
                )
        retries = overrides.get("retries", self.config.retries)
        if not isinstance(retries, int) or retries < 0:
            raise AppError(
                400, "bad-manifest", "retries must be a non-negative int"
            )
        refresh = bool(overrides.get("refresh", False))
        return BatchOptions(
            jobs=self.config.workers,
            timeout_s=float(timeout_s) if timeout_s is not None else None,
            retries=retries,
            refresh=refresh,
            store=self.store,
        )

    def _parse_repair(
        self, request: Request
    ) -> Tuple[str, List[RepairJob], Dict[str, Any]]:
        body = self._json_body(request)
        jobs = jobs_from_manifest(body, where="request")
        if len(jobs) > self.config.max_batch_jobs:
            raise AppError(
                413,
                "too-many-jobs",
                f"manifest has {len(jobs)} jobs; the limit is "
                f"{self.config.max_batch_jobs}",
            )
        batch = str(body.get("batch") or "batch")
        return batch, jobs, body

    def _run_manifest(
        self, batch: str, jobs: List[RepairJob], options: BatchOptions
    ) -> Dict[str, Any]:
        """One batch through the scheduler on the *shared* pool."""
        report = run_batch(
            jobs, options, runner=self._runner, batch=batch
        )
        with self._batch_lock:
            self._batches += 1
        out = report.to_dict()
        if self.pool is not None:
            out["pool"] = self.pool.stats()
        return out

    def _execute_work(self, work: Any) -> Dict[str, Any]:
        """The queue dispatcher's entry point (async submits)."""
        assert isinstance(work, dict)
        return self._run_manifest(
            work["batch"], work["jobs"], work["options"]
        )

    # -- Handlers ----------------------------------------------------------

    def handle_healthz(
        self, request: Request, params: Dict[str, str]
    ) -> Response:
        return Response(
            200,
            {
                "status": "draining" if self._draining else "ok",
                "uptime_s": round(
                    time.monotonic() - self._started_mono, 3
                ),
            },
        )

    def handle_metrics(
        self, request: Request, params: Dict[str, str]
    ) -> Response:
        return Response(
            200,
            self.metrics.render(),
            content_type="text/plain; version=0.0.4",
        )

    def handle_status(
        self, request: Request, params: Dict[str, str]
    ) -> Response:
        with self._batch_lock:
            batches = self._batches
        payload: Dict[str, Any] = {
            "status": "draining" if self._draining else "ok",
            "started_at": self._started_at,
            "uptime_s": round(time.monotonic() - self._started_mono, 3),
            "workers": self.config.workers,
            "batches": batches,
            "sessions": {
                "active": self.sessions.count,
                "created": self.sessions.created_total,
                "evicted": self.sessions.evicted_total,
            },
            "queue": {
                "depth": self.queue.depth,
                "running": self.queue.running,
                "submitted": self.queue.submitted_total,
                "completed": self.queue.completed_total,
                "rejected": self.queue.rejected_total,
            },
            "ratelimit": {
                "enabled": self.limiter.enabled,
                "clients": self.limiter.clients,
                "rejected": self.limiter.rejected,
            },
        }
        if self.pool is not None:
            payload["pool"] = self.pool.stats()
        if self.store is not None:
            payload["store"] = {
                "hits": self.store.hits,
                "misses": self.store.misses,
                "hit_rate": round(self.store.hit_rate, 4),
            }
        return Response(200, payload)

    def handle_session_create(
        self, request: Request, params: Dict[str, str]
    ) -> Response:
        body = self._json_body(request)
        name = body.get("name")
        if not isinstance(name, str):
            raise AppError(
                400, "bad-request", "a session needs a string 'name'"
            )
        setup = body.get("setup")
        if setup is not None and not isinstance(setup, str):
            raise AppError(
                400, "bad-request", "'setup' must be a dotted reference"
            )
        info = self.sessions.create(name, setup)
        return Response(201, {"session": info})

    def handle_session_list(
        self, request: Request, params: Dict[str, str]
    ) -> Response:
        return Response(200, {"sessions": self.sessions.list()})

    def handle_session_info(
        self, request: Request, params: Dict[str, str]
    ) -> Response:
        return Response(
            200, {"session": self.sessions.info(params["name"])}
        )

    def handle_session_close(
        self, request: Request, params: Dict[str, str]
    ) -> Response:
        return Response(
            200, {"closed": self.sessions.close(params["name"])}
        )

    def handle_session_command(
        self, request: Request, params: Dict[str, str]
    ) -> Response:
        body = self._json_body(request)
        script = body.get("script", body.get("command"))
        if isinstance(script, list) and all(
            isinstance(line, str) for line in script
        ):
            script = "\n".join(script)
        if not isinstance(script, str) or not script.strip():
            raise AppError(
                400,
                "bad-request",
                "a command request needs a non-empty 'script' "
                "(string or list of lines)",
            )
        return Response(200, self.sessions.run(params["name"], script))

    def handle_repair(
        self, request: Request, params: Dict[str, str]
    ) -> Response:
        batch, jobs, body = self._parse_repair(request)
        # Validated before queueing, so an async submit is refused too.
        options = self._batch_options(body)
        if body.get("async"):
            record = self.queue.submit(
                batch,
                {"batch": batch, "jobs": jobs, "options": options},
            )
            return Response(
                202,
                {
                    "job": record.to_dict(with_report=False),
                    "poll": f"/v1/jobs/{record.id}",
                },
            )
        return Response(200, self._run_manifest(batch, jobs, options))

    def handle_job_list(
        self, request: Request, params: Dict[str, str]
    ) -> Response:
        return Response(200, {"jobs": self.queue.list()})

    def handle_job_get(
        self, request: Request, params: Dict[str, str]
    ) -> Response:
        record = self.queue.get(params["id"])
        if record is None:
            raise AppError(
                404, "unknown-job", f"no job with id {params['id']!r}"
            )
        return Response(200, record.to_dict())


__all__ = [
    "AppError",
    "CLIENT_HEADER",
    "DEFAULT_MAX_BATCH_JOBS",
    "EXEMPT_HANDLERS",
    "MAX_BODY_BYTES",
    "ROUTES",
    "RepairApp",
    "Request",
    "Response",
    "ServerConfig",
]
