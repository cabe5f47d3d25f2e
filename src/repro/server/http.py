"""The HTTP front end: stdlib threading server over :class:`RepairApp`.

One ``ThreadingHTTPServer`` (a thread per connection, stdlib only)
whose request handler does exactly three things: read the request,
call :meth:`RepairApp.handle`, write the response.  Every routing,
backpressure, and error decision lives in :mod:`repro.server.app`
where it is unit-testable; this module owns only the socket-facing
concerns:

* **body bounds before read** — a ``Content-Length`` past the app's
  limit is refused without reading the body, so a hostile client
  cannot make a handler thread buffer gigabytes;
* **readable framing only** — a body is read by its ``Content-Length``
  alone; a malformed length or any ``Transfer-Encoding`` is refused
  and the connection closed, since the unread bytes would otherwise be
  parsed as the next request on a keep-alive connection;
* **one write per response** — headers and body collect in a buffered
  ``wfile`` that the stdlib flushes once per request, on a socket with
  Nagle off.  Written in two pieces, a keep-alive response's body waits
  for the client's delayed ACK of the headers (~40 ms on Linux);
* **the listening line** — :func:`serve` prints one JSON line
  (``{"event": "listening", "port": N}``) to stdout once bound, so a
  harness that started the server with ``--port 0`` learns the real
  port without racing log output;
* **graceful drain** — SIGTERM/SIGINT flip the app into draining
  (health stays green, work is refused with 503), stop the accept
  loop, drain the queue and sessions, shut the worker pool down, and
  only then exit.  A second signal skips the grace and hard-kills the
  worker groups (:func:`repro.service.pool.emergency_shutdown`).
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Tuple

from ..service.pool import emergency_shutdown
from .app import MAX_BODY_BYTES, RepairApp, Request, Response, ServerConfig

#: Grace period for the drain before the exit (seconds).
DEFAULT_DRAIN_TIMEOUT_S = 30.0


class ReproHTTPServer(ThreadingHTTPServer):
    """The threading server plus a reference to its application."""

    daemon_threads = True
    allow_reuse_address = True
    # The default listen backlog (5) resets connections the moment a
    # few hundred clients connect at once; the server is sized for
    # hundreds of concurrent clients, so queue their connects instead.
    request_queue_size = 512

    def __init__(
        self, address: Tuple[str, int], app: RepairApp
    ) -> None:
        super().__init__(address, _Handler)
        self.app = app

    def handle_error(self, request: Any, client_address: Any) -> None:
        # A client that hangs up mid-response is its own loss; any
        # other failure keeps the stdlib's traceback on stderr.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


class _Handler(BaseHTTPRequestHandler):
    """Read → ``app.handle`` → write; nothing else."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-server"
    sys_version = ""
    # One write per response (see the module docstring): the stdlib
    # flushes the buffered wfile after each request and send_error.
    wbufsize = -1
    disable_nagle_algorithm = True

    # The app writes structured request logs itself; the default
    # per-request stderr line would just duplicate them unsorted.
    def log_message(self, format: str, *args: Any) -> None:
        pass

    @property
    def _app(self) -> RepairApp:
        server = self.server
        assert isinstance(server, ReproHTTPServer)
        return server.app

    def handle_expect_100(self) -> bool:
        # The client holds its body back until the interim 100 arrives,
        # so it cannot wait in the buffer for the final response.
        super().handle_expect_100()
        self.wfile.flush()
        return True

    def _read_body(self) -> Optional[bytes]:
        """The request body, or ``None`` once the request is refused.

        Refusals read no body and close the connection: what follows
        the headers is not a request this handler can find the end of.
        """
        # Repeats of one value are allowed; conflicting ones are not.
        lengths = set(self.headers.get_all("Content-Length", ["0"]))
        raw_length = lengths.pop().strip(" \t") if len(lengths) == 1 else ""
        # int() refuses strings of over 4300 digits, leading zeros too.
        digits = raw_length.lstrip("0") or "0"
        if "Transfer-Encoding" in self.headers:
            status, code, detail = (
                411,
                "length-required",
                "send the body with a Content-Length; "
                "Transfer-Encoding is not supported",
            )
        elif not (raw_length.isascii() and raw_length.isdigit()):
            status, code, detail = (
                400,
                "bad-content-length",
                "Content-Length must be one non-negative decimal integer",
            )
        elif (
            len(digits) > len(str(MAX_BODY_BYTES))
            or int(digits) > MAX_BODY_BYTES
        ):
            status, code, detail = (
                413,
                "body-too-large",
                f"request body exceeds {MAX_BODY_BYTES} bytes",
            )
        else:
            return self.rfile.read(int(digits))
        self._write(
            Response(
                status,
                {"error": {"code": code, "detail": detail}},
                {"Connection": "close"},
            )
        )
        return None

    def _write(self, response: Response) -> None:
        payload = response.encoded()
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _dispatch(self) -> None:
        body = self._read_body()
        if body is None:
            return
        request = Request(
            method=self.command,
            path=self.path.split("?", 1)[0],
            headers={
                key.lower(): value for key, value in self.headers.items()
            },
            body=body,
            client=self.client_address[0],
        )
        try:
            response = self._app.handle(request)
        except Exception as exc:  # noqa: BLE001 — last-resort guard;
            # the app's own 500 path normally catches everything.
            response = Response(
                500,
                {
                    "error": {
                        "code": "internal-error",
                        "detail": f"{type(exc).__name__}: {exc}",
                    }
                },
            )
        self._write(response)

    do_GET = _dispatch
    do_POST = _dispatch
    do_DELETE = _dispatch
    do_PUT = _dispatch
    do_PATCH = _dispatch


def serve(
    config: Optional[ServerConfig] = None,
    ready_stream: Any = None,
) -> int:
    """Run the server until SIGTERM/SIGINT; returns the exit status."""
    config = config or ServerConfig()
    app = RepairApp(config)
    app.start()
    server = ReproHTTPServer((config.host, config.port), app)
    host, port = server.server_address[:2]
    out = ready_stream if ready_stream is not None else sys.stdout
    out.write(
        json.dumps(
            {"event": "listening", "host": host, "port": port},
            sort_keys=True,
        )
        + "\n"
    )
    out.flush()

    stop = threading.Event()
    signals_seen = {"count": 0}

    def _on_signal(signum: int, frame: Any) -> None:
        signals_seen["count"] += 1
        if signals_seen["count"] > 1:
            # Second signal: the operator means it.  Kill the worker
            # groups and leave; no process may outlive this one.
            emergency_shutdown()
            os._exit(128 + signum)
        app.begin_drain()
        stop.set()
        # shutdown() must not run on the serve_forever thread.
        threading.Thread(
            target=server.shutdown, name="repro-server-stop", daemon=True
        ).start()

    installed = (
        threading.current_thread() is threading.main_thread()
    )
    if installed:
        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)

    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
        stats = app.drain(DEFAULT_DRAIN_TIMEOUT_S)
        emergency_shutdown()  # belt and braces: nothing may leak
        app.log_event(
            {
                "event": "drained",
                "cancelled": stats.get("cancelled", 0),
                "unfinished": stats.get("unfinished", 0),
                "sessions_closed": stats.get("sessions_closed", 0),
            }
        )
    return 0


__all__ = [
    "DEFAULT_DRAIN_TIMEOUT_S",
    "ReproHTTPServer",
    "serve",
]
