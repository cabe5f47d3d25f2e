"""The HTTP front end, driven over real sockets against a subprocess.

One module-scoped server (2 warm workers, rate limiting off) serves
every test here; the drain test and the CLI leaked-worker regression
start their own processes.
"""

import http.client
import json
import os
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time
import urllib.error
import urllib.request
import uuid

import pytest

QUICKSTART_SPEC = {
    "name": "quickstart/rev_app_distr",
    "setup": "repro.service.cases:quickstart_env",
    "target": "rev_app_distr",
    "config": {"kind": "auto", "a": "list", "b": "New.list"},
    "old": ["list"],
    "rename": {"kind": "prefix", "value": "New."},
}


def _src_path():
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _server_env(**extra):
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        _src_path() + (os.pathsep + existing if existing else "")
    )
    env.update(extra)
    return env


def _spawn_server(*args, env=None):
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.server",
            "--port",
            "0",
            "--rate",
            "0",
            *args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env or _server_env(),
        start_new_session=True,
    )
    line = process.stdout.readline()
    try:
        info = json.loads(line)
        assert info["event"] == "listening"
    except Exception:
        process.kill()
        raise AssertionError(f"no listening line, got {line!r}")
    return process, info["port"]


def _call(port, method, path, body=None, timeout=120):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _stderr_so_far(process):
    """Whatever the server has written to its stderr pipe, unblocking."""
    fd = process.stderr.fileno()
    os.set_blocking(fd, False)
    chunks = []
    try:
        while True:
            chunk = os.read(fd, 65536)
            if not chunk:
                break
            chunks.append(chunk)
    except BlockingIOError:
        pass
    finally:
        os.set_blocking(fd, True)
    return b"".join(chunks).decode("utf-8", "replace")


@pytest.fixture(scope="module")
def server_process(tmp_path_factory):
    store = str(tmp_path_factory.mktemp("server-store"))
    process, port = _spawn_server(
        "--workers", "2", "--store", store, "--quiet"
    )
    yield process, port
    process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=45)
    except subprocess.TimeoutExpired:
        process.kill()


@pytest.fixture(scope="module")
def server(server_process):
    return server_process[1]


class TestServerEndpoints:
    def test_healthz(self, server):
        status, payload = _call(server, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"

    def test_repair_roundtrip_and_cache(self, server):
        manifest = {"batch": "http", "jobs": [QUICKSTART_SPEC]}
        status, first = _call(server, "POST", "/v1/repair", manifest)
        assert status == 200
        assert first["counts"] == {"ok": 1}
        digest = first["outcomes"][0]["result_digest"]
        assert digest

        status, second = _call(server, "POST", "/v1/repair", manifest)
        assert status == 200
        assert second["counts"] == {"cached": 1}
        assert second["outcomes"][0]["result_digest"] == digest

    def test_http_digest_matches_vernacular_parity_chain(self, server):
        """The HTTP digest equals a direct in-process scheduler run's.

        The service suite holds the in-process scheduler digest equal
        to the ``Repair`` vernacular's output, so transitively every
        HTTP repair is digest-identical to the vernacular path.
        """
        from repro.service import BatchOptions, run_batch
        from repro.service.job import result_digest
        from repro.service.manifest import jobs_from_manifest
        from repro.service.scheduler import inprocess_runner

        manifest = {"batch": "parity", "jobs": [QUICKSTART_SPEC]}
        status, payload = _call(server, "POST", "/v1/repair", manifest)
        assert status == 200
        jobs = jobs_from_manifest(manifest, where="parity")
        expected = run_batch(
            jobs, BatchOptions(jobs=1), runner=inprocess_runner()
        )
        assert payload["outcomes"][0]["result_digest"] == result_digest(
            expected.outcomes[0].result
        )

    def test_async_repair_over_http(self, server):
        manifest = {
            "batch": "http-async",
            "jobs": [QUICKSTART_SPEC],
            "async": True,
        }
        status, payload = _call(server, "POST", "/v1/repair", manifest)
        assert status == 202
        poll = payload["poll"]
        deadline = time.monotonic() + 120
        state = {}
        while time.monotonic() < deadline:
            status, state = _call(server, "GET", poll)
            if state["state"] in ("done", "failed", "cancelled"):
                break
            time.sleep(0.1)
        assert state["state"] == "done"
        assert state["report"]["counts"] == {"cached": 1}

    def test_sessions_over_http(self, server):
        status, _ = _call(
            server, "POST", "/v1/sessions", {"name": "http-demo"}
        )
        assert status == 201
        status, payload = _call(
            server,
            "POST",
            "/v1/sessions/http-demo/command",
            {"script": "Repair list New.list in rev_app_distr."},
        )
        assert status == 200
        assert payload["results"][0]["new_names"] == ["rev_app_distr'"]
        status, _ = _call(server, "DELETE", "/v1/sessions/http-demo")
        assert status == 200

    def test_metrics_and_errors(self, server):
        request = urllib.request.Request(
            f"http://127.0.0.1:{server}/metrics"
        )
        with urllib.request.urlopen(request, timeout=30) as resp:
            text = resp.read().decode()
        assert "repro_http_requests_total" in text
        assert "repro_server_queue_depth" in text
        status, payload = _call(server, "GET", "/nope")
        assert status == 404
        status, payload = _call(server, "PUT", "/healthz")
        assert status == 405


class TestKeepAlive:
    """Connections that carry more than one request.

    ``urllib`` sends ``Connection: close``, so the tests above cannot
    see a response whose body waits for the client's delayed ACK of
    its headers (~40 ms each on Linux), nor a request whose unread
    body is parsed as the next request on its connection.
    """

    def test_round_trips_reuse_one_connection(self, server):
        manifest = {"batch": "keep-alive", "jobs": [QUICKSTART_SPEC]}
        assert _call(server, "POST", "/v1/repair", manifest)[0] == 200
        conn = http.client.HTTPConnection("127.0.0.1", server, timeout=60)
        conn.connect()
        sock = conn.sock
        times = []

        def round_trip(method, path, body=None):
            data = json.dumps(body).encode() if body is not None else None
            started = time.perf_counter()
            conn.request(
                method,
                path,
                body=data,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
            times.append(time.perf_counter() - started)
            assert conn.sock is sock, f"{method} {path} reopened"
            return response.status, payload

        try:
            for _ in range(30):
                status, payload = round_trip("GET", "/healthz")
                assert (status, payload["status"]) == (200, "ok")
            assert round_trip("GET", "/nope")[0] == 404
            assert round_trip("PUT", "/healthz")[0] == 405
            status, payload = round_trip("POST", "/v1/repair", manifest)
            assert (status, payload["counts"]) == (200, {"cached": 1})
        finally:
            conn.close()
        assert statistics.median(times) < 0.020, sorted(times)

    def test_expect_100_continue_is_answered_before_the_body(self, server):
        body = json.dumps({"batch": "expect", "jobs": [QUICKSTART_SPEC]})
        with socket.create_connection(("127.0.0.1", server), timeout=30) as sock:
            sock.sendall(
                b"POST /v1/repair HTTP/1.1\r\nHost: t\r\n"
                b"Content-Type: application/json\r\nExpect: 100-continue\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
            )
            # The client holds its body back until the interim answer.
            interim = sock.recv(65536)
            assert interim.startswith(b"HTTP/1.1 100 "), interim
            sock.sendall(body.encode())
            reply = sock.recv(65536)
        assert reply.split(b" ", 2)[1] == b"200", reply

    def test_client_hanging_up_leaves_no_traceback(self, server_process):
        process, port = server_process
        _stderr_so_far(process)
        for reset in (False, True):
            with socket.create_connection(("127.0.0.1", port)) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                if reset:  # close with an RST instead of a FIN
                    sock.setsockopt(
                        socket.SOL_SOCKET,
                        socket.SO_LINGER,
                        struct.pack("ii", 1, 0),
                    )
        time.sleep(0.5)
        assert _call(port, "GET", "/healthz")[0] == 200
        assert "Traceback" not in _stderr_so_far(process)

    @pytest.mark.parametrize(
        "framing, status, code",
        [
            (b"Content-Length: -5\r\n\r\n", 400, "bad-content-length"),
            (
                b"Content-Length: 2\r\nContent-Length: 13\r\n\r\n",
                400,
                "bad-content-length",
            ),
            (
                b"Transfer-Encoding: chunked\r\n\r\n"
                b'd\r\n{"name": "c"}\r\n0\r\n\r\n',
                411,
                "length-required",
            ),
            (
                b"Content-Length: " + b"9" * 5000 + b"\r\n\r\n",
                413,
                "body-too-large",
            ),
        ],
        ids=["negative-length", "conflicting-lengths", "chunked", "huge"],
    )
    def test_unreadable_framing_is_refused_and_closed(
        self, server, framing, status, code
    ):
        # Read wrongly, what follows the headers would be answered as
        # a second request on this connection.
        received = b""
        with socket.create_connection(("127.0.0.1", server), timeout=30) as sock:
            sock.sendall(
                b"POST /v1/sessions HTTP/1.1\r\nHost: t\r\n"
                + framing
                + b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            while chunk := sock.recv(65536):
                received += chunk
        head, _, body = received.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0].split()[1] == str(status)
        headers = dict(line.split(": ", 1) for line in lines[1:])
        assert headers["Connection"] == "close"
        # One response, then EOF: nothing after its body.
        assert len(body) == int(headers["Content-Length"])
        assert json.loads(body)["error"]["code"] == code


class TestGracefulShutdown:
    def test_sigterm_drains_and_exits_zero(self):
        process, port = _spawn_server("--workers", "2", "--no-store")
        assert _call(port, "GET", "/healthz")[0] == 200
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=45) == 0
        stderr = process.stderr.read()
        assert '"event": "drained"' in stderr


# -- The batch CLI's signal handling (regression: leaked workers) -------------


def _marked_processes(marker):
    """Pids of live processes whose environment carries ``marker``."""
    pids = []
    needle = marker.encode()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as handle:
                if needle in handle.read():
                    pids.append(int(entry))
        except OSError:
            continue
    return pids


class TestServiceCliShutdown:
    def test_sigterm_kills_worker_process_groups(self, tmp_path):
        """SIGTERM mid-batch must not leak hung worker processes.

        A hang fault keeps two pool workers busy forever; the old
        behaviour unwound through the executor and blocked on those
        workers' pipes, leaking their process groups.  The handler now
        hard-kills every registered pool and exits 128+15.
        """
        manifest = tmp_path / "hang.json"
        manifest.write_text(
            json.dumps(
                {
                    "batch": "hang",
                    "jobs": [
                        dict(QUICKSTART_SPEC),
                        dict(
                            QUICKSTART_SPEC,
                            name="quickstart/rev",
                            target="rev",
                        ),
                    ],
                }
            )
        )
        marker = f"repro-shutdown-{uuid.uuid4().hex}"
        env = _server_env(
            REPRO_SHUTDOWN_TEST_MARKER=marker,
            REPRO_FAULT_HANG_S="600",
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.service",
                str(manifest),
                "--jobs",
                "2",
                "--no-store",
                "--fault-plan",
                json.dumps(
                    {
                        "rev_app_distr": {"0": "hang"},
                        "rev": {"0": "hang"},
                    }
                ),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            start_new_session=True,
        )
        try:
            # Wait until both workers exist (they inherit the marker).
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if len(_marked_processes(marker)) >= 3:  # CLI + workers
                    break
                time.sleep(0.1)
            else:
                raise AssertionError("workers never spawned")
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 128 + signal.SIGTERM
            # Every marked process (CLI and workers alike) must be gone.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if not _marked_processes(marker):
                    break
                time.sleep(0.1)
            leaked = _marked_processes(marker)
            assert not leaked, f"leaked worker pids: {leaked}"
        finally:
            if process.poll() is None:
                try:
                    os.killpg(process.pid, signal.SIGKILL)
                except OSError:
                    pass
