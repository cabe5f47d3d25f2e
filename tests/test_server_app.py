"""The repair server's application layer, driven without sockets."""

import json
import sys
import threading
import time

import pytest

from repro.commands import CommandSession
from repro.obs import Histogram
from repro.server.app import RepairApp, Request, ServerConfig
from repro.server.queue import JobQueue, QueueRejected
from repro.server.ratelimit import RateLimiter
from repro.server.routes import Route, RouteError, Router
from repro.server.sessions import SessionManager, SessionRejected
from repro.service import BatchOptions, run_batch
from repro.service.job import JobError, result_digest
from repro.service.scheduler import inprocess_runner
from repro.service.worker import build_environment
from repro.service.manifest import jobs_from_manifest

QUICKSTART_SETUP = "repro.service.cases:quickstart_env"


def _quickstart_spec(name="quickstart/rev_app_distr", **kwargs):
    spec = {
        "name": name,
        "setup": QUICKSTART_SETUP,
        "target": "rev_app_distr",
        "config": {"kind": "auto", "a": "list", "b": "New.list"},
        "old": ["list"],
        "rename": {"kind": "prefix", "value": "New."},
    }
    spec.update(kwargs)
    return spec


def _manifest(*specs, **extra):
    body = {"batch": "test", "jobs": list(specs)}
    body.update(extra)
    return body


@pytest.fixture
def app(tmp_path):
    config = ServerConfig(
        workers=1,
        rate=0.0,
        store_dir=str(tmp_path / "store"),
        quiet=True,
        sweep_interval_s=0.0,
    )
    app = RepairApp(config)
    app.start()
    yield app
    app.drain(5.0)


def call(app, method, path, body=None, headers=None):
    raw = json.dumps(body).encode() if body is not None else b""
    return app.handle(
        Request(method, path, dict(headers or {}), raw, "test-client")
    )


# -- Routing ------------------------------------------------------------------


class TestRouter:
    def test_params_are_captured(self):
        router = Router([Route("GET", "/v1/things/{name}", "thing")])
        match = router.resolve("GET", "/v1/things/abc")
        assert match.handler == "thing"
        assert match.params == {"name": "abc"}

    def test_unknown_path_is_404(self):
        router = Router([Route("GET", "/a", "a")])
        with pytest.raises(RouteError) as err:
            router.resolve("GET", "/b")
        assert err.value.status == 404

    def test_wrong_method_is_405_with_allow(self):
        router = Router(
            [Route("GET", "/a", "get_a"), Route("POST", "/a", "post_a")]
        )
        with pytest.raises(RouteError) as err:
            router.resolve("DELETE", "/a")
        assert err.value.status == 405
        assert err.value.allow == ("GET", "POST")


# -- The latency histogram ----------------------------------------------------


class TestHistogram:
    def test_snapshot_buckets_are_cumulative(self):
        hist = Histogram((0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert [b["count"] for b in snap["buckets"]] == [1, 3, 4]
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(6.05)

# -- Rate limiting ------------------------------------------------------------


class TestRateLimiter:
    def test_burst_then_429_then_refill(self):
        clock = {"now": 0.0}
        limiter = RateLimiter(
            rate=1.0, burst=2.0, clock=lambda: clock["now"]
        )
        assert limiter.allow("c")[0]
        assert limiter.allow("c")[0]
        allowed, retry_after = limiter.allow("c")
        assert not allowed and retry_after > 0
        assert limiter.rejected == 1
        clock["now"] += retry_after
        assert limiter.allow("c")[0]

    def test_clients_are_independent(self):
        clock = {"now": 0.0}
        limiter = RateLimiter(
            rate=1.0, burst=1.0, clock=lambda: clock["now"]
        )
        assert limiter.allow("a")[0]
        assert not limiter.allow("a")[0]
        assert limiter.allow("b")[0]

    def test_zero_rate_disables(self):
        limiter = RateLimiter(rate=0.0)
        assert all(limiter.allow("c")[0] for _ in range(1000))


# -- The async queue ----------------------------------------------------------


class TestJobQueue:
    def test_submit_runs_and_records_report(self):
        queue = JobQueue(lambda work: {"echo": work}, workers=1)
        queue.start()
        record = queue.submit("b", {"x": 1})
        deadline = time.monotonic() + 10
        while record.state != "done" and time.monotonic() < deadline:
            time.sleep(0.01)
        assert record.state == "done"
        assert record.report == {"echo": {"x": 1}}
        assert queue.get(record.id) is record
        assert queue.get("nope") is None

    def test_failed_execute_lands_in_record_not_thread(self):
        def boom(work):
            raise ValueError("nope")

        queue = JobQueue(boom, workers=1)
        queue.start()
        record = queue.submit("b", {})
        deadline = time.monotonic() + 10
        while record.state != "failed" and time.monotonic() < deadline:
            time.sleep(0.01)
        assert record.state == "failed"
        assert "ValueError" in record.error

    def test_bounded_pending_rejects_with_503(self):
        release = threading.Event()

        def slow(work):
            release.wait(10)
            return {}

        queue = JobQueue(slow, max_pending=1, workers=1)
        queue.start()
        first = queue.submit("b", {})  # picked up by the dispatcher
        deadline = time.monotonic() + 5
        while first.state != "running" and time.monotonic() < deadline:
            time.sleep(0.01)
        queue.submit("b", {})  # fills the single pending slot
        with pytest.raises(QueueRejected) as err:
            queue.submit("b", {})
        assert err.value.status == 503
        assert err.value.code == "queue-full"
        release.set()
        assert queue.drain(10)["unfinished"] == 0

    def test_drain_cancels_queued_jobs(self):
        release = threading.Event()

        def slow(work):
            release.wait(10)
            return {}

        queue = JobQueue(slow, max_pending=8, workers=1)
        queue.start()
        first = queue.submit("b", {})
        deadline = time.monotonic() + 5
        while first.state != "running" and time.monotonic() < deadline:
            time.sleep(0.01)
        queued = queue.submit("b", {})
        release.set()
        stats = queue.drain(10)
        assert stats["cancelled"] == 1
        assert queued.state == "cancelled"
        with pytest.raises(QueueRejected) as err:
            queue.submit("b", {})
        assert err.value.code == "draining"

    def test_finished_records_are_capped(self):
        queue = JobQueue(lambda work: {}, max_pending=64, workers=1)
        queue.start()
        records = [queue.submit("b", {}) for _ in range(10)]
        deadline = time.monotonic() + 10
        while (
            any(r.state != "done" for r in records)
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        queue.max_records = 64  # floor applied at construction
        queue._evict_records()  # no-op below the cap
        assert len(queue.list()) == 10


# -- Sessions -----------------------------------------------------------------


class TestSessionManager:
    def _manager(self, **kwargs):
        kwargs.setdefault("max_sessions", 2)
        kwargs.setdefault("busy_timeout_s", 0.2)
        return SessionManager(**kwargs)

    def test_create_run_close(self):
        manager = self._manager()
        info = manager.create("demo", QUICKSTART_SETUP)
        assert info["name"] == "demo"
        assert info["env_boot"] == "fork"
        out = manager.run(
            "demo", "Repair list New.list in rev_app_distr."
        )
        assert out["results"][0]["new_names"] == ["rev_app_distr'"]
        assert manager.info("demo")["commands"] == 1
        manager.close("demo")
        assert manager.count == 0

    def test_live_sessions_of_one_setup_are_independent(self):
        manager = self._manager()
        manager.create("a", QUICKSTART_SETUP)
        manager.create("b", QUICKSTART_SETUP)
        script = (
            "Repair list New.list in rev_app_distr as rev_app_distr_new.\n"
            "Decompile rev_app_distr_new."
        )
        manager.run("a", "Remove list.")
        assert not manager._live("a").session.env.has_inductive("list")
        assert manager._live("b").session.env.has_inductive("list")
        forked = manager.run("b", script)["results"][1]["text"]
        scratch = CommandSession(build_environment(QUICKSTART_SETUP))
        assert forked == scratch.run(script)[1].text

    def test_sessions_fork_one_base_per_setup(self, session_builds):
        manager = self._manager(max_sessions=4)
        failing = "repro.service.cases:no_such_env"
        for _ in range(2):
            with pytest.raises(JobError):
                manager.create("bad", failing)
        # A failed build caches nothing, so the second create tries again.
        assert session_builds == [failing, failing]
        # More threads than cores, with short switch intervals, race
        # their creates; one base is built and each session has a fork.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(
                    target=manager.create, args=(f"s{i}", QUICKSTART_SETUP)
                )
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert session_builds.count(QUICKSTART_SETUP) == 1
        envs = [manager._live(f"s{i}").session.env for i in range(4)]
        assert len({id(env) for env in envs}) == 4
        base = manager._bases[QUICKSTART_SETUP]
        assert all(env is not base for env in envs)
        assert all(
            env.inductive("list") is base.inductive("list") for env in envs
        )
        for i in range(4):
            manager.close(f"s{i}")
        manager.create("again", QUICKSTART_SETUP)
        assert session_builds.count(QUICKSTART_SETUP) == 1
        manager.close_all()
        assert not manager._bases

    def test_bases_are_dropped_least_recently_forked_first(
        self, session_builds
    ):
        manager = self._manager()  # at most two sessions, so two bases
        replica = "repro.service.cases:replica_env"
        refactor = "repro.service.cases:refactor_env"
        for name, setup in [
            ("a", QUICKSTART_SETUP),
            ("b", replica),
            ("c", QUICKSTART_SETUP),
            ("d", refactor),  # drops replica's base, not quickstart's
            ("e", replica),
        ]:
            manager.create(name, setup)
            manager.close(name)
        assert session_builds == [QUICKSTART_SETUP, replica, refactor, replica]
        assert list(manager._bases) == [refactor, replica]

    def test_bad_name_duplicate_and_limit(self):
        manager = self._manager()
        with pytest.raises(SessionRejected) as err:
            manager.create("-bad-", QUICKSTART_SETUP)
        assert err.value.status == 400
        manager.create("a", QUICKSTART_SETUP)
        with pytest.raises(SessionRejected) as err:
            manager.create("a", QUICKSTART_SETUP)
        assert err.value.status == 409
        manager.create("b", QUICKSTART_SETUP)
        with pytest.raises(SessionRejected) as err:
            manager.create("c", QUICKSTART_SETUP)
        assert err.value.status == 503
        assert err.value.code == "session-limit"

    def test_unknown_session_is_404(self):
        manager = self._manager()
        with pytest.raises(SessionRejected) as err:
            manager.run("ghost", "Print nat.")
        assert err.value.status == 404

    def test_command_error_is_422_and_session_survives(self):
        manager = self._manager()
        manager.create("demo", QUICKSTART_SETUP)
        with pytest.raises(SessionRejected) as err:
            manager.run("demo", "Bogus command.")
        assert err.value.status == 422
        out = manager.run(
            "demo", "Repair list New.list in rev_app_distr."
        )
        assert out["results"]

    def test_busy_session_is_409(self):
        manager = self._manager()
        manager.create("demo", QUICKSTART_SETUP)
        managed = manager._live("demo")
        assert managed.lock.acquire()
        try:
            with pytest.raises(SessionRejected) as err:
                manager.run("demo", "Repair list New.list in rev_app_distr.")
            assert err.value.status == 409
            assert err.value.code == "busy"
        finally:
            managed.lock.release()

    def test_idle_ttl_sweep_skips_held_locks(self):
        manager = self._manager(idle_ttl_s=10.0)
        manager.create("old", QUICKSTART_SETUP)
        manager.create("busy", QUICKSTART_SETUP)
        now = time.monotonic() + 60.0
        held = manager._live("busy")
        assert held.lock.acquire()
        try:
            evicted = manager.sweep(now=now)
        finally:
            held.lock.release()
        assert evicted == ["old"]
        assert manager.count == 1
        assert manager.evicted_total == 1


# -- The application ----------------------------------------------------------


class TestRepairApp:
    def test_healthz_and_status(self, app):
        resp = call(app, "GET", "/healthz")
        assert resp.status == 200
        assert resp.payload["status"] == "ok"
        resp = call(app, "GET", "/v1/status")
        assert resp.status == 200
        assert resp.payload["workers"] == 1

    def test_unknown_route_and_method(self, app):
        assert call(app, "GET", "/nope").status == 404
        resp = call(app, "PUT", "/healthz")
        assert resp.status == 405
        assert resp.headers["Allow"] == "GET"

    def test_bad_json_and_bad_manifest(self, app):
        resp = app.handle(
            Request("POST", "/v1/repair", {}, b"{nope", "t")
        )
        assert resp.status == 400
        assert resp.payload["error"]["code"] == "bad-json"
        resp = call(app, "POST", "/v1/repair", {"jobs": []})
        assert resp.status == 400
        assert resp.payload["error"]["code"] == "bad-manifest"

    @pytest.mark.parametrize("asynchronous", [False, True])
    @pytest.mark.parametrize(
        "timeout",
        [float("inf"), float("nan"), True, 10**400],
        ids=["Infinity", "NaN", "true", "int-past-float"],
    )
    def test_timeout_must_be_a_finite_number(self, app, timeout, asynchronous):
        # json.dumps writes Infinity and NaN, which json.loads accepts;
        # an integer past any float used to escape as a 500.
        manifest = _manifest(
            _quickstart_spec(), timeout_s=timeout, **{"async": asynchronous}
        )
        resp = call(app, "POST", "/v1/repair", manifest)
        assert resp.status == 400
        assert resp.payload["error"]["code"] == "bad-manifest"

    def test_too_many_jobs_is_413(self, app):
        app.config.max_batch_jobs = 1
        manifest = _manifest(
            _quickstart_spec("a"), _quickstart_spec("b")
        )
        resp = call(app, "POST", "/v1/repair", manifest)
        assert resp.status == 413
        assert resp.payload["error"]["code"] == "too-many-jobs"

    def test_sync_repair_matches_inprocess_digest(self, app):
        manifest = _manifest(_quickstart_spec())
        resp = call(app, "POST", "/v1/repair", manifest)
        assert resp.status == 200
        outcome = resp.payload["outcomes"][0]
        assert outcome["status"] == "ok"

        # The HTTP result must be digest-identical to a direct
        # in-process scheduler run of the same manifest (which the
        # service suite in turn holds digest-identical to the Repair
        # vernacular).
        jobs = jobs_from_manifest(
            {"jobs": [_quickstart_spec()]}, where="test"
        )
        expected = run_batch(
            jobs, BatchOptions(jobs=1), runner=inprocess_runner()
        )
        assert outcome["result_digest"] == result_digest(
            expected.outcomes[0].result
        )

    def test_repeat_repair_hits_store(self, app):
        manifest = _manifest(_quickstart_spec())
        first = call(app, "POST", "/v1/repair", manifest)
        assert first.payload["counts"] == {"ok": 1}
        second = call(app, "POST", "/v1/repair", manifest)
        assert second.payload["counts"] == {"cached": 1}
        assert (
            second.payload["outcomes"][0]["result_digest"]
            == first.payload["outcomes"][0]["result_digest"]
        )

    def test_async_repair_polls_to_done(self, app):
        manifest = _manifest(_quickstart_spec())
        manifest["async"] = True
        resp = call(app, "POST", "/v1/repair", manifest)
        assert resp.status == 202
        poll = resp.payload["poll"]
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            state = call(app, "GET", poll)
            if state.payload["state"] in ("done", "failed"):
                break
            time.sleep(0.05)
        assert state.payload["state"] == "done"
        assert state.payload["report"]["counts"] == {"ok": 1}
        listing = call(app, "GET", "/v1/jobs")
        assert len(listing.payload["jobs"]) == 1
        assert call(app, "GET", "/v1/jobs/nope").status == 404

    def test_session_endpoints(self, app):
        resp = call(app, "POST", "/v1/sessions", {"name": "demo"})
        assert resp.status == 201
        resp = call(
            app,
            "POST",
            "/v1/sessions/demo/command",
            {"script": "Repair list New.list in rev_app_distr."},
        )
        assert resp.status == 200
        assert resp.payload["results"][0]["new_names"] == [
            "rev_app_distr'"
        ]
        assert (
            call(app, "GET", "/v1/sessions").payload["sessions"][0][
                "name"
            ]
            == "demo"
        )
        assert call(app, "GET", "/v1/sessions/demo").status == 200
        assert call(app, "DELETE", "/v1/sessions/demo").status == 200
        assert call(app, "GET", "/v1/sessions/demo").status == 404

    @pytest.mark.parametrize(
        "script, line, error",
        [
            ("Decompile nosuch.", 1, "EnvError: unknown constant 'nosuch'"),
            (
                "Remove list.\nRepair list New.list in rev_app_distr.",
                2,
                "ConfigError: no automatic configuration found",
            ),
            ("Replay nosuch.", 1, "EnvError: unknown constant 'nosuch'"),
            ("Analyze nosuch.", 1, "EnvError: unknown constant 'nosuch'"),
        ],
        ids=("decompile", "configure", "replay", "analyze"),
    )
    def test_vernacular_errors_are_422_and_session_survives(
        self, app, script, line, error
    ):
        assert call(app, "POST", "/v1/sessions", {"name": "demo"}).status == 201
        path = "/v1/sessions/demo/command"
        resp = call(app, "POST", path, {"script": script})
        assert resp.status == 422
        assert resp.payload["error"]["code"] == "command-error"
        assert resp.payload["error"]["detail"].startswith(
            f"line {line}: {error}"
        )
        resp = call(app, "POST", path, {"script": "Decompile rev_app_distr."})
        assert resp.status == 200
        assert resp.payload["results"][0]["text"]

    def test_other_session_failures_stay_500(self, app, monkeypatch):
        assert call(app, "POST", "/v1/sessions", {"name": "demo"}).status == 201
        session = app.sessions._live("demo").session

        def broken(words, command):
            raise RuntimeError("not a vernacular error")

        monkeypatch.setattr(session, "_decompile", broken)
        resp = call(
            app,
            "POST",
            "/v1/sessions/demo/command",
            {"script": "Decompile rev_app_distr."},
        )
        assert resp.status == 500
        assert resp.payload["error"]["code"] == "internal-error"

    def test_rate_limit_spares_health_endpoints(self, tmp_path):
        config = ServerConfig(
            workers=1,
            rate=1.0,
            burst=2.0,
            store=False,
            quiet=True,
            sweep_interval_s=0.0,
        )
        app = RepairApp(config)
        try:
            assert call(app, "GET", "/v1/status").status == 200
            assert call(app, "GET", "/v1/status").status == 200
            limited = call(app, "GET", "/v1/status")
            assert limited.status == 429
            assert float(limited.headers["Retry-After"]) > 0
            for _ in range(5):
                assert call(app, "GET", "/healthz").status == 200
                assert call(app, "GET", "/metrics").status == 200
        finally:
            app.drain(5.0)

    def test_draining_refuses_work_but_health_stays_green(self, app):
        app.begin_drain()
        resp = call(app, "POST", "/v1/repair", _manifest(_quickstart_spec()))
        assert resp.status == 503
        assert resp.payload["error"]["code"] == "draining"
        health = call(app, "GET", "/healthz")
        assert health.status == 200
        assert health.payload["status"] == "draining"

    def test_metrics_exposition(self, app):
        call(app, "GET", "/healthz")
        resp = call(app, "GET", "/metrics")
        assert resp.status == 200
        assert resp.content_type.startswith("text/plain")
        text = resp.payload
        assert 'repro_http_requests_total{route="healthz"' in text
        assert "repro_http_request_duration_seconds_bucket" in text
        assert "repro_server_queue_depth" in text
        assert "repro_server_active_sessions" in text
        assert "repro_kernel_constructions_total" in text
