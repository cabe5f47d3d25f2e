"""The framed worker protocol and the worker pool."""

import importlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.service import (
    BatchOptions,
    FaultPlan,
    STATUS_OK,
    STATUS_TIMEOUT,
    WorkerPool,
    run_batch,
)
from repro.core.config import ConfigError
from repro.core.repair import RepairSession
from repro.core.search import configure
from repro.kernel.inductive import ConstructorDecl, InductiveDecl
from repro.kernel.stats import stats_mark
from repro.kernel.term import Const, Constr, Sort
from repro.service import worker
from repro.service.job import fingerprint_source, result_digest
from repro.service.cases import six_case_jobs
from repro.service.faults import JobTimeout, WorkerCrash
from repro.service.job import RepairJob
from repro.service.pool import kill_process_group, worker_environ
from repro.service.worker import (
    build_config,
    build_environment,
    execute_warm,
)
from repro.service.proto import (
    FrameParser,
    FrameStream,
    ProtocolError,
    encode_frame,
)

QUICKSTART_SETUP = "repro.service.cases:quickstart_env"


def _quickstart_job(**kwargs):
    spec = dict(
        name="quickstart/rev_app_distr",
        setup=QUICKSTART_SETUP,
        target="rev_app_distr",
        config={"kind": "auto", "a": "list", "b": "New.list"},
        old=("list",),
        rename={"kind": "prefix", "value": "New."},
        env_fingerprint=fingerprint_source(QUICKSTART_SETUP),
    )
    spec.update(kwargs)
    return RepairJob(**spec)


def _refactor_jobs():
    return [
        j
        for j in six_case_jobs()
        if j.name.startswith("refactor/") or j.name == "galois/cork"
    ]


def _six_case_payload(name):
    return next(j for j in six_case_jobs() if j.name == name).payload()


def _one_job_pool():
    """Per-attempt mode: a fresh worker process for every attempt."""
    return WorkerPool(1, max_jobs_per_worker=1)


# -- The framed protocol ------------------------------------------------------


def _frames(blob):
    """Every frame a parser decodes from one complete byte blob."""
    parser = FrameParser()
    parser.feed(blob)
    frames = []
    while (frame := parser.next_frame()) is not None:
        frames.append(frame)
    return frames


class TestFraming:
    def test_round_trip(self):
        message = {"op": "result", "record": {"status": "ok", "n": 3}}
        frames = _frames(encode_frame(message))
        assert frames == [message]

    def test_json_body_is_the_last_stdout_line(self):
        """Back-compat: naive last-line parses keep working."""
        text = encode_frame({"a": 1}).decode()
        assert json.loads(text.strip().splitlines()[-1]) == {"a": 1}

    def test_noise_lines_are_skipped(self):
        """Even noise that *is* valid ``{``-prefixed JSON is ignored —
        the case the old reversed stdout scan silently mis-parsed."""
        blob = (
            b"booting...\n"
            b'{"status": "lying", "retryable": true}\n'
            + encode_frame({"op": "result", "real": True})
            + b'{"another": "lie"}\n'
        )
        assert _frames(blob) == [{"op": "result", "real": True}]

    def test_multiple_frames_in_order(self):
        blob = encode_frame({"n": 1}) + b"noise\n" + encode_frame({"n": 2})
        assert _frames(blob) == [{"n": 1}, {"n": 2}]

    def test_partial_feed_reassembles(self):
        whole = encode_frame({"key": "v" * 300})
        parser = FrameParser()
        got = None
        for i in range(len(whole)):
            parser.feed(whole[i : i + 1])
            frame = parser.next_frame()
            if frame is not None:
                got = frame
        assert got == {"key": "v" * 300}

    def test_last_frame_none_without_frames(self):
        assert _frames(b"") == []
        assert _frames(b'{"status": "ok"}\nplain noise\n') == []

    def test_undecodable_body_is_a_protocol_error(self):
        parser = FrameParser()
        parser.feed(b"@repro-frame 3\nxyz\n")
        with pytest.raises(ProtocolError):
            parser.next_frame()

    def test_non_object_body_is_a_protocol_error(self):
        parser = FrameParser()
        parser.feed(b"@repro-frame 7\n[1,2,3]\n")
        with pytest.raises(ProtocolError):
            parser.next_frame()

    def test_absurd_length_is_a_protocol_error(self):
        parser = FrameParser()
        parser.feed(b"@repro-frame 999999999999\n")
        with pytest.raises(ProtocolError):
            parser.next_frame()

    def test_header_lookalike_noise_is_skipped(self):
        blob = b"@repro-frame not-a-length\n" + encode_frame({"ok": 1})
        assert _frames(blob) == [{"ok": 1}]

    @pytest.mark.parametrize("far", [1e300, float("inf")])
    def test_far_deadline_waits_instead_of_overflowing(self, far):
        """``select`` refuses a wait past the platform ``time_t``; a
        deadline that far off must still read the frame."""
        read_fd, write_fd = os.pipe()
        try:
            os.write(write_fd, encode_frame({"n": 1}))
            stream = FrameStream(read_fd)
            assert stream.read_frame(time.monotonic() + far) == {"n": 1}
        finally:
            os.close(read_fd)
            os.close(write_fd)


# -- Noisy stdout -------------------------------------------------------------


class TestNoisyWorker:
    def test_noisy_worker_record_still_parsed(self, monkeypatch):
        """A worker printing ``{``-prefixed JSON diagnostics between its
        result frames must not confuse the pool: the noise after one
        frame is read ahead of the next job's reply."""
        # The jobs' configuration builders (tests/noisy_config.py) print
        # the noise; the worker imports them from the repository root.
        # Each job names its own builder, so the worker builds (and
        # prints) for the second job too instead of reusing the first
        # job's resident configuration.
        root = str(Path(__file__).resolve().parent.parent)
        existing = os.environ.get("PYTHONPATH")
        monkeypatch.setenv(
            "PYTHONPATH", os.pathsep.join([root] + ([existing] if existing else []))
        )
        jobs = [
            _quickstart_job(
                config={"kind": "dotted", "ref": f"tests.noisy_config:{name}"}
            )
            for name in ("config", "config_again")
        ]
        with WorkerPool(1) as pool:
            records = [pool.run_job(job.payload(), 0, 120) for job in jobs]
        for record in records:
            assert record["status"] == STATUS_OK
            assert record["new_name"] == "New.rev_app_distr"


# -- Serial executor: SIGALRM guard -------------------------------------------


class TestAlarmGuard:
    def test_off_main_thread_timeout_warns_and_runs(self):
        from repro.service.scheduler import _job_alarm

        ran = []

        def work():
            with pytest.warns(RuntimeWarning, match="SIGALRM"):
                with _job_alarm(5.0):
                    ran.append(True)

        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
        assert ran == [True]

    def test_no_timeout_requested_never_warns(self):
        import warnings as warnings_mod

        from repro.service.scheduler import _job_alarm

        def work():
            with warnings_mod.catch_warnings():
                warnings_mod.simplefilter("error")
                with _job_alarm(None):
                    pass

        thread = threading.Thread(target=work)
        thread.start()
        thread.join()

    def test_main_thread_timeout_still_fires(self):
        from repro.service.scheduler import _job_alarm

        with pytest.raises(JobTimeout):
            with _job_alarm(0.05):
                time.sleep(5)


# -- Process-group reaping ----------------------------------------------------


def _proc_gone(pid):
    """True when ``pid`` is dead (missing or a zombie awaiting reap)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().split()[2] == "Z"
    except OSError:
        return True


class TestProcessGroupReaping:
    def test_killpg_reaps_grandchildren(self):
        """A worker that spawned children cannot leak them past the
        timeout kill (satellite: ``start_new_session`` + ``killpg``)."""
        script = (
            "import subprocess, sys, time\n"
            "child = subprocess.Popen("
            "[sys.executable, '-c', 'import time; time.sleep(60)'])\n"
            "print(child.pid, flush=True)\n"
            "time.sleep(60)\n"
        )
        process = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        grandchild = int(process.stdout.readline())
        assert not _proc_gone(grandchild)
        kill_process_group(process)
        assert process.poll() is not None
        deadline = time.monotonic() + 10
        while not _proc_gone(grandchild):
            assert time.monotonic() < deadline, "grandchild leaked"
            time.sleep(0.05)


# -- The serve loop, driven over raw frames -----------------------------------


def _spawn_serve_worker():
    return subprocess.Popen(
        [sys.executable, "-m", "repro.service.worker"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=worker_environ(),
        start_new_session=True,
    )


class TestServeLoop:
    def test_ping_job_warm_reuse_and_shutdown(self):
        process = _spawn_serve_worker()
        try:
            stream = FrameStream(process.stdout.fileno())
            deadline = time.monotonic() + 120

            def ask(message):
                process.stdin.write(encode_frame(message))
                process.stdin.flush()
                return stream.read_frame(deadline)

            assert ask({"op": "ping"}) == {"op": "pong", "served": 0}

            payload = _quickstart_job().payload()
            first = ask({"op": "job", "payload": payload, "attempt": 0})
            assert first["op"] == "result"
            assert first["record"]["env_boot"] == "scratch"

            second = ask({"op": "job", "payload": payload, "attempt": 0})
            assert second["record"]["env_boot"] == "warm"
            assert result_digest(second["record"]) == result_digest(
                first["record"]
            )

            # A changed fingerprint means the resident env is stale.
            changed = dict(payload, env_fingerprint="0" * 64)
            stale = ask({"op": "job", "payload": changed, "attempt": 0})
            assert stale == {"op": "stale", "setup": payload["setup"]}

            assert ask({"op": "shutdown"}) == {"op": "bye", "served": 2}
            assert process.wait(timeout=10) == 0
        finally:
            kill_process_group(process)

    def test_unknown_op_is_reported_not_fatal(self):
        process = _spawn_serve_worker()
        try:
            stream = FrameStream(process.stdout.fileno())
            deadline = time.monotonic() + 30
            process.stdin.write(encode_frame({"op": "dance"}))
            process.stdin.flush()
            reply = stream.read_frame(deadline)
            assert reply["op"] == "error"
            process.stdin.write(encode_frame({"op": "ping"}))
            process.stdin.flush()
            assert stream.read_frame(deadline)["op"] == "pong"
        finally:
            kill_process_group(process)


# -- Resident configurations --------------------------------------------------


def polluting_config(env):
    """Declare the quickstart job's result name, then fail the build."""
    env.define("New.rev_app_distr", Const("rev_app_distr"))
    raise ConfigError("build failed after declaring New.rev_app_distr")


def declaring_config(env):
    """Declare a helper constant, then configure ``list ~= New.list``."""
    env.define("helper", Constr("nat", 0))
    return configure(env, "list", "New.list")


#: The same builder under a second name, so it has another config key.
declaring_config_again = declaring_config


def _fresh_digest(payload):
    """The job's digest on a fresh resident table (boot, build, repair)."""
    return result_digest(execute_warm({}, payload))


def _outcome(residents, payload):
    """The job's ``result_digest``, ``script`` and ``analysis`` on
    ``residents``, or its error."""
    record = worker.attempt_job(
        lambda: execute_warm(residents, payload), payload, in_process=True
    )
    if record["status"] == "ok":
        return result_digest(record), record["script"], record["analysis"]
    return record["error"]


def _transform_misses(record):
    """The ``transform_cache`` lookups one job missed."""
    tables = record["kernel_delta"]["tables"]
    return tables.get("transform_cache", {}).get("misses", 0)


def _count_builds(monkeypatch):
    """Record every configuration build ``execute_warm`` makes."""
    builds = []

    def counting(env, spec):
        builds.append(spec)
        return build_config(env, spec)

    monkeypatch.setattr(worker, "build_config", counting)
    return builds


class TestResidentConfiguration:
    """A resident keeps one configuration; no job may observe it."""

    def test_warm_runs_match_a_fresh_resident(self):
        jobs = six_case_jobs()
        fresh = {job.name: _fresh_digest(job.payload()) for job in jobs}
        residents = {}
        for _ in range(3):
            for job in jobs:
                record = execute_warm(residents, job.payload())
                assert result_digest(record) == fresh[job.name], job.name

    @pytest.mark.parametrize(
        "name, a_config, b_config, differs",
        [
            # Another constructor mapping: B repairs differently from A.
            (
                "replica/eval_eq_true_or_false",
                None,
                {
                    "kind": "auto",
                    "a": "Old.Term",
                    "b": "New0.Term",
                    "mapping": [0, 2, 1, 4, 3, 5, 6],
                },
                True,
            ),
            # Both builds declare ``helper``: each must start from the
            # boot, not from the environment the other build left.
            (
                "quickstart/rev_app_distr",
                {"kind": "dotted", "ref": f"{__name__}:declaring_config"},
                {"kind": "dotted", "ref": f"{__name__}:declaring_config_again"},
                False,
            ),
        ],
        ids=("another-mapping", "declaring-builds"),
    )
    def test_switching_configurations_rebuilds_from_the_boot(
        self, monkeypatch, name, a_config, b_config, differs
    ):
        a = _six_case_payload(name)
        if a_config is not None:
            a["config"] = a_config
        b = dict(a, config=b_config)
        fresh = {"a": _fresh_digest(a), "b": _fresh_digest(b)}
        assert (fresh["a"] != fresh["b"]) == differs
        builds = _count_builds(monkeypatch)
        residents = {}
        digests = [
            result_digest(execute_warm(residents, payload))
            for payload in (a, b, a)
        ]
        assert digests == [fresh["a"], fresh["b"], fresh["a"]]
        assert len(builds) == 3

    def test_a_repeated_configuration_builds_once(self, monkeypatch):
        payload = _quickstart_job().payload()
        fresh = _fresh_digest(payload)
        builds = _count_builds(monkeypatch)
        residents = {}
        records = [execute_warm(residents, payload) for _ in range(3)]
        assert [result_digest(r) for r in records] == [fresh] * 3
        assert [r["env_boot"] for r in records] == ["scratch", "warm", "warm"]
        assert len(builds) == 1

    def test_a_failed_build_leaves_the_pristine_boot(self):
        payload = _quickstart_job().payload()
        fresh = _fresh_digest(payload)
        broken = dict(
            payload,
            config={
                "kind": "dotted",
                "ref": f"{__name__}:polluting_config",
            },
        )
        residents = {}
        execute_warm(residents, payload)
        with pytest.raises(ConfigError):
            execute_warm(residents, broken)
        entry = residents[QUICKSTART_SETUP]
        assert entry.config is None
        assert (
            entry.env.declaration_order()
            == build_environment(QUICKSTART_SETUP).declaration_order()
        )
        record = execute_warm(residents, payload)
        assert record["env_boot"] == "warm"
        assert result_digest(record) == fresh

    @pytest.mark.parametrize(
        "sequence",
        [("base", "alt", "base"), ("skip", "base"), ("base", "skip")],
        ids=("rename-and-back", "skip-then-base", "base-then-skip"),
    )
    def test_naming_switches_match_a_fresh_resident(
        self, monkeypatch, sequence
    ):
        # One configuration, three namings.  A transform store kept
        # across a naming switch hands the next job entries that map
        # ``app`` to another name (``New.app``, which the next job's
        # fork lacks) or leave it unmapped (the ``skip`` job fails to
        # check); a report store kept across it would hand back a
        # script that names the other naming's constants.
        base = _quickstart_job().payload()
        namings = {
            "base": base,
            "alt": dict(base, rename={"kind": "prefix", "value": "Alt."}),
            "skip": dict(base, skip=["app"]),
        }
        fresh = {name: _outcome({}, namings[name]) for name in sequence}
        if "skip" in fresh:
            assert fresh["skip"].startswith("TypeError_")
        builds = _count_builds(monkeypatch)
        residents = {}
        outcomes = [_outcome(residents, namings[name]) for name in sequence]
        assert outcomes == [fresh[name] for name in sequence]
        assert len(builds) == 1

    def test_jobs_with_one_naming_share_the_transform_store(self):
        # The two binary jobs repair different targets under different
        # ``new_name``s but one naming: the second reads the entries the
        # first stored for ``add``, and from its second run on it misses
        # nothing.
        first, second = (
            _six_case_payload(name)
            for name in ("binary/slow_add", "binary/slow_add_n_Sm")
        )
        fresh = {}
        for payload in (first, second):
            record = execute_warm({}, payload)
            fresh[payload["name"]] = (
                result_digest(record),
                _transform_misses(record),
            )
        residents = {}
        misses, stores = [], set()
        for _ in range(3):
            for payload in (first, second):
                record = execute_warm(residents, payload)
                assert result_digest(record) == fresh[payload["name"]][0]
                misses.append(_transform_misses(record))
                stores.add(id(residents[first["setup"]].config.transforms))
        assert 0 < misses[1] < fresh[second["name"]][1]
        assert misses[2:] == [0] * 4
        assert len(stores) == 1

    def test_a_job_declares_only_its_repairs(self, monkeypatch):
        # Every transformed term is the type or body of a declaration of
        # the post-build environment: a matcher or B-side builder that
        # declared during a transform would make the store's entries
        # depend on the job that filled it.
        declared = []
        build = worker.build_record

        def recording(env, session, *args, **kwargs):
            declared.append(
                (
                    env.declaration_order(),
                    [r.new_name for r in session.results.values()],
                )
            )
            return build(env, session, *args, **kwargs)

        monkeypatch.setattr(worker, "build_record", recording)
        residents = {}
        for job in six_case_jobs():
            payload = job.payload()
            assert execute_warm(residents, payload)["status"] == "ok"
            order, new_names = declared.pop()
            built = residents[payload["setup"]].config.env.declaration_order()
            assert order[: len(built)] == built, job.name
            assert list(order[len(built):]) == new_names, job.name

    def test_a_failed_job_leaves_the_resident_intact(self):
        # The clashing job declares the repaired dependencies of
        # ``rev_app_distr`` in its fork, then fails to define its result
        # over the existing ``app``.  Nothing it declared may reach the
        # post-build environment or the next job.
        payload = _quickstart_job().payload()
        fresh = _fresh_digest(payload)
        residents = {}
        execute_warm(residents, payload)
        built = residents[QUICKSTART_SETUP].config.env
        order = built.declaration_order()
        clash = dict(payload, new_name="app")
        assert _outcome(residents, clash) == "EnvError: duplicate global 'app'"
        assert residents[QUICKSTART_SETUP].config.env is built
        assert built.declaration_order() == order
        record = execute_warm(residents, payload)
        assert record["env_boot"] == "warm"
        assert result_digest(record) == fresh


class TestReportStore:
    """A resident configuration's report store: reused only where a
    fresh report would read the same declarations."""

    def test_a_report_is_reused_only_at_its_declaration_state(self):
        # One repaired term object, reported before and after an
        # inductive whose constructor ``S`` makes the script's ``S``
        # ambiguous, so the printer must qualify it the second time.
        env = build_environment(QUICKSTART_SETUP)
        session = RepairSession(
            env, configure(env, "list", "New.list"), ["list"]
        )
        result = session.repair_constant("length")
        reports = {}

        def report(store):
            record = worker.build_record(
                env, session, result, stats_mark(), 0.0,
                reports=store,
            )
            return record["script"], record["analysis"]

        first = report(reports)
        assert first == report(None)
        assert "exact (S IH)" in first[0]
        assert report(reports) == first
        env.declare_inductive(
            InductiveDecl(
                "Dup", (), (), Sort(0), (ConstructorDecl("S", ()),)
            )
        )
        second = report(reports)
        assert second == report(None)
        assert "exact (nat.S IH)" in second[0]
        assert len(reports) == 2

    def test_a_report_whose_decompile_raised_is_not_stored(
        self, monkeypatch
    ):
        payload = _quickstart_job().payload()
        fresh = execute_warm({}, payload)
        decompiler = importlib.import_module("repro.decompile.decompiler")

        def failing(env, term, ctx=None):
            raise RecursionError("maximum recursion depth exceeded")

        residents = {}
        with monkeypatch.context() as patch:
            patch.setattr(decompiler, "decompile_to_script", failing)
            record = execute_warm(residents, payload)
        assert record["script"] is None
        assert record["analysis"] == fresh["analysis"]
        reports = residents[payload["setup"]].config.reports
        assert reports == {}
        record = execute_warm(residents, payload)
        assert record["script"] == fresh["script"] is not None
        assert len(reports) == 1


# -- The pool -----------------------------------------------------------------


class TestWorkerPool:
    def test_warm_reuse_with_digest_parity_vs_subprocess(self):
        payload = _quickstart_job().payload()
        with WorkerPool(1) as pool:
            first = pool.run_job(payload, 0, 120)
            second = pool.run_job(payload, 0, 120)
        assert first["env_boot"] == "scratch"
        assert second["env_boot"] == "warm"
        with _one_job_pool() as one_job:
            hermetic = one_job.run_job(payload, 0, 120)
        assert (
            result_digest(first)
            == result_digest(second)
            == result_digest(hermetic)
        )
        stats = pool.stats()
        assert stats["spawned"] == 1
        assert stats["jobs"] == 2
        assert stats["warm_jobs"] == 1

    def test_fingerprint_change_retires_worker_and_redispatches(self):
        payload = _quickstart_job().payload()
        with WorkerPool(1) as pool:
            first = pool.run_job(payload, 0, 120)
            assert first["status"] == STATUS_OK
            # Simulate an edited setup module: same job, new fingerprint.
            changed = dict(payload, env_fingerprint="0" * 64)
            second = pool.run_job(changed, 0, 120)
            assert second["status"] == STATUS_OK
            # The fresh worker re-booted; nothing was served warm.
            assert second["env_boot"] == "scratch"
        stats = pool.stats()
        assert stats["stale_retired"] == 1
        assert stats["spawned"] == 2

    def test_recycle_after_max_jobs_per_worker(self):
        payload = _quickstart_job().payload()
        with _one_job_pool() as pool:
            first = pool.run_job(payload, 0, 120)
            second = pool.run_job(payload, 0, 120)
        assert first["status"] == second["status"] == STATUS_OK
        # Each worker retired after its single job: no warm reuse.
        assert second["env_boot"] == "scratch"
        stats = pool.stats()
        assert stats["spawned"] == 2
        assert stats["recycled"] == 2

    def test_default_pool_never_recycles_a_healthy_worker(self):
        payload = _six_case_payload("binary/slow_add")
        with WorkerPool(1) as pool:
            records = [pool.run_job(payload, 0, 120) for _ in range(70)]
        assert {record["status"] for record in records} == {STATUS_OK}
        stats = pool.stats()
        assert stats["spawned"] == 1
        assert stats["recycled"] == 0
        assert stats["warm_jobs"] == 69

    def test_injected_hang_kills_only_the_stuck_worker(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_HANG_S", "60")
        jobs = _refactor_jobs()
        plan = FaultPlan({"demorgan_1": {0: "hang"}})
        with WorkerPool(2, fault_plan=plan) as pool:
            with pytest.raises(JobTimeout):
                pool.run_job(
                    [j for j in jobs if j.name == "refactor/demorgan_1"][0]
                    .payload(),
                    0,
                    8,
                )
            # Only the stuck worker died; the pool keeps serving — and
            # keeps environments resident across the kill.
            ok = pool.run_job(
                [j for j in jobs if j.name == "refactor/demorgan_2"][0]
                .payload(),
                0,
                120,
            )
            assert ok["status"] == STATUS_OK
            again = pool.run_job(
                [j for j in jobs if j.name == "refactor/demorgan_2"][0]
                .payload(),
                0,
                120,
            )
            assert again["status"] == STATUS_OK
            assert again["env_boot"] == "warm"
        stats = pool.stats()
        assert stats["timeout_kills"] == 1
        assert stats["spawned"] == 2

    def test_mid_batch_crash_leaves_warm_workers_finishing(self, tmp_path):
        """Injected crash kills one warm worker; its job retries on a
        fresh one and the rest of the batch completes (scheduler path)."""
        jobs = _refactor_jobs()
        plan = FaultPlan({"demorgan_1": {0: "crash"}})
        report = run_batch(
            jobs,
            BatchOptions(
                jobs=2,
                fault_plan=plan,
                timeout_s=120,
                backoff_s=0.0,
                pool=True,
            ),
        )
        statuses = {o.job.name: o.status for o in report.outcomes}
        assert statuses == {
            "refactor/demorgan_1": STATUS_OK,
            "refactor/demorgan_2": STATUS_OK,
            "galois/cork": STATUS_OK,
        }
        assert report.outcome("refactor/demorgan_1").attempts == 2
        assert report.pool is not None
        assert report.pool["crashes"] == 1

    def test_batch_digests_match_subprocess_mode(self):
        jobs = _refactor_jobs()
        pooled = run_batch(
            jobs, BatchOptions(jobs=2, timeout_s=120, pool=True)
        )
        hermetic = run_batch(
            jobs, BatchOptions(jobs=2, timeout_s=120, pool=False)
        )
        assert pooled.ok and hermetic.ok
        # Per-attempt mode is the pool recycling every worker after one
        # job: nothing runs warm, and every environment boots afresh.
        assert hermetic.pool["warm_jobs"] == 0
        assert hermetic.pool["recycled"] == hermetic.pool["jobs"] == 3
        assert {o.result["env_boot"] for o in hermetic.outcomes} == {
            "scratch"
        }
        digests = lambda report: {  # noqa: E731
            o.job.name: result_digest(o.result) for o in report.outcomes
        }
        assert digests(pooled) == digests(hermetic)

    def test_timeout_via_scheduler_reports_timeout(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_HANG_S", "60")
        jobs = _refactor_jobs()
        plan = FaultPlan({"demorgan_1": {0: "hang"}})
        report = run_batch(
            jobs,
            BatchOptions(
                jobs=2, fault_plan=plan, timeout_s=8, pool=True
            ),
        )
        assert report.outcome("refactor/demorgan_1").status == STATUS_TIMEOUT
        assert report.outcome("galois/cork").status == STATUS_OK
        assert report.pool["timeout_kills"] == 1

    def test_shutdown_is_idempotent_and_blocks_new_checkouts(self):
        pool = WorkerPool(1)
        pool.shutdown()
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.run_job(_quickstart_job().payload(), 0, 10)

    def test_stale_bounce_limit_surfaces_as_crash(self, monkeypatch):
        """If fresh workers keep answering stale (impossible for a real
        fingerprint mismatch, simulated by patching), the pool gives up
        instead of spinning."""
        payload = dict(_quickstart_job().payload())
        pool = WorkerPool(1)

        class AlwaysStale:
            jobs = 0

            def request(self, message, deadline=None):
                return {"op": "stale", "setup": payload["setup"]}

            def retire(self):
                pass

            def destroy(self):
                pass

        monkeypatch.setattr(pool, "_checkout", lambda: AlwaysStale())
        with pytest.raises(WorkerCrash, match="stale"):
            pool.run_job(payload, 0, 10)
        pool.shutdown()


# -- Timeouts past the platform time_t ---------------------------------------


def _run_on_thread(call, join_s=60):
    """``call()`` on a daemon thread; its result, or None if it hangs."""
    results = []
    thread = threading.Thread(
        target=lambda: results.append(call()), daemon=True
    )
    thread.start()
    thread.join(join_s)
    return results[0] if results else None


class TestFarTimeouts:
    """A timeout no timer can hold means no deadline, never a wedge."""

    def test_pool_serves_far_timeouts_and_keeps_its_slot(self):
        payload = _quickstart_job().payload()
        with WorkerPool(1) as pool:
            for far in (1e300, float("inf")):
                assert pool.run_job(payload, 0, far)["status"] == STATUS_OK
            # Had an attempt kept the pool's one slot, this would block.
            after = _run_on_thread(lambda: pool.run_job(payload, 0, 120))
        assert after is not None, "the next job never got a worker"
        assert after["status"] == STATUS_OK

    def test_unexpected_error_destroys_the_worker_and_frees_its_slot(
        self, monkeypatch
    ):
        from repro.service.pool import PoolWorker

        payload = _quickstart_job().payload()
        original = PoolWorker.request

        def broken(self, message, deadline=None):
            monkeypatch.setattr(PoolWorker, "request", original)
            raise OverflowError("timestamp out of range for platform time_t")

        monkeypatch.setattr(PoolWorker, "request", broken)
        with WorkerPool(1) as pool:
            with pytest.raises(OverflowError):
                pool.run_job(payload, 0, 120)
            after = _run_on_thread(lambda: pool.run_job(payload, 0, 120))
        assert after is not None, "the failed attempt kept its slot"
        assert after["status"] == STATUS_OK
        assert pool.stats()["crashes"] == 1
        assert pool.stats()["spawned"] == 2

    def test_serial_batch_completes_and_restores_sigalrm(self):
        before = signal.getsignal(signal.SIGALRM)
        report = run_batch(
            [_quickstart_job()], BatchOptions(jobs=1, timeout_s=1e300)
        )
        assert report.outcomes[0].status == STATUS_OK
        assert signal.getsignal(signal.SIGALRM) is before

    def test_cli_refuses_infinite_and_nan_timeouts(self, capsys):
        from repro.service.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["--timeout", "1e300"]).timeout == 1e300
        for value in ("inf", "-inf", "nan"):
            with pytest.raises(SystemExit) as exit_info:
                parser.parse_args(["--timeout", value])
            assert exit_info.value.code == 2
        assert "finite" in capsys.readouterr().err


# -- Defaults and CLI wiring --------------------------------------------------


class TestPoolKnobs:
    def test_cli_pool_flags(self):
        from repro.service.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["--six-cases"]).pool is True
        assert parser.parse_args(["--six-cases", "--no-pool"]).pool is False
        assert BatchOptions(jobs=2).pool is True

    def test_worker_environ_carries_knobs(self):
        plan = FaultPlan({"t": {0: "error"}})
        environ = worker_environ(plan)
        assert environ["REPRO_FAULT_PLAN"] == plan.to_env()
        src = Path(__file__).resolve().parents[1] / "src"
        assert str(src) in environ["PYTHONPATH"].split(os.pathsep)
