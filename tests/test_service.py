"""repro.service: job model, graph oracle, store, scheduler, faults, CLI.

The scheduler-semantics tests drive :func:`run_batch` with stub runners
(no kernel work), so retry/timeout/cascade logic is tested fast and in
isolation; the end-to-end tests then run real repairs through the
in-process executor, and a small parallel section exercises the
worker pool with injected crashes (CI runs this file again at
``--jobs 2`` plus a fault-injection sweep).
"""

import json
from pathlib import Path

import pytest

from repro.commands import CommandError, CommandSession
from repro.kernel.stats import KERNEL_STATS
from repro.service import (
    BatchOptions,
    FaultPlan,
    JobError,
    RepairJob,
    ResultStore,
    WorkerCrash,
    run_batch,
)
from repro.service.graph import infer_edges, needs_repair, repair_order, toposort
from repro.service.job import (
    LIVE_SETUP,
    SCHEMA_VERSION,
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SKIPPED,
    STATUS_TIMEOUT,
    fingerprint_env,
    fingerprint_source,
)

QUICKSTART_SETUP = "repro.service.cases:quickstart_env"


def _job(name="j", target="t", after=(), **kwargs):
    defaults = dict(
        setup="tests.fake:env",
        config={"kind": "auto", "a": "A", "b": "B"},
        old=("A",),
        env_fingerprint="f" * 8,
    )
    defaults.update(kwargs)
    return RepairJob(name=name, target=target, after=tuple(after), **defaults)


def _ok_runner(record=None):
    def run(payload, attempt, timeout_s):
        return dict(record or {}, status="ok", new_name=payload["target"] + "'")

    return run


# -- The job model -----------------------------------------------------------


class TestJobModel:
    def test_key_ignores_batch_bookkeeping(self):
        a = _job(name="one")
        b = _job(name="two", after=("one",))
        assert a.key == b.key

    def test_key_tracks_identity_fields(self):
        base = _job()
        assert _job(target="other").key != base.key
        assert _job(env_fingerprint="g" * 8).key != base.key
        assert _job(skip=("x",)).key != base.key
        assert _job(new_name="n").key != base.key

    def test_from_dict_roundtrip(self):
        raw = {
            "name": "j",
            "setup": "tests.fake:env",
            "target": "t",
            "config": {"kind": "auto", "a": "A", "b": "B"},
            "old": ["A"],
            "skip": ["s"],
            "after": ["other"],
            "env_fingerprint": "f" * 8,
        }
        job = RepairJob.from_dict(raw)
        assert job.skip == ("s",)
        assert job.after == ("other",)
        assert job.key == RepairJob.from_dict(dict(raw)).key

    @pytest.mark.parametrize(
        "mutation,message",
        [
            ({"bogus": 1}, "unknown job field"),
            ({"config": {"kind": "nope"}}, "unknown config kind"),
            ({"config": {"kind": "auto"}}, "needs 'a' and 'b'"),
            ({"old": []}, "missing old globals"),
            ({"target": ""}, "missing target"),
            ({"rename": {"kind": "prefix"}}, "needs a string 'value'"),
            ({"skip": [1]}, "'skip' must be a list"),
        ],
    )
    def test_from_dict_rejects(self, mutation, message):
        raw = {
            "name": "j",
            "setup": "tests.fake:env",
            "target": "t",
            "config": {"kind": "auto", "a": "A", "b": "B"},
            "old": ["A"],
        }
        raw.update(mutation)
        with pytest.raises(JobError, match=message):
            RepairJob.from_dict(raw)

    def test_fingerprint_source_tracks_module_edits(self, tmp_path, monkeypatch):
        pkg = tmp_path / "fp_mod.py"
        pkg.write_text("def env():\n    return None\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        first = fingerprint_source("fp_mod:env")
        assert first == fingerprint_source("fp_mod:env")
        pkg.write_text("def env():\n    return 1\n")
        assert fingerprint_source("fp_mod:env") != first

    def test_fingerprint_env_is_structural(self):
        from repro.cases.quickstart import setup_environment

        one, two = setup_environment(), setup_environment()
        assert fingerprint_env(one) == fingerprint_env(two)
        from repro.syntax.parser import parse

        two.define("extra", parse(two, "fun (n : nat) => n"))
        assert fingerprint_env(one) != fingerprint_env(two)


# -- The dependency graph, sharing its oracle with Repair module -------------


class TestGraphOracle:
    def test_repair_module_matches_repair_order(self):
        """`Repair module` defines constants in exactly the oracle's order."""
        from repro.cases.quickstart import setup_environment
        from repro.core.repair import RepairSession
        from repro.core.search import configure

        env = setup_environment()
        oracle = repair_order(env, ["list"])
        session = RepairSession(
            env,
            configure(env, "list", "New.list"),
            old_globals=["list"],
            rename=lambda n: f"New.{n}",
        )
        session.repair_module()
        assert list(session.results) == oracle

    def test_repair_constant_matches_targeted_order(self):
        from repro.cases.quickstart import setup_environment
        from repro.core.repair import RepairSession
        from repro.core.search import configure

        env = setup_environment()
        oracle = repair_order(env, ["list"], targets=["rev_app_distr"])
        session = RepairSession(
            env,
            configure(env, "list", "New.list"),
            old_globals=["list"],
            rename=lambda n: f"New.{n}",
        )
        session.repair_constant("rev_app_distr")
        assert list(session.results) == oracle
        assert oracle[-1] == "rev_app_distr"

    def test_needs_repair_skips_recursors_and_bodyless(self):
        from repro.cases.quickstart import setup_environment

        env = setup_environment()
        assert needs_repair(env, "rev_app_distr", ["list"])
        assert not needs_repair(env, "list_rect", ["list"])
        assert not needs_repair(env, "not-a-constant", ["list"])
        assert not needs_repair(env, "pred", ["list"])

    def test_infer_edges_orders_dependent_targets(self):
        from repro.cases.quickstart import setup_environment

        env = setup_environment()
        jobs = [
            _job(name="rev", target="rev_app_distr", setup=LIVE_SETUP,
                 config={"kind": "live"}, old=("list",)),
            _job(name="assoc", target="app_assoc", setup=LIVE_SETUP,
                 config={"kind": "live"}, old=("list",)),
        ]
        edges = infer_edges(env, jobs)
        assert edges["rev"] == ("assoc",)
        assert edges["assoc"] == ()

    def test_toposort_stable_and_cycle_safe(self):
        order = toposort(["c", "b", "a"], {"c": ("a",), "b": (), "a": ()})
        assert order == ["b", "a", "c"]
        with pytest.raises(ValueError, match="cycle"):
            toposort(["a", "b"], {"a": ("b",), "b": ("a",)})
        with pytest.raises(ValueError, match="unknown job"):
            toposort(["a"], {"a": ("ghost",)})


# -- The persistent store ----------------------------------------------------


class TestStore:
    def _record(self, key):
        return {
            "schema_version": SCHEMA_VERSION,
            "key": key,
            "result": {"status": "ok"},
        }

    def test_roundtrip_and_counters(self, tmp_path):
        store = ResultStore(str(tmp_path))
        assert store.get("k" * 8) is None
        store.put("k" * 8, self._record("k" * 8))
        assert store.get("k" * 8)["result"] == {"status": "ok"}
        assert (store.hits, store.misses) == (1, 1)
        assert store.size == 1
        assert store.clear() == 1

    def test_corrupt_record_is_a_miss(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = "c" * 8
        Path(store.path_for(key)).parent.mkdir(parents=True, exist_ok=True)
        Path(store.path_for(key)).write_text("{ truncated garbage")
        assert store.get(key) is None

    @pytest.mark.parametrize(
        "record",
        [
            [],  # not an object
            {"schema_version": 999, "key": "w" * 8, "result": {}},
            {"schema_version": SCHEMA_VERSION, "key": "other", "result": {}},
            {"schema_version": SCHEMA_VERSION, "key": "w" * 8, "result": 3},
        ],
    )
    def test_wrong_shape_is_a_miss(self, tmp_path, record):
        store = ResultStore(str(tmp_path))
        key = "w" * 8
        Path(store.path_for(key)).parent.mkdir(parents=True, exist_ok=True)
        Path(store.path_for(key)).write_text(json.dumps(record))
        assert store.get(key) is None

    def test_no_partial_files_left_behind(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("a" * 8, self._record("a" * 8))
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp")]
        assert leftovers == []


# -- Scheduler semantics (stub runners, no kernel work) ----------------------


class TestSchedulerSemantics:
    def test_outcomes_in_input_order(self):
        jobs = [_job(name="b", target="tb"), _job(name="a", target="ta")]
        report = run_batch(jobs, BatchOptions(jobs=1), runner=_ok_runner())
        assert [o.job.name for o in report.outcomes] == ["b", "a"]
        assert all(o.status == STATUS_OK for o in report.outcomes)
        assert report.ok

    def test_retryable_failure_is_retried_then_ok(self):
        calls = []

        def flaky(payload, attempt, timeout_s):
            calls.append(attempt)
            if attempt == 0:
                return {"status": "failed", "error": "flake", "retryable": True}
            return {"status": "ok", "new_name": "t'"}

        report = run_batch([_job()], BatchOptions(jobs=1), runner=flaky)
        assert calls == [0, 1]
        outcome = report.outcomes[0]
        assert (outcome.status, outcome.attempts) == (STATUS_OK, 2)

    def test_deterministic_failure_is_not_retried(self):
        calls = []

        def bad(payload, attempt, timeout_s):
            calls.append(attempt)
            return {"status": "failed", "error": "no", "retryable": False}

        report = run_batch([_job()], BatchOptions(jobs=1), runner=bad)
        assert calls == [0]
        assert report.outcomes[0].status == STATUS_FAILED
        assert report.outcomes[0].error == "no"

    def test_crash_retries_exhaust_to_failed(self):
        def crash(payload, attempt, timeout_s):
            raise WorkerCrash("boom")

        report = run_batch(
            [_job()], BatchOptions(jobs=1, retries=2, backoff_s=0.0),
            runner=crash,
        )
        outcome = report.outcomes[0]
        assert (outcome.status, outcome.attempts) == (STATUS_FAILED, 3)
        assert "boom" in outcome.error

    def test_failure_cascades_skip_transitive_dependents(self):
        jobs = [
            _job(name="root", target="r"),
            _job(name="mid", target="m", after=("root",)),
            _job(name="leaf", target="l", after=("mid",)),
            _job(name="island", target="i"),
        ]

        def root_fails(payload, attempt, timeout_s):
            if payload["target"] == "r":
                return {"status": "failed", "error": "x", "retryable": False}
            return {"status": "ok", "new_name": "n"}

        report = run_batch(jobs, BatchOptions(jobs=1), runner=root_fails)
        statuses = {o.job.name: o.status for o in report.outcomes}
        assert statuses == {
            "root": STATUS_FAILED,
            "mid": STATUS_SKIPPED,
            "leaf": STATUS_SKIPPED,
            "island": STATUS_OK,
        }
        assert report.outcome("mid").error == "dependency 'root' did not complete"

    def test_cache_hit_skips_runner(self, tmp_path):
        store = ResultStore(str(tmp_path))
        job = _job()
        store.put(
            job.key,
            {
                "schema_version": SCHEMA_VERSION,
                "key": job.key,
                "job": job.payload(),
                "result": {"status": "ok", "new_name": "t'"},
            },
        )
        calls = []

        def runner(payload, attempt, timeout_s):
            calls.append(payload["target"])
            return {"status": "ok"}

        report = run_batch([job], BatchOptions(jobs=1, store=store), runner=runner)
        assert calls == []
        assert report.outcomes[0].status == STATUS_CACHED
        assert report.store_hits == 1

    def test_refresh_forces_recompute(self, tmp_path):
        store = ResultStore(str(tmp_path))
        job = _job()
        store.put(
            job.key,
            {
                "schema_version": SCHEMA_VERSION,
                "key": job.key,
                "result": {"status": "ok"},
            },
        )
        report = run_batch(
            [job],
            BatchOptions(jobs=1, store=store, refresh=True),
            runner=_ok_runner(),
        )
        assert report.outcomes[0].status == STATUS_OK

    def test_ok_results_are_persisted(self, tmp_path):
        store = ResultStore(str(tmp_path))
        job = _job()
        run_batch([job], BatchOptions(jobs=1, store=store), runner=_ok_runner())
        record = store.get(job.key)
        assert record["result"]["new_name"] == "t'"
        assert record["job"]["name"] == job.name

    def test_duplicate_names_rejected(self):
        with pytest.raises(JobError, match="duplicate"):
            run_batch(
                [_job(name="x"), _job(name="x")],
                BatchOptions(jobs=1),
                runner=_ok_runner(),
            )

    def test_cyclic_after_rejected(self):
        jobs = [
            _job(name="a", after=("b",)),
            _job(name="b", after=("a",)),
        ]
        with pytest.raises(JobError, match="cycle"):
            run_batch(jobs, BatchOptions(jobs=1), runner=_ok_runner())

    def test_inprocess_fault_error_retries_then_succeeds(self):
        """The injectable 'error' fault exercises the real retry path."""
        job = _job(
            name="quickstart",
            setup=QUICKSTART_SETUP,
            target="app_nil_r",
            config={"kind": "auto", "a": "list", "b": "New.list"},
            old=("list",),
            rename={"kind": "prefix", "value": "New."},
            env_fingerprint=fingerprint_source(QUICKSTART_SETUP),
        )
        plan = FaultPlan({"app_nil_r": {0: "error"}})
        report = run_batch(
            [job], BatchOptions(jobs=1, fault_plan=plan, backoff_s=0.0)
        )
        outcome = report.outcomes[0]
        assert (outcome.status, outcome.attempts) == (STATUS_OK, 2)

    def test_inprocess_crash_surfaces_as_worker_crash_and_retries(self):
        job = _job(
            name="quickstart",
            setup=QUICKSTART_SETUP,
            target="app_nil_r",
            config={"kind": "auto", "a": "list", "b": "New.list"},
            old=("list",),
            rename={"kind": "prefix", "value": "New."},
            env_fingerprint=fingerprint_source(QUICKSTART_SETUP),
        )
        plan = FaultPlan({"app_nil_r": {0: "crash"}})
        report = run_batch(
            [job], BatchOptions(jobs=1, fault_plan=plan, backoff_s=0.0)
        )
        outcome = report.outcomes[0]
        assert (outcome.status, outcome.attempts) == (STATUS_OK, 2)


# -- End to end, in process --------------------------------------------------


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


class TestEndToEnd:
    def test_repair_job_produces_full_record(self):
        report = run_batch([_quickstart_job()], BatchOptions(jobs=1))
        outcome = report.outcomes[0]
        assert outcome.status == STATUS_OK
        record = outcome.result
        assert record["new_name"] == "New.rev_app_distr"
        assert "New.rev_app_distr" in record["script"]
        assert [d["old"] for d in record["defined"]][-1] == "rev_app_distr"
        # With REPRO_DISABLE_KERNEL_CACHES=1 the arena counters stay 0,
        # so assert shape here; the warm-rerun test pins the delta to 0.
        assert record["kernel_delta"]["constructions"] >= 0
        assert record["analysis"] == []

    def test_cached_rerun_does_zero_kernel_work(self, tmp_path):
        """Unchanged batch + warm store => all cached, no transform work."""
        store = ResultStore(str(tmp_path))
        first = run_batch(
            [_quickstart_job()], BatchOptions(jobs=1, store=store)
        )
        assert first.outcomes[0].status == STATUS_OK
        before = KERNEL_STATS.snapshot()
        second = run_batch(
            [_quickstart_job()],
            BatchOptions(jobs=1, store=ResultStore(str(tmp_path))),
        )
        after = KERNEL_STATS.snapshot()
        assert [o.status for o in second.outcomes] == [STATUS_CACHED]
        assert after["constructions"] == before["constructions"]
        assert after["events"] == before["events"]

    def test_single_job_output_matches_vernacular_repair(self):
        """Service transparency: byte-identical to `Repair ... in ...`."""
        from repro.cases.quickstart import setup_environment
        from repro.kernel.pretty import pretty

        session = CommandSession(setup_environment())
        vernacular = session.execute(
            "Repair list New.list in rev_app_distr"
        ).results[0]
        job = _quickstart_job(
            rename={"kind": "suffix", "value": "'"}, new_name=None
        )
        record = run_batch([job], BatchOptions(jobs=1)).outcomes[0].result
        assert record["new_name"] == vernacular.new_name
        assert record["term"] == pretty(vernacular.term)
        assert record["type"] == pretty(vernacular.type)

    def test_timeout_reports_timeout_status(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_HANG_S", "10")
        job = _quickstart_job()
        plan = FaultPlan({"rev_app_distr": {0: "hang"}})
        report = run_batch(
            [job],
            BatchOptions(jobs=1, fault_plan=plan, timeout_s=0.2),
        )
        outcome = report.outcomes[0]
        assert outcome.status == STATUS_TIMEOUT
        assert outcome.attempts == 1


# -- The worker pool ---------------------------------------------------------


class TestParallelPool:
    def test_crash_injection_does_not_poison_the_pool(self, tmp_path):
        """One worker crashes; its job retries; unrelated jobs complete."""
        from repro.service.cases import six_case_jobs

        jobs = [
            j
            for j in six_case_jobs()
            if j.name.startswith("refactor/") or j.name == "galois/cork"
        ]
        assert len(jobs) == 3
        plan = FaultPlan({"demorgan_1": {0: "crash"}})
        report = run_batch(
            jobs,
            BatchOptions(
                jobs=2,
                store=ResultStore(str(tmp_path)),
                fault_plan=plan,
                timeout_s=120,
                backoff_s=0.0,
            ),
        )
        statuses = {o.job.name: o.status for o in report.outcomes}
        assert statuses == {
            "refactor/demorgan_1": STATUS_OK,
            "refactor/demorgan_2": STATUS_OK,
            "galois/cork": STATUS_OK,
        }
        assert report.outcome("refactor/demorgan_1").attempts == 2
        assert report.outcome("refactor/demorgan_2").attempts == 1

    def test_unretried_crashes_fail_and_cascade(self, tmp_path):
        from repro.service.cases import six_case_jobs

        jobs = [j for j in six_case_jobs() if j.name.startswith("binary/")]
        plan = FaultPlan({"add": {0: "crash", 1: "crash", 2: "crash"}})
        report = run_batch(
            jobs,
            BatchOptions(jobs=2, fault_plan=plan, retries=2, backoff_s=0.0,
                         timeout_s=120),
        )
        statuses = {o.job.name: o.status for o in report.outcomes}
        assert statuses == {
            "binary/slow_add": STATUS_FAILED,
            "binary/slow_add_n_Sm": STATUS_SKIPPED,
        }


# -- The CLI -----------------------------------------------------------------


class TestCli:
    def _manifest(self, tmp_path):
        manifest = {
            "batch": "unit",
            "jobs": [
                {
                    "name": "quickstart/rev_app_distr",
                    "setup": QUICKSTART_SETUP,
                    "target": "rev_app_distr",
                    "config": {"kind": "auto", "a": "list", "b": "New.list"},
                    "old": ["list"],
                    "rename": {"kind": "prefix", "value": "New."},
                }
            ],
        }
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(manifest))
        return str(path)

    def test_manifest_run_writes_report(self, tmp_path, capsys):
        from repro.service.cli import main

        report_path = tmp_path / "report.json"
        code = main(
            [
                self._manifest(tmp_path),
                "--jobs", "1",
                "--store", str(tmp_path / "store"),
                "--report", str(report_path),
            ]
        )
        assert code == 0
        table = capsys.readouterr().out
        assert "quickstart/rev_app_distr" in table
        assert "1 ok" in table
        report = json.loads(report_path.read_text())
        assert report["outcomes"][0]["status"] == STATUS_OK
        assert report["jobs"] == 1

    def test_second_run_is_all_cached(self, tmp_path, capsys):
        from repro.service.cli import main

        manifest = self._manifest(tmp_path)
        store = str(tmp_path / "store")
        assert main([manifest, "--jobs", "1", "--store", store]) == 0
        capsys.readouterr()
        assert main([manifest, "--jobs", "1", "--store", store]) == 0
        assert "1 cached" in capsys.readouterr().out

    def test_bad_manifest_is_a_usage_error(self, tmp_path, capsys):
        from repro.service.cli import main

        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert main([str(path), "--no-store"]) == 2
        assert "non-empty 'jobs'" in capsys.readouterr().err

    def test_manifest_and_six_cases_are_exclusive(self, tmp_path):
        from repro.service.cli import main

        with pytest.raises(SystemExit):
            main([self._manifest(tmp_path), "--six-cases"])
        with pytest.raises(SystemExit):
            main([])

    def test_failed_batch_exits_nonzero(self, tmp_path, capsys):
        from repro.service.cli import main

        code = main(
            [
                self._manifest(tmp_path),
                "--no-store",
                "--fault-plan",
                json.dumps({"rev_app_distr": {"0": "error"}}),
                "--retries", "0",
            ]
        )
        assert code == 1
        assert "1 failed" in capsys.readouterr().out


# -- The Repair Batch vernacular command -------------------------------------


class TestRepairBatchCommand:
    def test_cold_batch_repairs_in_dependency_order(self):
        from repro.cases.quickstart import setup_environment

        session = CommandSession(setup_environment())
        result = session.execute(
            "Repair Batch list New.list in rev_app_distr app_assoc prefix New"
        )
        assert "2 ok" in result.summary
        assert session.env.has_constant("New.rev_app_distr")
        assert session.env.has_constant("New.app_assoc")
        report = result.report
        assert [o.status for o in report.outcomes] == [STATUS_OK, STATUS_OK]
        # rev_app_distr depends on app_assoc: the edge must be inferred.
        assert report.outcome("rev_app_distr").job.after == ("app_assoc",)

    def test_warm_batch_replays_from_store(self, tmp_path):
        from repro.cases.quickstart import setup_environment

        store_dir = str(tmp_path)
        first = CommandSession(
            setup_environment(), store=ResultStore(store_dir)
        )
        first.execute("Repair Batch list New.list in rev_app_distr prefix New")
        second = CommandSession(
            setup_environment(), store=ResultStore(store_dir)
        )
        result = second.execute(
            "Repair Batch list New.list in rev_app_distr prefix New"
        )
        assert [o.status for o in result.report.outcomes] == [STATUS_CACHED]
        assert second.env.has_constant("New.rev_app_distr")
        # Replayed constants are usable by later commands.
        followup = second.execute("Decompile New.rev_app_distr")
        assert "New.rev_app_distr" in followup.text

    def test_failed_target_skips_dependents(self, monkeypatch):
        from repro.cases.quickstart import setup_environment

        monkeypatch.setenv(
            "REPRO_FAULT_PLAN",
            json.dumps({"app_assoc": {"0": "error", "1": "error", "2": "error"}}),
        )
        session = CommandSession(setup_environment())
        result = session.execute(
            "Repair Batch list New.list in rev_app_distr app_assoc prefix New"
        )
        statuses = {o.job.name: o.status for o in result.report.outcomes}
        assert statuses == {
            "app_assoc": STATUS_FAILED,
            "rev_app_distr": STATUS_SKIPPED,
        }

    def test_usage_errors(self):
        from repro.cases.quickstart import setup_environment

        session = CommandSession(setup_environment())
        with pytest.raises(CommandError, match="usage: Repair Batch"):
            session.execute("Repair Batch list New.list in prefix New")
        with pytest.raises(CommandError, match="usage: Repair Batch"):
            session.execute("Repair Batch list New.list")


class TestRunLineNumbers:
    def test_error_reports_script_line_number(self):
        from repro.cases.quickstart import setup_environment

        session = CommandSession(setup_environment())
        script = "\n".join(
            [
                "(* comment *)",
                "Configure list New.list",
                "",
                "Bogus command here",
            ]
        )
        with pytest.raises(CommandError, match=r"line 4: unknown command"):
            session.run(script)

    def test_clean_scripts_are_unaffected(self):
        from repro.cases.quickstart import setup_environment

        session = CommandSession(setup_environment())
        results = session.run(
            "(* setup *)\nConfigure list New.list\nRepair list New.list in app_nil_r\n"
        )
        assert len(results) == 2
