"""Impact-pruned scheduling: skips, soundness, CLI, vernacular.

The contract under test: pruning with a change-impact plan must never
change what a batch produces.  Certified-unaffected jobs complete as
``skipped-unaffected`` with evidence; everything else runs and yields
the byte-identical ``result_digest`` it would have without the plan;
and the ``--no-impact`` differential gate (:func:`verify_impact`)
catches any plan that lies.
"""

import dataclasses
import json

import pytest

from repro.analysis.impact import VERDICT_UNAFFECTED
from repro.service import (
    STATUS_SKIPPED_UNAFFECTED,
    BatchOptions,
    JobError,
    RepairJob,
    build_batch_impact,
    run_batch,
    verify_impact,
)
from repro.service.cli import main as service_main
from repro.service.job import LIVE_SETUP, result_digest
from repro.service.planner import MODE_CHECK, MODE_PRUNE, BatchImpact, _group_key
from repro.service.synth import (
    AFFECTED_TARGETS,
    CHAIN_LENGTH,
    SETUP,
    wide_jobs,
)


def _spec(job):
    """A job's re-parseable description (payload minus wire envelope)."""
    return {
        k: v
        for k, v in job.payload().items()
        if k not in ("key", "schema_version")
    }


def _respec(job, **overrides):
    return RepairJob.from_dict(dict(_spec(job), **overrides), where="test")


@pytest.fixture(scope="module")
def wide_batch():
    jobs = wide_jobs()
    return jobs, build_batch_impact(jobs)


class TestBatchImpact:
    def test_skippable_only_for_certified_unaffected(self, wide_batch):
        jobs, impact = wide_batch
        by_target = {job.target: job for job in jobs}
        evidence = impact.skippable(by_target["wide.d0"])
        assert evidence is not None
        assert evidence["verdict"] == VERDICT_UNAFFECTED
        assert evidence["code"] == "RA401"
        assert len(evidence["plan_digest"]) == 64
        assert len(evidence["evidence_digest"]) == 64
        for target in AFFECTED_TARGETS:
            assert impact.skippable(by_target[target]) is None

    def test_stale_fingerprint_refuses_the_plan(self, wide_batch):
        jobs, impact = wide_batch
        job = jobs[0]
        stale = _respec(job, env_fingerprint="stale")
        # The honest lookup misses (group key includes the fingerprint)...
        assert impact.plan_for(stale) is None
        # ...and even a plan filed under the stale job's key is refused
        # when its recorded fingerprint disagrees.
        plan = impact.plan_for(job)
        forged = BatchImpact({_group_key(stale): plan})
        assert forged.plan_for(stale) is None
        assert forged.skippable(stale) is None

    def test_live_jobs_need_the_session_environment(self, wide_batch):
        jobs, _ = wide_batch
        live = _respec(jobs[0], setup=LIVE_SETUP)
        with pytest.raises(JobError, match="session environment"):
            build_batch_impact([live])

    def test_digests_map_setup_to_plan(self, wide_batch):
        jobs, impact = wide_batch
        digests = impact.digests()
        assert set(digests) == {jobs[0].setup}
        assert digests[jobs[0].setup] == impact.plan_for(jobs[0]).digest


class TestSchedulerPrune:
    def test_pruned_batch_skips_exactly_the_certified_jobs(
        self, wide_batch
    ):
        jobs, impact = wide_batch
        report = run_batch(
            jobs, BatchOptions(jobs=1, backoff_s=0.0, impact=impact)
        )
        assert report.ok
        assert report.counts == {
            STATUS_SKIPPED_UNAFFECTED: CHAIN_LENGTH,
            "ok": len(AFFECTED_TARGETS),
        }
        for outcome in report.outcomes:
            if outcome.status == STATUS_SKIPPED_UNAFFECTED:
                assert outcome.impact["code"] == "RA401"
                assert outcome.result is None
                assert outcome.to_dict()["impact"] == outcome.impact
            else:
                assert outcome.job.target in AFFECTED_TARGETS

    def test_pruning_never_changes_surviving_outputs(self, wide_batch):
        jobs, impact = wide_batch
        full = run_batch(jobs, BatchOptions(jobs=1, backoff_s=0.0))
        pruned = run_batch(
            jobs, BatchOptions(jobs=1, backoff_s=0.0, impact=impact)
        )
        full_digests = {
            o.job.name: result_digest(o.result) for o in full.outcomes
        }
        for outcome in pruned.outcomes:
            if outcome.status == STATUS_SKIPPED_UNAFFECTED:
                continue
            assert (
                result_digest(outcome.result)
                == full_digests[outcome.job.name]
            )

    def test_dependents_of_skipped_jobs_still_run(self, wide_batch):
        jobs, impact = wide_batch
        by_target = {job.target: job for job in jobs}
        chained = _respec(
            by_target["rev"],
            name="wide/rev-after-skip",
            after=["wide/wide.d0"],
        )
        report = run_batch(
            [by_target["wide.d0"], chained],
            BatchOptions(jobs=1, backoff_s=0.0, impact=impact),
        )
        assert report.outcome("wide/wide.d0").status == (
            STATUS_SKIPPED_UNAFFECTED
        )
        assert report.outcome("wide/rev-after-skip").status == "ok"


class TestDifferentialGate:
    def test_forced_run_of_sound_plan_has_no_violations(self, wide_batch):
        jobs, impact = wide_batch
        full = run_batch(jobs, BatchOptions(jobs=1, backoff_s=0.0))
        assert verify_impact(full, impact) == []

    def test_lying_plan_is_caught(self, wide_batch):
        jobs, impact = wide_batch
        full = run_batch(jobs, BatchOptions(jobs=1, backoff_s=0.0))
        plan = impact.plan_for(jobs[0])
        entry = plan.entries["wide.d0"]
        plan.entries["wide.d0"] = dataclasses.replace(
            entry, term_digest="0" * 64
        )
        violations = verify_impact(full, impact)
        assert len(violations) == 1
        assert "wide.d0" in violations[0]
        assert "term" in violations[0]
        plan.entries["wide.d0"] = entry

    def test_six_case_batch_plan_is_sound(self):
        from repro.service.cases import six_case_jobs

        jobs = six_case_jobs()
        impact = build_batch_impact(jobs)
        full = run_batch(jobs, BatchOptions(jobs=1, backoff_s=0.0))
        assert full.ok
        assert verify_impact(full, impact) == []


class TestServiceCli:
    def _manifest(self, tmp_path):
        jobs = wide_jobs()
        path = tmp_path / "wide.json"
        path.write_text(
            json.dumps(
                {"batch": "wide",
                 "jobs": [_spec(job) for job in jobs]}
            )
        )
        return str(path)

    def test_impact_flag_prunes_and_reports(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = service_main(
            [
                self._manifest(tmp_path),
                "--no-store",
                "--jobs", "1",
                "--impact",
                "--impact-store", str(tmp_path / "plans"),
                "--report", str(report_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        document = json.loads(report_path.read_text())
        assert document["counts"][STATUS_SKIPPED_UNAFFECTED] == CHAIN_LENGTH
        assert document["impact"]["mode"] == MODE_PRUNE
        assert document["impact"]["violations"] == []
        assert set(document["impact"]["plans"]) == {SETUP}

    def test_no_impact_flag_runs_everything_and_verifies(
        self, tmp_path, capsys
    ):
        report_path = tmp_path / "report.json"
        code = service_main(
            [
                self._manifest(tmp_path),
                "--no-store",
                "--jobs", "1",
                "--no-impact",
                "--impact-store", str(tmp_path / "plans"),
                "--report", str(report_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        document = json.loads(report_path.read_text())
        assert STATUS_SKIPPED_UNAFFECTED not in document["counts"]
        assert document["counts"]["ok"] == CHAIN_LENGTH + len(
            AFFECTED_TARGETS
        )
        assert document["impact"]["mode"] == MODE_CHECK
        assert document["impact"]["violations"] == []

    def test_flags_are_mutually_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            service_main(
                [self._manifest(tmp_path), "--impact", "--no-impact"]
            )
        capsys.readouterr()


class TestRepairBatchCommand:
    def _session(self):
        from repro.cases.quickstart import setup_environment
        from repro.commands import CommandSession

        return CommandSession(setup_environment())

    def test_trailing_impact_token_prunes_unaffected_targets(self):
        session = self._session()
        result = session.execute(
            "Repair Batch list New.list in add rev impact"
        )
        assert result.report.counts == {
            "ok": 1,
            STATUS_SKIPPED_UNAFFECTED: 1,
        }
        assert result.report.outcome("add").status == (
            STATUS_SKIPPED_UNAFFECTED
        )
        assert [r.old_name for r in result.results] == ["rev"]
        assert "1 skipped-unaffected" in result.summary

    def test_trailing_no_impact_token_runs_and_verifies(self):
        session = self._session()
        result = session.execute(
            "Repair Batch list New.list in add rev no-impact"
        )
        assert result.report.counts == {"ok": 2}
