"""Change-impact plans: verdicts, evidence chains, the store, the CLI.

The verdict lattice is the contract the service scheduler relies on:
only ``unaffected`` (RA401) licenses skipping a job, and an unaffected
entry's digests must match what a force-run worker would produce (the
differential gate in :mod:`repro.service.planner` compares them byte
for byte).
"""

import json

import pytest

from repro.analysis.impact import (
    PLAN_SCHEMA_VERSION,
    VERDICT_OPAQUE,
    VERDICT_SIGNATURE,
    VERDICT_TRANSPORT,
    VERDICT_UNAFFECTED,
    ImpactEntry,
    ImpactError,
    PlanStore,
    RepairPlan,
    _six_case_setups,
    build_plan,
    ensure_plan,
    main,
    plan_key,
)
from repro.cases.quickstart import setup_environment
from repro.service.synth import CHAIN_LENGTH, SETUP, wide_env
from repro.syntax.parser import parse

OLD = ("list",)


class TestVerdicts:
    def test_quickstart_classification(self):
        plan = build_plan(setup_environment(), OLD)
        assert plan.verdict("list") == VERDICT_TRANSPORT
        assert plan.entries["list"].chain == ("list",)
        assert plan.verdict("rev") == VERDICT_TRANSPORT
        assert plan.verdict("nat") == VERDICT_UNAFFECTED
        assert plan.verdict("add") == VERDICT_UNAFFECTED
        assert plan.entries["add"].chain == ()

    def test_chains_are_wellformed_reference_paths(self):
        env = wide_env()
        refs = env.declaration_refs()
        plan = build_plan(env, OLD)
        chained = [e for e in plan.entries.values() if len(e.chain) > 1]
        assert chained
        for entry in chained:
            assert entry.chain[0] == entry.name
            assert entry.chain[-1] in OLD
            for here, there in zip(entry.chain, entry.chain[1:]):
                assert there in refs[here]

    def test_wide_chain_is_certified_unaffected(self):
        plan = build_plan(wide_env(), OLD)
        for i in range(CHAIN_LENGTH):
            assert plan.verdict(f"wide.d{i}") == VERDICT_UNAFFECTED
        counts = plan.counts()
        assert counts[VERDICT_UNAFFECTED] >= CHAIN_LENGTH
        assert counts[VERDICT_TRANSPORT] >= 1

    def test_bodyless_type_mention_is_signature_only(self):
        env = setup_environment()
        env.assume("sig_probe", parse(env, "list nat"))
        plan = build_plan(env, OLD)
        entry = plan.entries["sig_probe"]
        assert entry.verdict == VERDICT_SIGNATURE
        assert entry.term_digest is None

    def test_opaque_constant_reaching_change_is_never_certified(self):
        env = setup_environment()
        env.define("opaque_probe", parse(env, "rev"), opaque=True)
        plan = build_plan(env, OLD)
        assert plan.verdict("opaque_probe") == VERDICT_OPAQUE

    def test_allowed_configuration_constant_is_opaque(self):
        plan = build_plan(setup_environment(), OLD, allow=("rev",))
        entry = plan.entries["rev"]
        assert entry.verdict == VERDICT_OPAQUE
        assert "bridges" in entry.reason


class TestPlanArtifact:
    def _plan(self):
        return build_plan(
            wide_env(), OLD, fingerprint="deadbeef"
        )

    def test_digest_is_deterministic_and_content_addressed(self):
        a, b = self._plan(), self._plan()
        assert a.digest == b.digest
        shifted = build_plan(
            wide_env(), OLD, fingerprint="cafebabe"
        )
        assert shifted.digest != a.digest

    def test_roundtrip_preserves_digest_and_entries(self):
        plan = self._plan()
        restored = RepairPlan.from_dict(
            json.loads(json.dumps(plan.to_dict()))
        )
        assert restored.digest == plan.digest
        assert restored.entries.keys() == plan.entries.keys()
        assert restored.fingerprint == "deadbeef"

    def test_tampered_artifact_is_rejected(self):
        raw = self._plan().to_dict()
        raw["entries"][0]["verdict"] = VERDICT_TRANSPORT
        with pytest.raises(ImpactError, match="digest mismatch"):
            RepairPlan.from_dict(raw)

    def test_unknown_schema_is_rejected(self):
        raw = self._plan().to_dict()
        raw["schema_version"] = PLAN_SCHEMA_VERSION + 1
        with pytest.raises(ImpactError, match="schema"):
            RepairPlan.from_dict(raw)

    def test_entry_validates_verdict_and_kind(self):
        with pytest.raises(ImpactError, match="verdict"):
            ImpactEntry(
                name="x",
                kind="constant",
                verdict="maybe",
                chain=(),
                reason="",
                def_digest="0",
            )
        with pytest.raises(ImpactError, match="kind"):
            ImpactEntry(
                name="x",
                kind="module",
                verdict=VERDICT_UNAFFECTED,
                chain=(),
                reason="",
                def_digest="0",
            )

    def test_report_and_render_carry_codes(self):
        plan = self._plan()
        codes = {d.code for d in plan.to_report().diagnostics}
        assert "RA401" in codes and "RA403" in codes
        rendering = plan.render()
        assert plan.digest[:12] in rendering
        assert "unaffected" in rendering
        # Unaffected entries are counted but not listed line by line.
        assert "wide.d0" not in rendering


class TestPlanStore:
    def test_roundtrip_and_counters(self, tmp_path):
        store = PlanStore(str(tmp_path))
        plan = build_plan(wide_env(), OLD, fingerprint="fp")
        key = plan_key("fp", OLD)
        assert store.get(key) is None
        store.put(key, plan)
        cached = store.get(key)
        assert cached is not None and cached.digest == plan.digest
        assert (store.hits, store.misses) == (1, 1)

    def test_corrupt_artifact_is_a_miss(self, tmp_path):
        store = PlanStore(str(tmp_path))
        plan = build_plan(wide_env(), OLD, fingerprint="fp")
        key = plan_key("fp", OLD)
        store.put(key, plan)
        (tmp_path / f"{key}.json").write_text("{not json")
        assert store.get(key) is None

    def test_key_tracks_fingerprint_old_and_allow(self):
        base = plan_key("fp", OLD)
        assert base == plan_key("fp", OLD)
        assert base != plan_key("fp2", OLD)
        assert base != plan_key("fp", ("vector",))
        assert base != plan_key("fp", OLD, allow=("rev",))

    def test_ensure_plan_builds_env_only_on_miss(self, tmp_path):
        store = PlanStore(str(tmp_path))
        calls = []

        def factory():
            calls.append(1)
            return wide_env()

        first = ensure_plan("fp", OLD, factory, store=store)
        second = ensure_plan("fp", OLD, factory, store=store)
        assert first.digest == second.digest
        assert len(calls) == 1


class TestCli:
    def test_json_plan_for_a_setup(self, capsys):
        assert main(
            ["--setup", SETUP, "--old", "list", "--no-store",
             "--json", "-"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        (entry,) = document["plans"]
        assert entry["setup"] == SETUP
        assert entry["counts"][VERDICT_UNAFFECTED] >= CHAIN_LENGTH

    def test_sarif_rendering(self, tmp_path, capsys):
        out = tmp_path / "impact.sarif"
        assert main(
            ["--setup", SETUP, "--old", "list", "--no-store",
             "--sarif", str(out)]
        ) == 0
        capsys.readouterr()
        sarif = json.loads(out.read_text())
        assert sarif["version"] == "2.1.0"
        (run,) = sarif["runs"]
        rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"RA401", "RA402", "RA403", "RA404"} <= rules
        assert run["results"]
        levels = {r["level"] for r in run["results"]}
        assert "note" in levels

    def test_setup_requires_old(self, capsys):
        with pytest.raises(SystemExit):
            main(["--setup", SETUP])
        capsys.readouterr()

    def test_store_reuse_across_invocations(self, tmp_path, capsys):
        argv = [
            "--setup", SETUP, "--old", "list",
            "--store-dir", str(tmp_path), "--json", "-",
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert list(tmp_path.glob("*.json"))


def test_six_case_setups_are_the_expected_shape():
    setups = _six_case_setups()
    assert len(setups) >= 6
    for setup, old, allow in setups:
        assert ":" in setup
        assert old
