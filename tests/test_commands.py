"""The command front end (the plugin's vernacular surface)."""

import pytest

from repro.commands import CommandError, CommandSession
from repro.kernel.pretty import pretty
from repro.kernel.term import mentions_global
from repro.service.cases import replica_env
from repro.stdlib import declare_list_type, make_env


@pytest.fixture()
def session():
    env = make_env(lists=True, vectors=False)
    declare_list_type(env, "New.list", swapped=True)
    return CommandSession(env)


class TestRepairCommand:
    def test_repair_in(self, session):
        result = session.execute("Repair list New.list in rev_app_distr.")
        assert result.results[0].old_name == "rev_app_distr"
        assert session.env.has_constant("rev_app_distr'")

    def test_repair_as(self, session):
        result = session.execute(
            "Repair list New.list in app as New.app."
        )
        assert result.results[0].new_name == "New.app"

    def test_repair_reuses_configuration(self, session):
        session.execute("Configure list New.list")
        config_before = session._configs[("list", "New.list")]
        session.execute("Repair list New.list in app as A1")
        assert session._configs[("list", "New.list")] is config_before

    def test_usage_error(self, session):
        with pytest.raises(CommandError):
            session.execute("Repair list New.list rev_app_distr")

    def test_each_type_pair_repairs_through_its_own_cache(self, session):
        # A second equivalence out of ``list``: a transformed-subterm
        # cache shared with the first pair would hand ``appO`` the
        # ``New.list`` type the first pair's entries carry.
        declare_list_type(session.env, "Other.list", swapped=True)
        session.execute("Repair list New.list in app as appN")
        session.execute("Repair list Other.list in app as appO")
        env = make_env(lists=True, vectors=False)
        declare_list_type(env, "Other.list", swapped=True)
        CommandSession(env).execute("Repair list Other.list in app as appO")
        warm, fresh = session.env.constant("appO"), env.constant("appO")
        assert pretty(warm.type) == pretty(fresh.type)
        assert pretty(warm.body) == pretty(fresh.body)
        assert mentions_global(warm.type, "Other.list")

    def test_a_later_command_gets_its_own_rename(self, session):
        # The first command's session names with a prime; a module
        # repair that asks for ``P.`` must get it, as a fresh session
        # does, not reuse the first session and its rename.
        session.execute("Repair list New.list in app as appN")
        warm = session.execute("Repair module list New.list prefix P")
        env = make_env(lists=True, vectors=False)
        declare_list_type(env, "New.list", swapped=True)
        fresh = CommandSession(env).execute(
            "Repair module list New.list prefix P"
        )
        assert _repaired(warm) == _repaired(fresh)
        assert session.env.has_constant("P.rev")
        assert not session.env.has_constant("rev'")

    def test_each_rename_starts_from_the_built_const_map(self, session):
        # The module repair maps ``app``, ``rev`` and the rest to their
        # ``P.`` names in its session; a later command with the prime
        # rename must repair them again under its own names, as a fresh
        # session does, not build its result over the ``P.`` constants.
        session.execute("Repair module list New.list prefix P")
        warm = session.execute("Repair list New.list in rev_app_distr as R")
        env = make_env(lists=True, vectors=False)
        declare_list_type(env, "New.list", swapped=True)
        fresh = CommandSession(env).execute(
            "Repair list New.list in rev_app_distr as R"
        )
        assert _repaired(warm) == _repaired(fresh)
        body = session.env.constant("R").body
        assert mentions_global(body, "app'")
        assert not mentions_global(body, "P.app")
        assert warm.config is session._configs[("list", "New.list")]

    def test_configure_replaces_the_pairs_sessions(self):
        # ``eval`` repairs differently under this mapping than under the
        # one ``Repair`` finds: a session kept from before ``Configure``
        # would repair (or return) it with the old configuration.
        configure = "Configure Old.Term New0.Term mapping 0 2 1 4 3 5 6"
        repair = "Repair Old.Term New0.Term in eval as EV"
        session = CommandSession(replica_env())
        session.execute("Repair Old.Term New0.Term in eval as EV0")
        session.execute(configure)
        warm = session.execute(repair)
        fresh_session = CommandSession(replica_env())
        fresh_session.execute(configure)
        fresh = fresh_session.execute(repair)
        assert _repaired(warm) == _repaired(fresh)
        assert warm.config is session._configs[("Old.Term", "New0.Term")]


def _repaired(result):
    """What a repair command defined, printed."""
    return [
        (r.old_name, r.new_name, pretty(r.term), pretty(r.type))
        for r in result.results
    ]


class TestModuleAndLifecycle:
    def test_repair_module_with_prefix(self, session):
        result = session.execute("Repair module list New.list prefix New")
        assert len(result.results) >= 10
        assert session.env.has_constant("New.rev_app_distr")

    def test_remove(self, session):
        session.execute("Repair module list New.list prefix New")
        session.execute("Remove list")
        assert not session.env.has_inductive("list")
        assert not session.env.has_constant("list_rect")

    def test_batch_script(self, session):
        results = session.run(
            """
            (* the Section 2 workflow as a script *)
            Configure list New.list
            Repair list New.list in rev_app_distr as New.rev_app_distr
            Decompile New.rev_app_distr
            """
        )
        assert len(results) == 3
        assert "induction" in results[-1].text


class TestDecompileReplay:
    def test_decompile_command(self, session):
        session.execute("Repair list New.list in rev_app_distr as R")
        result = session.execute("Decompile R")
        assert result.text.startswith("(* R *)")
        assert "Qed." in result.text

    def test_replay_command(self, session):
        session.execute("Repair list New.list in rev_app_distr as R")
        result = session.execute("Replay R")
        assert "replays and checks" in result.summary

    def test_decompile_unknown(self, session):
        with pytest.raises(Exception):
            session.execute("Decompile missing_constant")


class TestConfigure:
    def test_configure_with_mapping(self, session):
        result = session.execute("Configure list New.list mapping 1 0")
        assert tuple(result.config.b.perm) == (1, 0)

    def test_unknown_command(self, session):
        with pytest.raises(CommandError):
            session.execute("Frobnicate list")

    def test_history_accumulates(self, session):
        session.execute("Configure list New.list")
        session.execute("Repair list New.list in app as A2")
        assert len(session.history) == 2


class TestAnalyze:
    def test_analyze_whole_environment(self, session):
        result = session.execute("Analyze")
        assert result.summary.startswith("analyzed environment: 0 error(s)")
        assert result.text is None

    def test_analyze_one_constant(self, session):
        result = session.execute("Analyze rev_app_distr")
        assert result.summary.startswith("analyzed rev_app_distr: 0 error(s)")

    def test_analyze_reports_findings(self, session):
        from repro.kernel import Const, Sort

        session.env.assume("loose", Sort(1))
        session.env.assume("dangling", Const("loose"))
        session.env.remove("loose")
        result = session.execute("Analyze dangling")
        assert "1 error(s)" in result.summary
        assert "RA003" in result.text

    def test_analyze_usage_error(self, session):
        with pytest.raises(CommandError):
            session.execute("Analyze two names")
