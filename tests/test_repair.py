"""The Repair / Repair module commands (Figure 6 workflows)."""

import pytest

from repro.core import RepairError, RepairSession, configure, repair, repair_module
from repro.core.search.swap import swap_configuration
from repro.kernel import Const, Context, check, mentions_global, typecheck_closed
from repro.kernel.pretty import pretty
from repro.stdlib import declare_list_type, make_env
from repro.syntax.parser import parse


def fresh_env():
    env = make_env(lists=True, vectors=False)
    declare_list_type(env, "New.list", swapped=True)
    return env


def _new_session(env):
    """A ``list ~= New.list`` session renaming into ``New.``."""
    config = swap_configuration(env, "list", "New.list")
    return RepairSession(
        env, config, old_globals=["list"], rename=lambda n: f"New.{n}"
    )


class TestRepairSingle:
    def test_repair_defines_new_constant(self):
        env = fresh_env()
        config = swap_configuration(env, "list", "New.list")
        result = repair(
            env, config, "app", old_globals=["list"],
            rename=lambda n: f"New.{n}",
        )
        assert result.new_name == "New.app"
        assert env.has_constant("New.app")
        assert not mentions_global(result.term, "list")

    def test_repair_pulls_dependencies(self):
        env = fresh_env()
        config = swap_configuration(env, "list", "New.list")
        session = RepairSession(
            env, config, old_globals=["list"], rename=lambda n: f"New.{n}"
        )
        session.repair_constant("rev_app_distr")
        assert set(session.results) >= {
            "app", "rev", "app_assoc", "app_nil_r", "rev_app_distr"
        }

    def test_repaired_proofs_check_against_repaired_statements(self):
        env = fresh_env()
        config = swap_configuration(env, "list", "New.list")
        session = RepairSession(
            env, config, old_globals=["list"], rename=lambda n: f"New.{n}"
        )
        result = session.repair_constant("rev_app_distr")
        check(env, Context.empty(), result.term, result.type)

    def test_repair_term_api(self):
        env = fresh_env()
        config = swap_configuration(env, "list", "New.list")
        session = RepairSession(env, config, old_globals=["list"])
        out = session.repair_term(parse(env, "list.cons nat 1 (list.nil nat)"))
        assert not mentions_global(out, "list")

    def test_repair_term_repairs_what_the_term_mentions_first(self):
        # ``rev``'s body calls ``app``: transformed before ``app`` was
        # repaired, it kept ``app`` and failed to check.
        env = fresh_env()
        session = _new_session(env)
        out = session.repair_term(env.constant("rev").body)
        assert "app" in session.results
        fresh = _new_session(fresh_env()).repair_constant("rev")
        assert pretty(out) == pretty(fresh.term)

    def test_repair_term_leaves_the_session_cache_sound(self):
        # The entries ``repair_term`` stores are the ones a later repair
        # of the same constant reads from the session's cache.
        env = fresh_env()
        session = _new_session(env)
        session.repair_term(env.constant("rev").body)
        result = session.repair_constant("rev")
        fresh = _new_session(fresh_env()).repair_constant("rev")
        assert (pretty(result.term), pretty(result.type)) == (
            pretty(fresh.term),
            pretty(fresh.type),
        )

    def test_repair_bodyless_constant_fails(self):
        env = fresh_env()
        env.assume("ax", parse(env, "list nat"))
        config = swap_configuration(env, "list", "New.list")
        session = RepairSession(env, config, old_globals=["list"])
        with pytest.raises(RepairError):
            session.repair_constant("ax")


class TestRepairModule:
    def test_module_covers_all_dependents(self):
        env = fresh_env()
        config = swap_configuration(env, "list", "New.list")
        results = repair_module(
            env, config, old_globals=["list"], rename=lambda n: f"New.{n}"
        )
        repaired = {r.old_name for r in results}
        assert {
            "app", "rev", "length", "app_nil_r", "app_assoc",
            "rev_app_distr", "zip", "zip_with", "zip_with_is_zip",
        } <= repaired

    def test_recursors_are_skipped(self):
        env = fresh_env()
        config = swap_configuration(env, "list", "New.list")
        results = repair_module(
            env, config, old_globals=["list"], rename=lambda n: f"New.{n}"
        )
        assert all(not r.old_name.endswith("_rect") for r in results)

    def test_remove_old_after_module_repair(self):
        env = fresh_env()
        config = swap_configuration(env, "list", "New.list")
        session = RepairSession(
            env, config, old_globals=["list"], rename=lambda n: f"New.{n}"
        )
        session.repair_module()
        session.remove_old()
        assert not env.has_inductive("list")
        assert not env.has_constant("list_rect")
        # Everything repaired still checks after removal.
        for result in session.results.values():
            typecheck_closed(env, Const(result.new_name))


class TestConfigureDispatcher:
    def test_dispatch_swap(self):
        env = fresh_env()
        config = configure(env, "list", "New.list")
        assert config.equivalence is not None

    def test_dispatch_ornament(self):
        env = make_env(lists=True, vectors=True)
        config = configure(env, "list", "vector", prove=False)
        assert config.b.n_constrs == 2

    def test_dispatch_records(self):
        from repro.kernel import Ind
        from repro.stdlib import declare_record

        env = make_env(lists=False, vectors=False)
        env.define("PairT", parse(env, "prod nat bool"))
        declare_record(
            env, "Rec", [("first", Ind("nat")), ("second", Ind("bool"))]
        )
        config = configure(env, "PairT", "Rec")
        assert config.equivalence is not None

    def test_dispatch_failure_is_informative(self):
        from repro.core import ConfigError

        env = fresh_env()
        with pytest.raises(ConfigError):
            configure(env, "nat", "bool")
