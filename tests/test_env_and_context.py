"""Environments, contexts, and the populated-environment invariants."""

import pytest

from repro.kernel import (
    App,
    Constr,
    Context,
    EnvError,
    Environment,
    Ind,
    Lam,
    PROP,
    Rel,
    SET,
    TermError,
    TypeError_,
    check,
)
from repro.stdlib import make_env
from repro.stdlib.natlib import declare_nat
from repro.stdlib.prelude import declare_prelude
from repro.syntax.parser import parse


class TestEnvironment:
    def test_declaration_order_is_recorded(self):
        env = Environment()
        declare_prelude(env)
        order = env.declaration_order()
        assert order.index("unit") < order.index("eq")

    def test_recursors_are_auto_generated(self):
        env = Environment()
        declare_prelude(env)
        declare_nat(env)
        assert env.has_constant("nat_rect")
        assert env.has_constant("eq_rect")

    def test_duplicate_inductive_rejected(self):
        env = Environment()
        declare_prelude(env)
        with pytest.raises(EnvError):
            declare_prelude(env)

    def test_unknown_lookups_raise(self):
        env = Environment()
        with pytest.raises(EnvError):
            env.constant("missing")
        with pytest.raises(EnvError):
            env.inductive("missing")

    def test_remove_deletes_globals(self):
        env = Environment()
        declare_prelude(env)
        declare_nat(env)
        env.remove("nat")
        env.remove("nat_rect")
        assert not env.has_inductive("nat")
        assert not env.has_constant("nat_rect")

    def test_define_with_wrong_type_rejected(self):
        env = Environment()
        declare_prelude(env)
        declare_nat(env)
        with pytest.raises(TermError):
            env.define(
                "broken",
                parse(env, "S O"),
                type=parse(env, "bool"),
            )

    def test_define_with_an_ill_formed_type_rejected(self):
        # bad : (fun (x : nat) => nat) true := O.  The declared type
        # applies a nat-domain function to a bool, so it is no type at
        # all, although nothing about the body refutes it.
        env = Environment()
        declare_prelude(env)
        declare_nat(env)
        bad_type = App(Lam("x", Ind("nat"), Ind("nat")), Constr("bool", 0))
        with pytest.raises(TypeError_):
            env.define("bad", Constr("nat", 0), type=bad_type)
        assert not env.has_constant("bad")

    def test_assume_declares_axiom(self):
        env = Environment()
        declare_prelude(env)
        decl = env.assume("some_prop", PROP)
        assert decl.body is None
        assert not decl.unfoldable

    def test_opaque_constants_do_not_unfold(self):
        env = Environment()
        declare_prelude(env)
        declare_nat(env)
        env.define("sealed", parse(env, "2"), opaque=True)
        from repro.kernel import Const, nf

        assert nf(env, Const("sealed")) == Const("sealed")

    def test_a_fork_lacks_later_declarations_until_made_again(
        self, kernel_caches_on
    ):
        from repro.kernel import KERNEL_STATS, nf, typecheck_closed

        env = Environment()
        declare_prelude(env)
        declare_nat(env)
        nf(env, parse(env, "S (S O)"))  # populate the reduction cache
        order = env.declaration_order()
        kept = env.fork()
        two = env.define("two", parse(env, "2"))
        four = env.define("four", parse(env, "4"))
        probe = parse(env, "S four")
        five = nf(env, probe)  # verdicts mentioning 'four'
        typecheck_closed(env, probe)
        assert not kept.has_constant("two")
        assert not kept.has_constant("four")
        assert kept.declaration_order() == order
        # What was derived over 'four' stays out of the fork: the probe
        # fails the way it fails in an environment that never cached
        # anything.
        with pytest.raises(EnvError):
            nf(kept, probe)
        with pytest.raises(EnvError):
            typecheck_closed(kept, probe)
        # Declaring the same objects in the fork reaches the same
        # declaration state: both verdicts are hits.
        kept.define("two", two.body, two.type)
        kept.define("four", four.body, four.type)
        misses = {
            name: KERNEL_STATS.counter(name).misses for name in ("nf", "infer")
        }
        assert nf(kept, probe) is five
        typecheck_closed(kept, probe)
        assert misses == {
            name: KERNEL_STATS.counter(name).misses for name in ("nf", "infer")
        }

    def test_one_name_declared_differently_shares_no_verdict(self):
        e1 = make_env(lists=False, vectors=False)
        e2 = make_env(lists=False, vectors=False)
        e1.define("foo", parse(e1, "O"))
        check(
            e1,
            Context.empty(),
            parse(e1, "eq_refl nat O"),
            parse(e1, "eq nat foo O"),
        )
        e2.define("foo", parse(e2, "S O"))
        # e1's cached verdict on ``foo`` must not reach e2's checker.
        with pytest.raises(TypeError_):
            e2.define(
                "bogus", parse(e2, "eq_refl nat O"), parse(e2, "eq nat foo O")
            )


class TestFork:
    def _base(self):
        env = Environment()
        declare_prelude(env)
        declare_nat(env)
        env.define("two", parse(env, "2"))
        return env

    def test_fork_shares_declarations_by_identity(self):
        base = self._base()
        fork = base.fork()
        assert fork.declaration_order() == base.declaration_order()
        assert fork.constant("two") is base.constant("two")
        assert fork.inductive("nat") is base.inductive("nat")
        assert fork.reduction_cache.size == base.reduction_cache.size

    def test_remove_in_a_fork_leaves_the_base_intact(self):
        base = self._base()
        order = base.declaration_order()
        fork = base.fork()
        fork.remove("two")
        fork.define("three", parse(fork, "3"))
        assert not fork.has_constant("two")
        assert base.declaration_order() == order
        assert base.has_constant("two")
        assert not base.has_constant("three")

    def test_declaration_refs_follow_each_environments_declarations(self):
        # The memo is keyed by the declaration state: a fork starts on
        # its source's, and every declaration or remove leaves it.
        base = self._base()
        refs = base.declaration_refs()
        assert base.declaration_refs() is refs
        fork = base.fork()
        assert fork.declaration_refs() is refs
        fork.define("four", parse(fork, "S (S two)"))
        assert "two" in fork.declaration_refs()["four"]
        assert "four" not in base.declaration_refs()
        fork.remove("four")
        assert "four" not in fork.declaration_refs()
        assert fork.declaration_refs() == refs


class TestContext:
    def test_type_of_lifts(self):
        ctx = Context.empty().push("A", SET).push("x", Rel(0))
        # x : A, where A sits one binder below.
        assert ctx.type_of(0) == Rel(1)
        assert ctx.type_of(1) == SET

    def test_out_of_range(self):
        with pytest.raises(TermError):
            Context.empty().type_of(0)

    def test_fresh_name_avoids_collisions(self):
        ctx = Context.empty().push("x", SET).push("x0", SET)
        assert ctx.fresh_name("x") not in ("x", "x0")

    def test_name_of_out_of_range_is_placeholder(self):
        assert Context.empty().name_of(3).startswith("_rel")

    def test_iteration_order_is_innermost_first(self):
        ctx = Context.empty().push("outer", SET).push("inner", SET)
        names = [name for name, _ in ctx]
        assert names == ["inner", "outer"]
