"""Pretty printer edge cases."""

from repro.analysis import check_term
from repro.kernel import (
    App,
    Constr,
    Elim,
    Ind,
    Lam,
    PROP,
    Rel,
    SET,
    pretty,
    type_sort,
)
from repro.kernel.context import Context
from repro.syntax.parser import parse


class TestAtoms:
    def test_sorts(self, env_basic):
        assert pretty(PROP) == "Prop"
        assert pretty(SET) == "Set"
        assert pretty(type_sort(2)) == "Type2"

    def test_unbound_rel_placeholder(self):
        assert pretty(Rel(0)).startswith("_rel")

    def test_negative_rel_takes_no_binder_name(self, env_basic):
        # A negative index is free under any number of binders, so it
        # neither borrows an enclosing binder's name nor indexes past
        # the names in scope.
        assert pretty(Lam("y", Ind("nat"), Rel(-1))) == "fun (y : nat) => _rel-2"
        bad = Elim("nat", Rel(-1), (Constr("nat", 0),), Constr("nat", 0))
        diags = check_term(env_basic, bad)
        assert sorted(d.code for d in diags) == ["RA001", "RA006"]
        assert "_rel" in next(d.rendering for d in diags if d.code == "RA006")

    def test_context_names(self):
        ctx = Context.empty().push("n", SET)
        assert pretty(Rel(0), ctx=ctx) == "n"


class TestConstructorNaming:
    def test_unambiguous_name(self, env_basic):
        assert pretty(Constr("nat", 1), env=env_basic) == "S"

    def test_ambiguous_name_qualifies(self):
        from repro.stdlib import declare_list_type, make_env

        env = make_env(lists=True, vectors=False)
        declare_list_type(env, "New.list", swapped=True)
        rendered = pretty(Constr("New.list", 0), env=env)
        assert rendered == "New.list.cons"

    def test_without_env_uses_indices(self, env_basic):
        assert pretty(Constr("nat", 1)) == "nat#1"


class TestStructures:
    def test_nondependent_pi_is_arrow(self, env_basic):
        term = parse(env_basic, "nat -> nat")
        assert pretty(term, env=env_basic) == "nat -> nat"

    def test_dependent_pi_is_forall(self, env_basic):
        term = parse(env_basic, "forall (n : nat), eq nat n n")
        assert pretty(term, env=env_basic).startswith("forall (n : nat)")

    def test_binder_collision_freshens(self, env_basic):
        # Two nested binders with the same hint get distinct names.
        term = Lam("x", SET, Lam("x", SET, App(Rel(0), Rel(1))))
        rendered = pretty(term)
        assert "x" in rendered and "x0" in rendered

    def test_elim_prints_parseable_form(self, env_basic):
        term = parse(
            env_basic,
            "Elim[nat](O; fun (_ : nat) => nat){ O, fun (p IH : nat) => p }",
        )
        rendered = pretty(term, env=env_basic)
        assert rendered.startswith("Elim[nat](")
        assert parse(env_basic, rendered) == term

    def test_application_parenthesization(self, env_basic):
        term = parse(env_basic, "S (S O)")
        assert pretty(term, env=env_basic) == "S (S O)"

    def test_underscore_binder_renamed(self, env_basic):
        term = parse(env_basic, "fun (_ : nat) => O")
        rendered = pretty(term, env=env_basic)
        assert "(x : nat)" in rendered
