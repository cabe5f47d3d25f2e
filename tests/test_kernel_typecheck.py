"""The type checker: inference rules, eliminator typing, errors."""

import pytest

from repro.kernel import (
    App,
    Constr,
    Context,
    Elim,
    Environment,
    Ind,
    Lam,
    PROP,
    Pi,
    Rel,
    SET,
    Sort,
    TypeError_,
    check,
    infer,
    infer_sort,
    type_sort,
    typecheck_closed,
)
from repro.syntax.parser import parse
from repro.stdlib.natlib import nat_of_int


class TestBasicRules:
    def test_sort_of_prop_and_set(self, env_basic):
        assert infer(env_basic, Context.empty(), PROP) == Sort(1)
        assert infer(env_basic, Context.empty(), SET) == Sort(1)

    def test_sort_of_type(self, env_basic):
        assert infer(env_basic, Context.empty(), type_sort(3)) == Sort(4)

    def test_variable_lookup(self, env_basic):
        ctx = Context.empty().push("n", Ind("nat"))
        assert infer(env_basic, ctx, Rel(0)) == Ind("nat")

    def test_variable_lookup_lifts(self, env_basic):
        ctx = (
            Context.empty()
            .push("A", SET)
            .push("x", Rel(0))
        )
        assert infer(env_basic, ctx, Rel(0)) == Rel(1)

    def test_unbound_variable(self, env_basic):
        with pytest.raises(Exception):
            infer(env_basic, Context.empty(), Rel(0))

    def test_lambda_and_app(self, env_basic):
        term = parse(env_basic, "(fun (n : nat) => S n) 3")
        assert typecheck_closed(env_basic, term) == Ind("nat")

    def test_pi_impredicative_prop(self, env_basic):
        term = parse(env_basic, "forall (A : Prop), A -> A")
        assert infer(env_basic, Context.empty(), term) == PROP

    def test_pi_predicative_type(self, env_basic):
        # The domain Type1 lives in Type2, so the product does too.
        term = parse(env_basic, "forall (A : Type1), A -> A")
        assert infer(env_basic, Context.empty(), term) == Sort(2)

    def test_application_type_mismatch(self, env_basic):
        with pytest.raises(TypeError_):
            typecheck_closed(env_basic, parse(env_basic, "S true"))

    def test_application_of_non_function(self, env_basic):
        with pytest.raises(TypeError_):
            typecheck_closed(env_basic, App(nat_of_int(0), nat_of_int(0)))

    def test_check_uses_cumulativity(self, env_basic):
        # nat : Set <= Type2.
        check(env_basic, Context.empty(), Ind("nat"), type_sort(2))

    def test_infer_sort_rejects_terms(self, env_basic):
        with pytest.raises(TypeError_):
            infer_sort(env_basic, Context.empty(), nat_of_int(1))


class TestEliminatorTyping:
    def test_simple_elim(self, env_basic):
        term = parse(
            env_basic,
            "fun (n : nat) => Elim[nat](n; fun (_ : nat) => bool)"
            "{ true, fun (p : nat) (IH : bool) => negb IH }",
        )
        ty = typecheck_closed(env_basic, term)
        assert ty == Pi("n", Ind("nat"), Ind("bool"))

    def test_dependent_motive(self, env_basic):
        # A proof by induction has a dependent motive.
        term = parse(
            env_basic,
            "fun (n : nat) => Elim[nat](n; fun (k : nat) => eq nat k k)"
            "{ eq_refl nat O, "
            "fun (p : nat) (IH : eq nat p p) => eq_refl nat (S p) }",
        )
        typecheck_closed(env_basic, term)

    def test_wrong_case_count(self, env_basic):
        term = Elim("nat", Lam("_", Ind("nat"), Ind("nat")), (nat_of_int(0),), nat_of_int(0))
        with pytest.raises(TypeError_):
            typecheck_closed(env_basic, term)

    def test_wrong_case_type(self, env_basic):
        term = parse(
            env_basic,
            "Elim[nat](O; fun (_ : nat) => nat)"
            "{ true, fun (p : nat) (IH : nat) => IH }",
        )
        with pytest.raises(TypeError_):
            typecheck_closed(env_basic, term)

    def test_bad_motive_shape(self, env_basic):
        term = Elim("nat", nat_of_int(0), (nat_of_int(0), nat_of_int(0)), nat_of_int(0))
        with pytest.raises(TypeError_):
            typecheck_closed(env_basic, term)

    def test_indexed_elim_vector(self, env_lists):
        # Dependent elimination over an indexed family.
        term = parse(
            env_lists,
            """
            fun (T : Type1) (n : nat) (v : vector T n) =>
              Elim[vector](v;
                  fun (m : nat) (w : vector T m) => nat)
                { O,
                  fun (t : T) (m : nat) (w : vector T m) (IH : nat) =>
                    S IH }
            """,
        )
        ty = typecheck_closed(env_lists, term)
        binders_ok = isinstance(ty, Pi)
        assert binders_ok

    def test_elim_scrutinee_of_wrong_type(self, env_basic):
        term = Elim(
            "nat",
            Lam("_", Ind("nat"), Ind("nat")),
            (nat_of_int(0), Lam("p", Ind("nat"), Lam("IH", Ind("nat"), Rel(0)))),
            Constr("bool", 0),
        )
        with pytest.raises(TypeError_):
            typecheck_closed(env_basic, term)


class TestStoredConstants:
    def test_every_global_is_well_typed(self, env_full):
        """The populated environment invariant: everything checks."""
        for decl in env_full.constants():
            if decl.body is not None:
                check(env_full, Context.empty(), decl.body, decl.type)

    def test_define_rejects_duplicates(self, env_basic):
        env = Environment()
        env.assume("x", SET)
        with pytest.raises(Exception):
            env.assume("x", SET)


class TestVerdictScope:
    """Closed terms key their ``infer``/``check`` verdicts on no context."""

    @staticmethod
    def _counts(name):
        from repro.kernel import KERNEL_STATS

        counter = KERNEL_STATS.counter(name)
        return counter.hits, counter.misses

    def test_closed_verdicts_serve_every_context(self, kernel_caches_on):
        from repro.stdlib import make_env

        env = make_env(lists=False, vectors=False)
        f = parse(env, "fun (n : nat) => S n")
        ty = typecheck_closed(env, f)
        check(env, Context.empty(), f, ty)
        ctx = Context.empty().push("b", Ind("bool")).push("m", Ind("nat"))
        hits, misses = self._counts("infer")
        assert infer(env, ctx, f) is ty
        assert self._counts("infer") == (hits + 1, misses)
        hits, misses = self._counts("check")
        check(env, ctx, f, ty)
        assert self._counts("check") == (hits + 1, misses)

    def test_open_terms_keep_one_verdict_per_context(self, kernel_caches_on):
        from repro.stdlib import make_env

        env = make_env(lists=False, vectors=False)
        succ = App(Constr("nat", 1), Rel(0))
        one = Context.empty().push("m", Ind("nat"))
        two = Context.empty().push("b", Ind("bool")).push("m", Ind("nat"))
        assert infer(env, one, succ) == Ind("nat")
        size = env.reduction_cache.size
        hits, misses = self._counts("infer")
        assert infer(env, two, succ) == Ind("nat")
        # The whole term misses (only the closed head ``S`` hits) and
        # stores an entry of its own.
        assert self._counts("infer") == (hits + 1, misses + 1)
        assert env.reduction_cache.size > size
        for ctx in (one, two):
            hits, misses = self._counts("infer")
            infer(env, ctx, succ)
            assert self._counts("infer") == (hits + 1, misses)
