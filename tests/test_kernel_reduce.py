"""Reduction: beta, iota, delta, frozen constants, normal forms."""

from repro.kernel import (
    App,
    Const,
    Elim,
    Ind,
    Lam,
    Rel,
    SET,
    beta_reduce,
    nf,
    whnf,
)
from repro.syntax.parser import parse
from repro.stdlib.natlib import nat_of_int


def num(k):
    return nat_of_int(k)


class TestWhnf:
    def test_beta_redex(self, env_basic):
        term = App(Lam("x", Ind("nat"), Rel(0)), num(1))
        assert whnf(env_basic, term) == num(1)

    def test_nested_beta(self, env_basic):
        term = App(
            App(Lam("x", Ind("nat"), Lam("y", Ind("nat"), Rel(1))), num(1)),
            num(2),
        )
        assert whnf(env_basic, term) == num(1)

    def test_delta_unfolds_constants(self, env_basic):
        term = parse(env_basic, "pred 3")
        assert whnf(env_basic, term) == num(2)

    def test_delta_disabled(self, env_basic):
        term = parse(env_basic, "pred 3")
        result = whnf(env_basic, term, delta=False)
        head, _args = result, None
        assert isinstance(term, App)
        assert result == term  # stuck without unfolding pred

    def test_frozen_constant_not_unfolded(self, env_basic):
        term = parse(env_basic, "pred 3")
        result = whnf(env_basic, term, frozen=frozenset({"pred"}))
        assert result == term

    def test_iota_on_constructor(self, env_basic):
        term = Elim(
            "nat",
            Lam("_", Ind("nat"), Ind("nat")),
            (num(7), Lam("p", Ind("nat"), Lam("IH", Ind("nat"), Rel(0)))),
            num(0),
        )
        assert whnf(env_basic, term) == num(7)

    def test_whnf_does_not_reduce_under_binders(self, env_basic):
        inner_redex = App(Lam("x", Ind("nat"), Rel(0)), num(1))
        term = Lam("y", Ind("nat"), inner_redex)
        assert whnf(env_basic, term) == term

    def test_stuck_on_variable(self, env_basic):
        term = Elim(
            "nat",
            Lam("_", Ind("nat"), Ind("nat")),
            (num(0), Lam("p", Ind("nat"), Lam("IH", Ind("nat"), Rel(0)))),
            Rel(3),
        )
        out = whnf(env_basic, term)
        assert isinstance(out, Elim)
        assert out.scrut == Rel(3)


class TestNf:
    def test_nf_computes_addition(self, env_basic):
        assert nf(env_basic, parse(env_basic, "add 2 2")) == num(4)

    def test_nf_reduces_under_binders(self, env_basic):
        term = Lam("y", Ind("nat"), App(Lam("x", Ind("nat"), Rel(0)), num(1)))
        assert nf(env_basic, term) == Lam("y", Ind("nat"), num(1))

    def test_nf_without_delta_keeps_constants(self, env_basic):
        term = parse(env_basic, "fun (n : nat) => add n 0")
        out = nf(env_basic, term, delta=False)
        # add is stuck without unfolding, so the term is unchanged.
        assert out == term

    def test_nf_idempotent(self, env_lists):
        term = parse(env_lists, "rev nat (cons nat 1 (cons nat 2 (nil nat)))")
        once = nf(env_lists, term)
        assert nf(env_lists, once) == once

    def test_functional_recursion(self, env_basic):
        # mul uses add in its step case; deep reduction must terminate.
        assert nf(env_basic, parse(env_basic, "mul 3 4")) == num(12)


class TestBetaReduce:
    def test_pure_beta_no_env(self):
        term = App(Lam("x", SET, Rel(0)), Const("c"))
        assert beta_reduce(term) == Const("c")

    def test_beta_leaves_constants(self, env_basic):
        term = parse(env_basic, "pred 1")
        assert beta_reduce(term) == term

