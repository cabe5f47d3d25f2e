"""Golden tests for reduction and conversion.

The fuzz tests recompute ``nf``, ``whnf`` (three modes), ``conv``,
``sub``, ``beta_reduce`` and eta conversion on hundreds of seeded random
well-scoped terms from :mod:`tests.termgen` and compare each result with
the corpus frozen in ``tests/fixtures/engine_golden.json`` — outputs the
NbE abstract machine this suite once compared against and the
substitution engine agreed on (see
``tests/fixtures/make_engine_golden.py``).  A mismatch names the term's
seed label, which replays it.  The directed tests cover the corners the
fuzzer rarely hits (deep numerals, frozen constants, eta, same-head
conversions, end-to-end repair).
"""

import pytest

from repro.kernel.convert import conv
from repro.kernel.pretty import pretty
from repro.kernel.reduce import nf, whnf
from repro.kernel.term import App, Const, Constr, Ind, Lam, Rel, mk_app
from tests.fixtures import make_engine_golden as golden


@pytest.fixture(scope="module")
def env():
    return golden.reduce_env()


@pytest.fixture(scope="module")
def frozen():
    return golden.load_corpus()["reduce"]


def _assert_golden(env, frozen, op):
    golden.assert_matches(op, frozen[op], golden.reduce_outcomes(env, op))


def _numeral(n):
    term = Constr("nat", 0)
    for _ in range(n):
        term = App(Constr("nat", 1), term)
    return term


class TestNfDifferential:
    def test_nf_fuzz(self, env, frozen):
        _assert_golden(env, frozen, "nf")

    def test_beta_nf_fuzz(self, env, frozen):
        _assert_golden(env, frozen, "beta_reduce")

    def test_deep_numeral_parity(self, env):
        # 150 nested successors on each side, then delta/iota through
        # `add`: the reducer's structural loop must not hit the Python
        # recursion limit.
        total = mk_app(Const("add"), (_numeral(150), _numeral(150)))
        env.reduction_cache.clear()
        result = nf(env, total)
        assert result == _numeral(300)
        assert pretty(result) == pretty(_numeral(300))


class TestWhnfDifferential:
    @pytest.mark.parametrize("mode", ["delta", "frozen", "no-delta"])
    def test_whnf_fuzz(self, env, frozen, mode):
        _assert_golden(env, frozen, f"whnf[{mode}]")

    def test_frozen_constant_stays_folded(self, env):
        term = mk_app(Const("add"), (Constr("nat", 0), Constr("nat", 0)))
        env.reduction_cache.clear()
        value = whnf(env, term, frozen=frozenset({"add"}))
        # Already weak-head normal when frozen.  With hash-consing on
        # this is pointer identity; without it (the
        # REPRO_DISABLE_KERNEL_CACHES=1 CI run) only equality holds.
        assert value == term
        assert pretty(value) == pretty(term)


class TestConvDifferential:
    def test_conv_fuzz(self, env, frozen):
        _assert_golden(env, frozen, "conv")
        _assert_golden(env, frozen, "sub")

    def test_eta_fuzz(self, env, frozen):
        # A term against its own eta-expansion.  Conversion is specified
        # for well-typed inputs; the corpus also pins the verdicts and
        # kernel errors on ill-typed ones.
        _assert_golden(env, frozen, "eta")

    def test_eta_positive(self, env):
        pred = Const("pred")
        expanded = Lam("n", Ind("nat"), App(pred, Rel(0)))
        env.reduction_cache.clear()
        assert conv(env, pred, expanded) is True

    def test_lazy_delta_agrees_on_same_head(self, env):
        # Same constant head on both sides: convertible arguments
        # convert, and so do different arguments with equal unfoldings;
        # a same-head pair whose unfoldings differ does not.
        env.reduction_cache.clear()
        one = App(Constr("nat", 1), Constr("nat", 0))
        t1 = mk_app(Const("add"), (one, one))
        t2 = mk_app(Const("add"), (one, App(Constr("nat", 1), Constr("nat", 0))))
        assert conv(env, t1, t2) is True
        t3 = mk_app(Const("add"), (Constr("nat", 0), one))
        t4 = mk_app(Const("add"), (one, Constr("nat", 0)))
        assert conv(env, t3, t4) is True
        t5 = mk_app(Const("add"), (App(Const("pred"), one), one))
        assert conv(env, t5, t1) is False


class TestRepairTransparency:
    def test_repair_outputs_byte_identical(self):
        frozen = golden.load_corpus()["repair"]
        golden.assert_matches("repair", frozen, golden.repair_outcomes())
