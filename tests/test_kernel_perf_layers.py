"""Tests for the kernel performance layers (Section 4.4 engineering).

Covers the hash-consing arena, the cached free-variable bounds, the
memoized de Bruijn operations, the environment-scoped reduction cache,
and — most importantly — that every layer is behaviour-transparent:
with the kernel cache switch off the kernel produces syntactically
identical results.
"""

from hypothesis import given, settings

from repro.kernel.env import Environment
from repro.kernel.reduce import nf, whnf
from repro.kernel.stats import KERNEL_STATS
from repro.kernel.term import (
    App,
    Const,
    Elim,
    Lam,
    Pi,
    Rel,
    SET,
    Sort,
    TermError,
    free_rels,
    kernel_caches_enabled,
    lift,
    max_free_rel,
    set_kernel_caches,
    subst,
    subst_many,
)

from .test_kernel_term import terms


# ---------------------------------------------------------------------------
# Hash consing
# ---------------------------------------------------------------------------


class TestInterning:
    def test_structural_equality_is_identity(self, kernel_caches_on):
        assert App(Const("a"), Const("b")) is App(Const("a"), Const("b"))
        assert Rel(7) is Rel(7)
        assert Sort(3) is Sort(3)
        assert Lam("x", SET, Rel(0)) is Lam("x", SET, Rel(0))
        assert Pi("x", SET, SET) is Pi("x", SET, SET)
        assert Elim("n", Rel(0), (Const("a"),), Rel(1)) is Elim(
            "n", Rel(0), (Const("a"),), Rel(1)
        )

    def test_display_names_are_preserved(self):
        # The intern key includes binder names, so sharing never changes
        # how a term pretty-prints (equality still ignores names).
        lx = Lam("x", SET, Rel(0))
        ly = Lam("y", SET, Rel(0))
        assert lx == ly
        assert lx is not ly
        assert lx.name == "x" and ly.name == "y"

    def test_elim_cases_normalized_to_tuple(self, kernel_caches_on):
        by_list = Elim("n", Rel(0), [Const("a")], Rel(1))
        by_tuple = Elim("n", Rel(0), (Const("a"),), Rel(1))
        assert by_list is by_tuple
        assert isinstance(by_list.cases, tuple)

    def test_interning_counts_stats(self, kernel_caches_on):
        before_hits = KERNEL_STATS.intern_hits
        before_total = KERNEL_STATS.constructions
        probe = App(Const("stats-probe"), Const("stats-probe2"))
        again = App(Const("stats-probe"), Const("stats-probe2"))
        assert probe is again
        assert KERNEL_STATS.constructions > before_total
        assert KERNEL_STATS.intern_hits > before_hits

    def test_disabled_interning_still_equal(self, no_kernel_caches):
        a = App(Const("a"), Const("b"))
        b = App(Const("a"), Const("b"))
        assert a == b
        assert hash(a) == hash(b)
        assert not kernel_caches_enabled()

    @given(terms())
    @settings(max_examples=60)
    def test_interned_and_plain_terms_equal(self, term):
        # The same de Bruijn ops yield equal results with interning off.
        enabled = subst(lift(term, 1), Const("c"), 0)
        prev = set_kernel_caches(False)
        try:
            disabled = subst(lift(term, 1), Const("c"), 0)
        finally:
            set_kernel_caches(prev)
        assert enabled == disabled == term


# ---------------------------------------------------------------------------
# Free-variable bounds
# ---------------------------------------------------------------------------


class TestMaxFreeRel:
    def test_leaves(self):
        assert max_free_rel(Rel(4)) == 5
        assert max_free_rel(SET) == 0
        assert max_free_rel(Const("c")) == 0

    def test_binders(self):
        assert max_free_rel(Lam("x", SET, Rel(0))) == 0
        assert max_free_rel(Lam("x", SET, Rel(1))) == 1
        assert max_free_rel(Pi("x", Rel(2), Rel(0))) == 3

    @given(terms())
    @settings(max_examples=100)
    def test_agrees_with_free_rels(self, term):
        rels = free_rels(term)
        expected = max(rels) + 1 if rels else 0
        assert max_free_rel(term) == expected

    @given(terms())
    @settings(max_examples=60)
    def test_is_closed_matches_free_rels(self, term):
        assert term.is_closed() == (not free_rels(term))


# ---------------------------------------------------------------------------
# Memoized de Bruijn ops: transparency
# ---------------------------------------------------------------------------


class TestMemoTransparency:
    @given(terms())
    @settings(max_examples=80)
    def test_lift_same_with_and_without_memo(self, term):
        with_memo = lift(term, 2, 1)
        prev = set_kernel_caches(False)
        try:
            without = lift(term, 2, 1)
        finally:
            set_kernel_caches(prev)
        assert with_memo == without

    @given(terms(), terms(max_free=1))
    @settings(max_examples=80)
    def test_subst_same_with_and_without_memo(self, term, value):
        with_memo = subst(term, value, 1)
        prev = set_kernel_caches(False)
        try:
            without = subst(term, value, 1)
        finally:
            set_kernel_caches(prev)
        assert with_memo == without

    @given(terms())
    @settings(max_examples=80)
    def test_free_rels_same_with_and_without_memo(self, term):
        with_memo = free_rels(term, 1)
        prev = set_kernel_caches(False)
        try:
            without = free_rels(term, 1)
        finally:
            set_kernel_caches(prev)
        assert with_memo == without

    def test_lift_short_circuits_closed_subtrees(self):
        closed = App(Const("f"), Const("x"))
        assert lift(closed, 5) is closed
        under = Lam("x", SET, App(closed, Rel(0)))
        assert lift(under, 3) is under

    def test_memo_counters_move(self, kernel_caches_on):
        counter = KERNEL_STATS.counter("lift")
        probe = Lam("x", SET, App(Rel(1), App(Rel(2), Const("memo-probe"))))
        lift(probe, 4, 0)
        before = counter.hits
        lift(probe, 4, 0)
        assert counter.hits > before


# ---------------------------------------------------------------------------
# Deep-term robustness
# ---------------------------------------------------------------------------


DEPTH = 4000


def _deep_lam(body, depth=DEPTH):
    for _ in range(depth):
        body = Lam("x", SET, body)
    return body


class TestDeepTerms:
    def test_deep_max_free_rel(self):
        assert max_free_rel(_deep_lam(Rel(0))) == 0
        assert max_free_rel(_deep_lam(Rel(DEPTH + 5))) == 6

    def test_deep_lift(self):
        deep = _deep_lam(Rel(DEPTH + 1))
        lifted = lift(deep, 3)
        assert max_free_rel(lifted) == 5

    def test_deep_subst(self):
        deep = _deep_lam(Rel(DEPTH))
        result = subst(deep, Const("c"), 0)
        assert result.is_closed()

    def test_deep_subst_many(self):
        deep = _deep_lam(Rel(DEPTH), depth=DEPTH)
        result = subst_many(deep, [Const("a"), Const("b")])
        assert result.is_closed()

    def test_deep_free_rels(self):
        deep = _deep_lam(Rel(DEPTH + 7))
        assert free_rels(deep) == frozenset({7})

    def test_deep_nf_raises_clean_error(self):
        # The recursive normalizer either succeeds or raises a clean
        # TermError — never a bare RecursionError.
        env = Environment()
        deep = _deep_lam(Rel(0), depth=50_000)
        try:
            nf(env, deep)
        except TermError as err:
            assert "deep" in str(err)
        # Same guarantee for whnf on an Elim tower.
        scrut = Rel(0)
        for _ in range(50_000):
            scrut = Elim("nat", Rel(0), (Const("z"),), scrut)
        try:
            whnf(env, scrut, delta=False)
        except TermError as err:
            assert "deep" in str(err)


# ---------------------------------------------------------------------------
# Environment-scoped reduction cache
# ---------------------------------------------------------------------------


def _nat_env():
    from repro.stdlib import make_env

    return make_env(lists=False, vectors=False)


class TestReductionCache:
    def test_whnf_and_nf_cached(self, kernel_caches_on):
        from repro.syntax.parser import parse

        env = _nat_env()
        app = parse(env, "add 2 3")
        first = nf(env, app)
        hits_before = KERNEL_STATS.counter("nf").hits
        second = nf(env, app)
        assert first == second
        assert KERNEL_STATS.counter("nf").hits > hits_before
        assert env.reduction_cache.size > 0

    def test_cache_transparent(self):
        from repro.syntax.parser import parse

        env_on = _nat_env()
        app = parse(env_on, "add 2 3")
        prev = set_kernel_caches(False)
        try:
            env_off = _nat_env()
            off = nf(env_off, app)
        finally:
            set_kernel_caches(prev)
        assert nf(env_on, app) == off
        assert env_off.reduction_cache.size == 0

    def test_remove_invalidates(self):
        env = Environment()
        env.define("c1", SET, type=Sort(1))
        assert nf(env, Const("c1")) == SET
        env.remove("c1")
        env.define("c1", Sort(3), type=Sort(4))
        assert nf(env, Const("c1")) == Sort(3)

    def test_additive_define_keeps_cache(self, kernel_caches_on):
        from repro.syntax.parser import parse

        env = _nat_env()
        probe = parse(env, "add 2 3")
        nf(env, probe)
        assert env.reduction_cache.size > 0
        env.define("fresh_global", SET, type=Sort(1))
        hits_before = KERNEL_STATS.counter("nf").hits
        nf(env, probe)
        assert KERNEL_STATS.counter("nf").hits > hits_before

    def test_kernel_stats_exposed_via_environment(self):
        """Every environment reports into the one KERNEL_STATS."""
        snap = KERNEL_STATS.snapshot()
        assert "constructions" in snap and "tables" in snap
        assert KERNEL_STATS.report()


# ---------------------------------------------------------------------------
# End-to-end transparency: repair output is identical with caches off
# ---------------------------------------------------------------------------


class TestEndToEndTransparency:
    def test_transform_identical_with_all_layers_off(self):
        from repro.cases.quickstart import setup_environment
        from repro.core.caching import TransformCache
        from repro.core.search.swap import swap_configuration
        from repro.core.transform import Transformer

        def run():
            env = setup_environment()
            config = swap_configuration(env, "list", "New.list", prove=False)
            transformer = Transformer(
                env, config, cache=TransformCache(enabled=False)
            )
            decl = env.constant("rev_app_distr")
            return transformer(decl.type), transformer(decl.body)

        with_layers = run()

        prev = set_kernel_caches(False)
        try:
            without_layers = run()
        finally:
            set_kernel_caches(prev)

        assert with_layers[0] == without_layers[0]
        assert with_layers[1] == without_layers[1]
