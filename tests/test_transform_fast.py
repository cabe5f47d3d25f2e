"""The Figure 10 transformer: golden outputs, deep bodies, observability.

The fuzz tests run the explicit-stack transformer over randomized
swap/rename configurations on terms steered toward ``list``/``nat`` so
the Figure 10 rules actually fire, and compare every output — or error
class, message and ``REPRO_ANALYZE`` codes — with the corpus frozen in
``tests/fixtures/engine_golden.json``, which the stack driver and the
recursive driver it replaced agreed on (see
``tests/fixtures/make_engine_golden.py``).  A mismatch names the term's
seed label.  The deep-numeral test pins the heap-bounded eta-expansion
of binder bodies.
"""

import pytest

from repro.core import Transformer
from repro.core.search.refine_unit import refine_unit_configuration
from repro.kernel import App, Constr, Ind, Lam, Rel, mentions_global
from repro.kernel.stats import KERNEL_STATS
from repro.kernel.term import kernel_caches_enabled
from repro.obs import get_tracer, reset_tracer, set_tracing
from repro.stdlib import make_env
from tests.fixtures import make_engine_golden as golden


@pytest.fixture(scope="module")
def swap_env():
    return golden.swap_env()


@pytest.fixture(scope="module")
def frozen():
    return golden.load_corpus()["transform"]


def _assert_golden(env, frozen, section):
    fresh = golden.transform_outcomes(env, section)
    golden.assert_matches(section, frozen[section], fresh)


# -- Golden fuzz -------------------------------------------------------------


class TestDifferentialFuzz:
    def test_drivers_agree_on_random_terms(self, swap_env, frozen):
        """Frozen outputs (or errors) on 200 fuzz terms."""
        _assert_golden(swap_env, frozen, "swap")
        _assert_golden(swap_env, frozen, "swap+rename")

    def test_drivers_agree_under_analysis_gate(self, swap_env, frozen):
        """Frozen outputs and diagnostics with REPRO_ANALYZE on."""
        _assert_golden(swap_env, frozen, "analyze")


# -- The deep-body eta-expansion regression ------------------------------------


@pytest.mark.skipif(
    not kernel_caches_enabled(),
    reason="REPRO_DISABLE_KERNEL_CACHES=1 routes rule application through "
    "the unmemoized recursive beta_reduce, whose documented ReduceError "
    "depth limit is orthogonal to the transformer pass",
)
def test_eta_expansion_survives_deep_bodies():
    """An S^1500-style numeral under a sigma-eta config must transform.

    Binder eta-expansion runs on the explicit-stack rebuilder, so a body
    deeper than the Python stack does not raise ``RecursionError``.
    """
    env = make_env()
    config = refine_unit_configuration(env, "nat")
    body = Rel(0)
    for _ in range(1500):
        body = App(Constr("nat", 1), body)
    term = Lam("s", Ind("nat"), body)
    out = Transformer(env, config, reduce_output=False)(term)
    # The binder now ranges over the packed type and the numeral spine
    # was rebuilt through the packed constructors.
    assert mentions_global(out, "sigT")
    assert not mentions_global(out.domain, "nat") or mentions_global(
        out.domain, "sigT"
    )


# -- Observability -------------------------------------------------------------


class TestObservability:
    def test_transform_cache_counters_in_kernel_stats(self, swap_env):
        config = golden.swap_config(swap_env)
        counter = KERNEL_STATS.counter("transform_cache")
        hits0, misses0 = counter.hits, counter.misses
        transformer = Transformer(swap_env, config)
        term = swap_env.constant("rev_app_distr").body
        transformer(term)
        assert counter.misses > misses0
        misses_after_first = counter.misses
        transformer(term)
        assert counter.hits > hits0
        assert counter.misses == misses_after_first

    def test_transform_span_carries_hit_rate_gauge(self, swap_env):
        config = golden.swap_config(swap_env)
        previous = set_tracing(True)
        reset_tracer()
        try:
            transformer = Transformer(swap_env, config)
            term = swap_env.constant("rev_app_distr").body
            transformer(term)
            transformer(term)
            spans = [
                s for s in get_tracer().spans if s.name == "transform"
            ]
        finally:
            reset_tracer()
            set_tracing(previous)
        assert len(spans) == 2
        first, second = spans
        assert 0.0 <= first.gauges["transform_cache_hit_rate"] < 1.0
        # The second pass replays the same term: everything hits.
        assert second.gauges["transform_cache_hit_rate"] == 1.0
        for sp in spans:
            assert sp.gauges["term_size_in"] >= 1
            assert sp.gauges["term_depth_in"] >= 1
            assert sp.gauges["term_size_out"] >= 1
            assert sp.gauges["term_depth_out"] >= 1
