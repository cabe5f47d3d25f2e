"""Section 4.4 ablation: aggressive caching of transformed subterms.

The paper: "we implemented aggressive caching (with an option to disable
the cache), even caching intermediate subterms that we encounter in the
course of running our proof term transformation", in response to the
industrial proof engineer's ~10 second patience.  This ablation measures
the transformation with the cache enabled vs disabled across a session
that re-transforms shared dependencies.
"""

import time


from repro.cases.quickstart import setup_environment
from repro.core.caching import TransformCache
from repro.core.search.swap import swap_configuration
from repro.core.transform import Transformer


NAMES = ["app", "rev", "app_nil_r", "app_assoc", "rev_app_distr",
         "zip", "zip_with", "zip_with_is_zip"]


def _transform_all(env, config, cache):
    transformer = Transformer(env, config, cache=cache)
    for name in NAMES:
        decl = env.constant(name)
        transformer(decl.type)
        transformer(decl.body)
        # A second pass over the same terms models re-running Repair on a
        # file whose dependencies repeat (the industrial workflow).
        transformer(decl.body)
    return cache


def test_transform_with_cache(benchmark, rows):
    env = setup_environment()
    config = swap_configuration(env, "list", "New.list", prove=False)

    def run():
        return _transform_all(env, config, TransformCache(enabled=True))

    cache = benchmark(run)
    hit_rate = cache.hits / max(1, cache.hits + cache.misses)
    rows(
        "Section 4.4 ablation: cache enabled",
        "aggressive caching keeps repair within the ~10 s patience window",
        f"hits={cache.hits}, misses={cache.misses} "
        f"(hit rate {hit_rate:.0%})",
    )
    assert cache.hits > 0


def test_transform_without_cache(benchmark, rows):
    env = setup_environment()
    config = swap_configuration(env, "list", "New.list", prove=False)

    def run():
        return _transform_all(env, config, TransformCache(enabled=False))

    cache = benchmark(run)
    rows(
        "Section 4.4 ablation: cache disabled",
        "the tool exposes an option to disable the cache",
        "every subterm re-transformed (compare mean time with the "
        "cache-enabled benchmark)",
    )
    assert cache.hits == 0


def test_cache_speedup_summary(benchmark, rows):
    """Direct A/B comparison outside the benchmark fixture."""
    env = setup_environment()
    config = swap_configuration(env, "list", "New.list", prove=False)

    def cached_run():
        return _transform_all(env, config, TransformCache(enabled=True))

    benchmark.pedantic(cached_run, rounds=1, iterations=1)
    start = time.time()
    for _ in range(3):
        _transform_all(env, config, TransformCache(enabled=True))
    with_cache = time.time() - start

    start = time.time()
    for _ in range(3):
        _transform_all(env, config, TransformCache(enabled=False))
    without_cache = time.time() - start

    rows(
        "Section 4.4 ablation: speedup",
        "caching was required for acceptable latency",
        f"with cache {with_cache*1000:.0f}ms vs without "
        f"{without_cache*1000:.0f}ms "
        f"({without_cache / max(with_cache, 1e-9):.1f}x)",
    )
    assert with_cache <= without_cache * 1.5


def test_kernel_layer_ablation(rows):
    """Every kernel cache layer on vs off, on end-to-end repair.

    Runs the binary case study (parsers, proofs, repair, re-check) with
    the kernel's one cache switch on and then off (hash consing, the
    term memo tables and the reduction cache together), reporting one
    row per setting plus the speedup.
    """
    from repro.cases.binary import run_scenario
    from repro.kernel.stats import KERNEL_STATS
    from repro.kernel.term import clear_term_caches, set_kernel_caches

    timings = {}
    previous = set_kernel_caches(True)
    try:
        for enabled in (True, False):
            set_kernel_caches(enabled)
            clear_term_caches()
            KERNEL_STATS.reset()
            start = time.perf_counter()
            run_scenario()
            elapsed = time.perf_counter() - start
            timings[enabled] = elapsed
            whnf = KERNEL_STATS.counter("whnf")
            rows(
                f"kernel layers: {'on' if enabled else 'off'}",
                "hash-consed arena + kernel-wide reduction cache "
                "(Section 4.4 engineering)",
                f"binary repair {elapsed * 1000:.0f}ms, "
                f"intern hits {KERNEL_STATS.intern_hits}, "
                f"whnf hit rate {whnf.hit_rate:.0%}",
            )
    finally:
        set_kernel_caches(previous)
        clear_term_caches()
        KERNEL_STATS.reset()

    both_on = timings[True]
    both_off = timings[False]
    rows(
        "kernel layers: combined speedup",
        "aggressive caching keeps repair within the patience window",
        f"all layers on {both_on * 1000:.0f}ms vs all off "
        f"{both_off * 1000:.0f}ms "
        f"({both_off / max(both_on, 1e-9):.1f}x)",
    )
    # The layers must never make repair slower.
    assert both_on < both_off
