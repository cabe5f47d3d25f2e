"""Process-wide memos of four pure term walks agree with the walks.

``subst_many`` (per call), the transformer's binder eta expansion (per
node), transform-cache key construction (per term and context) and
``pretty`` without names or an environment memoize into process-global
tables keyed by object identity, so a warm worker's next job hits what
the last one stored.  Every entry must be what the caches-off walk
computes — binder display names included, which term equality ignores,
so a table keyed by equality would hand one term's names to another.
"""

import random

import pytest

from repro.core.caching import TransformCache
from repro.core.search.ornaments import ornament_configuration
from repro.core.search.swap import swap_configuration
from repro.core.transform import Transformer
from repro.kernel.pretty import pretty
from repro.kernel.stats import KERNEL_STATS
from repro.kernel.term import (
    App,
    Ind,
    Lam,
    Rel,
    max_free_rel,
    set_kernel_caches,
    subst_many,
)
from repro.service.cases import ornaments_env, six_case_jobs
from repro.service.job import result_digest
from repro.service.worker import execute_warm
from repro.stdlib import make_env
from repro.stdlib.listlib import declare_list_type
from repro.syntax.parser import parse

from tests.termgen import fuzz_terms, random_term

SEEDS = (20261018, 7, 731)

#: The memo tables a steady warm job must hit without a single miss.
WALK_TABLES = ("lift", "subst", "subst_many", "beta", "eta_expand")


@pytest.fixture(scope="module")
def env():
    return make_env(lists=False, vectors=False)


def _caches_off(fn, *args):
    previous = set_kernel_caches(False)
    try:
        return fn(*args)
    finally:
        set_kernel_caches(previous)


@pytest.mark.parametrize("seed", SEEDS)
def test_subst_many_matches_the_caches_off_walk(kernel_caches_on, env, seed):
    rng = random.Random(seed)
    counter = KERNEL_STATS.counter("subst_many")
    for label, term in fuzz_terms(seed, 60, env, depth=4, binders=3):
        replacements = tuple(
            random_term(rng, env, 2, 1) for _ in range(rng.randint(1, 3))
        )
        expected = repr(_caches_off(subst_many, term, replacements))
        first = subst_many(term, replacements)
        hits = counter.hits
        again = subst_many(term, replacements)
        assert repr(first) == expected, label
        assert again is first, label
        if max_free_rel(term):  # a closed term returns before the table
            assert counter.hits == hits + 1, label


@pytest.mark.parametrize("seed", SEEDS)
def test_pretty_matches_the_caches_off_printer(kernel_caches_on, env, seed):
    for label, term in fuzz_terms(seed, 60, env, depth=4, binders=2):
        expected = _caches_off(pretty, term)
        assert pretty(term) == expected, label
        assert pretty(term) == expected, label


def test_six_case_repairs_match_the_caches_off_path(kernel_caches_on):
    jobs = six_case_jobs()
    residents_off = {}
    expected = {
        job.name: result_digest(
            _caches_off(execute_warm, residents_off, job.payload())
        )
        for job in jobs
    }
    residents = {}
    for warm_pass in range(2):
        for job in jobs:
            record = execute_warm(residents, job.payload())
            assert result_digest(record) == expected[job.name], job.name
            if warm_pass:
                # The second pass finds every walk in the tables.
                tables = record["kernel_delta"]["tables"]
                for table in WALK_TABLES:
                    misses = tables.get(table, {}).get("misses", 0)
                    assert misses == 0, (job.name, table)


# -- Name faithfulness ----------------------------------------------------------


def test_subst_many_keeps_each_input_s_names(kernel_caches_on):
    nat = Ind("nat")
    # fun (<b> : nat) => Rel(1) Rel(2) <b>, with Rel(1)/Rel(2) substituted.
    bodies = [
        Lam(b, nat, App(App(Rel(1), Rel(2)), Rel(0))) for b in ("x", "y")
    ]
    args = [Lam(a, nat, Rel(0)) for a in ("a", "b")]
    texts = {
        pretty(subst_many(body, (arg, arg)))
        for body in bodies
        for arg in args
    }
    assert texts == {
        "fun (x : nat) => (fun (a : nat) => a) (fun (a : nat) => a) x",
        "fun (x : nat) => (fun (b : nat) => b) (fun (b : nat) => b) x",
        "fun (y : nat) => (fun (a : nat) => a) (fun (a : nat) => a) y",
        "fun (y : nat) => (fun (b : nat) => b) (fun (b : nat) => b) y",
    }


def test_pretty_keeps_each_input_s_names(kernel_caches_on):
    nat = Ind("nat")
    x, y = Lam("x", nat, Rel(0)), Lam("y", nat, Rel(0))
    assert x == y  # alpha-equivalent: equality ignores binder names
    assert pretty(x) == "fun (x : nat) => x"
    assert pretty(y) == "fun (y : nat) => y"


def test_transform_keys_keep_each_input_s_names(kernel_caches_on):
    env = make_env(lists=True, vectors=False)
    declare_list_type(env, "New.list", swapped=True)
    config = swap_configuration(env, "list", "New.list")
    cache = TransformCache()
    texts = []
    for name in ("xs", "ys"):
        term = parse(env, f"fun ({name} : list nat) => {name}")
        texts.append(pretty(Transformer(env, config, cache=cache)(term)))
    assert texts == [
        "fun (xs : New.list nat) => xs",
        "fun (ys : New.list nat) => ys",
    ]


def test_eta_expansion_keeps_each_input_s_names(kernel_caches_on):
    env = ornaments_env()
    transformer = Transformer(env, ornament_configuration(env))
    domain = parse(env, "sigT nat (fun (n : nat) => vector nat n)")
    counter = KERNEL_STATS.counter("eta_expand")
    for name in ("p", "q"):
        # Under a binder s of the packed type: fun (<name> : nat) => s.
        body = Lam(name, Ind("nat"), Rel(1))
        first = transformer._eta_expand_binder(domain, body)
        hits = counter.hits
        assert transformer._eta_expand_binder(domain, body) is first
        assert counter.hits > hits
        assert pretty(Lam("s", domain, first)) == (
            "fun (s : sigT nat (fun (n : nat) => vector nat n)) "
            f"({name} : nat) => ornament.eta nat s"
        )
