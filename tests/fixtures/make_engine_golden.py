"""Regenerate the frozen reduction and transformation outputs.

Run from the repository root::

    PYTHONPATH=src python -m tests.fixtures.make_engine_golden

``engine_golden.json`` maps an operation and a fuzz term's
``seed=<seed> #<i>`` label (:func:`tests.termgen.fuzz_terms` replays the
term) to what the reducer or the Figure 10 transformer returned for it:
a 16-hex-digit digest of the result's ``repr`` (binder names included),
a verdict, ``"!"`` plus the class of a kernel error, or a transformer
error's class, message and ``REPRO_ANALYZE`` codes.  ``repair`` holds
digests of four repaired list functions.

The corpus was frozen while an NbE abstract machine still ran beside
the substitution reducer and a recursive driver beside the stack
transformer.  Both of each pair gave every answer in it, with kernel
caches on and off, except one ill-typed eta comparison where the
machine raised ``InductiveError``; that entry keeps the substitution
verdict.  Regenerate only for a deliberate change of output.
"""

import hashlib
import json
import os
import random
import sys

from repro.analysis import AnalysisError, set_analysis
from repro.core import TransformCache, Transformer
from repro.core.search.swap import swap_configuration
from repro.kernel import App, Ind, Lam, Rel, lift, pretty
from repro.kernel.convert import conv, sub
from repro.kernel.reduce import beta_reduce, nf, whnf
from repro.stdlib import declare_list_type, make_env
from tests.termgen import fuzz_terms, random_term

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "engine_golden.json"
)

WHNF_MODES = {
    "delta": (True, frozenset()),
    "frozen": (True, frozenset({"add", "pred"})),
    "no-delta": (False, frozenset()),
}
REDUCE_OPS = ("nf", "whnf[delta]", "whnf[frozen]", "whnf[no-delta]")
REDUCE_OPS += ("conv", "sub", "beta_reduce", "eta")

#: Pools that steer fuzz terms toward ``list``/``nat``, so the Figure 10
#: rules of the swap configuration actually fire.
SWAP_POOLS = dict(
    consts=("add", "pred", "app", "rev", "length"),
    inds=("nat", "bool", "list"),
    constr_inds=("nat", "list"),
)
ANALYZE_POOLS = dict(
    consts=("add", "pred", "app"),
    inds=("nat", "list"),
    constr_inds=("nat", "list"),
)
#: section -> (seed, count, rename constants, analysis gate on, pools)
TRANSFORM_SECTIONS = {
    "swap": (20260809, 100, False, False, SWAP_POOLS),
    "swap+rename": (20260810, 100, True, False, SWAP_POOLS),
    "analyze": (97, 60, False, True, ANALYZE_POOLS),
}


def digest(value) -> str:
    return hashlib.sha256(str(value).encode("utf-8")).hexdigest()[:16]


def outcome(fn, render):
    """``render(fn())``, or ``"!<exception class>"`` when it raises."""
    try:
        value = fn()
    except Exception as exc:  # noqa: BLE001 — failures are frozen too
        return "!" + type(exc).__name__
    return render(value)


def reduce_env():
    return make_env(lists=True, vectors=True)


def swap_env():
    env = make_env(lists=True, vectors=False)
    declare_list_type(env, "New.list", swapped=True)
    return env


def swap_config(env, rename=False):
    config = swap_configuration(env, "list", "New.list", prove=False)
    if rename:
        config.const_map["app"] = "New.app"
        config.const_map["length"] = "New.length"
    return config


def reduce_cases(env, op):
    """``(label, thunk)`` for every entry of one ``reduce`` operation."""
    if op == "nf":
        for seed in (20260805, 20260806):
            for label, t in fuzz_terms(seed, 300, env, depth=4):
                yield label, lambda t=t: nf(env, t)
    elif op.startswith("whnf["):
        delta, frozen = WHNF_MODES[op[5:-1]]
        for label, t in fuzz_terms(20260808, 200, env, depth=4):
            yield label, lambda t=t: whnf(env, t, delta=delta, frozen=frozen)
    elif op in ("conv", "sub"):
        relation = conv if op == "conv" else sub
        rng = random.Random(20260809)
        for i in range(200):
            t1 = random_term(rng, env, depth=3, binders=0)
            t2 = random_term(rng, env, depth=3, binders=0)
            yield f"seed=20260809 #{i}", lambda a=t1, b=t2: relation(env, a, b)
    elif op == "beta_reduce":
        for label, t in fuzz_terms(20260807, 300, env, depth=4, binders=1):
            yield label, lambda t=t: beta_reduce(t)
    elif op == "eta":
        for label, t in fuzz_terms(20260810, 100, env, depth=3):
            expanded = Lam("x", Ind("nat"), App(lift(t, 1), Rel(0)))
            yield label, lambda t=t, e=expanded: conv(env, t, e)
    else:
        raise ValueError(f"unknown reduce operation {op!r}")


def reduce_outcomes(env, op):
    """``{label: outcome}`` of one operation, each on a cold cache."""
    render = str if op in ("conv", "sub", "eta") else lambda t: digest(repr(t))
    out = {}
    for label, thunk in reduce_cases(env, op):
        env.reduction_cache.clear()
        out[label] = outcome(thunk, render)
    return out


def transform_outcome(env, config, term, analyze):
    """One transformer run (output not reduced), as the corpus records it."""
    previous = set_analysis(analyze)
    try:
        transformer = Transformer(
            env, config, cache=TransformCache(), reduce_output=False
        )
        return digest(repr(transformer(term)))
    except Exception as exc:  # noqa: BLE001 — failures are frozen too
        codes = exc.codes if isinstance(exc, AnalysisError) else None
        return {
            "error": type(exc).__name__,
            "message": str(exc),
            "codes": None if codes is None else list(codes),
        }
    finally:
        set_analysis(previous)


def transform_outcomes(env, section):
    seed, count, rename, analyze, pools = TRANSFORM_SECTIONS[section]
    config = swap_config(env, rename=rename)
    return {
        label: transform_outcome(env, config, term, analyze)
        for label, term in fuzz_terms(seed, count, env, depth=4, **pools)
    }


def repair_outcomes():
    from repro.core.repair import RepairSession

    env = swap_env()
    config = swap_configuration(env, "list", "New.list")
    session = RepairSession(
        env, config, old_globals=["list"], rename=lambda n: f"New.{n}"
    )
    results = session.repair_module(["app", "rev", "length", "map"])
    return {
        r.old_name: digest(pretty(r.term) + "\n" + pretty(r.type))
        for r in results
    }


def build_corpus():
    env, t_env = reduce_env(), swap_env()
    return {
        "reduce": {op: reduce_outcomes(env, op) for op in REDUCE_OPS},
        "transform": {
            section: transform_outcomes(t_env, section)
            for section in TRANSFORM_SECTIONS
        },
        "repair": repair_outcomes(),
    }


def load_corpus():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def assert_matches(name, frozen, fresh):
    """Fail naming every label whose fresh outcome left the frozen one."""
    moved = [
        f"{label}: frozen {frozen.get(label)!r}, now {fresh.get(label)!r}"
        for label in sorted(set(frozen) | set(fresh))
        if frozen.get(label) != fresh.get(label)
    ]
    assert not moved, f"{name}: {len(moved)} outputs moved:\n" + "\n".join(
        moved[:20]
    )


def main() -> int:
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(build_corpus(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
