"""Seeded random well-scoped term generator, shared by the fuzz suites.

Extracted from the scope-checker fuzzer so the reduction golden tests
(:mod:`test_kernel_machine`) and the analysis tests draw from the same
distribution: every generated term is well-scoped (all ``Rel`` indices
bound), mentions only stdlib globals (``add``/``pred``/``eq_sym``,
``nat``/``bool``/``eq``), and uses a plain ``random.Random`` so failures
replay from the printed seed.  Terms are *not* necessarily well-typed —
the frozen outputs cover ill-typed-but-scoped garbage too.

Fuzz loops should draw through :func:`fuzz_terms`, which owns the RNG
and yields a label alongside each term carrying the *explicit seed* and
index — so an assertion that fires deep in a 300-iteration loop names
the exact ``random.Random(seed)`` replay recipe in its message instead
of just an opaque index.
"""

import random

from repro.kernel.term import (
    App,
    Const,
    Constr,
    Elim,
    Ind,
    Lam,
    Pi,
    Rel,
    Sort,
)


#: The stdlib pools every suite drew from before pools were optional.
DEFAULT_CONSTS = ("add", "pred", "eq_sym")
DEFAULT_INDS = ("nat", "bool", "eq")
DEFAULT_CONSTR_INDS = ("nat",)


def fuzz_terms(
    seed,
    count,
    env,
    depth,
    binders=0,
    consts=DEFAULT_CONSTS,
    inds=DEFAULT_INDS,
    constr_inds=DEFAULT_CONSTR_INDS,
):
    """Yield ``(label, term)`` pairs from an explicitly seeded RNG.

    The label (``seed=<seed> #<i>``) goes into fuzz-test failure
    messages, so a red run is replayable without digging the seed out of
    the test body.

    ``consts``/``inds``/``constr_inds`` override the pools the generator
    draws global names from, so a suite can steer terms toward the types
    a particular configuration matches (e.g. ``list`` for the transformer
    fuzz) without forking the generator; constructor and eliminator
    arities come from ``env``'s declaration of each ``constr_inds`` name.
    """
    rng = random.Random(seed)
    for i in range(count):
        yield f"seed={seed} #{i}", random_term(
            rng,
            env,
            depth,
            binders,
            consts=consts,
            inds=inds,
            constr_inds=constr_inds,
        )


def random_term(
    rng,
    env,
    depth,
    binders,
    consts=DEFAULT_CONSTS,
    inds=DEFAULT_INDS,
    constr_inds=DEFAULT_CONSTR_INDS,
):
    """A random *well-scoped* term with ``binders`` enclosing binders."""

    def recur(d, b):
        return random_term(
            rng, env, d, b, consts=consts, inds=inds, constr_inds=constr_inds
        )

    leaves = ["sort", "const", "ind", "constr"]
    if binders > 0:
        leaves.append("rel")
    if depth <= 0:
        kind = rng.choice(leaves)
    else:
        kind = rng.choice(leaves + ["lam", "pi", "app", "elim"])
    if kind == "rel":
        return Rel(rng.randrange(binders))
    if kind == "sort":
        return Sort(rng.choice([-1, 0, 1, 2]))
    if kind == "const":
        return Const(rng.choice(consts))
    if kind == "ind":
        return Ind(rng.choice(inds))
    if kind == "constr":
        # Single-name pools skip the RNG draw so the default pools
        # reproduce the historical draw sequence exactly.
        name = (
            constr_inds[0]
            if len(constr_inds) == 1
            else rng.choice(constr_inds)
        )
        return Constr(name, rng.randrange(env.inductive(name).n_constructors))
    if kind == "lam":
        return Lam("x", recur(depth - 1, binders), recur(depth - 1, binders + 1))
    if kind == "pi":
        return Pi("x", recur(depth - 1, binders), recur(depth - 1, binders + 1))
    if kind == "app":
        return App(recur(depth - 1, binders), recur(depth - 1, binders))
    # elim: one case per constructor, all parts in scope.
    name = (
        constr_inds[0] if len(constr_inds) == 1 else rng.choice(constr_inds)
    )
    return Elim(
        name,
        recur(depth - 1, binders),
        tuple(
            recur(depth - 1, binders)
            for _ in range(env.inductive(name).n_constructors)
        ),
        recur(depth - 1, binders),
    )
