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

Two mutators turn a generated term into one the kernel must reject:
:func:`bump_first_rel` (an out-of-scope ``Rel``) and
:func:`drop_first_elim_case` (an eliminator missing a branch).  The
scope checker's fuzz tests and the warm-cache soundness suite share them.
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


def bump_first_rel(term, binders=0):
    """Make the first ``Rel`` found out of scope; None when there is none."""
    if isinstance(term, Rel):
        return Rel(term.index + binders + 1)
    if isinstance(term, App):
        fn = bump_first_rel(term.fn, binders)
        if fn is not None:
            return App(fn, term.arg)
        arg = bump_first_rel(term.arg, binders)
        return App(term.fn, arg) if arg is not None else None
    if isinstance(term, Lam):
        domain = bump_first_rel(term.domain, binders)
        if domain is not None:
            return Lam(term.name, domain, term.body)
        body = bump_first_rel(term.body, binders + 1)
        return Lam(term.name, term.domain, body) if body is not None else None
    if isinstance(term, Pi):
        domain = bump_first_rel(term.domain, binders)
        if domain is not None:
            return Pi(term.name, domain, term.codomain)
        codomain = bump_first_rel(term.codomain, binders + 1)
        if codomain is not None:
            return Pi(term.name, term.domain, codomain)
        return None
    if isinstance(term, Elim):
        motive = bump_first_rel(term.motive, binders)
        if motive is not None:
            return Elim(term.ind, motive, term.cases, term.scrut)
        for j, case in enumerate(term.cases):
            mutated = bump_first_rel(case, binders)
            if mutated is not None:
                cases = (
                    term.cases[:j] + (mutated,) + term.cases[j + 1 :]
                )
                return Elim(term.ind, term.motive, cases, term.scrut)
        scrut = bump_first_rel(term.scrut, binders)
        if scrut is not None:
            return Elim(term.ind, term.motive, term.cases, scrut)
        return None
    return None


def drop_first_elim_case(term):
    """Drop the last case of the first ``Elim`` found; None when none."""
    if isinstance(term, Elim):
        return Elim(term.ind, term.motive, term.cases[:-1], term.scrut)
    if isinstance(term, App):
        fn = drop_first_elim_case(term.fn)
        if fn is not None:
            return App(fn, term.arg)
        arg = drop_first_elim_case(term.arg)
        return App(term.fn, arg) if arg is not None else None
    if isinstance(term, (Lam, Pi)):
        inner = "body" if isinstance(term, Lam) else "codomain"
        domain = drop_first_elim_case(term.domain)
        if domain is not None:
            return type(term)(term.name, domain, getattr(term, inner))
        sub = drop_first_elim_case(getattr(term, inner))
        if sub is not None:
            return type(term)(term.name, term.domain, sub)
        return None
    return None
