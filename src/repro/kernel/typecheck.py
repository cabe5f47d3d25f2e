"""The type checker for CIC_omega with primitive eliminators.

Bidirectional-in-spirit: :func:`infer` synthesizes a type; :func:`check`
verifies a term against an expected type using cumulativity.  The typing
rules are the standard ones (the paper says "the typing rules are
standard", Section 4); the eliminator rule uses
:func:`repro.kernel.inductive.case_type` to compute branch types.

Sort arithmetic:

* ``Prop : Type(1)``, ``Set : Type(1)``, ``Type(i) : Type(i+1)``.
* ``Pi (x : A), B`` lands in ``Prop`` when ``B`` does (impredicative
  Prop), otherwise in ``Type(max(level A, level B))``.
* Cumulativity ``Prop <= Set <= Type(1) <= ...`` is used when checking.

Like Coq's kernel as used by Pumpkin Pi, the checker is liberal about
elimination sorts (no Prop-elimination restriction); the paper's formal
setting, CIC_omega, does not impose one either.
"""

from __future__ import annotations

from typing import Optional, Tuple

from . import term as _term
from .context import Context
from .convert import conv, sub
from .env import ABSENT, Environment
from .inductive import case_type
from .reduce import beta_spine, whnf
from .stats import KERNEL_STATS
from .term import (
    App,
    Const,
    Constr,
    Elim,
    Ind,
    Lam,
    Pi,
    Rel,
    Sort,
    Term,
    TermError,
    lift,
    max_free_rel,
    mk_app,
    subst_many,
    unfold_app,
)


class TypeError_(TermError):
    """A type error, carrying a human-readable explanation."""


_INFER_COUNTER = KERNEL_STATS.counter("infer")
_INFER_TAG = "infer"


def _scope_ids(
    ctx: Context, term: Term, expected: Optional[Term] = None
) -> Tuple[int, ...]:
    """The context part of an ``infer``/``check`` verdict key.

    Typing a closed term never reads the context (weakening), and the
    type it gets is closed, so a verdict about closed inputs (``term``,
    and ``expected`` when given) keys on no context at all: one entry
    serves every context it is asked in.
    """
    ids = ctx.type_ids()
    if (
        ids
        and max_free_rel(term) == 0
        and (expected is None or max_free_rel(expected) == 0)
    ):
        return ()
    return ids


def infer(env: Environment, ctx: Context, term: Term) -> Term:
    """Infer the type of ``term`` in ``ctx``; raise TypeError_ on failure.

    Successful inferences are memoized in the environment's reduction
    cache under ``(term, context entries)``, or under the term alone
    when it is closed: inference is deterministic given the
    environment, and an entry is visible only in the declaration states
    that extend the one it was derived in.  Failures are not cached.
    """
    # Identity keys (term and context types pinned in the value) keep
    # the cache name-faithful: a structural key could return a type
    # whose binder display names came from a different, equal term.
    cache = env.reduction_cache
    key = None
    if _term._caches_enabled and not isinstance(term, (Rel, Sort, Const)):
        key = (_INFER_TAG, id(term), _scope_ids(ctx, term))
        hit = cache.get(key, _INFER_COUNTER)
        if hit is not ABSENT:
            return hit[-1]
    result = _infer(env, ctx, term)
    if key is not None:
        cache.put(key, (term, ctx.entries, result))
    return result


def _infer(env: Environment, ctx: Context, term: Term) -> Term:
    if isinstance(term, Rel):
        return ctx.type_of(term.index)

    if isinstance(term, Sort):
        if term.is_prop or term.is_set:
            return Sort(1)
        return Sort(term.level + 1)

    if isinstance(term, Const):
        return env.constant(term.name).type

    if isinstance(term, Ind):
        return env.inductive(term.name).arity()

    if isinstance(term, Constr):
        decl = env.inductive(term.ind)
        if not (0 <= term.index < decl.n_constructors):
            raise TypeError_(
                f"{term.ind} has no constructor #{term.index}"
            )
        return decl.constructor_type(term.index)

    if isinstance(term, Pi):
        dom_sort = infer_sort(env, ctx, term.domain)
        cod_sort = infer_sort(
            env, ctx.push(term.name, term.domain), term.codomain
        )
        if cod_sort.is_prop:
            return Sort(-1)
        return Sort(max(dom_sort.level, cod_sort.level, 0))

    if isinstance(term, Lam):
        infer_sort(env, ctx, term.domain)
        body_ty = infer(env, ctx.push(term.name, term.domain), term.body)
        return Pi(term.name, term.domain, body_ty)

    if isinstance(term, App):
        return _infer_spine(env, ctx, term)

    if isinstance(term, Elim):
        return _infer_elim(env, ctx, term)

    raise TypeError_(f"cannot infer type of {term!r}")


def _infer_spine(env: Environment, ctx: Context, term: App) -> Term:
    """Infer an application spine iteratively.

    One loop handles the whole spine instead of one ``infer``/``_infer``
    frame pair per ``App`` node.  Each prefix is probed in the memo on
    the way down, stopping at the innermost hit; :func:`infer` stores
    the type of the whole spine.
    """
    cache = env.reduction_cache
    caching = _term._caches_enabled
    spine = [term]
    t = term.fn
    fn_ty = None
    while isinstance(t, App):
        if caching:
            hit = cache.get(
                (_INFER_TAG, id(t), _scope_ids(ctx, t)), _INFER_COUNTER
            )
            if hit is not ABSENT:
                fn_ty = hit[-1]
                break
        spine.append(t)
        t = t.fn
    if fn_ty is None:
        fn_ty = infer(env, ctx, t)
    # Substitutions into the function type are *delayed*: while the type
    # is a syntactic Pi tower, only each (usually small, often closed)
    # domain is instantiated with the pending arguments, and the whole
    # tower is materialized once — with a single parallel substitution —
    # when a non-Pi codomain or the end of the spine forces it.  Parallel
    # substitution of a spine equals the sequential per-step fold (each
    # argument lives outside every crossed binder), so the result is
    # byte-identical to substituting at every step; what is saved is
    # rebuilding the remaining tower once per argument.
    ty = fn_ty
    pending: list = []
    for node in reversed(spine):
        if not isinstance(ty, Pi):
            if pending:
                ty = _head_beta(subst_many(ty, tuple(reversed(pending))))
                pending = []
            if not isinstance(ty, Pi):
                # Inferred function types are almost always Pi already;
                # dispatching to the reduction engine only pays off when
                # there is an actual redex or constant to unfold.
                ty = whnf(env, ty)
            if not isinstance(ty, Pi):
                raise TypeError_(
                    f"application of a non-function: head has type {ty!r}"
                )
        dom = ty.domain
        if pending:
            dom = subst_many(dom, tuple(reversed(pending)))
        check(env, ctx, node.arg, dom)
        pending.append(node.arg)
        ty = ty.codomain
    if pending:
        ty = _head_beta(subst_many(ty, tuple(reversed(pending))))
    return ty


def _head_beta(term: Term) -> Term:
    """Contract leading beta redexes (cosmetic cleanup of inferred types)."""
    while True:
        head, args = unfold_app(term)
        if not (isinstance(head, Lam) and args):
            return term
        body, n = beta_spine(head, args[::-1])
        term = mk_app(body, args[n:])


_CHECK_COUNTER = KERNEL_STATS.counter("check")
_CHECK_TAG = "check"


def check(env: Environment, ctx: Context, term: Term, expected: Term) -> None:
    """Check ``term`` against ``expected`` (up to cumulativity).

    Checking is bidirectional: a ``Lam`` checked against a ``Pi`` whose
    domain is convertible descends straight into the body against the
    codomain, instead of synthesizing the whole spine's type and
    comparing after the fact — the Figure-10 rule outputs and
    repaired definitions the transformer produces are all checked
    against expected (configuration-derived) types, so this skips
    re-deriving what the caller already knows.  Successful verdicts are
    memoized in the environment's reduction cache (identity keys with
    the referents pinned in the value, and no context when term and
    expected type are both closed, like ``infer``); checking is stable
    under additive environment extension, which is all an entry is
    ever visible across.  Failures are not cached and fall back to the
    synthesizing path, preserving its error reporting.
    """
    cache = env.reduction_cache
    key = None
    if _term._caches_enabled:
        scope = _scope_ids(ctx, term, expected)
        key = (_CHECK_TAG, id(term), id(expected), scope)
        hit = cache.get(key, _CHECK_COUNTER)
        if hit is not ABSENT:
            return
    _check_bidirectional(env, ctx, term, expected)
    if key is not None:
        cache.put(key, (term, expected, ctx.entries, True))


def _check_bidirectional(
    env: Environment, ctx: Context, term: Term, expected: Term
) -> None:
    while isinstance(term, Lam):
        exp = expected if isinstance(expected, Pi) else whnf(env, expected)
        if not (isinstance(exp, Pi) and conv(env, term.domain, exp.domain)):
            # Structure (or domain) disagrees: synthesize and subsume,
            # which reports the mismatch against the whole term.
            break
        infer_sort(env, ctx, term.domain)
        ctx = ctx.push(term.name, term.domain)
        term = term.body
        expected = exp.codomain
    actual = infer(env, ctx, term)
    if actual is expected:
        return
    if not sub(env, actual, expected):
        _raise_mismatch(env, ctx, term, actual, expected)


def _raise_mismatch(
    env: Environment, ctx: Context, term: Term, actual: Term, expected: Term
) -> None:
    from .pretty import pretty

    raise TypeError_(
        "type mismatch:\n"
        f"  term:     {pretty(term, ctx=ctx)}\n"
        f"  has type: {pretty(actual, ctx=ctx)}\n"
        f"  expected: {pretty(expected, ctx=ctx)}"
    )


def infer_sort(env: Environment, ctx: Context, term: Term) -> Sort:
    """Infer the type of ``term`` and require it to be a sort."""
    ty = infer(env, ctx, term)
    if not isinstance(ty, Sort):
        ty = whnf(env, ty)
    if not isinstance(ty, Sort):
        raise TypeError_(f"expected a type, got a term of type {ty!r}")
    return ty


def _infer_elim(env: Environment, ctx: Context, term: Elim) -> Term:
    decl = env.inductive(term.ind)
    if len(term.cases) != decl.n_constructors:
        raise TypeError_(
            f"Elim over {term.ind}: expected {decl.n_constructors} cases, "
            f"got {len(term.cases)}"
        )

    # Scrutinee type determines parameters and indices.
    scrut_ty = whnf(env, infer(env, ctx, term.scrut))
    head, args = unfold_app(scrut_ty)
    if not (isinstance(head, Ind) and head.name == term.ind):
        raise TypeError_(
            f"Elim over {term.ind}: scrutinee has type {scrut_ty!r}"
        )
    params = args[: decl.n_params]
    indices = args[decl.n_params :]

    # The motive must accept the indices and the scrutinee.
    motive_ty = infer(env, ctx, term.motive)
    expected_motive_ty = _expected_motive_type(env, decl, params)
    if not _motive_ok(env, ctx, motive_ty, expected_motive_ty):
        from .pretty import pretty

        raise TypeError_(
            f"Elim over {term.ind}: motive has type "
            f"{pretty(motive_ty, ctx=ctx)}, expected shape "
            f"{pretty(expected_motive_ty, ctx=ctx)}"
        )

    for j, case in enumerate(term.cases):
        expected = case_type(decl, j, params, term.motive)
        check(env, ctx, case, expected)

    from .reduce import beta_reduce

    return beta_reduce(mk_app(term.motive, tuple(indices) + (term.scrut,)))


def _expected_motive_type(
    env: Environment, decl, params: Tuple[Term, ...]
) -> Term:
    """``Pi indices, I params indices -> Type(big)`` for shape checking."""
    from .inductive import instantiate_telescope
    from .term import mk_pis, type_sort

    index_tele = instantiate_telescope(
        tuple(decl.params) + tuple(decl.indices), params
    )
    ni = decl.n_indices
    applied = mk_app(
        Ind(decl.name),
        tuple(lift(p, ni) for p in params)
        + tuple(Rel(ni - 1 - k) for k in range(ni)),
    )
    return mk_pis(index_tele, Pi("_x", applied, type_sort(2)))


def _motive_ok(
    env: Environment, ctx: Context, motive_ty: Term, expected: Term
) -> bool:
    """Motive type matches the expected telescope, landing in any sort."""
    mt = whnf(env, motive_ty)
    et = whnf(env, expected)
    while isinstance(et, Pi):
        if not isinstance(mt, Pi):
            return False
        if not conv(env, mt.domain, et.domain):
            return False
        mt = whnf(env, mt.codomain)
        et = whnf(env, et.codomain)
    # ``et`` is the placeholder sort; the motive may land in any sort.
    return isinstance(mt, Sort)


def typecheck_closed(env: Environment, term: Term) -> Term:
    """Infer the type of a closed term in the empty context."""
    return infer(env, Context.empty(), term)
