"""Reduction: beta, iota, delta, and normal forms.

Implements weak-head normalization (:func:`whnf`) and full normalization
(:func:`nf`).  Delta unfolding of constants can be restricted via a
``frozen`` set — the implementation analogue of Pumpkin Pi's cache that
tells the tool *not* to delta-reduce certain terms (Section 4.4).

Both normalizers consult the :class:`~repro.kernel.env.ReductionCache`
attached to the environment, keyed by ``(operation, term, delta,
frozen)``.  The transformer, the type checker, and the decompiler all
normalize through the same environment, so a reduction computed once is
shared kernel-wide; hash-consed terms make the keys O(1) to hash and
compare.  The structural rebuilders return their input unchanged when no
child changed, so repeated normalization of an already-normal term
allocates nothing.

Beta steps substitute.  A head ``Lam`` spine applied to several
arguments is contracted by :func:`beta_spine` with one parallel
:func:`~repro.kernel.term.subst_many` pass (memoized per call); a single
binder goes through the memoized :func:`~repro.kernel.term.subst`.

Cache keys for ``App``/``Elim``/``Const`` inputs are *shallow
structural* — class tag plus child identities — so structurally equal
redexes rebuilt outside the hash-consing arena (distinct parent nodes
over the same interned children) still hit.  This is name-safe because
those three classes carry no binder display names: identical children
by identity means identical bytes.  ``Lam``/``Pi`` keep whole-node
identity keys (their names are ignored by ``__eq__``, so structural
keys could rename binders).

Terms nested deeper than Python's recursion limit raise a clean
:class:`ReduceError` instead of ``RecursionError`` (the de Bruijn
operations in :mod:`repro.kernel.term` are explicit-stack and have no
such limit).
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Tuple

from . import term as _term
from .env import ABSENT, Environment
from .inductive import iota_reduce
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
    mk_app,
    register_term_cache,
    subst,
    subst_many,
    unfold_app,
)


class ReduceError(TermError):
    """Raised when reduction encounters an ill-formed redex."""


_WHNF_COUNTER = KERNEL_STATS.counter("whnf")
_NF_COUNTER = KERNEL_STATS.counter("nf")

# Key tags keep whnf and nf entries apart in the shared store.
_WHNF_TAG = "whnf"
_NF_TAG = "nf"

_TOO_DEEP = (
    "term is nested too deeply to normalize recursively "
    "(Python recursion limit reached); raise sys.setrecursionlimit "
    "or reduce the term's depth"
)


def _whnf_key(
    term: Term, delta: bool, frozen: FrozenSet[str]
) -> Optional[Tuple]:
    """Shallow structural cache key for whnf, or None for other shapes.

    Only head shapes that whnf can actually act on are worth caching.
    Keys combine the class tag with *child* identities, so structurally
    equal ``App``/``Elim`` nodes rebuilt over the same interned children
    share one entry (the fix for the 0%-hit whnf cache in the ``reduce``
    phases, where redexes are assembled fresh each time).  None of these
    classes carries a binder name, so a hit can never rename binders;
    the input is pinned in the stored value to keep child ids stable.
    """
    cls = term.__class__
    if cls is App:
        return (_WHNF_TAG, 0, id(term.fn), id(term.arg), delta, frozen)
    if cls is Elim:
        return (
            _WHNF_TAG,
            1,
            term.ind,
            id(term.motive),
            tuple(map(id, term.cases)),
            id(term.scrut),
            delta,
            frozen,
        )
    if cls is Const:
        return (_WHNF_TAG, 2, term.name, delta, frozen)
    return None


def whnf(
    env: Environment,
    term: Term,
    delta: bool = True,
    frozen: Optional[FrozenSet[str]] = None,
) -> Term:
    """Weak-head normal form of ``term``.

    ``delta=False`` disables constant unfolding entirely; ``frozen`` names
    constants that must not be unfolded even when delta is enabled.
    """
    frozen = frozen or frozenset()
    try:
        return _whnf(env, term, delta, frozen)
    except RecursionError:
        raise ReduceError(_TOO_DEEP) from None


def beta_spine(lam: Lam, args: Sequence[Term]) -> Tuple[Term, int]:
    """Contract ``lam``'s leading binders against pending arguments.

    ``args`` is a stack whose *last* element is the first argument
    ``lam`` is applied to (``reversed`` application order, the order
    :func:`~repro.kernel.term.subst_many` wants).  Returns the
    instantiated body and how many arguments it consumed: as many as
    there are leading binders, at most ``len(args)``, at least one.

    A spine of binders is contracted with one parallel ``subst_many``,
    which equals the sequential beta steps because each argument lives
    outside every contracted binder.  ``subst_many`` memoizes per call
    (one entry for the body and its arguments) rather than per node, so
    the intermediate bodies of the steps store no ``subst`` entries (the
    bulk of that table's growth when binders are contracted one at a
    time), while a repeated step is one lookup.  A single binder keeps
    the memoized ``subst``.
    """
    body = lam.body
    n = 1
    while n < len(args) and isinstance(body, Lam):
        body = body.body
        n += 1
    if n == 1:
        return subst(body, args[-1]), 1
    return subst_many(body, args[-n:]), n


def _whnf(
    env: Environment, term: Term, delta: bool, frozen: FrozenSet[str]
) -> Term:
    cache = env.reduction_cache
    key = _whnf_key(term, delta, frozen) if _term._caches_enabled else None
    pin = term
    if key is not None:
        hit = cache.get(key, _WHNF_COUNTER)
        if hit is not ABSENT:
            return hit[1]
    args: List[Term] = []
    while True:
        if isinstance(term, App):
            args.append(term.arg)
            term = term.fn
            continue
        if isinstance(term, Lam) and args:
            term, n = beta_spine(term, args)
            del args[-n:]
            continue
        if isinstance(term, Const) and delta and term.name not in frozen:
            decl = env.constant(term.name)
            if decl.unfoldable:
                term = decl.body
                continue
        if isinstance(term, Elim):
            scrut = _whnf(env, term.scrut, delta, frozen)
            head, ctor_args = unfold_app(scrut)
            if isinstance(head, Constr) and head.ind == term.ind:
                decl = env.inductive(term.ind)
                n_params = decl.n_params
                params = ctor_args[:n_params]
                value_args = ctor_args[n_params:]
                term = iota_reduce(
                    decl,
                    term.motive,
                    term.cases,
                    head.index,
                    params,
                    value_args,
                )
                continue
            if scrut is not term.scrut:
                term = Elim(term.ind, term.motive, term.cases, scrut)
        break
    args.reverse()
    result = mk_app(term, args)
    if key is not None:
        cache.put(key, (pin, result))
    return result


def _nf_key(
    term: Term, delta: bool, frozen: FrozenSet[str]
) -> Optional[Tuple]:
    """Cache key for nf: shallow structural where name-safe, else id."""
    cls = term.__class__
    if cls is App:
        return (_NF_TAG, 0, id(term.fn), id(term.arg), delta, frozen)
    if cls is Elim:
        return (
            _NF_TAG,
            1,
            term.ind,
            id(term.motive),
            tuple(map(id, term.cases)),
            id(term.scrut),
            delta,
            frozen,
        )
    if cls is Const:
        return (_NF_TAG, 2, term.name, delta, frozen)
    if cls is Lam or cls is Pi:
        # Lam/Pi carry display names that __eq__ ignores; identity keys
        # keep a hit from renaming binders.
        return (_NF_TAG, 3, id(term), delta, frozen)
    return None


def nf(
    env: Environment,
    term: Term,
    delta: bool = True,
    frozen: Optional[FrozenSet[str]] = None,
) -> Term:
    """Full (strong) normal form of ``term``.

    Structural descent: weak-head reduce, then normalize the pieces,
    with every subterm's normal form individually cached.
    """
    frozen = frozen or frozenset()
    try:
        return _nf(env, term, delta, frozen)
    except RecursionError:
        raise ReduceError(_TOO_DEEP) from None


def _nf(
    env: Environment, term: Term, delta: bool, frozen: FrozenSet[str]
) -> Term:
    if isinstance(term, (Rel, Sort, Ind, Constr)):
        return term
    cache = env.reduction_cache
    key = _nf_key(term, delta, frozen) if _term._caches_enabled else None
    if key is not None:
        hit = cache.get(key, _NF_COUNTER)
        if hit is not ABSENT:
            return hit[1]
    result = _nf_uncached(env, term, delta, frozen)
    if key is not None:
        cache.put(key, (term, result))
    return result


def _nf_uncached(
    env: Environment, term: Term, delta: bool, frozen: FrozenSet[str]
) -> Term:
    term = _whnf(env, term, delta, frozen)
    if isinstance(term, (Rel, Sort, Const, Ind, Constr)):
        return term
    if isinstance(term, App):
        head, args = unfold_app(term)
        # The head of a whnf application is not a redex; normalize pieces.
        norm_head = _nf_head(env, head, delta, frozen)
        norm_args = [_nf(env, a, delta, frozen) for a in args]
        if norm_head is head and all(a is b for a, b in zip(norm_args, args)):
            return term
        return mk_app(norm_head, norm_args)
    if isinstance(term, Lam):
        domain = _nf(env, term.domain, delta, frozen)
        body = _nf(env, term.body, delta, frozen)
        if domain is term.domain and body is term.body:
            return term
        return Lam(term.name, domain, body)
    if isinstance(term, Pi):
        domain = _nf(env, term.domain, delta, frozen)
        codomain = _nf(env, term.codomain, delta, frozen)
        if domain is term.domain and codomain is term.codomain:
            return term
        return Pi(term.name, domain, codomain)
    if isinstance(term, Elim):
        motive = _nf(env, term.motive, delta, frozen)
        cases = [_nf(env, c, delta, frozen) for c in term.cases]
        scrut = _nf(env, term.scrut, delta, frozen)
        if (
            motive is term.motive
            and scrut is term.scrut
            and all(a is b for a, b in zip(cases, term.cases))
        ):
            return term
        return Elim(term.ind, motive, tuple(cases), scrut)
    raise ReduceError(f"nf: unknown term {term!r}")


def _nf_head(
    env: Environment, head: Term, delta: bool, frozen: FrozenSet[str]
) -> Term:
    """Normalize the head of a stuck application spine."""
    if isinstance(head, (Rel, Sort, Const, Ind, Constr)):
        return head
    if isinstance(head, Elim):
        motive = _nf(env, head.motive, delta, frozen)
        cases = [_nf(env, c, delta, frozen) for c in head.cases]
        scrut = _nf(env, head.scrut, delta, frozen)
        if (
            motive is head.motive
            and scrut is head.scrut
            and all(a is b for a, b in zip(cases, head.cases))
        ):
            return head
        return Elim(head.ind, motive, tuple(cases), scrut)
    if isinstance(head, (Lam, Pi)):
        # A whnf application cannot have a Lam head with pending args, but a
        # spine can be empty; normalize structurally.
        return _nf(env, head, delta, frozen)
    raise ReduceError(f"nf: unexpected application head {head!r}")


def beta_reduce(term: Term) -> Term:
    """Pure beta reduction to normal form (no environment needed).

    Used by the transformation to clean up configuration-term
    applications without unfolding any globals.  Returns the input
    unchanged when it is already beta-normal.
    """
    try:
        return _beta_reduce(term)
    except RecursionError:
        raise ReduceError(_TOO_DEEP) from None


_BETA_MEMO: dict = register_term_cache({})
_BETA_MEMO_MAX = 1 << 19
_BETA_COUNTER = KERNEL_STATS.counter("beta")


def _beta_reduce(term: Term) -> Term:
    # Pure function of the term alone, so composite nodes are memoized
    # globally; hash consing makes repeated subtrees hit the table.
    # Identity keys (with the node pinned in the value) keep the memo
    # name-faithful: equality ignores binder display names.
    if isinstance(term, (Rel, Sort, Const, Ind, Constr)):
        return term
    if _term._caches_enabled:
        entry = _BETA_MEMO.get(id(term))
        if entry is not None:
            _BETA_COUNTER.hits += 1
            return entry[1]
        _BETA_COUNTER.misses += 1
        result = _beta_reduce_node(term)
        if len(_BETA_MEMO) >= _BETA_MEMO_MAX:
            _BETA_MEMO.clear()
        _BETA_MEMO[id(term)] = (term, result)
        return result
    return _beta_reduce_node(term)


def _beta_reduce_node(term: Term) -> Term:
    if isinstance(term, App):
        fn = _beta_reduce(term.fn)
        arg = _beta_reduce(term.arg)
        if isinstance(fn, Lam):
            return _beta_reduce(subst(fn.body, arg))
        if fn is term.fn and arg is term.arg:
            return term
        return App(fn, arg)
    if isinstance(term, Lam):
        domain = _beta_reduce(term.domain)
        body = _beta_reduce(term.body)
        if domain is term.domain and body is term.body:
            return term
        return Lam(term.name, domain, body)
    if isinstance(term, Pi):
        domain = _beta_reduce(term.domain)
        codomain = _beta_reduce(term.codomain)
        if domain is term.domain and codomain is term.codomain:
            return term
        return Pi(term.name, domain, codomain)
    if isinstance(term, Elim):
        motive = _beta_reduce(term.motive)
        cases = [_beta_reduce(c) for c in term.cases]
        scrut = _beta_reduce(term.scrut)
        if (
            motive is term.motive
            and scrut is term.scrut
            and all(a is b for a, b in zip(cases, term.cases))
        ):
            return term
        return Elim(term.ind, motive, tuple(cases), scrut)
    return term
