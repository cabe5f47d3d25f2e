"""Conversion (definitional equality) and cumulativity checking.

The algorithm is whnf-directed structural comparison with:

* delta unfolding of constants (with a fast path: identical constants are
  equal without unfolding),
* eta-conversion for functions (a lambda compared with a non-lambda is
  compared with the eta-expansion of the other side), and
* cumulativity (``Prop <= Set <= Type(1) <= ...``) when used in subtype
  mode: covariant in Pi codomains, invariant in domains, like Coq.
"""

from __future__ import annotations

from . import term as _term
from .env import ABSENT, Environment
from .reduce import whnf
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
    lift,
    unfold_app,
)


_CONV_COUNTER = KERNEL_STATS.counter("conv")
_CONV_TAG = "conv"


def conv(env: Environment, t1: Term, t2: Term) -> bool:
    """Definitional equality of ``t1`` and ``t2``."""
    return _conv(env, t1, t2, cumulative=False)


def sub(env: Environment, t1: Term, t2: Term) -> bool:
    """Cumulativity: ``t1`` is convertible to a subtype of ``t2``."""
    return _conv(env, t1, t2, cumulative=True)


def _conv(env: Environment, t1: Term, t2: Term, cumulative: bool) -> bool:
    # Hash-consed terms make the identity fast path hit for any pair the
    # kernel has compared (or built) before.
    if t1 is t2 or t1 == t2:
        return True
    cache = env.reduction_cache
    key = None
    if _term._caches_enabled:
        key = (_CONV_TAG, t1, t2, cumulative)
        hit = cache.get(key, _CONV_COUNTER)
        if hit is not ABSENT:
            return hit
    result = _conv_uncached(env, t1, t2, cumulative)
    if key is not None:
        cache.put(key, result)
    return result


def _conv_uncached(
    env: Environment, t1: Term, t2: Term, cumulative: bool
) -> bool:
    t1 = whnf(env, t1)
    t2 = whnf(env, t2)
    if t1 == t2:
        return True

    # Eta for functions: compare a lambda against the expansion of the
    # other side.  (The paper assumes fully eta-expanded terms; supporting
    # eta in conversion removes that assumption from the kernel.)
    if isinstance(t1, Lam) and not isinstance(t2, Lam):
        expanded = Lam(t1.name, t1.domain, App(lift(t2, 1), Rel(0)))
        return _conv(env, t1, expanded, cumulative=False)
    if isinstance(t2, Lam) and not isinstance(t1, Lam):
        expanded = Lam(t2.name, t2.domain, App(lift(t1, 1), Rel(0)))
        return _conv(env, expanded, t2, cumulative=False)

    if isinstance(t1, Sort) and isinstance(t2, Sort):
        if cumulative:
            return t1.level <= t2.level
        return t1.level == t2.level

    if isinstance(t1, Rel) and isinstance(t2, Rel):
        return t1.index == t2.index

    if isinstance(t1, (Const, Ind)) and type(t1) is type(t2):
        if t1.name == t2.name:
            return True
        return False

    if isinstance(t1, Constr) and isinstance(t2, Constr):
        return t1.ind == t2.ind and t1.index == t2.index

    if isinstance(t1, Pi) and isinstance(t2, Pi):
        if not _conv(env, t1.domain, t2.domain, cumulative=False):
            return False
        return _conv(env, t1.codomain, t2.codomain, cumulative=cumulative)

    if isinstance(t1, Lam) and isinstance(t2, Lam):
        # Domains are checked for conversion; bodies must be convertible.
        if not _conv(env, t1.domain, t2.domain, cumulative=False):
            return False
        return _conv(env, t1.body, t2.body, cumulative=False)

    if isinstance(t1, App) and isinstance(t2, App):
        head1, args1 = unfold_app(t1)
        head2, args2 = unfold_app(t2)
        if len(args1) == len(args2) and _conv_head(env, head1, head2):
            if all(
                _conv(env, a1, a2, cumulative=False)
                for a1, a2 in zip(args1, args2)
            ):
                return True
        # Stuck applications can still be equal after unfolding a constant
        # head on either side (whnf stops at constants without bodies or
        # when the application is already weak-head normal with an
        # unfoldable-but-stuck head; that cannot happen here since whnf
        # unfolds eagerly).  Nothing more to try.
        return False

    if isinstance(t1, Elim) and isinstance(t2, Elim):
        if t1.ind != t2.ind or len(t1.cases) != len(t2.cases):
            return False
        if not _conv(env, t1.motive, t2.motive, cumulative=False):
            return False
        if not all(
            _conv(env, c1, c2, cumulative=False)
            for c1, c2 in zip(t1.cases, t2.cases)
        ):
            return False
        return _conv(env, t1.scrut, t2.scrut, cumulative=False)

    return False


def _conv_head(env: Environment, h1: Term, h2: Term) -> bool:
    """Compare heads of stuck applications."""
    if type(h1) is not type(h2):
        return False
    if isinstance(h1, Rel):
        return h1.index == h2.index
    if isinstance(h1, (Const, Ind)):
        return h1.name == h2.name
    if isinstance(h1, Constr):
        return h1.ind == h2.ind and h1.index == h2.index
    if isinstance(h1, Elim):
        return _conv(env, h1, h2, cumulative=False)
    return _conv(env, h1, h2, cumulative=False)
