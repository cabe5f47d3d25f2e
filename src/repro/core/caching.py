"""Caches for the proof term transformation (Section 4.4).

The paper reports that aggressive caching — "even caching intermediate
subterms that we encounter in the course of running our proof term
transformation" — was needed to keep repair under the ~10 seconds an
industrial proof engineer would wait.  :class:`TransformCache` is that
cache; it can be disabled (the paper exposes the same switch) and it
counts hits and misses so the caching ablation benchmark can report its
effect.  Lookups are mirrored into the process-wide
:data:`~repro.kernel.stats.KERNEL_STATS` table ``transform_cache`` so
tracing spans report the hit rate alongside the kernel's own caches.

Keys are built by :meth:`TransformCache.key_for`, which *prunes* the
context component down to a prefix covering the entries the term can
actually observe (its free de Bruijn variables plus the entries their
types reach).  Under deep binder
nesting (eliminator cases, long telescopes) the same subterm recurs
under many syntactically different contexts that agree on the entries it
uses; pruning makes those lookups hit.  Hash-consed terms (see
:mod:`repro.kernel.term`) make the keys cheap to hash and compare.
Key construction itself is memoized per (term, context) identity in
one process-wide table — interned contexts
(:meth:`repro.kernel.context.Context.push`) make the same subterm under
the same binder chain hit without re-running the pruning walk, which
used to be over half the transformer's cost.  A key is a pure function
of an arena term and an interned context, so every cache (and every
job of a warm worker) shares the table.  The stored transforms are not
pure in the same way: they depend on the configuration and on the
names the repair maps the old constants to, so a store is valid for
one configuration and one naming (see
:class:`~repro.core.repair.RepairSession`).  A warm worker keeps one
store per resident configuration for the naming its jobs use
(:class:`~repro.service.worker.ResidentConfig`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..kernel import term as _term
from ..kernel.context import Context
from ..kernel.stats import KERNEL_STATS
from ..kernel.term import Term, max_free_rel, register_term_cache

_TRANSFORM_COUNTER = KERNEL_STATS.counter("transform_cache")

#: ``(id(term), id(ctx))`` -> ``(term, ctx, key)``: the key memo, shared
#: by every cache; the value pins the referents of the ids.
_KEY_MEMO: Dict[Tuple[int, int], Tuple] = register_term_cache({})
#: Bound on the key memo, mirroring the kernel's `_MEMO_MAX` discipline.
_KEY_MEMO_MAX = 1 << 20


def _build_key(term: Term, ctx: Context) -> Tuple:
    entries = ctx.entries
    size = len(entries)
    k = max_free_rel(term)
    if size == 0 or k == 0:
        return ((id(term), ()), (term, ()))
    if k > size:
        k = size
    # Extend to a dependency-closed prefix: the type of entry i lives
    # under entries i+1.., so its free Rel(j) reaches entry i+1+j.
    # Integer bounds (cached per node) in a single widening pass are
    # far cheaper than the exact free-variable closure, and a prefix
    # containing the closure determines the transform output just the
    # same — the key is merely a little coarser across contexts.
    i = 0
    while i < k:
        reach = i + 1 + max_free_rel(entries[i][1])
        if reach > k:
            k = reach if reach < size else size
        i += 1
    return ((id(term), ctx.type_ids()[:k]), (term, ctx))


@dataclass
class TransformCache:
    """Memoizes transformed subterms, keyed by (term, relevant context).

    The key leaves out the configuration and the constant map, so one
    store serves one configuration under one naming: share it only
    between repairs that map the same old constants to the same names.
    """

    enabled: bool = True
    hits: int = 0
    misses: int = 0
    _store: Dict[Tuple, Tuple] = field(default_factory=dict)

    def key_for(self, term: Term, ctx: Context) -> Tuple:
        """Cache key for transforming ``term`` under ``ctx``.

        Only context entries reachable from the term's free variables
        (following free variables of the entry types themselves) can
        influence the transformation, so the key records just a prefix
        of the context covering those entries.  Two occurrences of the
        same subterm under contexts that agree on that prefix share one
        entry.

        The key pairs an identity-based lookup tuple with the pinned
        referents: term equality ignores binder display names, so a
        structural key could hand back a transformed term with someone
        else's names.  Hash-consed terms are pointer-identical when
        names also agree, so identity keys still hit.  With the kernel
        caches off, contexts are not interned, so the key is built
        directly rather than memoized.
        """
        if not _term._caches_enabled:
            return _build_key(term, ctx)
        memo_key = (id(term), id(ctx))
        entry = _KEY_MEMO.get(memo_key)
        if entry is not None:
            return entry[2]
        key = _build_key(term, ctx)
        if len(_KEY_MEMO) >= _KEY_MEMO_MAX:
            _KEY_MEMO.clear()
        # Pin the term and context so the ids in the memo key stay valid.
        _KEY_MEMO[memo_key] = (term, ctx, key)
        return key

    def get(self, key: Tuple) -> Optional[Term]:
        if not self.enabled:
            return None
        entry = self._store.get(key[0])
        if entry is None:
            self.misses += 1
            _TRANSFORM_COUNTER.misses += 1
            return None
        self.hits += 1
        _TRANSFORM_COUNTER.hits += 1
        return entry[1]

    def put(self, key: Tuple, value: Term) -> None:
        if self.enabled:
            # Store the pinned referents alongside the result so the ids
            # in the lookup tuple stay valid while the entry lives.
            self._store[key[0]] = (key[1], value)

    def clear(self) -> None:
        self._store.clear()
        self.hits = 0
        self.misses = 0

    @property
    def size(self) -> int:
        return len(self._store)
