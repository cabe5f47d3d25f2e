"""Core term language: CIC_omega with primitive eliminators.

This module implements the syntax of Figure 7 of the paper:

    t ::= v | s | Pi (v : t). t | lambda (v : t). t | t t
        | Ind (v : t){t, ..., t} | Constr (i, t) | Elim(t, t){t, ..., t}

with two engineering deviations that do not change the calculus:

* Variables are de Bruijn indices (``Rel``) internally; binders carry a
  display name used only for printing.  Global names (``Const``) refer to
  definitions in a :class:`~repro.kernel.env.Environment`.
* Inductive types are declared once in the environment and referenced by
  name (``Ind``); constructors are ``Constr(name, index)``.  The primitive
  eliminator ``Elim`` carries the inductive name, the motive, one case per
  constructor, and the scrutinee.  Parameters and indices are recovered
  from the scrutinee's type during type checking and reduction.

All terms are immutable and hashable so they can be cached aggressively
(the paper emphasizes caching for performance, Section 4.4).

Performance architecture (see DESIGN.md, "Performance architecture"):

* **Hash consing.**  Every constructor call consults a process-wide
  intern table, so structurally equal terms built with the same display
  names are pointer-identical.  Identity makes cache keys O(1) to
  compare, maximizes sharing, and lets the rebuilders below return their
  input unchanged when no child changed.  Interning is a pure
  optimization: no code may rely on ``is`` for *correctness*, only for
  speed, because the arena is capped and can be cleared at any time.
* **Cached free-variable bounds.**  :func:`max_free_rel` lazily computes
  and caches, per node, the smallest ``n`` such that the term is closed
  under ``n`` binders.  ``lift``/``subst``/``free_rels`` use it to
  short-circuit on closed subtrees — the overwhelmingly common case for
  library terms — without walking them.
* **Memoized de Bruijn ops.**  ``lift`` and ``subst`` memoize per-node
  results in global tables keyed by ``(node, parameters)``; hash-consing
  makes those keys cheap and hit rates high.  ``subst_many`` and
  ``free_rels`` memoize whole-call results.
* **Explicit-stack traversal.**  The hot walks (``lift``, ``subst``,
  ``free_rels``, ``max_free_rel``) use an explicit stack, so terms
  thousands of binders deep do not hit Python's recursion limit.

One switch, :func:`set_kernel_caches`, turns every kernel cache layer
on or off at once: interning and the memo tables here, the memos of the
other kernel modules and every environment's reduction cache.  The
``REPRO_DISABLE_KERNEL_CACHES`` environment variable sets it off at
import time.  :data:`repro.kernel.stats.KERNEL_STATS` counts
constructions, intern hits, and memo hits/misses per table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .stats import CACHES_DISABLED_BY_ENV, KERNEL_STATS


class TermError(Exception):
    """Raised on malformed terms or misuse of term-level operations."""


# ---------------------------------------------------------------------------
# The term arena (hash consing)
# ---------------------------------------------------------------------------
#
# The intern table maps structural keys (class + field values, including
# display names so shared nodes never change how they print) to the
# canonical node.  It holds strong references; the cap below bounds
# memory, and clearing it is always safe because nothing relies on
# pointer identity for correctness.

_INTERN: Dict[tuple, "Term"] = {}
_INTERN_MAX = 1 << 20

#: The one kernel cache switch.  Other kernel modules read it on their
#: hot paths as ``_term._caches_enabled``: one attribute load, no call.
_caches_enabled: bool = not CACHES_DISABLED_BY_ENV


def set_kernel_caches(enabled: bool) -> bool:
    """Switch every kernel cache layer on or off; returns the previous setting.

    Covers hash consing, the term-keyed memo tables and every
    environment's reduction cache, existing environments included.
    Switching off clears nothing: interned nodes stay shared and cached
    entries stay valid, unread until the caches are switched back on.
    """
    global _caches_enabled
    previous = _caches_enabled
    _caches_enabled = enabled
    return previous


def kernel_caches_enabled() -> bool:
    """True when the kernel cache layers are on."""
    return _caches_enabled


# Memo tables living in other kernel modules (case_type, beta_reduce)
# register themselves here so one call drops every term-keyed cache.
_EXTRA_CACHES: List[dict] = []


def register_term_cache(cache: dict) -> dict:
    """Register an external term-keyed memo for :func:`clear_term_caches`."""
    _EXTRA_CACHES.append(cache)
    return cache


def clear_term_caches() -> None:
    """Drop the intern table and every term-keyed memo table."""
    _INTERN.clear()
    _LIFT_MEMO.clear()
    _SUBST_MEMO.clear()
    _SUBST_MANY_MEMO.clear()
    _FREE_MEMO.clear()
    for cache in _EXTRA_CACHES:
        cache.clear()


def _interned(key: tuple, cls) -> "Term":
    """Return the canonical node for ``key``, allocating if needed.

    Composite keys identify child terms by ``id()``, not equality:
    term equality ignores binder display names, so an equality-based
    key would unify e.g. ``App(Lam("x", ...), a)`` with
    ``App(Lam("k", ...), a)`` — and the dataclass ``__init__`` re-run
    on the shared node would overwrite its fields in place, silently
    renaming binders of every term sharing that node.  With identity
    keys a hit guarantees the children are the very same objects (the
    interned node keeps them alive, so their ids cannot be recycled),
    making the ``__init__`` re-run write back identical values.
    """
    stats = KERNEL_STATS
    stats.constructions += 1
    cached = _INTERN.get(key)
    if cached is not None:
        stats.intern_hits += 1
        return cached
    node = object.__new__(cls)
    if len(_INTERN) < _INTERN_MAX:
        _INTERN[key] = node
    return node


@dataclass(frozen=True)
class Term:
    """Base class for all CIC_omega terms."""

    __slots__ = ()

    # --- Convenience constructors -----------------------------------------

    def app(self, *args: "Term") -> "Term":
        """Apply this term to ``args``, left associated."""
        result: Term = self
        for arg in args:
            result = App(result, arg)
        return result

    # --- Structural helpers -----------------------------------------------

    def subterms(self) -> Iterator["Term"]:
        """Yield the immediate subterms (not recursive)."""
        return iter(())

    def is_closed(self) -> bool:
        """Return True when the term has no free de Bruijn variables."""
        return max_free_rel(self) == 0


@dataclass(frozen=True)
class Rel(Term):
    """A bound variable as a de Bruijn index (0 = innermost binder)."""

    __slots__ = ("index",)
    index: int

    def __new__(cls, index=None):
        if not _caches_enabled or index is None:
            return object.__new__(cls)
        try:
            return _interned((cls, index), cls)
        except TypeError:
            return object.__new__(cls)

    def __repr__(self) -> str:
        return f"Rel({self.index})"


@dataclass(frozen=True)
class Sort(Term):
    """A sort: Prop, Set, or Type(i) for i >= 1.

    We encode Prop as level -1 and Set as level 0; ``Type(i)`` has level i.
    Cumulativity: Prop <= Set <= Type(1) <= Type(2) <= ...
    """

    __slots__ = ("level",)
    level: int

    def __new__(cls, level=None):
        if not _caches_enabled or level is None:
            return object.__new__(cls)
        try:
            return _interned((cls, level), cls)
        except TypeError:
            return object.__new__(cls)

    @property
    def is_prop(self) -> bool:
        return self.level == -1

    @property
    def is_set(self) -> bool:
        return self.level == 0

    def __repr__(self) -> str:
        if self.is_prop:
            return "Prop"
        if self.is_set:
            return "Set"
        return f"Type({self.level})"


PROP = Sort(-1)
SET = Sort(0)
TYPE1 = Sort(1)


def type_sort(level: int = 1) -> Sort:
    """Return the sort ``Type(level)``."""
    if level < 1:
        raise TermError(f"Type levels start at 1, got {level}")
    return Sort(level)


@dataclass(frozen=True)
class Pi(Term):
    """Dependent product ``forall (name : domain), codomain``.

    The binder name is a display hint only: terms compare and hash up to
    alpha-equivalence (de Bruijn representation makes this free).  The
    intern key *does* include the name, so sharing never changes how a
    term pretty-prints.
    """

    name: str = field(compare=False)
    domain: Term = field(compare=True)
    codomain: Term = field(compare=True)

    def __new__(cls, name=None, domain=None, codomain=None):
        if not _caches_enabled or codomain is None:
            return object.__new__(cls)
        try:
            return _interned((cls, name, id(domain), id(codomain)), cls)
        except TypeError:
            return object.__new__(cls)

    def subterms(self) -> Iterator[Term]:
        yield self.domain
        yield self.codomain


@dataclass(frozen=True)
class Lam(Term):
    """Abstraction ``fun (name : domain) => body``.

    As with :class:`Pi`, the binder name does not affect equality.
    """

    name: str = field(compare=False)
    domain: Term = field(compare=True)
    body: Term = field(compare=True)

    def __new__(cls, name=None, domain=None, body=None):
        if not _caches_enabled or body is None:
            return object.__new__(cls)
        try:
            return _interned((cls, name, id(domain), id(body)), cls)
        except TypeError:
            return object.__new__(cls)

    def subterms(self) -> Iterator[Term]:
        yield self.domain
        yield self.body


@dataclass(frozen=True)
class App(Term):
    """Application ``fn arg`` (binary; use :func:`mk_app` for spines)."""

    fn: Term
    arg: Term

    def __new__(cls, fn=None, arg=None):
        if not _caches_enabled or arg is None:
            return object.__new__(cls)
        try:
            return _interned((cls, id(fn), id(arg)), cls)
        except TypeError:
            return object.__new__(cls)

    def subterms(self) -> Iterator[Term]:
        yield self.fn
        yield self.arg


@dataclass(frozen=True)
class Const(Term):
    """A reference to a global definition (delta-unfoldable)."""

    __slots__ = ("name",)
    name: str

    def __new__(cls, name=None):
        if not _caches_enabled or name is None:
            return object.__new__(cls)
        try:
            return _interned((cls, name), cls)
        except TypeError:
            return object.__new__(cls)

    def __repr__(self) -> str:
        return f"Const({self.name!r})"


@dataclass(frozen=True)
class Ind(Term):
    """A reference to a declared inductive type family."""

    __slots__ = ("name",)
    name: str

    def __new__(cls, name=None):
        if not _caches_enabled or name is None:
            return object.__new__(cls)
        try:
            return _interned((cls, name), cls)
        except TypeError:
            return object.__new__(cls)

    def __repr__(self) -> str:
        return f"Ind({self.name!r})"


@dataclass(frozen=True)
class Constr(Term):
    """The ``index``-th constructor (0-based) of inductive ``ind``."""

    __slots__ = ("ind", "index")
    ind: str
    index: int

    def __new__(cls, ind=None, index=None):
        if not _caches_enabled or index is None:
            return object.__new__(cls)
        try:
            return _interned((cls, ind, index), cls)
        except TypeError:
            return object.__new__(cls)

    def __repr__(self) -> str:
        return f"Constr({self.ind!r}, {self.index})"


@dataclass(frozen=True)
class Elim(Term):
    """Primitive eliminator ``Elim(scrut, motive){cases}`` over ``ind``.

    ``motive`` has type ``Pi indices, ind params indices -> s`` and there is
    one case per constructor, in declaration order.
    """

    ind: str
    motive: Term
    cases: Tuple[Term, ...]
    scrut: Term

    def __new__(cls, ind=None, motive=None, cases=None, scrut=None):
        if not _caches_enabled or scrut is None:
            return object.__new__(cls)
        try:
            return _interned(
                (
                    cls,
                    ind,
                    id(motive),
                    tuple(id(c) for c in cases),
                    id(scrut),
                ),
                cls,
            )
        except TypeError:
            return object.__new__(cls)

    def __post_init__(self) -> None:
        if not isinstance(self.cases, tuple):
            object.__setattr__(self, "cases", tuple(self.cases))

    def subterms(self) -> Iterator[Term]:
        yield self.motive
        yield from self.cases
        yield self.scrut


#: Leaf node classes: no subterms, trivially closed (except Rel).
_LEAVES = (Sort, Const, Ind, Constr)


# ---------------------------------------------------------------------------
# Hash caching
# ---------------------------------------------------------------------------
#
# Terms are hashed constantly (transformation caches, matching tables,
# the intern table itself).  The dataclass-generated __hash__ walks the
# whole tree on every call; we wrap it so each node computes its hash
# once.  Children are hashed through the same wrapper, so a tree is
# hashed in O(size) total and O(1) afterwards.


def _install_cached_hash(cls) -> None:
    generated = cls.__hash__

    def cached_hash(self):
        try:
            return object.__getattribute__(self, "_hash_cache")
        except AttributeError:
            pass
        # Fill caches bottom-up with an explicit stack so hashing a
        # deeply nested term cannot overflow the recursion limit: the
        # generated hash of a node only recurses one level once every
        # child already carries a cache.
        stack = [self]
        while stack:
            node = stack[-1]
            pending = [
                child
                for child in node.subterms()
                if not isinstance(child, (Rel, *_LEAVES))
                and not hasattr(child, "_hash_cache")
            ]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            if not hasattr(node, "_hash_cache"):
                object.__setattr__(
                    node, "_hash_cache", type(node).__dict__["_gen_hash"](node)
                )
        return object.__getattribute__(self, "_hash_cache")

    cls._gen_hash = generated
    cls.__hash__ = cached_hash


# Composite nodes (whose hash walks children) get the cache; leaves keep
# the generated O(1) hash.
for _cls in (Pi, Lam, App, Elim):
    _install_cached_hash(_cls)
del _cls


# ---------------------------------------------------------------------------
# Free-variable bounds (cached per node)
# ---------------------------------------------------------------------------


def _mfr_of(term: Term) -> Optional[int]:
    """The cached bound for ``term``, or None when not yet computed."""
    if isinstance(term, Rel):
        return term.index + 1
    if isinstance(term, _LEAVES):
        return 0
    return getattr(term, "_mfr", None)


def _combine_mfr(term: Term) -> int:
    """Bound for a composite node whose children are all computed."""
    if isinstance(term, App):
        return max(_mfr_of(term.fn), _mfr_of(term.arg))
    if isinstance(term, Lam):
        return max(_mfr_of(term.domain), _mfr_of(term.body) - 1, 0)
    if isinstance(term, Pi):
        return max(_mfr_of(term.domain), _mfr_of(term.codomain) - 1, 0)
    if isinstance(term, Elim):
        bound = max(_mfr_of(term.motive), _mfr_of(term.scrut))
        for case in term.cases:
            case_bound = _mfr_of(case)
            if case_bound > bound:
                bound = case_bound
        return bound
    raise TermError(f"max_free_rel: unknown term {term!r}")


def max_free_rel(term: Term) -> int:
    """Smallest ``n`` such that ``term`` is closed under ``n`` binders.

    Equivalently ``1 + max(free_rels(term))``, or 0 for a closed term.
    The value is computed once per node (iteratively, so deep terms are
    safe) and cached on the node itself; hash-consing makes the cache
    hit for every structurally repeated subterm.
    """
    if isinstance(term, Rel):
        return term.index + 1
    if isinstance(term, _LEAVES):
        return 0
    cached = getattr(term, "_mfr", None)
    if cached is not None:
        return cached
    stack = [term]
    while stack:
        t = stack[-1]
        pending = [
            child
            for child in t.subterms()
            if not isinstance(child, Rel)
            and not isinstance(child, _LEAVES)
            and getattr(child, "_mfr", None) is None
        ]
        if pending:
            stack.extend(pending)
        else:
            object.__setattr__(t, "_mfr", _combine_mfr(t))
            stack.pop()
    return term._mfr


# ---------------------------------------------------------------------------
# Spine helpers
# ---------------------------------------------------------------------------


def mk_app(fn: Term, args: Sequence[Term]) -> Term:
    """Apply ``fn`` to a sequence of arguments, left associated."""
    result = fn
    for arg in args:
        result = App(result, arg)
    return result


def unfold_app(term: Term) -> Tuple[Term, Tuple[Term, ...]]:
    """Decompose nested applications into ``(head, args)``."""
    args: list[Term] = []
    while isinstance(term, App):
        args.append(term.arg)
        term = term.fn
    args.reverse()
    return term, tuple(args)


def mk_pis(binders: Sequence[Tuple[str, Term]], body: Term) -> Term:
    """Build ``forall binders, body`` (binders listed outermost first)."""
    result = body
    for name, ty in reversed(binders):
        result = Pi(name, ty, result)
    return result


def mk_lams(binders: Sequence[Tuple[str, Term]], body: Term) -> Term:
    """Build ``fun binders => body`` (binders listed outermost first)."""
    result = body
    for name, ty in reversed(binders):
        result = Lam(name, ty, result)
    return result


def unfold_pis(term: Term) -> Tuple[Tuple[Tuple[str, Term], ...], Term]:
    """Strip leading Pis, returning the telescope and the final body."""
    binders: list[Tuple[str, Term]] = []
    while isinstance(term, Pi):
        binders.append((term.name, term.domain))
        term = term.codomain
    return tuple(binders), term


def unfold_lams(term: Term) -> Tuple[Tuple[Tuple[str, Term], ...], Term]:
    """Strip leading lambdas, returning the telescope and the body."""
    binders: list[Tuple[str, Term]] = []
    while isinstance(term, Lam):
        binders.append((term.name, term.domain))
        term = term.body
    return tuple(binders), term


# ---------------------------------------------------------------------------
# De Bruijn operations: lifting and substitution
# ---------------------------------------------------------------------------
#
# Both operations share one explicit-stack rebuilder parameterized by a
# leaf action on free Rels.  The rebuilder short-circuits any subtree
# closed under the current cutoff, reuses the input node when no child
# changed, and memoizes per-node results (each subtree's rewrite depends
# only on the node, the operation parameter, and the cutoff).

_LIFT_MEMO: Dict[tuple, Term] = {}
_SUBST_MEMO: Dict[tuple, Term] = {}
_SUBST_MANY_MEMO: Dict[tuple, tuple] = {}
_FREE_MEMO: Dict[tuple, frozenset] = {}
_MEMO_MAX = 1 << 20

_LIFT_COUNTER = KERNEL_STATS.counter("lift")
_SUBST_COUNTER = KERNEL_STATS.counter("subst")
_SUBST_MANY_COUNTER = KERNEL_STATS.counter("subst_many")
_FREE_COUNTER = KERNEL_STATS.counter("free_rels")

_VISIT, _BUILD = 0, 1


def _transform_rels(
    term: Term,
    cutoff: int,
    on_rel: Callable[[int, int], Term],
    memo: Optional[Dict[tuple, Term]] = None,
    extra: object = None,
    counter=None,
) -> Term:
    """Rewrite every free ``Rel`` in ``term`` via ``on_rel(index, cut)``.

    ``cut`` is ``cutoff`` plus the number of binders crossed; ``on_rel``
    is only called with ``index >= cut``.  Subtrees with
    ``max_free_rel <= cut`` are returned unchanged, as is any node whose
    children all come back identical.  ``memo`` (when given) caches
    per-node results under ``(id(node), extra, cut)`` — object identity
    rather than equality, because equality ignores binder display names
    and a structural key could hand an equal-but-differently-named
    result back, silently renaming the caller's binders.  A term-valued
    ``extra`` keys by its id and a tuple of terms by theirs.  Hash
    consing makes equal same-named terms pointer-identical, so identity
    keys still hit; the value pins the node and ``extra`` so ids are
    never recycled while the entry lives.
    """
    if isinstance(extra, Term):
        extra_key = id(extra)
    elif isinstance(extra, tuple):
        extra_key = tuple(map(id, extra))
    else:
        extra_key = extra
    stack = [(_VISIT, term, cutoff)]
    results: list = []
    while stack:
        tag, t, cut = stack.pop()
        if tag == _VISIT:
            if isinstance(t, Rel):
                results.append(on_rel(t.index, cut) if t.index >= cut else t)
                continue
            if isinstance(t, _LEAVES):
                results.append(t)
                continue
            if max_free_rel(t) <= cut:
                results.append(t)
                continue
            if memo is not None:
                entry = memo.get((id(t), extra_key, cut))
                if entry is not None:
                    counter.hits += 1
                    results.append(entry[-1])
                    continue
                counter.misses += 1
            stack.append((_BUILD, t, cut))
            if isinstance(t, App):
                stack.append((_VISIT, t.arg, cut))
                stack.append((_VISIT, t.fn, cut))
            elif isinstance(t, Lam):
                stack.append((_VISIT, t.body, cut + 1))
                stack.append((_VISIT, t.domain, cut))
            elif isinstance(t, Pi):
                stack.append((_VISIT, t.codomain, cut + 1))
                stack.append((_VISIT, t.domain, cut))
            elif isinstance(t, Elim):
                stack.append((_VISIT, t.scrut, cut))
                for case in reversed(t.cases):
                    stack.append((_VISIT, case, cut))
                stack.append((_VISIT, t.motive, cut))
            else:
                raise TermError(f"unknown term {t!r}")
        else:  # _BUILD: children results are on the results stack
            if isinstance(t, App):
                arg = results.pop()
                fn = results.pop()
                out = t if (fn is t.fn and arg is t.arg) else App(fn, arg)
            elif isinstance(t, Lam):
                body = results.pop()
                domain = results.pop()
                out = (
                    t
                    if (domain is t.domain and body is t.body)
                    else Lam(t.name, domain, body)
                )
            elif isinstance(t, Pi):
                codomain = results.pop()
                domain = results.pop()
                out = (
                    t
                    if (domain is t.domain and codomain is t.codomain)
                    else Pi(t.name, domain, codomain)
                )
            else:  # Elim
                scrut = results.pop()
                cases = [results.pop() for _ in t.cases]
                cases.reverse()
                motive = results.pop()
                if (
                    motive is t.motive
                    and scrut is t.scrut
                    and all(a is b for a, b in zip(cases, t.cases))
                ):
                    out = t
                else:
                    out = Elim(t.ind, motive, tuple(cases), scrut)
            if memo is not None:
                if len(memo) >= _MEMO_MAX:
                    memo.clear()
                # The value pins the key's referents so their ids stay
                # valid for the lifetime of the entry.
                memo[(id(t), extra_key, cut)] = (t, extra, out)
            results.append(out)
    return results[0]


def lift(term: Term, amount: int, cutoff: int = 0) -> Term:
    """Shift free variables ``>= cutoff`` by ``amount``."""
    if amount == 0 or max_free_rel(term) <= cutoff:
        return term

    def on_rel(index: int, cut: int) -> Term:
        new_index = index + amount
        if new_index < 0:
            raise TermError("lift produced a negative de Bruijn index")
        return Rel(new_index)

    if _caches_enabled:
        return _transform_rels(
            term, cutoff, on_rel, _LIFT_MEMO, amount, _LIFT_COUNTER
        )
    return _transform_rels(term, cutoff, on_rel)


def subst(term: Term, replacement: Term, index: int = 0) -> Term:
    """Substitute ``replacement`` for ``Rel(index)`` in ``term``.

    Variables above ``index`` are shifted down by one, implementing the
    standard beta-substitution discipline.
    """
    if max_free_rel(term) <= index:
        return term

    def on_rel(i: int, cut: int) -> Term:
        if i == cut:
            return lift(replacement, cut)
        return Rel(i - 1)

    if _caches_enabled:
        return _transform_rels(
            term, index, on_rel, _SUBST_MEMO, replacement, _SUBST_COUNTER
        )
    return _transform_rels(term, index, on_rel)


def subst_many(term: Term, replacements: Sequence[Term]) -> Term:
    """Substitute ``replacements[0]`` for ``Rel(0)``, ``[1]`` for ``Rel(1)``...

    All replacements are substituted simultaneously: ``replacements[i]``
    replaces ``Rel(i)`` and free variables above ``len(replacements)`` are
    shifted down accordingly.  Each replacement is interpreted in the
    context *outside* all the substituted binders, so a replacement that
    mentions a ``Rel`` is never itself rewritten by a later substitution
    (one-pass parallel substitution, unlike a sequential fold of
    :func:`subst`).

    Memoized per call, not per node: one global entry maps the ids of
    ``term`` and every replacement to the result (pinning all three),
    so a repeated beta step costs one lookup.  A miss walks the term
    without a per-node memo, so no per-node entry outlives the call
    (see DESIGN.md, "Memo retention and the spine rule").
    """
    replacements = tuple(replacements)
    if not replacements:
        return term
    count = len(replacements)
    if max_free_rel(term) == 0:
        return term

    def on_rel(i: int, cut: int) -> Term:
        j = i - cut
        if j < count:
            return lift(replacements[j], cut)
        return Rel(i - count)

    if not _caches_enabled:
        return _transform_rels(term, 0, on_rel)
    key = (id(term), *map(id, replacements))
    entry = _SUBST_MANY_MEMO.get(key)
    if entry is not None:
        _SUBST_MANY_COUNTER.hits += 1
        return entry[2]
    _SUBST_MANY_COUNTER.misses += 1
    out = _transform_rels(term, 0, on_rel)
    if len(_SUBST_MANY_MEMO) >= _MEMO_MAX:
        _SUBST_MANY_MEMO.clear()
    _SUBST_MANY_MEMO[key] = (term, replacements, out)
    return out


def free_rels(term: Term, cutoff: int = 0) -> frozenset:
    """Return the set of free de Bruijn indices, adjusted to ``cutoff``.

    An index ``i`` in the result means ``Rel(i + cutoff)`` occurs free when
    the term is viewed under ``cutoff`` extra binders; with the default
    cutoff this is simply the set of free indices.
    """
    if max_free_rel(term) <= cutoff:
        return frozenset()
    # Identity keys (the value pins the term): the result is a set of
    # indices, so structural keys would be name-safe too, but id keys
    # skip hashing freshly built trees — a real cost on the transformer
    # hot path, where most probed terms were just constructed.
    key = None
    if _caches_enabled:
        key = (id(term), cutoff)
        cached = _FREE_MEMO.get(key)
        if cached is not None:
            _FREE_COUNTER.hits += 1
            return cached[1]
        _FREE_COUNTER.misses += 1
    out: set = set()
    stack = [(term, cutoff)]
    while stack:
        t, cut = stack.pop()
        if isinstance(t, Rel):
            if t.index >= cut:
                out.add(t.index - cut)
            continue
        if isinstance(t, _LEAVES) or max_free_rel(t) <= cut:
            continue
        if isinstance(t, App):
            stack.append((t.fn, cut))
            stack.append((t.arg, cut))
        elif isinstance(t, Lam):
            stack.append((t.domain, cut))
            stack.append((t.body, cut + 1))
        elif isinstance(t, Pi):
            stack.append((t.domain, cut))
            stack.append((t.codomain, cut + 1))
        elif isinstance(t, Elim):
            stack.append((t.motive, cut))
            for case in t.cases:
                stack.append((case, cut))
            stack.append((t.scrut, cut))
        else:
            raise TermError(f"free_rels: unknown term {t!r}")
    result = frozenset(out)
    if key is not None:
        if len(_FREE_MEMO) >= _MEMO_MAX:
            _FREE_MEMO.clear()
        _FREE_MEMO[key] = (term, result)
    return result


def occurs_rel(term: Term, index: int) -> bool:
    """Return True when ``Rel(index)`` occurs free in ``term``."""
    return index in free_rels(term)


def abstract_term(term: Term, target: Term, depth: int = 0) -> Term:
    """Replace occurrences of ``target`` (a closed term) with ``Rel(depth)``.

    Other free variables are shifted up by one so the result is well formed
    directly under one new binder.  Used by tactics (e.g. motive inference
    for ``rewrite`` and ``induction``) and by search procedures.
    """
    lifted = lift(term, 1, 0)
    return _replace(lifted, lift(target, 1, 0), depth, 0)


def _replace(term: Term, target: Term, rel_index: int, cutoff: int) -> Term:
    if term == lift(target, cutoff, 0):
        return Rel(rel_index + cutoff)
    if isinstance(term, (Rel, Sort, Const, Ind, Constr)):
        return term
    if isinstance(term, App):
        return App(
            _replace(term.fn, target, rel_index, cutoff),
            _replace(term.arg, target, rel_index, cutoff),
        )
    if isinstance(term, Lam):
        return Lam(
            term.name,
            _replace(term.domain, target, rel_index, cutoff),
            _replace(term.body, target, rel_index, cutoff + 1),
        )
    if isinstance(term, Pi):
        return Pi(
            term.name,
            _replace(term.domain, target, rel_index, cutoff),
            _replace(term.codomain, target, rel_index, cutoff + 1),
        )
    if isinstance(term, Elim):
        return Elim(
            term.ind,
            _replace(term.motive, target, rel_index, cutoff),
            tuple(
                _replace(case, target, rel_index, cutoff) for case in term.cases
            ),
            _replace(term.scrut, target, rel_index, cutoff),
        )
    raise TermError(f"abstract_term: unknown term {term!r}")


def replace_subterm(term: Term, old: Term, new: Term) -> Term:
    """Replace every occurrence of the closed term ``old`` with ``new``."""
    return _replace_closed(term, old, new, 0)


def _replace_closed(term: Term, old: Term, new: Term, cutoff: int) -> Term:
    if term == old:
        return lift(new, cutoff, 0) if cutoff else new
    if isinstance(term, (Rel, Sort, Const, Ind, Constr)):
        return term
    if isinstance(term, App):
        return App(
            _replace_closed(term.fn, old, new, cutoff),
            _replace_closed(term.arg, old, new, cutoff),
        )
    if isinstance(term, Lam):
        return Lam(
            term.name,
            _replace_closed(term.domain, old, new, cutoff),
            _replace_closed(term.body, old, new, cutoff + 1),
        )
    if isinstance(term, Pi):
        return Pi(
            term.name,
            _replace_closed(term.domain, old, new, cutoff),
            _replace_closed(term.codomain, old, new, cutoff + 1),
        )
    if isinstance(term, Elim):
        return Elim(
            term.ind,
            _replace_closed(term.motive, old, new, cutoff),
            tuple(
                _replace_closed(case, old, new, cutoff) for case in term.cases
            ),
            _replace_closed(term.scrut, old, new, cutoff),
        )
    raise TermError(f"replace_subterm: unknown term {term!r}")


def count_nodes(term: Term) -> int:
    """Return the number of AST nodes in ``term`` (a size metric)."""
    total = 0
    stack = [term]
    while stack:
        t = stack.pop()
        total += 1
        stack.extend(t.subterms())
    return total


_GLOBALS_MEMO: Dict[int, tuple] = register_term_cache({})
_GLOBALS_COUNTER = KERNEL_STATS.counter("globals")


def mentions_global(term: Term, name: str) -> bool:
    """Return True when ``term`` refers to the global ``name``.

    Checks constants, inductive references, constructors, and eliminators.
    Used by repair to verify that the old type was fully removed.  With
    the memo layers on, this is a set-membership test against the
    memoized :func:`collect_globals` — repair probes the same bodies for
    every old global and again per dependency scan, so one walk serves
    them all.
    """
    if _caches_enabled:
        return name in collect_globals(term)
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, (Const, Ind)) and t.name == name:
            return True
        if isinstance(t, (Constr, Elim)) and t.ind == name:
            return True
        stack.extend(t.subterms())
    return False


_EMPTY_GLOBALS = frozenset()
_NAME_GLOBALS: Dict[str, frozenset] = {}


def collect_globals(term: Term) -> frozenset:
    """Return the set of global names referenced by ``term``.

    Memoized per node identity for *every* node of the walk, bottom-up
    (values pin the nodes, like the other id-keyed term caches), so a
    query for any subterm afterwards is a dict hit — the transformer's
    trigger-global skip probes every node of a term, which would be
    quadratic with a root-only memo.  Child sets are reused rather than
    re-unioned whenever a node adds no name of its own, so deep terms
    over few globals share one frozenset.
    """
    if not _caches_enabled:
        out: set = set()
        walk = [term]
        while walk:
            t = walk.pop()
            if isinstance(t, (Const, Ind)):
                out.add(t.name)
            elif isinstance(t, (Constr, Elim)):
                out.add(t.ind)
            walk.extend(t.subterms())
        return frozenset(out)
    memo = _GLOBALS_MEMO
    entry = memo.get(id(term))
    if entry is not None:
        _GLOBALS_COUNTER.hits += 1
        return entry[1]
    _GLOBALS_COUNTER.misses += 1
    if len(memo) >= _MEMO_MAX:
        memo.clear()
    stack = [(term, False)]
    while stack:
        t, ready = stack.pop()
        if not ready:
            if id(t) in memo:
                continue
            stack.append((t, True))
            for sub in t.subterms():
                if id(sub) not in memo:
                    stack.append((sub, False))
            continue
        own = None
        if isinstance(t, (Const, Ind)):
            own = t.name
        elif isinstance(t, (Constr, Elim)):
            own = t.ind
        result = _EMPTY_GLOBALS
        fresh = False
        for sub in t.subterms():
            child = memo[id(sub)][1]
            if not child:
                continue
            if not result:
                result = child
            elif child is not result and not (child <= result):
                if not fresh:
                    result = set(result)
                    fresh = True
                result |= child
        if own is not None and own not in result:
            if fresh:
                result.add(own)
            else:
                single = _NAME_GLOBALS.get(own)
                if single is None:
                    single = _NAME_GLOBALS[own] = frozenset((own,))
                if result:
                    result = set(result)
                    result.add(own)
                    fresh = True
                else:
                    result = single
        if fresh:
            result = frozenset(result)
        memo[id(t)] = (t, result)
    return memo[id(term)][1]
