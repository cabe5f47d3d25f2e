"""Global environments: constants and inductive declarations.

The environment is mutable (declarations are appended as a development is
processed) but individual declarations are immutable.  Declaring a
constant or inductive type checks it first, so a populated environment
only ever contains well-typed globals — the same invariant Coq's kernel
maintains for plugins like Pumpkin Pi.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .inductive import (
    InductiveDecl,
    InductiveError,
    case_type,
    check_positivity,
)
from .term import (
    Elim,
    Ind,
    Pi,
    Rel,
    Term,
    TermError,
    lift,
    mk_app,
    mk_lams,
    mk_pis,
    type_sort,
)


class EnvError(TermError):
    """Raised for missing or duplicate global declarations."""


#: Sentinel for "no entry" in :class:`ReductionCache` (cached values may
#: legitimately be ``False``, e.g. conversion results).
ABSENT = object()

_REDUCTION_CACHE_MAX = 1 << 20

#: Serializes making a trie node, so forks on session threads that make
#: one declaration at once land on one state.
_TRIE_LOCK = threading.Lock()


class _State:
    """A declaration state: one node of an environment lineage's trie.

    A child is keyed under its parent by the identity of the one
    declaration that leads to it and pins that declaration, so the ids
    in its key stay valid while the node lives.  A node holds its
    parent strongly and its children weakly: it lives while a chain or
    a cache entry holds it or a descendant, and a branch nothing holds
    any more drops out of the trie.  A root pins nothing.
    """

    __slots__ = ("children", "parent", "decl", "__weakref__")

    def __init__(
        self, parent: Optional[_State] = None, decl: object = None
    ) -> None:
        self.children: "weakref.WeakValueDictionary[object, _State]" = (
            weakref.WeakValueDictionary()
        )
        self.parent = parent
        self.decl = decl


class ReductionCache:
    """Environment-scoped memo for reduction and judgement results.

    One store serves every kernel judgement that depends only on the
    environment and its inputs: ``whnf`` and ``nf`` (keyed by
    ``(tag, term, delta, frozen)``), conversion, and type inference.
    The transformer, the type checker, and the decompiler all reduce
    through the same :class:`Environment`, so they share this cache.

    Each entry is tagged with the *declaration state* it was derived in.
    The states of an environment lineage (an environment and its forks)
    form a trie: the root is fresh per :class:`Environment`, and a child
    is keyed by the identity of one declaration (a constant's name,
    type, body and opacity, an inductive's declaration object).  The
    environment's *chain* is the state after each prefix of its
    declaration order, and its *tip* is the last one.  :meth:`put` tags
    an entry with the tip; :meth:`get` returns it only while its state
    lies on the chain, and counts a hidden entry as a miss.

    Why a hit is sound.  At state S the environment holds exactly the
    declarations on S's path from the root, each the very object its key
    names, so two environments at one state hold identical declarations.
    An entry stored at S was derived from that content (using only
    entries visible at S).  A lookup at tip T returns it only if S is on
    T's chain, so T's content is S's plus further declarations, and
    those cannot change it: a term can only mention globals that existed
    when its entry was stored, because reducing a term with an unknown
    constant raises instead of caching.  A fork therefore copies and
    clears nothing: it starts at its source's tip, and a fork that
    declares what another fork of the same source declared (the same
    objects) reaches the same states and sees every entry derived
    there.  ``remove``, the one mutating change, moves the environment
    to a fresh root.

    Forks share the store and the trie, so sessions forked from one base
    and warm jobs forked from one post-build environment that declare
    the same things share verdicts.  The store is bounded by a wholesale
    clear at ``_REDUCTION_CACHE_MAX`` entries; the trie by its entries
    and the chains of live environments, since nothing else holds a
    state (so the clear drops every branch no live environment stands
    on).  The kernel's cache switch
    (:func:`~repro.kernel.term.set_kernel_caches`) decides whether the
    judgements read and fill it.
    """

    __slots__ = ("_store", "_chain", "_live")

    def __init__(self) -> None:
        #: key -> (state, value); shared with every fork.
        self._store: Dict[tuple, tuple] = {}
        root = _State()
        #: The state after each prefix of the declaration order.
        self._chain: List[_State] = [root]
        self._live: Set[_State] = {root}

    def get(self, key: tuple, counter) -> object:
        """The cached value for ``key``, or :data:`ABSENT` (counted)."""
        entry = self._store.get(key)
        if entry is not None and entry[0] in self._live:
            counter.hits += 1
            return entry[1]
        counter.misses += 1
        return ABSENT

    def put(self, key: tuple, value: object) -> None:
        if len(self._store) >= _REDUCTION_CACHE_MAX:
            self.clear()
        self._store[key] = (self._chain[-1], value)

    def clear(self) -> None:
        """Drop every entry, for every fork sharing the store."""
        self._store.clear()

    @property
    def size(self) -> int:
        return len(self._store)

    # -- Moving along the trie (called by Environment) ----------------------

    def _advance(self, key: object, decl: object) -> None:
        """Step to the tip's child for ``decl``, identified by ``key``."""
        tip = self._chain[-1]
        state = tip.children.get(key)
        if state is None:
            with _TRIE_LOCK:
                state = tip.children.get(key)
                if state is None:
                    state = tip.children[key] = _State(tip, decl)
        self._chain.append(state)
        self._live.add(state)

    def _truncate(self, depth: int) -> None:
        """Step back to the state after the first ``depth`` declarations."""
        for state in self._chain[depth + 1:]:
            self._live.discard(state)
        del self._chain[depth + 1:]

    def _restart(self, depth: int) -> None:
        """Stand on a fresh root, ``depth`` fresh states deep: nothing
        stored before is visible, and only later forks of this
        environment reach these states."""
        self._chain = [_State() for _ in range(depth + 1)]
        self._live = set(self._chain)

    def _fork(self) -> ReductionCache:
        """A cache sharing this one's store and trie, at the same tip."""
        fork = ReductionCache.__new__(ReductionCache)
        fork._store = self._store
        fork._chain = list(self._chain)
        fork._live = set(self._live)
        return fork


@dataclass(frozen=True)
class ConstantDecl:
    """A global definition: a type and an optional (delta-unfoldable) body."""

    name: str
    type: Term
    body: Optional[Term] = None
    opaque: bool = False

    @property
    def unfoldable(self) -> bool:
        return self.body is not None and not self.opaque


class Environment:
    """A global environment of constants and inductive families."""

    def __init__(self) -> None:
        self._constants: Dict[str, ConstantDecl] = {}
        self._inductives: Dict[str, InductiveDecl] = {}
        self._decl_order: List[str] = []
        #: ``(declaration_state, refs)`` of the last :meth:`declaration_refs`.
        self._refs_memo: Optional[
            Tuple[object, Dict[str, FrozenSet[str]]]
        ] = None
        self.reduction_cache = ReductionCache()

    @property
    def declaration_state(self) -> object:
        """The tip of this environment's chain of declaration states.

        An opaque, identity-hashed token (see :class:`ReductionCache`):
        two environments at one state hold identical declarations, so a
        memo over a term and the declarations it is read against may key
        on it.  Holding the token keeps the state's trie node alive.
        """
        return self.reduction_cache._chain[-1]

    # -- Lookup -------------------------------------------------------------

    def has_constant(self, name: str) -> bool:
        return name in self._constants

    def has_inductive(self, name: str) -> bool:
        return name in self._inductives

    def constant(self, name: str) -> ConstantDecl:
        try:
            return self._constants[name]
        except KeyError:
            raise EnvError(f"unknown constant {name!r}") from None

    def inductive(self, name: str) -> InductiveDecl:
        try:
            return self._inductives[name]
        except KeyError:
            raise EnvError(f"unknown inductive {name!r}") from None

    def constants(self) -> Iterable[ConstantDecl]:
        return list(self._constants.values())

    def inductives(self) -> Iterable[InductiveDecl]:
        return list(self._inductives.values())

    def declaration_order(self) -> Tuple[str, ...]:
        """Names of all globals in declaration order."""
        return tuple(self._decl_order)

    def declaration_refs(self) -> Dict[str, FrozenSet[str]]:
        """Each declared global's directly referenced globals, memoized.

        A constant contributes the references of its type and (if
        present) its body; an inductive family contributes its
        parameter/index telescopes plus every constructor's argument
        types and result indices.  The mapping is recomputed lazily
        whenever :attr:`declaration_state` has moved — a recompute is
        cheap because :func:`~repro.kernel.term.collect_globals` is
        memoized per arena node.  Callers must treat the result as
        immutable.
        """
        state = self.declaration_state
        memo = self._refs_memo
        if memo is not None and memo[0] is state:
            return memo[1]
        from .term import collect_globals

        refs: Dict[str, FrozenSet[str]] = {}
        for decl in self._constants.values():
            names = frozenset(collect_globals(decl.type))
            if decl.body is not None:
                names |= collect_globals(decl.body)
            refs[decl.name] = names
        for ind in self._inductives.values():
            acc: set = set()
            for _name, ty in tuple(ind.params) + tuple(ind.indices):
                acc |= collect_globals(ty)
            for ctor in ind.constructors:
                for _name, ty in ctor.args:
                    acc |= collect_globals(ty)
                for idx in ctor.result_indices:
                    acc |= collect_globals(idx)
            refs[ind.name] = frozenset(acc)
        self._refs_memo = (state, refs)
        return refs

    def _add_constant(self, decl: ConstantDecl) -> ConstantDecl:
        """Install a constant (checked, or a generated recursor) and step
        to its declaration state."""
        self._constants[decl.name] = decl
        self.reduction_cache._advance(
            (decl.name, id(decl.type), id(decl.body), decl.opaque), decl
        )
        self._decl_order.append(decl.name)
        return decl

    # -- Forks --------------------------------------------------------------

    def fork(self) -> Environment:
        """An independent environment holding this one's declarations.

        The fork shares the declaration objects and their arena terms,
        which are immutable and were checked when they entered this
        environment, so nothing enters the fork unchecked.  It owns its
        declaration tables and its chain of declaration states: later
        changes to either environment never show in the other.  It
        shares the reduction-cache store and its trie of states, so the
        fork sees what its source derived so far, and forks that go on
        to make the same declarations (the same objects) reach the same
        states and share what each derives there.  A warm worker's job
        and a server session each work in a fork of a resident
        environment that nothing writes, and drop it when done.  The
        memo on a shared :class:`InductiveDecl` (``case_types``) is
        shared too; it is a pure function of the declaration.
        """
        fork = Environment.__new__(Environment)
        fork._constants = dict(self._constants)
        fork._inductives = dict(self._inductives)
        fork._decl_order = list(self._decl_order)
        # Keyed on the declaration state, which the fork starts at.
        fork._refs_memo = self._refs_memo
        fork.reduction_cache = self.reduction_cache._fork()
        return fork

    # -- Declaration --------------------------------------------------------

    def declare_inductive(self, decl: InductiveDecl) -> InductiveDecl:
        """Declare an inductive family, checking well-formedness.

        Also defines the standard recursor constant ``<name>_rect`` whose
        body delta-unfolds to the primitive eliminator.
        """
        if decl.name in self._inductives or decl.name in self._constants:
            raise EnvError(f"duplicate global {decl.name!r}")
        # The check runs in the inductive's own declaration state, where
        # it is provisionally visible; a failed check steps back out, so
        # nothing derived in that window stays visible.
        cache = self.reduction_cache
        cache._advance(id(decl), decl)
        try:
            self._check_inductive(decl)
        except BaseException:
            cache._truncate(len(self._decl_order))
            raise
        self._inductives[decl.name] = decl
        self._decl_order.append(decl.name)
        self._define_recursor(decl)
        return decl

    def define(
        self,
        name: str,
        body: Term,
        type: Optional[Term] = None,
        opaque: bool = False,
    ) -> ConstantDecl:
        """Define a constant; its type is inferred when not given.

        A given type must itself be a type (it is sorted first), and the
        body is checked against it.
        """
        from .context import Context
        from .typecheck import check, infer, infer_sort

        if name in self._constants or name in self._inductives:
            raise EnvError(f"duplicate global {name!r}")
        if type is not None:
            infer_sort(self, Context.empty(), type)
            check(self, Context.empty(), body, type)
        else:
            type = infer(self, Context.empty(), body)
        return self._add_constant(
            ConstantDecl(name=name, type=type, body=body, opaque=opaque)
        )

    def assume(self, name: str, type: Term) -> ConstantDecl:
        """Declare an axiom-like constant with no body.

        The library's own developments never use this (the paper's tool is
        axiom free); it exists for tests and for user experimentation.
        """
        from .context import Context
        from .typecheck import infer_sort

        if name in self._constants or name in self._inductives:
            raise EnvError(f"duplicate global {name!r}")
        infer_sort(self, Context.empty(), type)
        return self._add_constant(ConstantDecl(name=name, type=type))

    def remove(self, name: str) -> None:
        """Remove a global (e.g. the old type after a successful repair).

        The environment moves to a fresh root of the declaration-state
        trie, so nothing derived before the removal is visible.
        """
        self._constants.pop(name, None)
        self._inductives.pop(name, None)
        if name in self._decl_order:
            self._decl_order.remove(name)
        self.reduction_cache._restart(len(self._decl_order))

    # -- Internal helpers ---------------------------------------------------

    def _check_inductive(self, decl: InductiveDecl) -> None:
        from .context import Context
        from .typecheck import infer_sort

        check_positivity(decl)
        # Parameters and indices must be well-sorted telescopes.
        ctx = Context.empty()
        for name, ty in list(decl.params) + list(decl.indices):
            infer_sort(self, ctx, ty)
            ctx = ctx.push(name, ty)
        # Constructor argument types are checked in a context where the
        # inductive itself is visible; we add it to the environment
        # temporarily (without recursors) for that purpose.
        self._inductives[decl.name] = decl
        try:
            for j, ctor in enumerate(decl.constructors):
                ctx = Context.empty()
                for name, ty in decl.params:
                    ctx = ctx.push(name, ty)
                for name, ty in ctor.args:
                    infer_sort(self, ctx, ty)
                    ctx = ctx.push(name, ty)
                if len(ctor.result_indices) != decl.n_indices:
                    raise InductiveError(
                        f"{decl.name}.{ctor.name}: expected "
                        f"{decl.n_indices} result indices"
                    )
        finally:
            del self._inductives[decl.name]

    def _define_recursor(self, decl: InductiveDecl) -> None:
        """Define ``<name>_rect``: the Curry-style recursor constant.

        Its type is::

            Pi params (P : Pi indices, I params indices -> Type2)
               cases... indices... (x : I params indices), P indices x

        and its body wraps the primitive ``Elim``.  The motive sort is a
        fixed large ``Type`` level; cumulativity lets callers use motives
        landing in ``Prop``/``Set``/``Type1`` as well.
        """
        np = decl.n_params
        ni = decl.n_indices
        nc = decl.n_constructors

        # Build everything inside the binder stack:
        #   params (np) , P (1) , cases (nc) , indices (ni) , x (1)
        def param_vars(depth: int) -> Tuple[Term, ...]:
            return tuple(Rel(depth + np - 1 - m) for m in range(np))

        # Motive type, under params:
        #   Pi indices, (I params indices) -> Type2
        index_tele = list(decl.indices)
        ind_applied = mk_app(
            Ind(decl.name),
            param_vars(ni) + tuple(Rel(ni - 1 - k) for k in range(ni)),
        )
        motive_ty = mk_pis(
            index_tele, Pi("_x", ind_applied, type_sort(2))
        )

        binders: List[Tuple[str, Term]] = list(decl.params)
        binders.append(("P", motive_ty))
        # Case types, under params + P.
        params_here = param_vars(1)
        motive_var: Term = Rel(0)
        for j in range(nc):
            ct = case_type(decl, j, params_here, motive_var)
            # Each case binder sits under the previous case binders; the
            # case types only mention params and P, so lift by j.
            binders.append((f"f{j}", lift(ct, j)))
        # Index binders, under params + P + cases: lift index types by 1+nc.
        for k, (name, ty) in enumerate(decl.indices):
            binders.append((name, lift(ty, 1 + nc, k)))
        # Scrutinee binder.
        depth_x = 1 + nc + ni
        scrut_ty = mk_app(
            Ind(decl.name),
            tuple(Rel(depth_x + np - 1 - m) for m in range(np))
            + tuple(Rel(ni - 1 - k) for k in range(ni)),
        )
        binders.append(("x", scrut_ty))

        total = np + 1 + nc + ni + 1
        motive_here = Rel(total - np - 1)
        cases_here = tuple(
            Rel(total - np - 1 - 1 - j) for j in range(nc)
        )
        result_ty = mk_app(
            motive_here,
            tuple(Rel(1 + ni - 1 - k) for k in range(ni)) + (Rel(0),),
        )
        rect_type = mk_pis(binders, result_ty)
        rect_body = mk_lams(
            binders,
            Elim(decl.name, motive_here, cases_here, Rel(0)),
        )
        name = f"{decl.name}_rect"
        if name in self._constants:
            return
        self._add_constant(
            ConstantDecl(name=name, type=rect_type, body=rect_body)
        )
