"""Local typing contexts for de Bruijn terms.

A :class:`Context` is an immutable stack of ``(name, type)`` entries where
entry 0 is the *innermost* binder (``Rel(0)``).  Types are stored as they
were at declaration time; :meth:`Context.type_of` lifts them into the
current context.

Contexts are interned the way terms are: :meth:`Context.empty` is a
singleton and :meth:`Context.push` memoizes per (parent, name, type)
identity, so the same binder chain always yields the *same* context
object.  Identity-keyed caches (the transform cache's key memo, the
``infer``/``check`` verdict memos) rely on this to hit without hashing
entry tuples; the memo's values pin their referents so ids stay valid,
and the table is registered with the term-cache registry so
``clear_term_caches`` empties it with the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

from . import term as _term
from .term import Term, TermError, lift, register_term_cache

#: (id(parent), name, id(type)) -> (parent, type, child); the value pins
#: the key's referents so their ids cannot be recycled while it lives.
_PUSH_MEMO: Dict[tuple, tuple] = register_term_cache({})
_PUSH_MEMO_MAX = 1 << 20


@dataclass(frozen=True)
class Context:
    """An immutable local typing context."""

    entries: Tuple[Tuple[str, Term], ...] = ()

    @staticmethod
    def empty() -> "Context":
        return _EMPTY_CONTEXT

    def push(self, name: str, ty: Term) -> "Context":
        """Extend the context with a new innermost binder."""
        if not _term._caches_enabled:
            return Context(((name, ty),) + self.entries)
        key = (id(self), name, id(ty))
        entry = _PUSH_MEMO.get(key)
        if entry is not None:
            return entry[2]
        child = Context(((name, ty),) + self.entries)
        if len(_PUSH_MEMO) >= _PUSH_MEMO_MAX:
            _PUSH_MEMO.clear()
        _PUSH_MEMO[key] = (self, ty, child)
        return child

    def type_ids(self) -> Tuple[int, ...]:
        """The entry types' ids, for identity-keyed kernel cache keys.

        Computed once per context object; the ids stay valid because the
        context itself pins every entry type.
        """
        ids = self.__dict__.get("_type_ids")
        if ids is None:
            ids = tuple(id(ty) for _name, ty in self.entries)
            object.__setattr__(self, "_type_ids", ids)
        return ids

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Tuple[str, Term]]:
        return iter(self.entries)

    def type_of(self, index: int) -> Term:
        """Type of ``Rel(index)``, lifted into the current context."""
        if index < 0 or index >= len(self.entries):
            raise TermError(
                f"unbound de Bruijn index {index} in context of size "
                f"{len(self.entries)}"
            )
        _name, ty = self.entries[index]
        return lift(ty, index + 1)

    def name_of(self, index: int) -> str:
        """Display name of ``Rel(index)``."""
        if index < 0 or index >= len(self.entries):
            return f"_rel{index}"
        return self.entries[index][0]

    def fresh_name(self, hint: str) -> str:
        """Return ``hint`` or a primed variant unused in this context."""
        used = {name for name, _ in self.entries}
        if hint not in used:
            return hint
        counter = 0
        while f"{hint}{counter}" in used:
            counter += 1
        return f"{hint}{counter}"


_EMPTY_CONTEXT = Context(())
