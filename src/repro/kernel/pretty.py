"""Pretty printing of terms in a Gallina-like concrete syntax.

The printer is the inverse of :mod:`repro.syntax.parser` on the common
fragment; eliminators print as ``Elim[ind](scrut; motive){case, ...}``
which the parser also accepts.  When an environment is supplied,
constructors print by name (``S``, ``cons``) when the name is globally
unambiguous, and as ``ind#j`` otherwise.

Without a context or an environment a rendering depends on the term
alone, so it is memoized by the term's identity in one process-wide
table (the value pins the term).  Identity keys are name-faithful:
interning keys include binder names, while term equality ignores them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from . import term as _term
from .context import Context
from .inductive import InductiveDecl
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
    occurs_rel,
    register_term_cache,
    unfold_app,
)

_ATOM = 0
_APP = 1
_ARROW = 2
_BINDER = 3


#: ``id(term)`` -> ``(term, text)`` for renderings without names or
#: an environment; cleared wholesale at the cap.
_TEXT_MEMO: Dict[int, Tuple[Term, str]] = register_term_cache({})
_TEXT_MEMO_MAX = 1 << 16


def pretty(term: Term, ctx: Optional[Context] = None, env=None) -> str:
    """Render ``term`` using names from ``ctx`` for free variables."""
    if ctx or env is not None or not _term._caches_enabled:
        names = [name for name, _ in (ctx.entries if ctx else ())]
        return _Printer(env).pp(term, names, _BINDER)
    entry = _TEXT_MEMO.get(id(term))
    if entry is not None:
        return entry[1]
    text = _Printer(None).pp(term, [], _BINDER)
    if len(_TEXT_MEMO) >= _TEXT_MEMO_MAX:
        _TEXT_MEMO.clear()
    _TEXT_MEMO[id(term)] = (term, text)
    return text


class _Printer:
    def __init__(self, env) -> None:
        self._ctor_names: Dict[Tuple[str, int], str] = {}
        if env is not None:
            counts: Dict[str, int] = {}
            for decl in env.inductives():
                for ctor in decl.constructors:
                    counts[ctor.name] = counts.get(ctor.name, 0) + 1
            for decl in env.inductives():
                for j, ctor in enumerate(decl.constructors):
                    if counts[ctor.name] == 1:
                        self._ctor_names[(decl.name, j)] = ctor.name
                    else:
                        self._ctor_names[(decl.name, j)] = (
                            f"{decl.name}.{ctor.name}"
                        )

    def _ctor(self, ind: str, index: int) -> str:
        return self._ctor_names.get((ind, index), f"{ind}#{index}")

    def pp(self, term: Term, names: List[str], prec: int) -> str:
        if isinstance(term, Rel):
            if 0 <= term.index < len(names):
                return names[term.index]
            return f"_rel{term.index - len(names)}"

        if isinstance(term, Sort):
            if term.is_prop:
                return "Prop"
            if term.is_set:
                return "Set"
            return f"Type{term.level}"

        if isinstance(term, (Const, Ind)):
            return term.name

        if isinstance(term, Constr):
            return self._ctor(term.ind, term.index)

        if isinstance(term, App):
            head, args = unfold_app(term)
            parts = [self.pp(head, names, _ATOM)]
            parts.extend(self.pp(a, names, _ATOM) for a in args)
            rendered = " ".join(parts)
            return _paren(rendered, prec < _APP)

        if isinstance(term, Lam):
            binders: List[Tuple[str, str]] = []
            body = term
            local = list(names)
            while isinstance(body, Lam):
                name = _fresh(local, body.name)
                binders.append((name, self.pp(body.domain, local, _ARROW)))
                local.insert(0, name)
                body = body.body
            binder_str = " ".join(f"({n} : {t})" for n, t in binders)
            rendered = f"fun {binder_str} => {self.pp(body, local, _BINDER)}"
            return _paren(rendered, prec < _BINDER)

        if isinstance(term, Pi):
            if not occurs_rel(term.codomain, 0):
                left = self.pp(term.domain, names, _APP)
                right = self.pp(term.codomain, ["_"] + list(names), _ARROW)
                rendered = f"{left} -> {right}"
                return _paren(rendered, prec < _ARROW)
            binders = []
            body = term
            local = list(names)
            while isinstance(body, Pi) and occurs_rel(body.codomain, 0):
                name = _fresh(local, body.name)
                binders.append((name, self.pp(body.domain, local, _ARROW)))
                local.insert(0, name)
                body = body.codomain
            binder_str = " ".join(f"({n} : {t})" for n, t in binders)
            rendered = (
                f"forall {binder_str}, {self.pp(body, local, _BINDER)}"
            )
            return _paren(rendered, prec < _BINDER)

        if isinstance(term, Elim):
            motive = self.pp(term.motive, names, _BINDER)
            scrut = self.pp(term.scrut, names, _BINDER)
            cases = ", ".join(self.pp(c, names, _BINDER) for c in term.cases)
            return f"Elim[{term.ind}]({scrut}; {motive}){{{cases}}}"

        return repr(term)


def pretty_inductive(decl: InductiveDecl) -> str:
    """An inductive declaration, one line per telescope binder and per
    constructor: the rendering that environment fingerprints and
    declaration digests hash."""
    parts = [f"inductive {decl.name} sort={decl.sort!r}"]
    for name, ty in tuple(decl.params) + tuple(decl.indices):
        parts.append(f"  tele {name} : {pretty(ty)}")
    for ctor in decl.constructors:
        args = " ".join(
            f"({name} : {pretty(ty)})" for name, ty in ctor.args
        )
        indices = " ".join(pretty(t) for t in ctor.result_indices)
        parts.append(f"  ctor {ctor.name} {args} -> {indices}")
    return "\n".join(parts)


def _fresh(names: List[str], hint: str) -> str:
    base = hint if hint and hint != "_" else "x"
    if base not in names:
        return base
    counter = 0
    while f"{base}{counter}" in names:
        counter += 1
    return f"{base}{counter}"


def _paren(rendered: str, need: bool) -> str:
    return f"({rendered})" if need else rendered
