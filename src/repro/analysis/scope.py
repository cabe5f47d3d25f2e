"""Scope & arity checker: a linear sanity pass over de Bruijn terms.

Validates, without computing any types:

* ``Rel`` indices stay below the number of enclosing binders (RA001);
* ``Sort`` levels are Prop/Set/Type(i) (RA002);
* ``Const``/``Ind``/``Constr`` references resolve in the environment
  (RA003/RA004/RA005);
* ``Elim`` nodes carry exactly one case per declared constructor
  (RA006).

This is the cheap post-transform gate the transformation uses under
``REPRO_ANALYZE=1``: a malformed intermediate term fails at the rule
that produced it instead of deep inside ``infer``.  The environment
sweeps (:func:`check_constant`, :func:`check_inductive`,
:func:`check_environment`) reuse the same walk for whole developments.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..kernel.env import ConstantDecl, Environment
from ..kernel.inductive import InductiveDecl
from ..kernel.pretty import pretty
from ..kernel.term import (
    App,
    Constr,
    Const,
    Elim,
    Ind,
    Lam,
    Pi,
    Rel,
    Sort,
    Term,
)
from .diagnostics import Diagnostic, Severity


def _error(
    code: str,
    message: str,
    subject: str,
    path: Tuple[str, ...],
    rendering: Optional[str] = None,
) -> Diagnostic:
    return Diagnostic(
        code=code,
        severity=Severity.ERROR,
        message=message,
        subject=subject,
        path=path,
        rendering=rendering,
    )


def _problem(env: Environment, t: Term, d: int) -> Optional[Tuple[str, str]]:
    """The code and message of what is wrong with node ``t`` itself at
    binder depth ``d``, or ``None``; its children are not looked at."""
    if isinstance(t, Rel):
        if t.index < 0 or t.index >= d:
            return "RA001", f"Rel({t.index}) under {d} binder(s)"
    elif isinstance(t, Sort):
        if t.level < -1:
            return "RA002", f"sort level {t.level} (expected >= -1)"
    elif isinstance(t, Const):
        if not env.has_constant(t.name):
            return "RA003", f"unknown constant {t.name!r}"
    elif isinstance(t, Ind):
        if not env.has_inductive(t.name):
            return "RA004", f"unknown inductive {t.name!r}"
    elif isinstance(t, Constr):
        if not env.has_inductive(t.ind):
            return "RA004", f"constructor of unknown inductive {t.ind!r}"
        declared = env.inductive(t.ind).n_constructors
        if not 0 <= t.index < declared:
            return (
                "RA005",
                f"constructor index {t.index} out of range for "
                f"{t.ind!r} ({declared} declared)",
            )
    elif isinstance(t, Elim):
        if not env.has_inductive(t.ind):
            return "RA004", f"eliminator of unknown inductive {t.ind!r}"
        declared = env.inductive(t.ind).n_constructors
        if len(t.cases) != declared:
            return (
                "RA006",
                f"eliminator of {t.ind!r} has {len(t.cases)} "
                f"case(s); declaration has {declared} constructor(s)",
            )
    return None


def _clean(env: Environment, term: Term, depth: int) -> bool:
    """True when the tree walk of ``term`` at ``depth`` reports nothing.

    A node's checks read only the node and its binder depth, and so do
    its children's depths, so visiting each distinct ``(node, depth)``
    pair once answers for every path that reaches it: a shared subterm
    is walked once per depth it occurs at, not once per occurrence.
    """
    seen = set()
    stack: List[Tuple[Term, int]] = [(term, depth)]
    while stack:
        t, d = stack.pop()
        key = (id(t), d)
        if key in seen:
            continue
        seen.add(key)
        if isinstance(t, App):
            stack.append((t.fn, d))
            stack.append((t.arg, d))
        elif isinstance(t, Lam):
            stack.append((t.domain, d))
            stack.append((t.body, d + 1))
        elif isinstance(t, Pi):
            stack.append((t.domain, d))
            stack.append((t.codomain, d + 1))
        elif _problem(env, t, d) is not None:
            return False
        elif isinstance(t, Elim):
            stack.append((t.motive, d))
            stack.extend((case, d) for case in t.cases)
            stack.append((t.scrut, d))
    return True


def check_term(
    env: Environment,
    term: Term,
    depth: int = 0,
    subject: str = "",
    path: Tuple[str, ...] = (),
) -> List[Diagnostic]:
    """Linearly check ``term`` with ``depth`` enclosing binders.

    A first pass (:func:`_clean`) decides whether anything is wrong;
    only then does the tree walk run, which reports every finding with
    its path, in the walk's order.
    """
    if _clean(env, term, depth):
        return []
    out: List[Diagnostic] = []
    stack: List[Tuple[Term, int, Tuple[str, ...]]] = [(term, depth, path)]
    while stack:
        t, d, p = stack.pop()
        problem = _problem(env, t, d)
        if problem is not None:
            rendering = pretty(t, env=env) if isinstance(t, Elim) else None
            out.append(_error(*problem, subject, p, rendering=rendering))
        if isinstance(t, App):
            stack.append((t.fn, d, p + ("fn",)))
            stack.append((t.arg, d, p + ("arg",)))
        elif isinstance(t, Lam):
            stack.append((t.domain, d, p + ("domain",)))
            stack.append((t.body, d + 1, p + ("body",)))
        elif isinstance(t, Pi):
            stack.append((t.domain, d, p + ("domain",)))
            stack.append((t.codomain, d + 1, p + ("codomain",)))
        elif isinstance(t, Elim):
            stack.append((t.motive, d, p + ("motive",)))
            for j, case in enumerate(t.cases):
                stack.append((case, d, p + (f"case[{j}]",)))
            stack.append((t.scrut, d, p + ("scrut",)))
    return out


def check_constant(env: Environment, decl: ConstantDecl) -> List[Diagnostic]:
    """Check a constant's type (and body, when present)."""
    out = check_term(env, decl.type, subject=decl.name, path=("type",))
    if decl.body is not None:
        out.extend(
            check_term(env, decl.body, subject=decl.name, path=("body",))
        )
    return out


def check_inductive(env: Environment, decl: InductiveDecl) -> List[Diagnostic]:
    """Check an inductive declaration's telescopes and constructors."""
    out: List[Diagnostic] = []
    depth = 0
    for name, ty in decl.params:
        out.extend(
            check_term(
                env, ty, depth, subject=decl.name, path=(f"param[{name}]",)
            )
        )
        depth += 1
    for name, ty in decl.indices:
        out.extend(
            check_term(
                env, ty, depth, subject=decl.name, path=(f"index[{name}]",)
            )
        )
        depth += 1
    for ctor in decl.constructors:
        subject = f"{decl.name}.{ctor.name}"
        depth = decl.n_params
        for name, ty in ctor.args:
            out.extend(
                check_term(
                    env, ty, depth, subject=subject, path=(f"arg[{name}]",)
                )
            )
            depth += 1
        if len(ctor.result_indices) != decl.n_indices:
            out.append(
                _error(
                    "RA007",
                    f"constructor supplies {len(ctor.result_indices)} "
                    f"result index/indices; the family declares "
                    f"{decl.n_indices}",
                    subject,
                    ("result_indices",),
                )
            )
        for i, idx in enumerate(ctor.result_indices):
            out.extend(
                check_term(
                    env,
                    idx,
                    depth,
                    subject=subject,
                    path=(f"result_index[{i}]",),
                )
            )
    return out


def check_environment(env: Environment) -> List[Diagnostic]:
    """Sweep every declaration in ``env`` through the scope checker."""
    out: List[Diagnostic] = []
    for ind in env.inductives():
        out.extend(check_inductive(env, ind))
    for decl in env.constants():
        out.extend(check_constant(env, decl))
    return out
