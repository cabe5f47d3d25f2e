"""Residual-reference detector: the paper's Section 4 guarantee, checked.

A correct repair produces a term over ``B`` with *no* residual
references to the old type ``A``.  This pass finds violations:

* **direct** mentions (RA101) — ``Ind(A)``, a constructor ``A#j``, an
  ``Elim`` over ``A``, or a constant named ``A`` itself;
* **transitive** mentions (RA102) — a reference to some constant or
  inductive whose δ-unfolding (body, type, or declaration telescopes)
  eventually reaches ``A``.  These are exactly the references the
  kernel's δ-reduction would expose, which ``mentions_global`` alone
  cannot see.

Configuration constants (explicit iota marks, packing helpers — a
repair session's ``skip`` set) legitimately bridge both sides; passing
them in ``allow`` downgrades their transitive findings to ``INFO`` so
the guarantee stays checkable on real case studies.  The same applies
when the analyzed *subject* is itself an allowed configuration constant:
an ``int_to_Zp``-style equivalence function must mention the old type
directly, so its own direct hits downgrade too instead of reporting a
self-reference false positive.
"""

from __future__ import annotations

from collections import deque
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Tuple

from ..kernel.env import Environment
from ..kernel.pretty import pretty
from ..kernel.term import (
    App,
    Constr,
    Const,
    Elim,
    Ind,
    Lam,
    Pi,
    Term,
)
from .diagnostics import Diagnostic, Severity


def taint_closure(
    refs: Dict[str, FrozenSet[str]], old: FrozenSet[str]
) -> Tuple[FrozenSet[str], Dict[str, str]]:
    """BFS taint fixpoint; ``parents[n]`` is one step closer to ``old``.

    ``refs`` maps each global to the globals it references directly.
    The tainted set holds ``old`` and every global that reaches it.
    BFS (rather than rescanning every reference until nothing changes)
    makes every recorded chain a *shortest* evidence path, and keeps
    the pass linear in the number of references.
    """
    reverse: Dict[str, List[str]] = {}
    for name in sorted(refs):
        for dep in refs[name]:
            reverse.setdefault(dep, []).append(name)
    tainted = set(old)
    parents: Dict[str, str] = {}
    queue = deque(sorted(old))
    while queue:
        current = queue.popleft()
        for referent in reverse.get(current, ()):
            if referent not in tainted:
                tainted.add(referent)
                parents[referent] = current
                queue.append(referent)
    return frozenset(tainted), parents


def tainted_globals(
    env: Environment, old_globals: Iterable[str]
) -> FrozenSet[str]:
    """Globals whose δ-unfolding transitively mentions an old global.

    The result includes the old globals themselves: the
    :func:`taint_closure` of the environment's memoized
    direct-reference graph.
    """
    return taint_closure(env.declaration_refs(), frozenset(old_globals))[0]


def find_residuals(
    env: Environment,
    term: Term,
    old_globals: Iterable[str],
    allow: AbstractSet[str] = frozenset(),
    subject: str = "",
    path: Tuple[str, ...] = (),
) -> List[Diagnostic]:
    """Report every reference in ``term`` that reaches an old global.

    When ``subject`` itself names an allowed configuration constant,
    direct mentions downgrade to ``INFO`` as well: the constant's whole
    point is to bridge both sides, so its own references to the old
    type are expected, not residuals.
    """
    old = frozenset(old_globals)
    tainted = tainted_globals(env, old)
    subject_allowed = subject in allow
    out: List[Diagnostic] = []
    stack: List[Tuple[Term, Tuple[str, ...]]] = [(term, path)]
    while stack:
        t, p = stack.pop()
        name = None
        if isinstance(t, (Const, Ind)):
            name = t.name
        elif isinstance(t, (Constr, Elim)):
            name = t.ind
        if name is not None:
            if name in old:
                severity = (
                    Severity.INFO if subject_allowed else Severity.ERROR
                )
                qualifier = (
                    " (inside allowed configuration constant)"
                    if subject_allowed
                    else ""
                )
                out.append(
                    Diagnostic(
                        code="RA101",
                        severity=severity,
                        message=(
                            f"direct reference to old global "
                            f"{name!r}{qualifier}"
                        ),
                        subject=subject,
                        path=p,
                        rendering=pretty(t, env=env)
                        if not isinstance(t, Elim)
                        else None,
                    )
                )
            elif name in tainted:
                severity = (
                    Severity.INFO if name in allow else Severity.ERROR
                )
                qualifier = (
                    " (allowed configuration constant)"
                    if name in allow
                    else ""
                )
                out.append(
                    Diagnostic(
                        code="RA102",
                        severity=severity,
                        message=(
                            f"reference to {name!r}, whose delta-unfolding "
                            f"mentions an old global{qualifier}"
                        ),
                        subject=subject,
                        path=p,
                    )
                )
        if isinstance(t, App):
            stack.append((t.fn, p + ("fn",)))
            stack.append((t.arg, p + ("arg",)))
        elif isinstance(t, Lam):
            stack.append((t.domain, p + ("domain",)))
            stack.append((t.body, p + ("body",)))
        elif isinstance(t, Pi):
            stack.append((t.domain, p + ("domain",)))
            stack.append((t.codomain, p + ("codomain",)))
        elif isinstance(t, Elim):
            stack.append((t.motive, p + ("motive",)))
            for j, case in enumerate(t.cases):
                stack.append((case, p + (f"case[{j}]",)))
            stack.append((t.scrut, p + ("scrut",)))
    return out
