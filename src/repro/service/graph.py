"""Reverse-dependency analysis for batch scheduling.

The environment is a DAG: a constant references the globals that appear
in its type and body.  Repairing a development walks that DAG in
topological order — :meth:`repro.core.repair.RepairSession.repair_module`
does so implicitly by recursing into dependencies before each target.
This module makes the order explicit so the scheduler can (a) dispatch
independent jobs concurrently, (b) skip the dependents of a failed job,
and (c) be tested against ``Repair module`` with a *shared oracle*:
:func:`repair_order` is specified to emit exactly the sequence a fresh
:class:`~repro.core.repair.RepairSession` defines repaired constants in.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.repair import needs_repair
from ..kernel.env import Environment
from ..kernel.term import collect_globals
from .job import RepairJob


def _declaration_position(env: Environment, name: str) -> int:
    order = env.declaration_order()
    try:
        return order.index(name)
    except ValueError:
        return len(order)


def repair_order(
    env: Environment,
    old_globals: Sequence[str],
    targets: Optional[Iterable[str]] = None,
    skip: Optional[Iterable[str]] = None,
) -> List[str]:
    """The order a fresh ``RepairSession`` would repair constants in.

    With ``targets=None``, this is the ``Repair module`` order: every
    constant needing repair, dependencies first, outer iteration in
    declaration order.  With explicit targets, only their dependency
    closures are visited (the ``repair_constant`` order).
    """
    skip_set: Set[str] = set(skip or ())
    order: List[str] = []
    visited: Set[str] = set(skip_set)

    def visit(name: str) -> None:
        if name in visited:
            return
        visited.add(name)
        decl = env.constant(name)
        deps = collect_globals(decl.body) | collect_globals(decl.type)
        for dep in sorted(deps, key=lambda n: _declaration_position(env, n)):
            if dep != name and needs_repair(env, dep, old_globals):
                visit(dep)
        order.append(name)

    if targets is None:
        roots = [
            name
            for name in env.declaration_order()
            if needs_repair(env, name, old_globals)
        ]
    else:
        roots = list(targets)
    for root in roots:
        visit(root)
    return order


def dependency_closure(
    env: Environment, target: str, old_globals: Sequence[str]
) -> Set[str]:
    """Constants needing repair that ``target`` transitively references
    (the target itself excluded)."""
    closure = set(
        repair_order(env, old_globals, targets=[target])
    )
    closure.discard(target)
    return closure


def infer_edges(
    env: Environment, jobs: Sequence[RepairJob]
) -> Dict[str, Tuple[str, ...]]:
    """Dependency edges among same-environment jobs, by target closure.

    Job B runs after job A when A's target is in the repair closure of
    B's target: B's worker would otherwise redo (or depend on) A's
    repair, and if A fails deterministically, B must fail the same way —
    so the scheduler can order them and cascade skips.
    """
    by_target = {job.target: job.name for job in jobs}
    edges: Dict[str, Tuple[str, ...]] = {}
    for job in jobs:
        closure = dependency_closure(env, job.target, job.old)
        deps = tuple(
            sorted(
                by_target[t]
                for t in closure
                if t in by_target and by_target[t] != job.name
            )
        )
        edges[job.name] = deps
    return edges


def toposort(
    names: Sequence[str], edges: Dict[str, Tuple[str, ...]]
) -> List[str]:
    """Kahn's algorithm over job names, stable in input order.

    Raises :class:`ValueError` naming the cycle members when the edges
    are cyclic; unknown edge targets are reported too.
    """
    known = set(names)
    for name, deps in edges.items():
        for dep in deps:
            if dep not in known:
                raise ValueError(
                    f"job {name!r} depends on unknown job {dep!r}"
                )
    remaining: Dict[str, Set[str]] = {
        name: set(edges.get(name, ())) for name in names
    }
    order: List[str] = []
    while remaining:
        ready = [name for name in names if name in remaining and not remaining[name]]
        if not ready:
            cycle = sorted(remaining)
            raise ValueError(f"dependency cycle among jobs: {cycle}")
        for name in ready:
            order.append(name)
            del remaining[name]
        for deps in remaining.values():
            deps.difference_update(ready)
    return order
