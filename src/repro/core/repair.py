"""The ``Repair`` and ``Repair module`` commands (Figure 6).

:func:`repair` ports one definition or proof across a configuration;
:func:`repair_module` ports every global that depends on the old type, in
declaration order, threading repaired dependencies through the
configuration's constant map — this is what lets the paper's Section 2
example update ``rev``, ``++``, ``app_assoc`` and ``app_nil_r``
automatically while repairing ``rev_app_distr``.

After a successful repair the old type can be removed: results are
checked to contain no reference to the old globals, and
:meth:`RepairSession.remove_old` deletes them from the environment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..analysis.gate import repair_gate
from ..kernel.context import Context
from ..kernel.env import Environment
from ..kernel.term import Term, collect_globals, mentions_global
from ..kernel.typecheck import check, typecheck_closed
from ..obs import span
from .caching import TransformCache
from .config import Configuration
from .transform import Transformer


class RepairError(Exception):
    """Raised when a repair fails or leaves references to the old type."""


def needs_repair(
    env: Environment, name: str, old_globals: Sequence[str]
) -> bool:
    """True when ``name`` is a constant a repair must rewrite.

    That is a defined constant, other than an inductive's generated
    recursor, whose type or body mentions one of ``old_globals``.
    Recursors are regenerated with their inductive and never repaired.
    """
    if not env.has_constant(name):
        return False
    if name.endswith("_rect") and env.has_inductive(name[: -len("_rect")]):
        return False
    decl = env.constant(name)
    if decl.body is None:
        return False
    return any(
        mentions_global(decl.body, old) or mentions_global(decl.type, old)
        for old in old_globals
    )


@dataclass
class RepairResult:
    """One repaired definition: the new term, its type, and a script."""

    old_name: str
    new_name: str
    term: Term
    type: Term
    script: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.old_name} ~> {self.new_name}"


class RepairSession:
    """Shared state for repairing a development across one equivalence.

    Every term the session transforms has its dependencies repaired, and
    so mapped in ``config.const_map``, first; its transformed subterms
    then depend only on the configuration and on the session's naming
    (``old_globals``, ``skip`` and ``rename``).  A ``cache`` passed in may
    therefore be shared with sessions of the same configuration and
    naming that start from the same declarations (a warm worker's jobs,
    :class:`~repro.service.worker.ResidentConfig`), never across
    configurations.  By default each session builds its own.
    """

    def __init__(
        self,
        env: Environment,
        config: Configuration,
        old_globals: Sequence[str],
        rename: Optional[Callable[[str], str]] = None,
        cache: Optional[TransformCache] = None,
        skip: Optional[Sequence[str]] = None,
    ) -> None:
        self.env = env
        self.config = config
        self.old_globals = tuple(old_globals)
        self.rename = rename or (lambda name: f"{name}'")
        self.cache = cache if cache is not None else TransformCache()
        self.results: Dict[str, RepairResult] = {}
        # Configuration constants (explicit iota marks, packing helpers)
        # are translated by the transformation itself, never repaired as
        # dependencies.
        self.skip = set(skip or ())
        self.skip.update(
            name for name in getattr(config.a, "iota_names", ()) or () if name
        )

    # -- Single definitions ---------------------------------------------------

    def repair_term(self, term: Term, expected_type: Optional[Term] = None) -> Term:
        """Transform a closed term, check it, and verify old-type removal.

        The constants ``term`` mentions are repaired first, as
        :meth:`repair_constant` repairs a declaration's dependencies, so
        the transform maps each of them and the entries it stores in the
        session's cache are the ones a later repair would compute.
        """
        self._repair_globals(collect_globals(term))
        with span("repair_term"):
            transformer = Transformer(self.env, self.config, cache=self.cache)
            result = transformer(term)
            for old in self.old_globals:
                if mentions_global(result, old):
                    raise RepairError(
                        f"repaired term still mentions {old!r}; the "
                        "configuration's unification heuristics did not cover "
                        "some occurrence"
                    )
            repair_gate(
                self.env, result, self.old_globals, self.skip, "repair_term"
            )
            with span("typecheck"):
                if expected_type is not None:
                    check(self.env, Context.empty(), result, expected_type)
                else:
                    typecheck_closed(self.env, result)
        return result

    def repair_constant(
        self, name: str, new_name: Optional[str] = None, define: bool = True
    ) -> RepairResult:
        """Repair one constant (body and type), defining the new one."""
        self._repair_dependencies(name)
        return self._repair_constant_now(name, new_name, define)

    def _repair_constant_now(
        self, name: str, new_name: Optional[str] = None, define: bool = True
    ) -> RepairResult:
        if name in self.results:
            return self.results[name]
        decl = self.env.constant(name)
        if decl.body is None:
            raise RepairError(f"cannot repair bodyless constant {name!r}")
        with span("repair", constant=name):
            transformer = Transformer(self.env, self.config, cache=self.cache)
            new_type = transformer(decl.type)
            new_body = transformer(decl.body)
            for old in self.old_globals:
                if mentions_global(new_body, old) or mentions_global(
                    new_type, old
                ):
                    raise RepairError(
                        f"repair of {name!r} left references to {old!r}"
                    )
            repair_gate(
                self.env, new_body, self.old_globals, self.skip, name
            )
            repair_gate(
                self.env, new_type, self.old_globals, self.skip, name
            )
            target = new_name or self.rename(name)
            with span("typecheck", constant=name):
                check(self.env, Context.empty(), new_body, new_type)
            if define:
                self.env.define(target, new_body, type=new_type)
        result = RepairResult(
            old_name=name, new_name=target, term=new_body, type=new_type
        )
        self.results[name] = result
        self.config.const_map[name] = target
        return result

    # -- Dependency management -------------------------------------------------

    def _needs_repair(self, name: str) -> bool:
        if name in self.results or name in self.skip:
            return False
        return needs_repair(self.env, name, self.old_globals)

    def _repair_dependencies(self, name: str) -> None:
        """Repair (recursively) every dependency that mentions the old type."""
        decl = self.env.constant(name)
        if decl.body is None:
            raise RepairError(f"cannot repair bodyless constant {name!r}")
        self._repair_globals(
            collect_globals(decl.body) | collect_globals(decl.type), name
        )

    def _repair_globals(
        self, deps: Iterable[str], exclude: Optional[str] = None
    ) -> None:
        """Repair each of ``deps`` (but ``exclude``) that needs repair and
        is not mapped yet, in declaration order."""
        # One pass over the declaration order instead of one `.index`
        # scan per dependency; setdefault keeps first-occurrence
        # positions, matching `.index` on duplicate names.
        order: Dict[str, int] = {}
        for i, declared in enumerate(self.env.declaration_order()):
            order.setdefault(declared, i)
        fallback = len(order)
        for dep in sorted(deps, key=lambda n: order.get(n, fallback)):
            if dep == exclude:
                continue
            if dep in self.config.const_map:
                continue
            if self._needs_repair(dep):
                self.repair_constant(dep)

    # -- Whole modules -----------------------------------------------------------

    def repair_module(
        self, names: Optional[Iterable[str]] = None
    ) -> List[RepairResult]:
        """Repair every (selected) constant that depends on the old type."""
        with span("repair_module"):
            if names is None:
                names = [
                    name
                    for name in self.env.declaration_order()
                    if self._needs_repair(name)
                ]
            results = []
            for name in names:
                if self._needs_repair(name):
                    results.append(self.repair_constant(name))
        return results

    def remove_old(self) -> None:
        """Delete the old globals — the end goal of proof repair."""
        for name in self.old_globals:
            self.env.remove(name)
            rect = f"{name}_rect"
            if self.env.has_constant(rect):
                self.env.remove(rect)


def repair(
    env: Environment,
    config: Configuration,
    name: str,
    old_globals: Sequence[str],
    new_name: Optional[str] = None,
    rename: Optional[Callable[[str], str]] = None,
    cache: Optional[TransformCache] = None,
) -> RepairResult:
    """Repair one constant (and its dependencies) across ``config``."""
    session = RepairSession(
        env, config, old_globals, rename=rename, cache=cache
    )
    return session.repair_constant(name, new_name=new_name)


def repair_module(
    env: Environment,
    config: Configuration,
    old_globals: Sequence[str],
    names: Optional[Iterable[str]] = None,
    rename: Optional[Callable[[str], str]] = None,
    cache: Optional[TransformCache] = None,
) -> List[RepairResult]:
    """Repair a whole module's worth of definitions (``Repair module``)."""
    session = RepairSession(
        env, config, old_globals, rename=rename, cache=cache
    )
    return session.repair_module(names)
