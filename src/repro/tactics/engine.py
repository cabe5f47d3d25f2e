"""A goal-directed proof engine over the CIC_omega kernel.

A :class:`Proof` tracks a tree of goals.  Tactics (from
:mod:`repro.tactics.tactics`) transform the focused goal into subgoals and
record a *builder* that assembles the proof term for the goal from the
proof terms of its subgoals.  :meth:`Proof.qed` composes the builders and
type checks the result against the original statement, so a completed
proof is correct by kernel checking, exactly as in Coq.

This is the substrate that lets the reproduction *execute* the tactic
scripts produced by the decompiler (Section 5), turning the paper's
usability claim into a checkable property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..kernel.context import Context
from ..kernel.env import Environment
from ..kernel.term import Term
from ..kernel.typecheck import check


class TacticError(Exception):
    """Raised when a tactic does not apply to the focused goal."""


@dataclass(frozen=True)
class Goal:
    """One open goal: a local context and a target type."""

    ctx: Context
    target: Term

    def hypothesis_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.ctx)


Builder = Callable[[Sequence[Term]], Term]

# A tactic maps a goal to (subgoals, builder).
Tactic = Callable[[Environment, Goal], Tuple[List[Goal], Builder]]


@dataclass
class _Node:
    goal: Goal
    children: List["_Node"] = field(default_factory=list)
    builder: Optional[Builder] = None

    @property
    def closed(self) -> bool:
        return self.builder is not None and all(
            child.closed for child in self.children
        )

    def build(self) -> Term:
        if self.builder is None:
            raise TacticError("cannot build: proof has open goals")
        return self.builder([child.build() for child in self.children])


class Proof:
    """An in-progress proof of a closed statement."""

    def __init__(self, env: Environment, statement: Term) -> None:
        from ..kernel.typecheck import infer_sort

        infer_sort(env, Context.empty(), statement)
        self.env = env
        self.statement = statement
        self._root = _Node(Goal(Context.empty(), statement))
        self._open: List[_Node] = [self._root]

    # -- Introspection -------------------------------------------------------

    @property
    def goals(self) -> List[Goal]:
        """All open goals, focused goal first."""
        return [node.goal for node in self._open]

    @property
    def focused(self) -> Goal:
        if not self._open:
            raise TacticError("no goals left")
        return self._open[0].goal

    @property
    def complete(self) -> bool:
        return not self._open

    def show(self) -> str:
        """Render the focused goal Coq-style (hypotheses over a rule)."""
        from ..kernel.pretty import pretty

        if not self._open:
            return "No more goals."
        goal = self.focused
        lines = []
        # Print outermost hypotheses first.
        entries = list(goal.ctx.entries)
        for i in reversed(range(len(entries))):
            name = goal.ctx.name_of(i)
            ty = goal.ctx.type_of(i)
            sub = Context(tuple(entries[i + 1 :]))
            lines.append(f"  {name} : {pretty(ty, ctx=goal.ctx, env=self.env)}")
        lines.append("  " + "=" * 40)
        lines.append(f"  {pretty(goal.target, ctx=goal.ctx, env=self.env)}")
        extra = len(self._open) - 1
        header = f"1 goal ({extra} more)" if extra else "1 goal"
        return header + "\n" + "\n".join(lines)

    # -- Tactic application ---------------------------------------------------

    def run(self, tactic: Tactic) -> "Proof":
        """Apply ``tactic`` to the focused goal."""
        if not self._open:
            raise TacticError("no goals left")
        node = self._open[0]
        subgoals, builder = tactic(self.env, node.goal)
        node.children = [_Node(goal) for goal in subgoals]
        node.builder = builder
        self._open = node.children + self._open[1:]
        return self

    def focus_next(self) -> "Proof":
        """Rotate the focused goal to the back."""
        if len(self._open) > 1:
            self._open = self._open[1:] + self._open[:1]
        return self

    # -- Completion -----------------------------------------------------------

    def qed(self) -> Term:
        """Assemble and kernel-check the final proof term."""
        if self._open:
            raise TacticError(
                f"proof is not complete: {len(self._open)} open goal(s)"
            )
        term = self._root.build()
        check(self.env, Context.empty(), term, self.statement)
        return term


def prove(env: Environment, statement: Term, *tactics: Tactic) -> Term:
    """Prove ``statement`` by running ``tactics`` in order; return the term."""
    proof = Proof(env, statement)
    for tactic in tactics:
        proof.run(tactic)
    return proof.qed()
