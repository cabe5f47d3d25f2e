"""The ``REPRO_ANALYZE`` gate: analysis hooks inside the pipeline.

Mirrors :mod:`repro.obs`: off by default, enabled by ``REPRO_ANALYZE=1``
or :func:`set_analysis`, and when off the hooks cost one boolean check —
repair output is byte-identical either way (the passes only *read*
terms).

When on:

* :func:`rule_gate` — called by :class:`~repro.core.transform.Transformer`
  after every Figure 10 rule fires; a malformed intermediate term raises
  :class:`AnalysisError` naming the rule that produced it, instead of a
  deep kernel ``TypeError_`` much later;
* :func:`repair_gate` — called by
  :class:`~repro.core.repair.RepairSession` on every repaired term
  before the kernel check; runs the scope pass and the
  residual-reference pass (Section 4's guarantee) and raises on any
  error-severity finding.

Both hooks record their wall time through the tracer (span
``"analyze"``), so a traced run attributes the analysis cost to its
own span.  The passes themselves are imported only once a gate is on: the
repair pipeline imports this module, and with the gate off it loads no
pass.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, AbstractSet, Iterable, List, Optional

from ..kernel.env import Environment
from ..kernel.term import Term, TermError
from ..obs import span

if TYPE_CHECKING:
    from .diagnostics import Diagnostic

ANALYZE_ENV_VAR = "REPRO_ANALYZE"

#: whether the process started with analysis enabled
ANALYZE_ENABLED_BY_ENV: bool = os.environ.get(ANALYZE_ENV_VAR, "") not in (
    "",
    "0",
)

_enabled: bool = ANALYZE_ENABLED_BY_ENV


def analysis_enabled() -> bool:
    """Is the in-pipeline analysis gate on?"""
    return _enabled


def set_analysis(enabled: bool) -> bool:
    """Turn the gate on or off; returns the previous setting."""
    global _enabled
    previous = _enabled
    _enabled = enabled
    return previous


class AnalysisError(TermError):
    """An analysis pass found error-severity diagnostics.

    ``diagnostics`` carries the findings; ``rule`` names the Figure 10
    rule whose output tripped the gate, when raised by
    :func:`rule_gate`.
    """

    def __init__(
        self,
        message: str,
        diagnostics: List[Diagnostic],
        rule: Optional[str] = None,
    ) -> None:
        details = "\n".join(d.render() for d in diagnostics)
        super().__init__(f"{message}\n{details}" if details else message)
        self.diagnostics = diagnostics
        self.rule = rule

    @property
    def codes(self) -> List[str]:
        return [d.code for d in self.diagnostics]


def rule_gate(
    env: Environment, rule: str, term: Term, depth: int
) -> None:
    """Scope-check one rule's output (``depth`` enclosing binders)."""
    if not _enabled:
        return
    from .scope import check_term

    with span("analyze", rule=rule):
        diagnostics = check_term(
            env, term, depth=depth, subject=f"rule {rule}"
        )
    if diagnostics:
        raise AnalysisError(
            f"transformation rule {rule} produced a malformed term",
            diagnostics,
            rule=rule,
        )


def repair_gate(
    env: Environment,
    term: Term,
    old_globals: Iterable[str],
    allow: AbstractSet[str],
    subject: str,
) -> None:
    """Scope- and residual-check one repaired (closed) term."""
    if not _enabled:
        return
    from .residual import find_residuals
    from .scope import check_term

    with span("analyze", subject=subject):
        diagnostics = check_term(env, term, subject=subject)
        diagnostics.extend(
            find_residuals(
                env, term, old_globals, allow=allow, subject=subject
            )
        )
    errors = [d for d in diagnostics if d.severity.value == "error"]
    if errors:
        raise AnalysisError(
            f"analysis of repaired term {subject} failed", errors
        )
