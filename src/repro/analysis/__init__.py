"""``repro.analysis`` — static analysis for terms, configs, and scripts.

Four read-only passes over the artifacts of proof repair, each emitting
shared :class:`~repro.analysis.diagnostics.Diagnostic` values:

* :mod:`~repro.analysis.scope` — scope & arity checking of de Bruijn
  terms against the environment (RA0xx);
* :mod:`~repro.analysis.residual` — residual references to the old
  type in repaired terms, through δ-unfoldings (RA1xx);
* :mod:`~repro.analysis.configlint` — Figure 8 configuration coherence
  (RA2xx);
* :mod:`~repro.analysis.tacticlint` — decompiled tactic scripts
  (RA3xx);
* :mod:`~repro.analysis.impact` — whole-environment change-impact
  verdicts and content-addressed repair plans (RA4xx).

``python -m repro.analysis`` sweeps the stdlib and every case study;
``REPRO_ANALYZE=1`` (or :func:`set_analysis`) arms the in-pipeline
gates.  See DESIGN.md, "Static analysis".  The names below are
resolved on first use (:mod:`repro._lazy`): the repair pipeline imports
the gate, and must not pay for the passes it does not run.
"""

from typing import TYPE_CHECKING, Dict, Tuple

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .diagnostics import CODES, Diagnostic, Report, Severity
    from .gate import (
        ANALYZE_ENABLED_BY_ENV,
        ANALYZE_ENV_VAR,
        AnalysisError,
        analysis_enabled,
        repair_gate,
        rule_gate,
        set_analysis,
    )
    from .configlint import lint_configuration
    from .impact import (
        VERDICT_OPAQUE,
        VERDICT_SIGNATURE,
        VERDICT_TRANSPORT,
        VERDICT_UNAFFECTED,
        VERDICTS,
        ImpactEntry,
        PlanStore,
        RepairPlan,
        build_plan,
        ensure_plan,
        plan_key,
    )
    from .residual import find_residuals, tainted_globals
    from .scope import (
        check_constant,
        check_environment,
        check_inductive,
        check_term,
    )
    from .tacticlint import lint_script

_EXPORTS: Dict[str, Tuple[str, ...]] = {
    ".diagnostics": ("CODES", "Diagnostic", "Report", "Severity"),
    ".gate": (
        "ANALYZE_ENABLED_BY_ENV",
        "ANALYZE_ENV_VAR",
        "AnalysisError",
        "analysis_enabled",
        "repair_gate",
        "rule_gate",
        "set_analysis",
    ),
    ".configlint": ("lint_configuration",),
    ".impact": (
        "VERDICT_OPAQUE",
        "VERDICT_SIGNATURE",
        "VERDICT_TRANSPORT",
        "VERDICT_UNAFFECTED",
        "VERDICTS",
        "ImpactEntry",
        "PlanStore",
        "RepairPlan",
        "build_plan",
        "ensure_plan",
        "plan_key",
    ),
    ".residual": ("find_residuals", "tainted_globals"),
    ".scope": (
        "check_constant",
        "check_environment",
        "check_inductive",
        "check_term",
    ),
    ".tacticlint": ("lint_script",),
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "ANALYZE_ENABLED_BY_ENV",
    "ANALYZE_ENV_VAR",
    "AnalysisError",
    "CODES",
    "Diagnostic",
    "ImpactEntry",
    "PlanStore",
    "RepairPlan",
    "Report",
    "Severity",
    "VERDICTS",
    "VERDICT_OPAQUE",
    "VERDICT_SIGNATURE",
    "VERDICT_TRANSPORT",
    "VERDICT_UNAFFECTED",
    "analysis_enabled",
    "build_plan",
    "check_constant",
    "check_environment",
    "check_inductive",
    "check_term",
    "ensure_plan",
    "find_residuals",
    "lint_configuration",
    "lint_script",
    "plan_key",
    "repair_gate",
    "rule_gate",
    "set_analysis",
    "tainted_globals",
]
