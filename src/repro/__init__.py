"""repro: *Proof Repair Across Type Equivalences* (PLDI 2021) in Python.

A from-scratch reproduction of Pumpkin Pi: a CIC-omega proof kernel, a
configurable proof term transformation for transport across type
equivalences, automatic configuration search procedures, a proof term to
tactic script decompiler, and a tactic engine that replays the suggested
scripts.

Quick start::

    from repro import make_env, declare_list_type, configure, RepairSession

    env = make_env()
    declare_list_type(env, "New.list", swapped=True)
    config = configure(env, "list", "New.list")
    session = RepairSession(env, config, old_globals=["list"],
                            rename=lambda n: f"New.{n}")
    result = session.repair_constant("rev_app_distr")

See ``examples/quickstart.py`` for the full Section 2 walkthrough.

The names below are resolved on first use (see :mod:`repro._lazy`), so
importing one subpackage does not load the others.
"""

from typing import TYPE_CHECKING, Dict, Tuple

from ._lazy import lazy_exports

if TYPE_CHECKING:
    from .commands import CommandError, CommandResult, CommandSession
    from .core import (
        AlignedSide,
        ConfigError,
        Configuration,
        Equivalence,
        MarkedIotaSide,
        RepairError,
        RepairResult,
        RepairSession,
        TermSide,
        TransformCache,
        TransformError,
        Transformer,
        configure,
        repair,
        repair_module,
        transform_term,
    )
    from .decompile.decompiler import decompile_to_script, print_script
    from .decompile.run import run_script
    from .kernel import Environment, pretty
    from .stdlib import declare_list_type, declare_record, make_env
    from .syntax.parser import parse
    from .tactics import Proof, prove

__version__ = "0.1.0"

_EXPORTS: Dict[str, Tuple[str, ...]] = {
    ".commands": ("CommandError", "CommandResult", "CommandSession"),
    ".core": (
        "AlignedSide",
        "ConfigError",
        "Configuration",
        "Equivalence",
        "MarkedIotaSide",
        "RepairError",
        "RepairResult",
        "RepairSession",
        "TermSide",
        "TransformCache",
        "TransformError",
        "Transformer",
        "configure",
        "repair",
        "repair_module",
        "transform_term",
    ),
    ".decompile.decompiler": ("decompile_to_script", "print_script"),
    ".decompile.run": ("run_script",),
    ".kernel": ("Environment", "pretty"),
    ".stdlib": ("declare_list_type", "declare_record", "make_env"),
    ".syntax.parser": ("parse",),
    ".tactics": ("Proof", "prove"),
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "AlignedSide",
    "CommandError",
    "CommandResult",
    "CommandSession",
    "ConfigError",
    "Configuration",
    "Environment",
    "Equivalence",
    "MarkedIotaSide",
    "Proof",
    "RepairError",
    "RepairResult",
    "RepairSession",
    "TermSide",
    "TransformCache",
    "TransformError",
    "Transformer",
    "configure",
    "declare_list_type",
    "declare_record",
    "decompile_to_script",
    "make_env",
    "parse",
    "pretty",
    "print_script",
    "prove",
    "repair",
    "repair_module",
    "run_script",
    "transform_term",
]
