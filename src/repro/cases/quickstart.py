"""The Section 2 motivating example: swapping the list constructors.

``Old.list`` is the standard library list (Figure 1, left); ``New.list``
swaps ``nil`` and ``cons`` (right).  ``Repair Old.list New.list in
rev_app_distr`` repairs the broken proof — and its dependencies ``rev``,
``app``, ``app_assoc`` and ``app_nil_r`` — automatically, then the
decompiler produces the Figure 2 tactic script.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.config import Configuration
from ..core.repair import RepairResult, RepairSession
from ..core.search.swap import swap_configuration
from ..decompile.decompiler import decompile_to_script, print_script
from ..decompile.qtac import Script
from ..kernel.env import Environment
from ..stdlib import declare_list_type, make_env


@dataclass
class QuickstartScenario:
    """Artifacts of the Section 2 example."""

    env: Environment
    config: Configuration
    result: RepairResult
    script: Script
    script_text: str
    module_results: List[RepairResult]


def setup_environment() -> Environment:
    """The standard list development plus the swapped ``New.list``."""
    env = make_env(lists=True, vectors=False)
    declare_list_type(env, "New.list", swapped=True)
    return env


def run_scenario(whole_module: bool = True) -> QuickstartScenario:
    """Repair ``rev_app_distr`` (and optionally the whole module)."""
    env = setup_environment()
    config = swap_configuration(env, "list", "New.list")
    session = RepairSession(
        env,
        config,
        old_globals=["list"],
        rename=lambda n: f"New.{n}",
    )
    result = session.repair_constant("rev_app_distr")
    script = decompile_to_script(env, result.term)
    script_text = print_script(script, name=result.new_name)
    result.script = script_text

    module_results: List[RepairResult] = []
    if whole_module:
        module_results = session.repair_module()
        session.remove_old()
    return QuickstartScenario(
        env=env,
        config=config,
        result=result,
        script=script,
        script_text=script_text,
        module_results=module_results,
    )
