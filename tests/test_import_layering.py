"""Package layering: a case study loads only the packages it runs.

``repro``, ``repro.analysis``, ``repro.core.search`` and ``repro.obs``
resolve their re-exported names on first use (``repro._lazy``), so
importing a case study and running its scenario must not load the
command layer, the analysis passes, the trace exporters or another
case's search procedure.  Each check runs in a fresh interpreter, since
this test process has long since imported everything.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: The search procedures (``repro.core.search.<name>``) each case runs.
CASE_SEARCHES = {
    "quickstart": {"swap"},
    "replica": {"swap"},
    "ornaments_example": {"ornaments", "unpack"},
    "binary": set(),
    "constr_refactor": set(),
    "galois": {"tuples_records"},
}

SEARCHES = {"swap", "ornaments", "tuples_records", "unpack", "refine_unit"}

NEVER_LOADED = {
    "repro.commands",
    "repro.analysis.impact",
    "repro.analysis.configlint",
    "repro.analysis.tacticlint",
    "repro.analysis.cli",
    "repro.analysis.sarif",
    "repro.obs.export",
}

PACKAGES = ("repro", "repro.analysis", "repro.core", "repro.core.search", "repro.obs")


def fresh_python(code: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


LOADED_AFTER_SCENARIO = """
import importlib, json, sys
importlib.import_module("repro.cases." + sys.argv[1]).run_scenario()
print(json.dumps(sorted(name for name in sys.modules if name.startswith("repro"))))
"""


@pytest.mark.parametrize("case", sorted(CASE_SEARCHES))
def test_a_case_loads_only_what_its_scenario_runs(case):
    loaded = set(json.loads(fresh_python(LOADED_AFTER_SCENARIO, case)))
    assert not loaded & NEVER_LOADED
    searches = {
        name.rsplit(".", 1)[1]
        for name in loaded
        if name.startswith("repro.core.search.")
    }
    assert searches == CASE_SEARCHES[case]
    assert searches <= SEARCHES


PUBLIC_NAMES = """
import importlib, importlib.util, json, sys, types
package = importlib.import_module(sys.argv[1])
owners = {
    name: importlib.util.resolve_name(module, package.__name__)
    for module, names in getattr(package, "_EXPORTS", {}).items()
    for name in names
}
wrong = []
for name in package.__all__:
    value = getattr(package, name)
    owner = owners.get(name)
    if owner is not None and getattr(importlib.import_module(owner), name) is not value:
        wrong.append(name)
    if isinstance(value, (type, types.FunctionType)):
        home = sys.modules[value.__module__]
        if getattr(home, value.__name__) is not value:
            wrong.append(name)
    if isinstance(value, types.ModuleType):
        wrong.append(name)
missing = sorted(set(package.__all__) - set(dir(package)))
print(json.dumps({"wrong": wrong, "missing": missing, "unlisted": sorted(set(owners) - set(package.__all__))}))
"""


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves_to_its_defining_object(package):
    found = json.loads(fresh_python(PUBLIC_NAMES, package))
    assert found == {"wrong": [], "missing": [], "unlisted": []}


def test_unknown_names_still_raise_attribute_error():
    import repro
    import repro.obs

    with pytest.raises(AttributeError):
        getattr(repro, "no_such_name")
    with pytest.raises(AttributeError):
        getattr(repro.obs, "no_such_name")


SHADOWING = """
import types
import repro.core.repair
import repro.core
from repro import repair as top
from repro.core import repair
print(callable(repair) and not isinstance(repair, types.ModuleType) and top is repair)
"""


def test_repair_stays_the_function_after_importing_its_module():
    assert fresh_python(SHADOWING) == "True"
