"""Package re-exports resolved on first use (PEP 562).

A package ``__init__`` that re-exports names from its submodules with
plain imports loads every submodule as soon as any one of them is
needed, and a process without ``.pyc`` files compiles each of them.
:func:`lazy_exports` gives such a package a module ``__getattr__`` that
imports a name's submodule the first time the name is read and then
binds the value in the package namespace, so later reads are plain
dictionary lookups.

A re-exported name that is also the name of one of the package's
submodules (``repro.core.repair``) must stay bound eagerly: importing
the submodule sets the package attribute to the module, and a lazy
name would then never be resolved.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str,
    namespace: Dict[str, Any],
    exports: Mapping[str, Sequence[str]],
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps a submodule, relative to ``package`` (``".config"``),
    to the names the package re-exports from it; ``namespace`` is the
    package's ``globals()``.
    """
    owners = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owners))

    return __getattr__, __dir__
