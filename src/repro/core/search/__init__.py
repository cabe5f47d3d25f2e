"""Search procedures for automatic configuration (the ``Configure`` of
Figure 6, left).

The four procedures of Section 3.3:

1. :mod:`~repro.core.search.tuples_records` — tuples and records,
2. :mod:`~repro.core.search.swap` — renaming and permuting constructors,
3. :mod:`~repro.core.search.ornaments` — algebraic ornaments to packed
   indexed types (from Devoid), and
4. :mod:`~repro.core.search.unpack` — unpacking to a particular index.

:func:`configure` dispatches between them from just the two type names,
as the ``Repair`` command does.  It imports a procedure only when it
tries it, and the re-exported names are resolved on first use
(:mod:`repro._lazy`), so a case study loads only the procedure it runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from ..._lazy import lazy_exports
from ...kernel.env import Environment
from ..config import ConfigError, Configuration

if TYPE_CHECKING:
    from .ornaments import ornament_configuration
    from .swap import find_constructor_mappings, swap_configuration
    from .tuples_records import tuples_records_configuration
    from .unpack import declare_unpack_support

_EXPORTS: Dict[str, Tuple[str, ...]] = {
    ".ornaments": ("ornament_configuration",),
    ".swap": ("find_constructor_mappings", "swap_configuration"),
    ".tuples_records": ("tuples_records_configuration",),
    ".unpack": ("declare_unpack_support",),
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)


def configure(
    env: Environment,
    a_name: str,
    b_name: str,
    mapping: Optional[Sequence[int]] = None,
    prove: bool = True,
) -> Configuration:
    """Automatically configure the transformation for ``A ~= B``.

    Tries the search procedures in turn: constructor permutation/renaming
    when both names are compatible inductives, tuples-to-records when the
    target is a record and the source a tuple-type constant, and the
    ornament configuration for ``list``/``vector``-style pairs.  Each
    search procedure opens its own ``configure`` span and this
    dispatcher opens none, so a configuration records one span whether
    it is built here or by calling the procedure directly.  When no
    procedure applies, the error carries the swap procedure's refusal,
    if it tried and refused.
    """
    refusal: Optional[ConfigError] = None
    if env.has_inductive(a_name) and env.has_inductive(b_name):
        a = env.inductive(a_name)
        b = env.inductive(b_name)
        if (
            a.n_constructors == b.n_constructors
            and a.n_params == b.n_params
            and not a.n_indices
            and not b.n_indices
        ):
            from . import swap

            try:
                return swap.swap_configuration(
                    env, a_name, b_name, mapping=mapping, prove=prove
                )
            except ConfigError as exc:
                refusal = exc
        if a.n_constructors == 2 and b.n_indices == 1 and not a.n_indices:
            # list-to-vector style ornament.
            from . import ornaments

            return ornaments.ornament_configuration(
                env, list_name=a_name, vector_name=b_name, prove=prove
            )
    if env.has_constant(a_name) and env.has_inductive(b_name):
        b = env.inductive(b_name)
        if b.n_constructors == 1 and not b.params and not b.indices:
            from . import tuples_records

            return tuples_records.tuples_records_configuration(
                env, b_name, tuple_alias=a_name, prove=prove
            )
    reason = f" (swap: {refusal})" if refusal is not None else ""
    raise ConfigError(
        f"no automatic configuration found for {a_name!r} ~= "
        f"{b_name!r}{reason}; supply a manual configuration (TermSide) "
        "instead"
    ) from refusal


__all__ = [
    "configure",
    "declare_unpack_support",
    "find_constructor_mappings",
    "ornament_configuration",
    "swap_configuration",
    "tuples_records_configuration",
]
