"""The object-language standard library.

:func:`make_env` builds a fresh environment with the prelude and the
selected modules, in dependency order.  Everything is declared as checked
terms — no axioms.
"""

from __future__ import annotations

from ..kernel.env import Environment
from ..obs import span
from .binlib import declare_binary
from .bitvec import declare_bitvec
from .listlib import declare_list, declare_list_type
from .natlib import declare_nat, int_of_nat, nat_of_int
from .prelude import declare_prelude
from .recordlib import declare_record, record_fields
from .vectorlib import declare_vector


def make_env(
    lists: bool = True,
    vectors: bool = True,
    binary: bool = False,
    bitvectors: bool = False,
) -> Environment:
    """Build an environment with the prelude and the selected modules."""
    with span("make_env"):
        env = Environment()
        declare_prelude(env)
        declare_nat(env)
        if lists:
            declare_list(env)
        if vectors:
            declare_vector(env)
        if binary or bitvectors:
            declare_binary(env)
        if bitvectors:
            if not vectors:
                raise ValueError("bitvectors require vectors")
            declare_bitvec(env)
        return env


__all__ = [
    "Environment",
    "declare_binary",
    "declare_bitvec",
    "declare_list",
    "declare_list_type",
    "declare_nat",
    "declare_prelude",
    "declare_record",
    "declare_vector",
    "int_of_nat",
    "make_env",
    "nat_of_int",
    "record_fields",
]
