"""The CIC_omega kernel: terms, reduction, conversion, type checking.

This package implements the calculus of Figure 7 of *Proof Repair Across
Type Equivalences* — the substrate on which the Pumpkin Pi transformation
operates.  Everything above it (the configuration, the transformation, the
decompiler, the tactic engine) manipulates the terms defined here and
relies on :func:`repro.kernel.typecheck.check` as the final arbiter of
correctness, mirroring how the Coq kernel vets plugin output.
"""

from .context import Context
from .convert import conv, sub
from .env import ConstantDecl, EnvError, Environment
from .inductive import (
    ConstructorDecl,
    InductiveDecl,
    InductiveError,
    case_type,
    constructor_args_and_indices,
)
from .pretty import pretty
from .reduce import beta_reduce, nf, whnf
from .term import (
    App,
    Const,
    Constr,
    Elim,
    Ind,
    Lam,
    PROP,
    Pi,
    Rel,
    SET,
    Sort,
    TYPE1,
    Term,
    TermError,
    abstract_term,
    collect_globals,
    clear_term_caches,
    count_nodes,
    free_rels,
    kernel_caches_enabled,
    lift,
    max_free_rel,
    mentions_global,
    mk_app,
    mk_lams,
    mk_pis,
    occurs_rel,
    replace_subterm,
    set_kernel_caches,
    subst,
    subst_many,
    type_sort,
    unfold_app,
    unfold_lams,
    unfold_pis,
)
from .env import ReductionCache
from .stats import KERNEL_STATS, CacheCounter, EventCounter, KernelStats
from .typecheck import TypeError_, check, infer, infer_sort, typecheck_closed

__all__ = [
    "App",
    "Const",
    "ConstantDecl",
    "Constr",
    "ConstructorDecl",
    "Context",
    "Elim",
    "EnvError",
    "Environment",
    "Ind",
    "InductiveDecl",
    "InductiveError",
    "Lam",
    "PROP",
    "Pi",
    "Rel",
    "SET",
    "Sort",
    "TYPE1",
    "Term",
    "TermError",
    "TypeError_",
    "KERNEL_STATS",
    "CacheCounter",
    "EventCounter",
    "KernelStats",
    "ReductionCache",
    "abstract_term",
    "beta_reduce",
    "case_type",
    "check",
    "clear_term_caches",
    "collect_globals",
    "constructor_args_and_indices",
    "conv",
    "count_nodes",
    "free_rels",
    "infer",
    "infer_sort",
    "kernel_caches_enabled",
    "lift",
    "max_free_rel",
    "mentions_global",
    "mk_app",
    "mk_lams",
    "mk_pis",
    "nf",
    "occurs_rel",
    "pretty",
    "replace_subterm",
    "set_kernel_caches",
    "sub",
    "subst",
    "subst_many",
    "type_sort",
    "typecheck_closed",
    "unfold_app",
    "unfold_lams",
    "unfold_pis",
    "whnf",
]
