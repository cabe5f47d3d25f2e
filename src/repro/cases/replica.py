"""The REPLICA benchmark case study (Section 6.1, ``Swap.v``).

Reconstructs the user-study benchmark of Figure 16: a simple expression
language ``Term`` whose ``Int`` and ``Eq`` constructors the proof
engineer swapped, together with an ``EpsilonLogic``-style semantics and
the ``eval_eq_true_or_false`` theorem, all repaired automatically.

The module also builds the benchmark *variants* the paper reports:

* swapping two constructors with the same type (``Plus``/``Times``),
* renaming all constructors,
* permuting more than two constructors (a 3-cycle),
* permuting and renaming at the same time, and
* a "large and ambiguous permutation of a 30 constructor Enum".

With the Figure 16 signature (four binary constructors of identical
type), there are exactly ``4! = 24`` type-correct constructor mappings —
the paper's "all other 23 type-correct permutations".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.repair import RepairResult, RepairSession
from ..core.search.swap import swap_configuration
from ..kernel.env import Environment
from ..kernel.inductive import ConstructorDecl, InductiveDecl
from ..kernel.term import Ind, SET, Term
from ..stdlib import make_env
from ..syntax.parser import parse

#: Constructor layout of Figure 16 (left): name -> argument type names.
TERM_CONSTRUCTORS = [
    ("Var", ["Identifier"]),
    ("Int", ["Z"]),
    ("Eq", ["<self>", "<self>"]),
    ("Plus", ["<self>", "<self>"]),
    ("Times", ["<self>", "<self>"]),
    ("Minus", ["<self>", "<self>"]),
    ("Choose", ["Identifier", "<self>"]),
]


def declare_term_language(
    env: Environment,
    name: str,
    order: Optional[Sequence[str]] = None,
    renames: Optional[Dict[str, str]] = None,
) -> None:
    """Declare a ``Term``-style language, optionally reordered/renamed."""
    layout = {ctor: args for ctor, args in TERM_CONSTRUCTORS}
    order = list(order or [ctor for ctor, _ in TERM_CONSTRUCTORS])
    renames = renames or {}

    def arg_type(spec: str) -> Term:
        if spec == "<self>":
            return Ind(name)
        return parse(env, spec)

    constructors = tuple(
        ConstructorDecl(
            renames.get(ctor, ctor),
            args=tuple(
                (f"t{i}", arg_type(spec))
                for i, spec in enumerate(layout[ctor])
            ),
        )
        for ctor in order
    )
    env.declare_inductive(
        InductiveDecl(
            name=name,
            params=(),
            indices=(),
            sort=SET,
            constructors=constructors,
        )
    )


def setup_environment() -> Environment:
    """Build the environment of the benchmark: language + semantics."""
    from ..stdlib.recordlib import declare_record

    env = make_env(lists=False, vectors=False)
    env.define("Identifier", parse(env, "nat"))
    env.define("Z", parse(env, "nat"))

    declare_term_language(env, "Old.Term")

    # A small but real semantics: nat equality, subtraction, and the
    # EpsilonLogic record holding the truth values.
    env.define(
        "eqb",
        parse(
            env,
            """
            fun (n : nat) =>
              Elim[nat](n; fun (_ : nat) => nat -> bool)
                { fun (m : nat) =>
                    Elim[nat](m; fun (_ : nat) => bool)
                      { true, fun (q : nat) (IH2 : bool) => false },
                  fun (p : nat) (IH : nat -> bool) (m : nat) =>
                    Elim[nat](m; fun (_ : nat) => bool)
                      { false, fun (q : nat) (IH2 : bool) => IH q } }
            """,
        ),
    )
    env.define(
        "sub",
        parse(
            env,
            """
            fun (n m : nat) =>
              Elim[nat](m; fun (_ : nat) => nat)
                { n, fun (p IH : nat) => pred IH }
            """,
        ),
    )
    declare_record(
        env,
        "EpsilonLogic",
        [("vTrue", parse(env, "nat")), ("vFalse", parse(env, "nat"))],
        constructor="MkLogic",
    )
    env.define(
        "eval",
        parse(
            env,
            """
            fun (L : EpsilonLogic) (env0 : Identifier -> nat)
                (t : Old.Term) =>
              Elim[Old.Term](t; fun (_ : Old.Term) => nat)
                { fun (i : Identifier) => env0 i,
                  fun (z : Z) => z,
                  fun (t1 : Old.Term) (v1 : nat)
                      (t2 : Old.Term) (v2 : nat) =>
                    Elim[bool](eqb v1 v2; fun (_ : bool) => nat)
                      { vTrue L, vFalse L },
                  fun (t1 : Old.Term) (v1 : nat)
                      (t2 : Old.Term) (v2 : nat) => add v1 v2,
                  fun (t1 : Old.Term) (v1 : nat)
                      (t2 : Old.Term) (v2 : nat) => mul v1 v2,
                  fun (t1 : Old.Term) (v1 : nat)
                      (t2 : Old.Term) (v2 : nat) => sub v1 v2,
                  fun (i : Identifier) (t1 : Old.Term) (v1 : nat) => v1 }
            """,
        ),
    )
    _prove_eval_theorem(env)
    return env


def _prove_eval_theorem(env: Environment) -> None:
    """The benchmark theorem about the ``EpsilonLogic`` semantics."""
    from ..tactics.engine import prove
    from ..tactics.tactics import (
        destruct,
        intros,
        left,
        reflexivity,
        right,
        simpl,
    )

    stmt = parse(
        env,
        """
        forall (L : EpsilonLogic) (env0 : Identifier -> nat)
               (t1 t2 : Old.Term),
          or (eq nat (eval L env0 (Eq t1 t2)) (vTrue L))
             (eq nat (eval L env0 (Eq t1 t2)) (vFalse L))
        """,
    )
    env.define(
        "eval_eq_true_or_false",
        prove(
            env,
            stmt,
            intros("L", "env0", "t1", "t2"),
            simpl(),
            destruct("eqb (eval L env0 t1) (eval L env0 t2)"),
            left(),
            reflexivity(),
            right(),
            reflexivity(),
        ),
        type=stmt,
    )


@dataclass
class ReplicaVariant:
    """One benchmark variant: the new type and the repair results."""

    label: str
    new_type: str
    mapping: Tuple[int, ...]
    results: List[RepairResult]


#: The variants of Section 6.1.2/6.1.3, as (label, order, renames).
VARIANTS = [
    (
        "swap Int/Eq (Figure 16)",
        ["Var", "Eq", "Int", "Plus", "Times", "Minus", "Choose"],
        {},
    ),
    (
        "swap same-type Plus/Times",
        ["Var", "Int", "Eq", "Times", "Plus", "Minus", "Choose"],
        {},
    ),
    (
        "rename all constructors",
        None,
        {
            "Var": "Atom",
            "Int": "Lit",
            "Eq": "Equal",
            "Plus": "Add",
            "Times": "Mul",
            "Minus": "Sub",
            "Choose": "Epsilon",
        },
    ),
    (
        "permute three constructors",
        ["Var", "Int", "Eq", "Times", "Minus", "Plus", "Choose"],
        {},
    ),
    (
        "permute and rename at once",
        ["Var", "Eq", "Int", "Minus", "Times", "Plus", "Choose"],
        {"Plus": "Add", "Minus": "Sub"},
    ),
]

#: Explicit mappings for variants where the intended assignment is
#: ambiguous (the paper passes "the argument mapping 0" in such cases;
#: here the human picks the mapping outright).
VARIANT_MAPPINGS = {
    "permute and rename at once": (0, 2, 1, 5, 4, 3, 6),
}


def run_variant(
    env: Environment,
    label: str,
    order: Optional[Sequence[str]],
    renames: Dict[str, str],
    index: int,
    mapping: Optional[Sequence[int]] = None,
) -> ReplicaVariant:
    """Declare a variant type and repair the whole development onto it."""
    new_name = f"New{index}.Term"
    declare_term_language(env, new_name, order=order, renames=renames)
    config = swap_configuration(env, "Old.Term", new_name, mapping=mapping)
    session = RepairSession(
        env,
        config,
        old_globals=["Old.Term"],
        rename=lambda n: f"New{index}.{n}",
    )
    results = session.repair_module(
        ["eval", "eval_eq_true_or_false"]
    )
    chosen = tuple(config.b.perm)
    return ReplicaVariant(
        label=label, new_type=new_name, mapping=chosen, results=results
    )


def run_scenario() -> List[ReplicaVariant]:
    """Run every variant of the benchmark on a fresh environment."""
    env = setup_environment()
    variants = []
    for i, (label, order, renames) in enumerate(VARIANTS):
        variants.append(
            run_variant(
                env,
                label,
                order,
                renames,
                i,
                mapping=VARIANT_MAPPINGS.get(label),
            )
        )
    return variants


def declare_enum(env: Environment, name: str, size: int = 30) -> None:
    """A ``size``-constructor enumeration (the paper's ambiguous Enum)."""
    env.declare_inductive(
        InductiveDecl(
            name=name,
            params=(),
            indices=(),
            sort=SET,
            constructors=tuple(
                ConstructorDecl(f"{name}.c{i}", args=()) for i in range(size)
            ),
        )
    )
