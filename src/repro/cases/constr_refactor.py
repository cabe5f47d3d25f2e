"""Factoring constructors out to ``bool`` (Section 3.1.1, Figure 4).

``I`` has constructors ``A`` and ``B``; ``J`` has a single constructor
``makeJ : bool -> J``.  Mapping ``A`` to ``true`` and ``B`` to ``false``
induces an equivalence ``I ~= J`` along which the boolean algebra
(``neg``/``and``/``or``) and De Morgan's laws are repaired — the
``constr_refactor.v`` example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.config import (
    AlignedSide,
    Configuration,
    Equivalence,
    TermSide,
)
from ..core.repair import RepairResult, RepairSession
from ..kernel.env import Environment
from ..kernel.inductive import ConstructorDecl, InductiveDecl
from ..kernel.term import Ind, SET
from ..obs import span
from ..stdlib import make_env
from ..syntax.parser import parse


@dataclass
class RefactorScenario:
    env: Environment
    config: Configuration
    results: List[RepairResult]


def setup_environment() -> Environment:
    """Declare I, J, and the I-algebra with its De Morgan proofs."""
    env = make_env(lists=False, vectors=False)
    env.declare_inductive(
        InductiveDecl(
            name="I",
            params=(),
            indices=(),
            sort=SET,
            constructors=(
                ConstructorDecl("A", args=()),
                ConstructorDecl("B", args=()),
            ),
        )
    )
    env.declare_inductive(
        InductiveDecl(
            name="J",
            params=(),
            indices=(),
            sort=SET,
            constructors=(
                ConstructorDecl("makeJ", args=(("b", Ind("bool")),)),
            ),
        )
    )
    env.define(
        "neg",
        parse(env, "fun (i : I) => Elim[I](i; fun (_ : I) => I){ B, A }"),
    )
    # and (i1 i2 : I) := I_rec _ i2 B i1 (the paper's definition).
    env.define(
        "Ialg.and",
        parse(
            env,
            "fun (i1 i2 : I) => Elim[I](i1; fun (_ : I) => I){ i2, B }",
        ),
    )
    env.define(
        "Ialg.or",
        parse(
            env,
            "fun (i1 i2 : I) => Elim[I](i1; fun (_ : I) => I){ A, i2 }",
        ),
    )
    _prove_demorgan(env)
    return env


def _prove_demorgan(env: Environment) -> None:
    from ..tactics.engine import prove
    from ..tactics.tactics import induction, intros, reflexivity

    for name, statement in [
        (
            "demorgan_1",
            "forall (i1 i2 : I), eq I (neg (Ialg.and i1 i2)) "
            "(Ialg.or (neg i1) (neg i2))",
        ),
        (
            "demorgan_2",
            "forall (i1 i2 : I), eq I (neg (Ialg.or i1 i2)) "
            "(Ialg.and (neg i1) (neg i2))",
        ),
    ]:
        stmt = parse(env, statement)
        env.define(
            name,
            prove(
                env,
                stmt,
                intros("i1", "i2"),
                induction("i1"),
                reflexivity(),
                reflexivity(),
            ),
            type=stmt,
        )


def refactor_configuration(env: Environment) -> Configuration:
    """The manual configuration mapping A to true and B to false."""
    with span("configure", a="I", b="J"):
        dep_elim = parse(
            env,
            """
            fun (P : J -> Type2) (fA : P (makeJ true)) (fB : P (makeJ false))
                (j : J) =>
              Elim[J](j; fun (j0 : J) => P j0)
                { fun (b : bool) =>
                    Elim[bool](b; fun (b0 : bool) => P (makeJ b0))
                      { fA, fB } }
            """,
        )
        side_b = TermSide(
            n_params=0,
            type_fn=Ind("J"),
            dep_constr=(
                parse(env, "makeJ true"),
                parse(env, "makeJ false"),
            ),
            dep_elim=dep_elim,
            constr_arities=(0, 0),
        )
        config = Configuration(a=AlignedSide(env, "I"), b=side_b)
        config.equivalence = _prove_equivalence(env)
        return config


def _prove_equivalence(env: Environment) -> Equivalence:
    from ..kernel.typecheck import typecheck_closed
    from ..tactics.engine import prove
    from ..tactics.tactics import induction, intro, reflexivity

    f = parse(
        env,
        "fun (i : I) => Elim[I](i; fun (_ : I) => J)"
        "{ makeJ true, makeJ false }",
    )
    g = parse(
        env,
        """
        fun (j : J) =>
          Elim[J](j; fun (_ : J) => I)
            { fun (b : bool) =>
                Elim[bool](b; fun (_ : bool) => I){ A, B } }
        """,
    )
    typecheck_closed(env, f)
    typecheck_closed(env, g)
    if not env.has_constant("IJ.f"):
        env.define("IJ.f", f)
        env.define("IJ.g", g)

    section_stmt = parse(
        env, "forall (i : I), eq I (IJ.g (IJ.f i)) i"
    )
    section = prove(
        env,
        section_stmt,
        intro("i"),
        induction("i"),
        reflexivity(),
        reflexivity(),
    )
    retraction_stmt = parse(
        env, "forall (j : J), eq J (IJ.f (IJ.g j)) j"
    )
    retraction = prove(
        env,
        retraction_stmt,
        intro("j"),
        induction("j", names=[["b"]]),
        induction("b"),
        reflexivity(),
        reflexivity(),
    )
    return Equivalence(f=f, g=g, section=section, retraction=retraction)


def run_scenario() -> RefactorScenario:
    """Repair the I-algebra and the De Morgan proofs onto J."""
    env = setup_environment()
    config = refactor_configuration(env)
    session = RepairSession(
        env,
        config,
        old_globals=["I"],
        rename=lambda n: f"J.{n.split('.')[-1]}",
    )
    results = session.repair_module(
        ["neg", "Ialg.and", "Ialg.or", "demorgan_1", "demorgan_2"]
    )
    return RefactorScenario(env=env, config=config, results=results)
