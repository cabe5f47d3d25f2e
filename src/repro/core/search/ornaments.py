"""Search procedure: algebraic ornaments (Section 6.2, first configuration).

Ports functions and proofs from ``list T`` to the *packed* indexed form
``Sigma (n : nat). vector T n`` — the Devoid transformation, which the
Pumpkin Pi transformation generalizes.  The configuration discovered here
is the one shown in Section 6.2.1:

* ``DepConstr`` packs the index into an existential
  (``dep_constr_1 t s = existT (S (projT1 s)) (vcons t (projT1 s)
  (projT2 s))``),
* ``DepElim`` eliminates the sigma and then the vector, re-packing the
  index in the motive,
* ``Eta`` and ``Iota`` are definitional with this choice of ``DepElim``
  (eliminating the sigma first means the conclusion is ``P s`` on the
  nose, so the propositional sigma eta of the paper is not needed — a
  configuration choice the paper's Section 4.3 explicitly allows).

The equivalence (promotion/forgetting plus section/retraction) is
generated and proved automatically, as Devoid does.
"""

from __future__ import annotations


from ...kernel.env import Environment
from ...obs import span
from ...syntax.parser import parse
from ..config import AlignedSide, Configuration, Equivalence, TermSide


def ornament_configuration(
    env: Environment,
    list_name: str = "list",
    vector_name: str = "vector",
    prove: bool = True,
) -> Configuration:
    """The ``list T ~= Sigma (n : nat). vector T n`` configuration."""
    with span("configure", a=list_name, b=vector_name):
        _ensure_support(env, list_name, vector_name)
        packed = f"sigT nat (fun (n : nat) => {vector_name} T n)"

        type_fn = parse(env, f"fun (T : Type1) => {packed}")
        # DepElim is the paper's Section 6.2.1 term: eliminate the projections,
        # re-packing the index in the motive.  Its conclusion is ``P (eta s)``,
        # which is why the configuration also carries a propositional Eta that
        # the transformation applies to every binder of the packed type.
        dep_elim = parse(
            env,
            f"""
            fun (T : Type1) (P : {packed} -> Type2)
                (pnil : P (ornament.dep_constr_0 T))
                (pcons : forall (t : T) (s : {packed}),
                           P (ornament.eta T s) ->
                           P (ornament.dep_constr_1 T t s))
                (s : {packed}) =>
              Elim[vector](
                  projT2 nat (fun (n : nat) => {vector_name} T n) s;
                  fun (m : nat) (w : {vector_name} T m) =>
                    P (existT nat (fun (i : nat) => {vector_name} T i) m w))
                {{ pnil,
                  fun (t : T) (m : nat) (w : {vector_name} T m)
                      (IH : P (existT nat
                                 (fun (i : nat) => {vector_name} T i) m w)) =>
                    pcons t
                      (existT nat (fun (i : nat) => {vector_name} T i) m w)
                      IH }}
            """,
        )

        from ...kernel.term import Const, Ind, Lam, Rel, unfold_app

        def match_packed_type(env_, term):
            """Recognize ``sigT nat (fun n => vector T n)`` and return (T,)."""
            head, args = unfold_app(term)
            if not (isinstance(head, Ind) and head.name == "sigT"):
                return None
            if len(args) != 2:
                return None
            nat_arg, fam = args
            if nat_arg != Ind("nat") or not isinstance(fam, Lam):
                return None
            fhead, fargs = unfold_app(fam.body)
            if not (isinstance(fhead, Ind) and fhead.name == vector_name):
                return None
            if len(fargs) != 2 or fargs[1] != Rel(0):
                return None
            elem = fargs[0]
            from ...kernel.term import free_rels, lift

            if 0 in free_rels(elem):
                return None
            return (lift(elem, -1, 0),)

        side_b = TermSide(
            n_params=1,
            type_fn=type_fn,
            dep_constr=(
                Const("ornament.dep_constr_0"),
                Const("ornament.dep_constr_1"),
            ),
            dep_elim=dep_elim,
            constr_arities=(0, 2),
            eta=Const("ornament.eta"),
            match_type_fn=match_packed_type,
        )
        config = Configuration(a=AlignedSide(env, list_name), b=side_b)
        if prove:
            config.equivalence = prove_ornament_equivalence(
                env, list_name, vector_name
            )
        return config


def _ensure_support(env: Environment, list_name: str, vector_name: str) -> None:
    """Define the named dep_constr/eta constants the dep_elim mentions."""
    packed = f"sigT nat (fun (n : nat) => {vector_name} T n)"
    if not env.has_constant("ornament.eta"):
        env.define(
            "ornament.eta",
            parse(
                env,
                f"""
                fun (T : Type1) (s : {packed}) =>
                  existT nat (fun (n : nat) => {vector_name} T n)
                    (projT1 nat (fun (n : nat) => {vector_name} T n) s)
                    (projT2 nat (fun (n : nat) => {vector_name} T n) s)
                """,
            ),
        )
    if not env.has_constant("ornament.dep_constr_0"):
        env.define(
            "ornament.dep_constr_0",
            parse(
                env,
                f"fun (T : Type1) => existT nat "
                f"(fun (n : nat) => {vector_name} T n) O (vnil T)",
            ),
        )
    if not env.has_constant("ornament.dep_constr_1"):
        env.define(
            "ornament.dep_constr_1",
            parse(
                env,
                f"""
                fun (T : Type1) (t : T) (s : {packed}) =>
                  existT nat (fun (n : nat) => {vector_name} T n)
                    (S (projT1 nat (fun (n : nat) => {vector_name} T n) s))
                    (vcons T t
                       (projT1 nat (fun (n : nat) => {vector_name} T n) s)
                       (projT2 nat (fun (n : nat) => {vector_name} T n) s))
                """,
            ),
        )


def prove_ornament_equivalence(
    env: Environment,
    list_name: str = "list",
    vector_name: str = "vector",
) -> Equivalence:
    """Promotion/forgetting functions with section/retraction proofs."""
    from ...kernel.typecheck import typecheck_closed
    from ...tactics.engine import prove
    from ...tactics.tactics import (
        induction,
        intros,
        reflexivity,
        rewrite,
        simpl,
    )

    packed = f"sigT nat (fun (n : nat) => {vector_name} T n)"
    nil = f"{list_name}.nil"
    cons = f"{list_name}.cons"

    promote = parse(
        env,
        f"""
        fun (T : Type1) (l : {list_name} T) =>
          Elim[{list_name}](l; fun (_ : {list_name} T) => {packed})
            {{ ornament.dep_constr_0 T,
              fun (t : T) (rest : {list_name} T) (IH : {packed}) =>
                ornament.dep_constr_1 T t IH }}
        """,
    )
    # Forgetting goes through a vector fold applied to the projections, so
    # that ``forget (dep_constr_1 t s)`` reduces to ``cons t (forget s)``
    # *definitionally* — the projections of ``dep_constr_1``'s existential
    # cancel against the fold.
    if not env.has_constant("ornament.forget_vec"):
        env.define(
            "ornament.forget_vec",
            parse(
                env,
                f"""
                fun (T : Type1) (n : nat) (v : {vector_name} T n) =>
                  Elim[vector](v;
                      fun (m : nat) (_ : {vector_name} T m) => {list_name} T)
                    {{ {nil} T,
                      fun (t : T) (m : nat) (w : {vector_name} T m)
                          (IH : {list_name} T) =>
                        {cons} T t IH }}
                """,
            ),
        )
    forget = parse(
        env,
        f"""
        fun (T : Type1) (s : {packed}) =>
          ornament.forget_vec T
            (projT1 nat (fun (n : nat) => {vector_name} T n) s)
            (projT2 nat (fun (n : nat) => {vector_name} T n) s)
        """,
    )
    typecheck_closed(env, promote)
    typecheck_closed(env, forget)

    if not env.has_constant("ornament.promote"):
        env.define("ornament.promote", promote)
    if not env.has_constant("ornament.forget"):
        env.define("ornament.forget", forget)

    section_stmt = parse(
        env,
        f"forall (T : Type1) (l : {list_name} T), "
        f"eq ({list_name} T) (ornament.forget T (ornament.promote T l)) l",
    )
    section = prove(
        env,
        section_stmt,
        intros("T", "l"),
        induction("l", names=[[], ["t", "rest", "IHl"]]),
        reflexivity(),
        simpl(),
        rewrite("IHl"),
        reflexivity(),
    )

    retraction_stmt = parse(
        env,
        f"forall (T : Type1) (s : {packed}), "
        f"eq ({packed}) (ornament.promote T (ornament.forget T s)) s",
    )
    retraction = prove(
        env,
        retraction_stmt,
        intros("T", "s"),
        induction("s", names=[["n", "v"]]),
        induction("v", names=[[], ["t", "m", "w", "IHw"]]),
        reflexivity(),
        simpl(),
        rewrite("IHw"),
        reflexivity(),
    )
    return Equivalence(
        f=promote, g=forget, section=section, retraction=retraction
    )
