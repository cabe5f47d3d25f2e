"""The unary-to-binary case study (Section 6.3, ``nonorn.v``).

Uses a *manual* configuration (Figure 6, right) for ``nat ~= N``:

* ``DepConstr``: ``N0`` and ``N.succ`` — standard library functions that
  behave like the ``nat`` constructors;
* ``DepElim``: ``N.peano_rect``;
* ``Iota``: the propositional reduction rule ``N.peano_rect_succ``,
  packaged as the rewrite lemma ``iota_N_1`` — the key to supporting a
  change in *inductive structure* (the need for it goes back to Magaud
  and Bertot [2000], as the paper notes).

The workflow reproduced here:

1. ``Repair nat N in add as slow_add`` — fully automatic;
2. port ``add_n_Sm`` — "not quite as push-button": the paper required a
   manual expansion step turning implicit definitional casts into
   explicit applications of ``Iota`` over ``nat``; ``add_n_Sm_marked`` is
   that expanded proof, and the transformation maps its ``iota_nat_*``
   marks to ``iota_N_*``;
3. prove ``add_fast_add`` (slow addition agrees with the stdlib's fast
   binary addition) with ``induction .. using N.peano_rect``; and
4. derive ``add_n_Sm`` for *fast* binary addition.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import Configuration, MarkedIotaSide, TermSide
from ..core.repair import RepairResult, RepairSession
from ..kernel.env import Environment
from ..kernel.term import Const, Constr, Ind, Term
from ..obs import span
from ..stdlib import make_env
from ..syntax.parser import parse


@dataclass
class BinaryScenario:
    """Artifacts of the Section 6.3 workflow."""

    env: Environment
    config: Configuration
    slow_add: RepairResult
    slow_add_n_Sm: RepairResult
    add_fast_add: Term
    fast_add_n_Sm: Term


def declare_iota_constants(env: Environment) -> None:
    """The explicit iota rules for both sides of ``nat ~= N``.

    Over ``nat`` iota is definitional, so both rules are identities with
    the right type.  Over ``N`` the successor rule is the rewrite along
    ``N.peano_rect_succ`` shown in Section 6.3.1.
    """
    from ..tactics.engine import prove
    from ..tactics.tactics import exact, intros, rewrite

    if env.has_constant("iota_nat_1"):
        return

    env.define(
        "iota_nat_0",
        parse(
            env,
            """
            fun (P : nat -> Type1) (p0 : P O)
                (pS : forall (n : nat), P n -> P (S n))
                (Q : P O -> Type1)
                (H : Q p0) => H
            """,
        ),
    )
    env.define(
        "iota_nat_1",
        parse(
            env,
            """
            fun (P : nat -> Type1) (p0 : P O)
                (pS : forall (n : nat), P n -> P (S n))
                (n : nat)
                (Q : P (S n) -> Type1)
                (H : Q (pS n (nat_rect P p0 pS n))) => H
            """,
        ),
    )
    env.define(
        "iota_N_0",
        parse(
            env,
            """
            fun (P : N -> Type1) (p0 : P N0)
                (pS : forall (n : N), P n -> P (N.succ n))
                (Q : P N0 -> Type1)
                (H : Q p0) => H
            """,
        ),
    )
    iota_n_1_stmt = parse(
        env,
        """
        forall (P : N -> Type1) (p0 : P N0)
               (pS : forall (n : N), P n -> P (N.succ n))
               (n : N)
               (Q : P (N.succ n) -> Type1),
          Q (pS n (N.peano_rect P p0 pS n)) ->
          Q (N.peano_rect P p0 pS (N.succ n))
        """,
    )
    env.define(
        "iota_N_1",
        prove(
            env,
            iota_n_1_stmt,
            intros("P", "p0", "pS", "n", "Q", "H"),
            rewrite("N.peano_rect_succ P p0 pS n"),
            exact("H"),
        ),
        type=iota_n_1_stmt,
    )


def binary_configuration(env: Environment) -> Configuration:
    """The manual ``nat ~= N`` configuration of Section 6.3.1."""
    with span("configure", a="nat", b="N"):
        declare_iota_constants(env)
        side_a = MarkedIotaSide(
            env, "nat", iota_names=("iota_nat_0", "iota_nat_1")
        )
        side_b = TermSide(
            n_params=0,
            type_fn=Ind("N"),
            dep_constr=(Constr("N", 0), Const("N.succ")),
            dep_elim=Const("N.peano_rect"),
            constr_arities=(0, 1),
            iota=(Const("iota_N_0"), Const("iota_N_1")),
        )
        return Configuration(a=side_a, b=side_b)


def declare_marked_add_n_Sm(env: Environment) -> None:
    """The manually iota-expanded ``add_n_Sm`` proof over ``nat``.

    This is the "manual expansion step, turning implicit casts in the
    inductive case into explicit applications of Iota over A" that
    Section 6.3.2 describes — formulaic but tricky.  Over ``nat`` the
    marks are identities, so the statement is unchanged; over ``N`` they
    become rewrites along ``N.peano_rect_succ``.
    """
    if env.has_constant("add_n_Sm_marked"):
        return
    stmt = parse(
        env, "forall (n m : nat), eq nat (S (add n m)) (add n (S m))"
    )
    proof = parse(
        env,
        """
        fun (n m : nat) =>
          Elim[nat](n;
              fun (k : nat) => eq nat (S (add k m)) (add k (S m)))
            { eq_refl nat (S m),
              fun (p : nat)
                  (IHp : eq nat (S (add p m)) (add p (S m))) =>
                iota_nat_1 (fun (k : nat) => nat) m
                  (fun (k IH : nat) => S IH) p
                  (fun (x : nat) =>
                     eq nat (S x) (add (S p) (S m)))
                  (iota_nat_1 (fun (k : nat) => nat) (S m)
                     (fun (k IH : nat) => S IH) p
                     (fun (x : nat) =>
                        eq nat (S (S (add p m))) x)
                     (f_equal nat nat
                        (fun (k : nat) => S k)
                        (S (add p m)) (add p (S m)) IHp)) }
        """,
    )
    env.define("add_n_Sm_marked", proof, type=stmt)


def run_scenario() -> BinaryScenario:
    """Run the full Section 6.3 workflow; return all artifacts."""
    from ..tactics.engine import prove
    from ..tactics.tactics import (
        elim_using,
        exact,
        intro,
        intros,
        reflexivity,
        rewrite,
    )

    env = make_env(lists=False, vectors=False, binary=True)
    config = binary_configuration(env)
    declare_marked_add_n_Sm(env)

    session = RepairSession(
        env,
        config,
        old_globals=["nat"],
        rename=lambda n: {"add": "slow_add"}.get(n, f"N.{n}"),
    )
    # Repair nat N in add as slow_add.
    slow_add = session.repair_constant("add", new_name="slow_add")
    # Port the iota-expanded proof.
    slow_add_n_sm = session.repair_constant(
        "add_n_Sm_marked", new_name="slow_add_n_Sm"
    )

    # slow_add agrees with the standard library's fast binary addition.
    fast_stmt = parse(
        env,
        "forall (n m : N), eq N (slow_add n m) (N.add n m)",
    )
    add_fast_add = prove(
        env,
        fast_stmt,
        intro("n"),
        elim_using("N.peano_rect", "n"),
        # base: slow_add N0 m = N.add N0 m
        intro("m"),
        reflexivity(),
        # step
        intros("n0", "IHn", "m"),
        rewrite(
            "N.peano_rect_succ (fun (k : N) => N) m "
            "(fun (k x : N) => N.succ x) n0"
        ),
        rewrite("IHn m"),
        rewrite("N.add_succ_l n0 m"),
        reflexivity(),
    )
    env.define("add_fast_add", add_fast_add, type=fast_stmt)

    # The theorem over fast binary addition (Section 6.3.2).
    fast_n_sm_stmt = parse(
        env,
        "forall (n m : N), "
        "eq N (N.succ (N.add n m)) (N.add n (N.succ m))",
    )
    fast_add_n_sm = prove(
        env,
        fast_n_sm_stmt,
        intros("n", "m"),
        rewrite("add_fast_add n m", rev=True),
        rewrite("add_fast_add n (N.succ m)", rev=True),
        exact("slow_add_n_Sm n m"),
    )
    env.define("N.add_n_Sm", fast_add_n_sm, type=fast_n_sm_stmt)

    return BinaryScenario(
        env=env,
        config=config,
        slow_add=slow_add,
        slow_add_n_Sm=slow_add_n_sm,
        add_fast_add=add_fast_add,
        fast_add_n_Sm=fast_add_n_sm,
    )
