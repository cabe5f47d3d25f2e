"""The vectors-from-lists case study (Section 6.2, ``Example.v``).

The full pipeline the paper demonstrates:

1. prove ``zip_with_is_zip`` over lists (done in the stdlib), plus the
   *length invariant* the proof engineer must supply
   (``zip_preserves_length``);
2. ``Repair module`` across the ornament configuration — the Devoid
   step — giving the packed-vector versions automatically;
3. unpack to vectors at a *particular* length using the second
   configuration's machinery (``vector_cast``/``unpack``/
   ``unpack_coherence``), giving::

       zip_with_is_zip_vect : forall A B n (v1 : vector A n)
           (v2 : vector B n), zipv_with pair n v1 v2 = zipv n v1 v2

   where Devoid "leaves this step to the proof engineer" and Pumpkin Pi
   automates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.config import Configuration
from ..core.repair import RepairResult, RepairSession
from ..core.search.ornaments import ornament_configuration
from ..core.search.unpack import declare_unpack_support
from ..kernel.env import Environment
from ..kernel.term import Term
from ..stdlib import make_env
from ..syntax.parser import parse


@dataclass
class OrnamentScenario:
    """Artifacts of the Section 6.2 workflow."""

    env: Environment
    config: Configuration
    packed_results: List[RepairResult]
    zip_vect: Term
    zip_with_vect: Term
    zip_with_is_zip_vect: Term


def declare_length_invariant(env: Environment) -> None:
    """The user-supplied invariant: zipping preserves equal lengths."""
    from ..tactics.engine import prove
    from ..tactics.tactics import (
        apply,
        discriminate,
        exact,
        induction,
        intro,
        intros,
        reflexivity,
    )

    if env.has_constant("zip_preserves_length"):
        return
    stmt = parse(
        env,
        """
        forall (A B : Type1) (l1 : list A) (l2 : list B),
          eq nat (length A l1) (length B l2) ->
          eq nat (length (prod A B) (zip A B l1 l2)) (length A l1)
        """,
    )
    env.define(
        "zip_preserves_length",
        prove(
            env,
            stmt,
            intros("A", "B", "l1"),
            induction("l1", names=[[], ["a", "l1x", "IHl1"]]),
            intros("l2", "H"),
            reflexivity(),
            intro("l2"),
            induction("l2", names=[[], ["b", "l2x", "IHl2"]]),
            intro("H"),
            discriminate("H"),
            intro("H"),
            apply("f_equal nat nat (fun (k : nat) => S k)"),
            exact(
                "IHl1 l2x (f_equal nat nat (fun (k : nat) => pred k) "
                "(length A (cons A a l1x)) (length B (cons B b l2x)) H)"
            ),
        ),
        type=stmt,
    )


def declare_length_pi(env: Environment) -> None:
    """The ported length agrees with the packed index (``projT1``)."""
    from ..tactics.engine import prove
    from ..tactics.tactics import induction, intros, reflexivity, rewrite, simpl

    if env.has_constant("length_pi"):
        return
    stmt = parse(
        env,
        """
        forall (T : Type1) (s : sigT nat (fun (n : nat) => vector T n)),
          eq nat (Packed.length T (ornament.eta T s))
                 (projT1 nat (fun (n : nat) => vector T n) s)
        """,
    )
    env.define(
        "length_pi",
        prove(
            env,
            stmt,
            intros("T", "s"),
            induction("s", names=[["n", "v"]]),
            induction("v", names=[[], ["t", "m", "w", "IHw"]]),
            reflexivity(),
            simpl(),
            rewrite("IHw"),
            reflexivity(),
        ),
        type=stmt,
    )


def run_scenario() -> OrnamentScenario:
    """Run the full Section 6.2 workflow; return all artifacts."""
    env = make_env(lists=True, vectors=True)
    declare_length_invariant(env)

    # Step 1: the Devoid repair, packed vectors.
    config = ornament_configuration(env)
    session = RepairSession(
        env,
        config,
        old_globals=["list"],
        rename=lambda n: f"Packed.{n}",
        skip=[
            "ornament.eta",
            "ornament.dep_constr_0",
            "ornament.dep_constr_1",
            "ornament.promote",
            "ornament.forget",
            "ornament.forget_vec",
        ],
    )
    packed = session.repair_module(
        ["zip", "zip_with", "zip_with_is_zip", "zip_preserves_length"]
    )

    # Step 2: unpack to vectors at a particular index.
    declare_unpack_support(env)
    declare_length_pi(env)

    packed_ty = "sigT nat (fun (k : nat) => vector {0} k)"
    pack = "existT nat (fun (k : nat) => vector {0} k) n {1}"

    # The index fact for zip, threaded from the ported invariant.
    env.define(
        "zip_index",
        parse(
            env,
            f"""
            fun (A B : Type1) (n : nat) (v1 : vector A n) (v2 : vector B n) =>
              eq_trans nat
                (projT1 nat (fun (k : nat) => vector (prod A B) k)
                   (Packed.zip A B
                      (ornament.eta A ({pack.format('A', 'v1')}))
                      (ornament.eta B ({pack.format('B', 'v2')}))))
                (Packed.length (prod A B)
                   (ornament.eta (prod A B)
                      (Packed.zip A B
                         (ornament.eta A ({pack.format('A', 'v1')}))
                         (ornament.eta B ({pack.format('B', 'v2')})))))
                n
                (eq_sym nat
                   (Packed.length (prod A B)
                      (ornament.eta (prod A B)
                         (Packed.zip A B
                            (ornament.eta A ({pack.format('A', 'v1')}))
                            (ornament.eta B ({pack.format('B', 'v2')})))))
                   (projT1 nat (fun (k : nat) => vector (prod A B) k)
                      (Packed.zip A B
                         (ornament.eta A ({pack.format('A', 'v1')}))
                         (ornament.eta B ({pack.format('B', 'v2')}))))
                   (length_pi (prod A B)
                      (Packed.zip A B
                         (ornament.eta A ({pack.format('A', 'v1')}))
                         (ornament.eta B ({pack.format('B', 'v2')})))))
                (eq_trans nat
                   (Packed.length (prod A B)
                      (ornament.eta (prod A B)
                         (Packed.zip A B
                            (ornament.eta A ({pack.format('A', 'v1')}))
                            (ornament.eta B ({pack.format('B', 'v2')})))))
                   (Packed.length A
                      (ornament.eta A ({pack.format('A', 'v1')})))
                   n
                   (Packed.zip_preserves_length A B
                      ({pack.format('A', 'v1')})
                      ({pack.format('B', 'v2')})
                      (eq_trans nat
                         (Packed.length A
                            (ornament.eta A ({pack.format('A', 'v1')})))
                         (projT1 nat (fun (k : nat) => vector A k)
                            ({pack.format('A', 'v1')}))
                         (Packed.length B
                            (ornament.eta B ({pack.format('B', 'v2')})))
                         (length_pi A ({pack.format('A', 'v1')}))
                         (eq_sym nat
                            (Packed.length B
                               (ornament.eta B ({pack.format('B', 'v2')})))
                            (projT1 nat (fun (k : nat) => vector B k)
                               ({pack.format('B', 'v2')}))
                            (length_pi B ({pack.format('B', 'v2')})))))
                   (length_pi A ({pack.format('A', 'v1')})))
            """,
        ),
    )

    # zip and zip_with over vectors at a particular length.
    env.define(
        "zipv",
        parse(
            env,
            f"""
            fun (A B : Type1) (n : nat) (v1 : vector A n) (v2 : vector B n) =>
              unpack (prod A B) n
                (Packed.zip A B
                   (ornament.eta A ({pack.format('A', 'v1')}))
                   (ornament.eta B ({pack.format('B', 'v2')})))
                (zip_index A B n v1 v2)
            """,
        ),
    )
    env.define(
        "zipv_with_index",
        parse(
            env,
            f"""
            fun (A B : Type1) (n : nat) (v1 : vector A n) (v2 : vector B n) =>
              eq_trans nat
                (projT1 nat (fun (k : nat) => vector (prod A B) k)
                   (Packed.zip_with A B (prod A B) (pair A B)
                      (ornament.eta A ({pack.format('A', 'v1')}))
                      (ornament.eta B ({pack.format('B', 'v2')}))))
                (projT1 nat (fun (k : nat) => vector (prod A B) k)
                   (Packed.zip A B
                      (ornament.eta A ({pack.format('A', 'v1')}))
                      (ornament.eta B ({pack.format('B', 'v2')}))))
                n
                (f_equal
                   (sigT nat (fun (k : nat) => vector (prod A B) k)) nat
                   (fun (s : sigT nat
                               (fun (k : nat) => vector (prod A B) k)) =>
                      projT1 nat (fun (k : nat) => vector (prod A B) k) s)
                   (Packed.zip_with A B (prod A B) (pair A B)
                      (ornament.eta A ({pack.format('A', 'v1')}))
                      (ornament.eta B ({pack.format('B', 'v2')})))
                   (Packed.zip A B
                      (ornament.eta A ({pack.format('A', 'v1')}))
                      (ornament.eta B ({pack.format('B', 'v2')})))
                   (Packed.zip_with_is_zip A B
                      ({pack.format('A', 'v1')})
                      ({pack.format('B', 'v2')})))
                (zip_index A B n v1 v2)
            """,
        ),
    )
    env.define(
        "zipv_with",
        parse(
            env,
            f"""
            fun (A B : Type1) (n : nat) (v1 : vector A n) (v2 : vector B n) =>
              unpack (prod A B) n
                (Packed.zip_with A B (prod A B) (pair A B)
                   (ornament.eta A ({pack.format('A', 'v1')}))
                   (ornament.eta B ({pack.format('B', 'v2')})))
                (zipv_with_index A B n v1 v2)
            """,
        ),
    )

    # The final theorem of Section 6.2.2, discharged by the coherence
    # principle (our smartelim custom eliminator).
    final_stmt = parse(
        env,
        """
        forall (A B : Type1) (n : nat)
               (v1 : vector A n) (v2 : vector B n),
          eq (vector (prod A B) n)
             (zipv_with A B n v1 v2)
             (zipv A B n v1 v2)
        """,
    )
    from ..tactics.engine import prove
    from ..tactics.tactics import exact, intros

    zip_with_is_zip_vect = prove(
        env,
        final_stmt,
        intros("A", "B", "n", "v1", "v2"),
        exact(
            f"""
            unpack_coherence (prod A B)
              (Packed.zip_with A B (prod A B) (pair A B)
                 (ornament.eta A ({pack.format('A', 'v1')}))
                 (ornament.eta B ({pack.format('B', 'v2')})))
              (Packed.zip A B
                 (ornament.eta A ({pack.format('A', 'v1')}))
                 (ornament.eta B ({pack.format('B', 'v2')})))
              (Packed.zip_with_is_zip A B
                 ({pack.format('A', 'v1')})
                 ({pack.format('B', 'v2')}))
              n
              (zip_index A B n v1 v2)
            """
        ),
    )
    env.define(
        "zip_with_is_zip_vect", zip_with_is_zip_vect, type=final_stmt
    )

    return OrnamentScenario(
        env=env,
        config=config,
        packed_results=packed,
        zip_vect=env.constant("zipv").body,
        zip_with_vect=env.constant("zipv_with").body,
        zip_with_is_zip_vect=zip_with_is_zip_vect,
    )
