"""The industrial case study (Section 6.4): tuples to records and back.

Reconstructs the Galois workflow of Figure 17 on our own substrates:

1. compiler-generated nested tuples ``Galois.Handshake`` /
   ``Galois.Connection`` with the ``cork`` function over bitvectors,
2. the named records ``Record.Handshake`` / ``Record.Connection``,
3. repair of ``cork`` from tuples to records (two passes, one per
   equivalence, composing as the paper describes),
4. a human-written ``corkLemma`` about the record version, and
5. repair of ``corkLemma`` *back* to the original tuples — the round trip
   that let the proof engineer integrate Coq output with the solver-aided
   pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.config import Configuration
from ..core.repair import RepairResult, RepairSession
from ..core.search.tuples_records import tuples_records_configuration
from ..kernel.env import Environment
from ..kernel.term import Term
from ..stdlib import declare_record, make_env
from ..syntax.parser import parse

HANDSHAKE_FIELDS = [
    ("handshakeType", "seq 32 bool"),
    ("messageNumber", "seq 32 bool"),
]

CONNECTION_FIELDS = [
    ("clientAuthFlag", "bool"),
    ("corked", "seq 2 bool"),
    ("corkedIO", "seq 8 bool"),
    ("handshake", "Record.Handshake"),
    ("isCachingEnabled", "bool"),
    ("keyExchangeEPH", "bool"),
    ("mode", "seq 32 bool"),
    ("resumeFromCache", "bool"),
    ("serverCanSendOCSP", "bool"),
]


@dataclass
class GaloisScenario:
    """Everything the Section 6.4 example builds, for tests and benches."""

    env: Environment
    handshake_config: Configuration
    connection_config: Configuration
    cork_result: RepairResult
    cork_lemma_record: Term
    cork_lemma_tuple: RepairResult


def setup_environment() -> Environment:
    """Build the environment with tuples, records, and ``cork``."""
    env = make_env(lists=False, vectors=True, bitvectors=True)

    # Compiler-generated tuple types (Figure 17, left).
    env.define(
        "Galois.Handshake",
        parse(env, "prod (seq 32 bool) (seq 32 bool)"),
    )
    env.define(
        "Galois.Connection",
        parse(
            env,
            """
            prod bool (prod (seq 2 bool) (prod (seq 8 bool)
              (prod Galois.Handshake (prod bool (prod bool
                (prod (seq 32 bool) (prod bool bool)))))))
            """,
        ),
    )

    # Human-readable records (Figure 17, right).
    declare_record(
        env,
        "Record.Handshake",
        [(f, parse(env, t)) for f, t in HANDSHAKE_FIELDS],
        constructor="MkHandshake",
    )
    declare_record(
        env,
        "Record.Connection",
        [(f, parse(env, t)) for f, t in CONNECTION_FIELDS],
        constructor="MkConnection",
    )

    # The compiler-generated cork function (Section 6.4.2), written with
    # the projection chains saw-core emits.
    rest = _tuple_rests(env)
    env.define(
        "cork",
        parse(
            env,
            f"""
            fun (c : Galois.Connection) =>
              pair bool ({rest[1]})
                (fst bool ({rest[1]}) c)
                (pair (seq 2 bool) ({rest[2]})
                   (bvAdd 2
                      (fst (seq 2 bool) ({rest[2]})
                         (snd bool ({rest[1]}) c))
                      (bvNat 2 1))
                   (snd (seq 2 bool) ({rest[2]})
                      (snd bool ({rest[1]}) c)))
            """,
        ),
        type=parse(env, "Galois.Connection -> Galois.Connection"),
    )
    return env


def _tuple_rests(env: Environment) -> List[str]:
    """Surface syntax for the nested tails of the Connection tuple."""
    field_types = [t for _f, t in CONNECTION_FIELDS]
    # Phase 0 (raw tuples): the handshake field is the tuple alias.
    field_types[3] = "Galois.Handshake"
    rests = [""] * len(field_types)
    rests[-1] = field_types[-1]
    for i in reversed(range(len(field_types) - 1)):
        rests[i] = f"prod ({field_types[i]}) ({rests[i + 1]})"
    return rests


def run_scenario() -> GaloisScenario:
    """Run the full Section 6.4 workflow; return all artifacts."""
    from ..tactics.engine import prove
    from ..tactics.tactics import intros, reflexivity, rewrite, simpl

    env = setup_environment()

    # Pass 1: Handshake tuples -> Handshake records.  This also rewrites
    # the Connection tuple type and cork, which mention the alias.
    handshake_config = tuples_records_configuration(
        env, "Record.Handshake", tuple_alias="Galois.Handshake"
    )
    session1 = RepairSession(
        env,
        handshake_config,
        old_globals=["Galois.Handshake"],
        rename=lambda n: f"{n}'",
    )
    session1.repair_module()

    # Pass 2: Connection tuples (now containing Handshake records) ->
    # Connection records.
    connection_config = tuples_records_configuration(
        env, "Record.Connection", tuple_alias="Galois.Connection'"
    )
    session2 = RepairSession(
        env,
        connection_config,
        old_globals=["Galois.Connection'"],
        rename=lambda n: n.replace("'", "") + ".record",
    )
    cork_result = session2.repair_constant("cork'", new_name="Record.cork")

    # The proof engineer writes a proof about the record version...
    cork_lemma_stmt = parse(
        env,
        """
        forall (c : Record.Connection),
          eq (seq 2 bool) (corked c) (bvNat 2 0) ->
          eq (seq 2 bool) (corked (Record.cork c)) (bvNat 2 1)
        """,
    )
    cork_lemma_record = prove(
        env,
        cork_lemma_stmt,
        intros("c", "H"),
        simpl(),
        rewrite("H"),
        reflexivity(),
    )
    env.define("Record.corkLemma", cork_lemma_record, type=cork_lemma_stmt)

    # ... and ports it back to the original tuples (both passes reversed).
    back2 = RepairSession(
        env,
        connection_config.reversed(),
        old_globals=["Record.Connection"],
        rename=lambda n: n.replace("Record.", "") + ".tupled",
    )
    lemma_mid = back2.repair_constant(
        "Record.corkLemma", new_name="corkLemma.mid"
    )
    back1 = RepairSession(
        env,
        handshake_config.reversed(),
        old_globals=["Record.Handshake"],
        rename=lambda n: n.replace(".mid", ""),
    )
    cork_lemma_tuple = back1.repair_constant(
        "corkLemma.mid", new_name="corkLemma"
    )

    return GaloisScenario(
        env=env,
        handshake_config=handshake_config,
        connection_config=connection_config,
        cork_result=cork_result,
        cork_lemma_record=cork_lemma_record,
        cork_lemma_tuple=cork_lemma_tuple,
    )
