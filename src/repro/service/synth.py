"""A synthetic wide environment for the change-impact tests.

A termgen-style generator in spirit, but deterministic and importable
by hermetic subprocess workers (it lives in ``src``, not ``tests``):
the quickstart list development plus a chain of ``nat`` arithmetic
definitions that never touch ``list``.  Against the quickstart
configuration (``list`` → ``New.list``) almost every definition is
provably unaffected — the shape the change-impact planner exists for,
and the shape real developments have (one type changes; most of the
library doesn't care).

``wide.d0 = add (S O) (S O)``, ``wide.d{i} = add wide.d{i-1} (S O)`` —
a chain, so the reverse-dependency graph is deep as well as wide and
the taint fixpoint's transitive reasoning is actually exercised.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..kernel.env import Environment
from .job import RepairJob, fingerprint_source

SETUP = "repro.service.synth:wide_env"

#: Length of the unaffected ``wide.d*`` chain.
CHAIN_LENGTH = 10

#: Affected targets the wide batch repairs alongside the chain.
AFFECTED_TARGETS = ("rev", "app", "rev_app_distr")


def wide_env() -> Environment:
    """Quickstart plus the ``nat`` chain."""
    from ..cases.quickstart import setup_environment
    from ..syntax.parser import parse

    env = setup_environment()
    previous = "(S O)"
    for i in range(CHAIN_LENGTH):
        name = f"wide.d{i}"
        env.define(name, parse(env, f"add {previous} (S O)"))
        previous = name
    return env


def wide_jobs() -> List[RepairJob]:
    """One job per chain definition plus the affected quickstart targets.

    Every job repairs against the quickstart configuration, so a sound
    impact plan certifies exactly the ``wide.d*`` chain unaffected and
    the ``list``-involved targets not.
    """
    env_fingerprint = fingerprint_source(SETUP)

    def spec(target: str) -> Dict[str, Any]:
        return {
            "name": f"wide/{target}",
            "setup": SETUP,
            "target": target,
            "config": {"kind": "auto", "a": "list", "b": "New.list"},
            "old": ["list"],
            "rename": {"kind": "prefix", "value": "New."},
            "env_fingerprint": env_fingerprint,
        }

    targets = [f"wide.d{i}" for i in range(CHAIN_LENGTH)]
    targets.extend(AFFECTED_TARGETS)
    return [RepairJob.from_dict(spec(t), where=t) for t in targets]
