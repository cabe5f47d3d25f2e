"""Whole-environment change-impact analysis: static repair planning.

Repairing a development transports *every* definition downstream of the
changed type, but in realistic environments most declarations are
provably untouched by a given configuration.  This pass classifies each
declaration — using the environment's memoized direct-reference graph
(:meth:`~repro.kernel.env.Environment.declaration_refs`, built on the
``collect_globals`` memo) and a BFS taint fixpoint from the
configuration's old-side globals, the one the residual pass uses
(:func:`~repro.analysis.residual.taint_closure`) — into one of four
verdicts:

* ``unaffected`` (RA401) — neither the type nor the body reaches an old
  global through any chain of references, delta-hidden ones included.
  The transformer's trigger-global pruning then guarantees repair is
  the identity on the definition, so a scheduler may skip its job;
* ``signature-only`` (RA402) — only the declared type reaches the
  change; the body itself is clean;
* ``transport-needed`` (RA403) — the body reaches the change and full
  Figure 10 transport is required;
* ``opaque`` (RA404) — nothing can be certified: configuration
  constants that deliberately bridge both sides (the ``allow``/``skip``
  set) and opaque constants whose unfolding the kernel hides.  These
  must be repaired.

Only ``unaffected`` licenses skipping work.  The soundness argument:
the taint fixpoint includes every global whose unfolding transitively
mentions an old global, so an unaffected definition's reference cone
contains no trigger global and no constant any repair could rename —
the transformation maps the whole cone to itself, byte for byte.  The
``--no-impact`` differential gate re-checks this claim empirically
against the per-declaration digests recorded in the plan.

The result is a content-addressed :class:`RepairPlan` artifact — keyed
on the environment fingerprint, the old globals, and the allow set —
with per-definition evidence chains (shortest reference path to an old
global), JSON and SARIF renderings, and a corruption-tolerant
:class:`PlanStore` so repeat batches over an unchanged environment
reuse the plan instead of re-analyzing.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..kernel.env import Environment
from ..kernel.pretty import pretty, pretty_inductive
from .diagnostics import Diagnostic, Report, Severity
from .residual import taint_closure

#: Version of the plan artifact layout.  Bumping it invalidates every
#: persisted plan at once.
PLAN_SCHEMA_VERSION = 1

# -- Verdict lattice ----------------------------------------------------------

VERDICT_UNAFFECTED = "unaffected"
VERDICT_SIGNATURE = "signature-only"
VERDICT_TRANSPORT = "transport-needed"
VERDICT_OPAQUE = "opaque"

#: Every verdict, ordered by how much work the definition needs.
VERDICTS = (
    VERDICT_UNAFFECTED,
    VERDICT_SIGNATURE,
    VERDICT_TRANSPORT,
    VERDICT_OPAQUE,
)

#: Stable diagnostic code per verdict (registered in ``CODES``).
VERDICT_CODES = {
    VERDICT_UNAFFECTED: "RA401",
    VERDICT_SIGNATURE: "RA402",
    VERDICT_TRANSPORT: "RA403",
    VERDICT_OPAQUE: "RA404",
}

#: Diagnostic severity per verdict: verdicts are facts, not problems,
#: so only the can't-certify case warns.
VERDICT_SEVERITIES = {
    VERDICT_UNAFFECTED: Severity.INFO,
    VERDICT_SIGNATURE: Severity.INFO,
    VERDICT_TRANSPORT: Severity.INFO,
    VERDICT_OPAQUE: Severity.WARNING,
}


class ImpactError(Exception):
    """Raised for malformed plans and plan-store records."""


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- Plan entries -------------------------------------------------------------


@dataclass(frozen=True)
class ImpactEntry:
    """One declaration's verdict, with evidence.

    ``chain`` is the shortest reference path from the declaration to an
    old global (``(name, ..., old)``); empty for ``unaffected``.
    ``term_digest``/``type_digest`` hash the pretty-printed body and
    type exactly as worker records render them, so the differential
    soundness gate can compare a force-run job's output byte for byte.
    ``def_digest`` hashes the whole declaration — the evidence digest
    recorded in skipped job records.
    """

    name: str
    kind: str  # "constant" | "inductive"
    verdict: str
    chain: Tuple[str, ...]
    reason: str
    def_digest: str
    term_digest: Optional[str] = None
    type_digest: Optional[str] = None

    def __post_init__(self) -> None:
        if self.verdict not in VERDICTS:
            raise ImpactError(f"unknown verdict {self.verdict!r}")
        if self.kind not in ("constant", "inductive"):
            raise ImpactError(f"unknown declaration kind {self.kind!r}")

    @property
    def code(self) -> str:
        return VERDICT_CODES[self.verdict]

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "verdict": self.verdict,
            "code": self.code,
            "chain": list(self.chain),
            "reason": self.reason,
            "def_digest": self.def_digest,
        }
        if self.term_digest is not None:
            out["term_digest"] = self.term_digest
        if self.type_digest is not None:
            out["type_digest"] = self.type_digest
        return out

    @staticmethod
    def from_dict(raw: Dict[str, Any]) -> "ImpactEntry":
        if not isinstance(raw, dict):
            raise ImpactError("plan entry must be an object")
        try:
            return ImpactEntry(
                name=str(raw["name"]),
                kind=str(raw["kind"]),
                verdict=str(raw["verdict"]),
                chain=tuple(raw.get("chain", ())),
                reason=str(raw.get("reason", "")),
                def_digest=str(raw["def_digest"]),
                term_digest=raw.get("term_digest"),
                type_digest=raw.get("type_digest"),
            )
        except KeyError as exc:
            raise ImpactError(f"plan entry missing field {exc}") from exc

    def to_diagnostic(self) -> Diagnostic:
        return Diagnostic(
            code=self.code,
            severity=VERDICT_SEVERITIES[self.verdict],
            message=f"{self.verdict}: {self.reason}",
            subject=self.name,
            path=self.chain[1:] if len(self.chain) > 1 else (),
        )


# -- The plan artifact --------------------------------------------------------


@dataclass
class RepairPlan:
    """A whole-environment verdict map, content addressed.

    ``fingerprint`` is the environment fingerprint the plan was built
    against (a consumer must refuse a plan whose fingerprint disagrees
    with its job's).  ``entries`` is keyed by declaration name in
    declaration order.
    """

    fingerprint: str
    old: Tuple[str, ...]
    allow: Tuple[str, ...]
    entries: Dict[str, ImpactEntry]
    schema_version: int = PLAN_SCHEMA_VERSION
    _digest: Optional[str] = field(default=None, repr=False)

    def verdict(self, name: str) -> Optional[str]:
        entry = self.entries.get(name)
        return entry.verdict if entry is not None else None

    def counts(self) -> Dict[str, int]:
        out = {verdict: 0 for verdict in VERDICTS}
        for entry in self.entries.values():
            out[entry.verdict] += 1
        return out

    def payload(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "fingerprint": self.fingerprint,
            "old": list(self.old),
            "allow": list(self.allow),
            "entries": [e.to_dict() for e in self.entries.values()],
        }

    @property
    def digest(self) -> str:
        """SHA-256 content address over :meth:`payload` (canonical JSON)."""
        cached = self._digest
        if cached is None:
            canonical = json.dumps(
                self.payload(), sort_keys=True, separators=(",", ":")
            )
            cached = _sha256(canonical)
            self._digest = cached
        return cached

    def to_dict(self) -> Dict[str, Any]:
        out = self.payload()
        out["digest"] = self.digest
        out["counts"] = self.counts()
        return out

    @staticmethod
    def from_dict(raw: Dict[str, Any]) -> "RepairPlan":
        if not isinstance(raw, dict):
            raise ImpactError("plan must be an object")
        if raw.get("schema_version") != PLAN_SCHEMA_VERSION:
            raise ImpactError(
                f"plan schema {raw.get('schema_version')!r} != "
                f"{PLAN_SCHEMA_VERSION}"
            )
        entries_raw = raw.get("entries")
        if not isinstance(entries_raw, list):
            raise ImpactError("plan 'entries' must be a list")
        entries: Dict[str, ImpactEntry] = {}
        for item in entries_raw:
            entry = ImpactEntry.from_dict(item)
            entries[entry.name] = entry
        plan = RepairPlan(
            fingerprint=str(raw.get("fingerprint", "")),
            old=tuple(raw.get("old", ())),
            allow=tuple(raw.get("allow", ())),
            entries=entries,
        )
        declared = raw.get("digest")
        if declared is not None and declared != plan.digest:
            raise ImpactError("plan digest mismatch (corrupt artifact)")
        return plan

    def to_report(self) -> Report:
        report = Report()
        for entry in self.entries.values():
            report.add(entry.to_diagnostic())
        return report

    def render(self) -> str:
        """Human-readable summary: counts, then non-unaffected verdicts."""
        counts = self.counts()
        lines = [
            "impact plan {}: {} declaration(s) — {}".format(
                self.digest[:12],
                len(self.entries),
                ", ".join(
                    f"{counts[verdict]} {verdict}" for verdict in VERDICTS
                ),
            )
        ]
        for entry in self.entries.values():
            if entry.verdict == VERDICT_UNAFFECTED:
                continue
            where = " via " + " -> ".join(entry.chain[1:]) if len(
                entry.chain
            ) > 1 else ""
            lines.append(
                f"  {entry.code} {entry.name}: {entry.verdict}{where}"
            )
        return "\n".join(lines)


# -- Building a plan ----------------------------------------------------------


def _chain(
    name: str,
    witness: str,
    old: FrozenSet[str],
    parents: Dict[str, str],
) -> Tuple[str, ...]:
    chain = [name]
    current = witness
    chain.append(current)
    while current not in old:
        current = parents[current]
        chain.append(current)
    return tuple(chain)


def _witness(
    names: FrozenSet[str], tainted: FrozenSet[str]
) -> Optional[str]:
    hits = names & tainted
    return min(hits) if hits else None


def build_plan(
    env: Environment,
    old_globals: Iterable[str],
    allow: Iterable[str] = (),
    fingerprint: str = "",
) -> RepairPlan:
    """Classify every declaration in ``env`` against a change.

    ``old_globals`` are the configuration's old-side globals (the
    scheduler passes the job's ``old`` tuple); ``allow`` is the
    configuration-constant allow/skip set, which is never certifiable.
    """
    old = frozenset(old_globals)
    allowed = frozenset(allow)
    refs = env.declaration_refs()
    tainted, parents = taint_closure(refs, old)
    entries: Dict[str, ImpactEntry] = {}
    for name in env.declaration_order():
        if env.has_inductive(name):
            ind = env.inductive(name)
            kind = "inductive"
            opaque = False
            type_refs = refs[name]
            body_refs: FrozenSet[str] = frozenset()
            rendering = pretty_inductive(ind)
            term_digest: Optional[str] = None
            type_digest: Optional[str] = None
        else:
            decl = env.constant(name)
            kind = "constant"
            opaque = decl.opaque
            from ..kernel.term import collect_globals

            type_refs = frozenset(collect_globals(decl.type))
            body_refs = (
                frozenset(collect_globals(decl.body))
                if decl.body is not None
                else frozenset()
            )
            type_pretty = pretty(decl.type)
            body_pretty = (
                pretty(decl.body) if decl.body is not None else "<none>"
            )
            rendering = f"{name} : {type_pretty} := {body_pretty}"
            term_digest = (
                _sha256(body_pretty) if decl.body is not None else None
            )
            type_digest = _sha256(type_pretty)
        type_wit = _witness(type_refs, tainted)
        body_wit = _witness(body_refs, tainted)
        witness = body_wit or type_wit
        chain: Tuple[str, ...] = ()
        if name in old:
            verdict = VERDICT_TRANSPORT
            reason = "configuration old-side global"
            chain = (name,)
        elif name in allowed:
            verdict = VERDICT_OPAQUE
            reason = "configuration constant bridges both sides"
            if witness is not None:
                chain = _chain(name, witness, old, parents)
        elif witness is None:
            verdict = VERDICT_UNAFFECTED
            reason = "no reference chain reaches an old global"
        else:
            chain = _chain(name, witness, old, parents)
            if opaque:
                verdict = VERDICT_OPAQUE
                reason = (
                    "opaque constant reaches the change; its unfolding "
                    "is hidden from the transformer"
                )
            elif kind == "inductive":
                verdict = VERDICT_TRANSPORT
                reason = "inductive family mentions the changed type"
            elif body_wit is not None:
                verdict = VERDICT_TRANSPORT
                reason = f"body reaches old global via {body_wit!r}"
            else:
                verdict = VERDICT_SIGNATURE
                reason = f"only the type reaches old global via {type_wit!r}"
        entries[name] = ImpactEntry(
            name=name,
            kind=kind,
            verdict=verdict,
            chain=chain,
            reason=reason,
            def_digest=_sha256(rendering),
            term_digest=term_digest,
            type_digest=type_digest,
        )
    return RepairPlan(
        fingerprint=fingerprint,
        old=tuple(sorted(old)),
        allow=tuple(sorted(allowed)),
        entries=entries,
    )


# -- The plan store -----------------------------------------------------------

#: Environment variable naming the plan-store directory.
IMPACT_STORE_ENV_VAR = "REPRO_IMPACT_STORE"


def default_plan_dir() -> str:
    """``$REPRO_IMPACT_STORE`` when set, else ``~/.cache/repro/impact``."""
    configured = os.environ.get(IMPACT_STORE_ENV_VAR)
    if configured:
        return configured
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro", "impact"
    )


def plan_key(
    fingerprint: str, old: Iterable[str], allow: Iterable[str] = ()
) -> str:
    """Content address of a plan request (not of the plan itself)."""
    canonical = json.dumps(
        {
            "schema_version": PLAN_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "old": sorted(old),
            "allow": sorted(allow),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return _sha256(canonical)


class PlanStore:
    """A directory of plan artifacts keyed by :func:`plan_key`.

    Mirrors the result store's contract: a missing, corrupt, or
    schema-mismatched artifact reads as a miss (refuse-don't-crash),
    and writes are atomic.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root if root is not None else default_plan_dir()
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def get(self, key: str) -> Optional[RepairPlan]:
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                raw = json.load(handle)
            plan = RepairPlan.from_dict(raw)
        except (OSError, ValueError, ImpactError):
            self.misses += 1
            return None
        self.hits += 1
        return plan

    def put(self, key: str, plan: RepairPlan) -> None:
        os.makedirs(self.root, exist_ok=True)
        payload = json.dumps(plan.to_dict(), sort_keys=True, indent=1)
        fd, tmp = tempfile.mkstemp(
            dir=self.root, prefix=".plan-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp, self._path(key))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


def ensure_plan(
    fingerprint: str,
    old: Iterable[str],
    env_factory: Callable[[], Environment],
    allow: Iterable[str] = (),
    store: Optional[PlanStore] = None,
) -> RepairPlan:
    """Fetch a plan from the store, or build and persist it.

    ``env_factory`` is only called on a store miss, so repeat batches
    over an unchanged environment never rebuild it for analysis.
    """
    old = tuple(old)
    allow = tuple(allow)
    key = plan_key(fingerprint, old, allow)
    if store is not None:
        cached = store.get(key)
        if cached is not None and cached.fingerprint == fingerprint:
            return cached
    plan = build_plan(
        env_factory(), old, allow=allow, fingerprint=fingerprint
    )
    if store is not None:
        store.put(key, plan)
    return plan


# -- CLI ----------------------------------------------------------------------


def _setup_plans(
    setups: Sequence[Tuple[str, Tuple[str, ...], Tuple[str, ...]]],
    store: Optional[PlanStore],
) -> List[Tuple[str, RepairPlan]]:
    from ..service.job import fingerprint_source
    from ..service.worker import build_environment

    out: List[Tuple[str, RepairPlan]] = []
    for setup, old, allow in setups:
        plan = ensure_plan(
            fingerprint_source(setup),
            old,
            lambda setup=setup: build_environment(setup),
            allow=allow,
            store=store,
        )
        out.append((setup, plan))
    return out


def _six_case_setups() -> List[
    Tuple[str, Tuple[str, ...], Tuple[str, ...]]
]:
    from ..service.cases import six_case_jobs

    seen: Dict[
        Tuple[str, Tuple[str, ...], Tuple[str, ...]], None
    ] = {}
    for job in six_case_jobs():
        seen.setdefault((job.setup, job.old, job.skip), None)
    return list(seen)


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.impact",
        description="Static change-impact analysis over an environment.",
    )
    parser.add_argument(
        "--setup",
        metavar="REF",
        help="dotted pkg.mod:fn environment builder to analyze",
    )
    parser.add_argument(
        "--old",
        action="append",
        default=[],
        metavar="NAME",
        help="old-side global (repeatable)",
    )
    parser.add_argument(
        "--allow",
        action="append",
        default=[],
        metavar="NAME",
        help="configuration constant allowed to bridge both sides "
        "(repeatable)",
    )
    parser.add_argument(
        "--six-cases",
        action="store_true",
        help="analyze every six-case-batch environment instead of --setup",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the plan(s) as JSON to PATH ('-' for stdout)",
    )
    parser.add_argument(
        "--sarif",
        metavar="PATH",
        help="write a SARIF 2.1.0 rendering to PATH",
    )
    parser.add_argument(
        "--store-dir",
        metavar="DIR",
        help="plan-store directory (default: $REPRO_IMPACT_STORE or "
        "~/.cache/repro/impact)",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="always rebuild; do not read or write the plan store",
    )
    args = parser.parse_args(argv)

    if args.six_cases:
        setups = _six_case_setups()
    elif args.setup:
        if not args.old:
            parser.error("--setup requires at least one --old NAME")
        setups = [
            (args.setup, tuple(args.old), tuple(args.allow))
        ]
    else:
        parser.error("one of --setup or --six-cases is required")

    store = None if args.no_store else PlanStore(args.store_dir)
    plans = _setup_plans(setups, store)

    if args.json:
        document = json.dumps(
            {
                "schema_version": PLAN_SCHEMA_VERSION,
                "plans": [
                    {"setup": setup, **plan.to_dict()}
                    for setup, plan in plans
                ],
            },
            indent=1,
            sort_keys=True,
        )
        if args.json == "-":
            print(document)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(document + "\n")
    if args.sarif:
        from .sarif import plans_to_sarif

        with open(args.sarif, "w", encoding="utf-8") as handle:
            json.dump(plans_to_sarif(plans), handle, indent=1)
            handle.write("\n")
    if not args.json or args.json != "-":
        for setup, plan in plans:
            print(f"== {setup}")
            print(plan.render())
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
