"""The job model: content-addressed repair jobs.

A :class:`RepairJob` names everything a worker needs to redo one repair
from scratch — how to rebuild the environment (a dotted reference to a
builder, the "serialized module script"), which configuration to use,
which constant to repair, and how to name the results.  Its
:attr:`~RepairJob.key` is a content address: a SHA-256 over the job's
identity fields *including the environment fingerprint*, so editing the
development (or retargeting the job) changes the key and invalidates
exactly the affected cone of the persistent store, while re-running an
unchanged batch is pure cache hits.

Two fingerprint flavours cover the two ways the engine is driven:

* :func:`fingerprint_source` — for manifest jobs, a hash of the dotted
  reference plus the source file of the module it lives in.  The worker
  rebuilds the environment by importing that module, so its source is
  the job's environment "script"; editing it invalidates the jobs that
  use it.  (Edits to modules it imports are *not* tracked — pass
  ``refresh`` to the scheduler to force recomputation.)
* :func:`fingerprint_env` — for live batches (the ``Repair Batch``
  vernacular command), a structural hash of the environment contents in
  declaration order.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..kernel.env import Environment
from ..kernel.pretty import pretty, pretty_inductive

#: Version of the job-identity and store-record layout.  Bumping it
#: invalidates every persisted result at once.
SCHEMA_VERSION = 1

#: Setup sentinel for jobs over a live in-session environment (these are
#: never executed by subprocess workers).
LIVE_SETUP = "<live>"

# -- Per-job outcome taxonomy ------------------------------------------------

STATUS_OK = "ok"
STATUS_CACHED = "cached"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"
STATUS_SKIPPED = "skipped-dependency"
STATUS_SKIPPED_UNAFFECTED = "skipped-unaffected"

#: Every status :func:`repro.service.scheduler.run_batch` can report.
STATUSES = (
    STATUS_OK,
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_TIMEOUT,
    STATUS_SKIPPED,
    STATUS_SKIPPED_UNAFFECTED,
)


class JobError(Exception):
    """Raised for malformed job specifications."""


#: Result-record fields that legitimately vary between runs of the same
#: job: timings, cache-counter movements, and which boot path built the
#: environment.  Everything else — the repaired term, its type, the
#: replayed definitions, the script, the analysis — must be identical
#: run to run, which :func:`result_digest` makes checkable.
VOLATILE_RESULT_KEYS = (
    "wall_time_s",
    "kernel_delta",
    "env_boot",
    "schema_version",
)


def result_digest(result: Dict[str, Any]) -> str:
    """SHA-256 over a result record's *stable* fields (canonical JSON).

    Two runs of one job must produce the same digest regardless of
    wall time, cache weather, or whether the worker's environment was
    booted for this job or kept warm from an earlier one — the
    pool-vs-subprocess digest-parity gates compare these.
    """
    stable = {
        key: value
        for key, value in result.items()
        if key not in VOLATILE_RESULT_KEYS
    }
    canonical = json.dumps(
        stable, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: Config-spec kinds understood by :func:`repro.service.worker.build_config`.
CONFIG_KINDS = ("auto", "dotted", "live")

#: Rename-spec kinds understood by :func:`repro.service.worker.make_rename`.
RENAME_KINDS = ("prefix", "suffix", "map", "dotted")


def _validate_config(spec: Dict[str, Any], where: str) -> None:
    kind = spec.get("kind")
    if kind not in CONFIG_KINDS:
        raise JobError(f"{where}: unknown config kind {kind!r}")
    if kind == "auto" and not (spec.get("a") and spec.get("b")):
        raise JobError(f"{where}: auto config needs 'a' and 'b' type names")
    if kind == "dotted" and not spec.get("ref"):
        raise JobError(f"{where}: dotted config needs a 'ref'")


def _validate_rename(spec: Optional[Dict[str, Any]], where: str) -> None:
    if spec is None:
        return
    kind = spec.get("kind")
    if kind not in RENAME_KINDS:
        raise JobError(f"{where}: unknown rename kind {kind!r}")
    if kind in ("prefix", "suffix") and not isinstance(
        spec.get("value"), str
    ):
        raise JobError(f"{where}: rename {kind} needs a string 'value'")
    if kind == "map" and not isinstance(spec.get("map"), dict):
        raise JobError(f"{where}: rename map needs a 'map' object")
    if kind == "dotted" and not spec.get("ref"):
        raise JobError(f"{where}: rename dotted needs a 'ref'")


@dataclass(frozen=True, eq=False)
class RepairJob:
    """One content-addressed repair: rebuild, configure, repair, name.

    ``eq=False``: jobs hold dict specs, so identity (not structure) is
    the comparison — schedulers track jobs by ``name`` and ``key``.
    """

    #: Unique (per batch) human-readable name, e.g. ``quickstart/rev``.
    name: str
    #: Dotted reference ``pkg.mod:fn`` to a zero-argument environment
    #: builder, or :data:`LIVE_SETUP` for in-session batches.
    setup: str
    #: The constant to repair.
    target: str
    #: Configuration spec: ``{"kind": "auto", "a": .., "b": ..}``,
    #: ``{"kind": "dotted", "ref": "pkg.mod:fn"}``, or ``{"kind": "live"}``.
    config: Dict[str, Any]
    #: The old globals the repair must eliminate.
    old: Tuple[str, ...]
    #: Explicit name for the repaired target (otherwise ``rename``).
    new_name: Optional[str] = None
    #: Rename spec for dependencies (and the target when ``new_name`` is
    #: unset): ``{"kind": "prefix"|"suffix", "value": ..}``,
    #: ``{"kind": "map", "map": {..}, "prefix": ..}``, or
    #: ``{"kind": "dotted", "ref": ..}``.
    rename: Optional[Dict[str, Any]] = None
    #: Constants the repair session must leave alone (``skip`` set).
    skip: Tuple[str, ...] = ()
    #: Names of jobs (same batch) that must complete first.
    after: Tuple[str, ...] = ()
    #: Content hash of the environment this job runs in.
    env_fingerprint: str = ""
    #: Cached job key (computed on first access).
    _key: Optional[str] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise JobError("job needs a non-empty name")
        if not self.target:
            raise JobError(f"job {self.name!r}: missing target")
        if not self.setup:
            raise JobError(f"job {self.name!r}: missing setup reference")
        if not self.old:
            raise JobError(f"job {self.name!r}: missing old globals")
        _validate_config(self.config, f"job {self.name!r}")
        _validate_rename(self.rename, f"job {self.name!r}")

    # -- Content addressing ------------------------------------------------

    def identity(self) -> Dict[str, Any]:
        """The fields that determine this job's output (key inputs).

        ``name`` and ``after`` are batch bookkeeping, not identity: the
        same repair scheduled under a different batch layout must hit
        the same store entry.
        """
        return {
            "schema_version": SCHEMA_VERSION,
            "setup": self.setup,
            "target": self.target,
            "config": self.config,
            "old": list(self.old),
            "new_name": self.new_name,
            "rename": self.rename,
            "skip": list(self.skip),
            "env_fingerprint": self.env_fingerprint,
        }

    @property
    def key(self) -> str:
        """SHA-256 content address over :meth:`identity` (canonical JSON)."""
        cached = self._key
        if cached is None:
            canonical = json.dumps(
                self.identity(), sort_keys=True, separators=(",", ":")
            )
            cached = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_key", cached)
        return cached

    def payload(self) -> Dict[str, Any]:
        """The JSON-serializable worker input for this job."""
        out = self.identity()
        out["name"] = self.name
        out["key"] = self.key
        return out

    @staticmethod
    def from_dict(raw: Dict[str, Any], where: str = "job") -> "RepairJob":
        """Build a job from a manifest entry, with helpful errors."""
        if not isinstance(raw, dict):
            raise JobError(f"{where}: job entry must be an object")
        unknown = set(raw) - {
            "name",
            "setup",
            "target",
            "config",
            "old",
            "new_name",
            "rename",
            "skip",
            "after",
            "env_fingerprint",
        }
        if unknown:
            raise JobError(
                f"{where}: unknown job field(s) {sorted(unknown)!r}"
            )
        old = raw.get("old")
        if not isinstance(old, (list, tuple)) or not all(
            isinstance(n, str) for n in old or ()
        ):
            raise JobError(f"{where}: 'old' must be a list of names")
        after = raw.get("after", ())
        if not isinstance(after, (list, tuple)):
            raise JobError(f"{where}: 'after' must be a list of job names")
        skip = raw.get("skip", ())
        if not isinstance(skip, (list, tuple)) or not all(
            isinstance(n, str) for n in skip
        ):
            raise JobError(f"{where}: 'skip' must be a list of names")
        config = raw.get("config")
        if not isinstance(config, dict):
            raise JobError(f"{where}: 'config' must be an object")
        return RepairJob(
            name=str(raw.get("name", "")),
            setup=str(raw.get("setup", "")),
            target=str(raw.get("target", "")),
            config=config,
            old=tuple(old),
            new_name=raw.get("new_name"),
            rename=raw.get("rename"),
            skip=tuple(skip),
            after=tuple(after),
            env_fingerprint=str(raw.get("env_fingerprint", "")),
        )


# -- Environment fingerprints -------------------------------------------------


def fingerprint_source(ref: str) -> str:
    """Hash of a dotted setup reference plus its module's source bytes.

    The module named on the left of ``pkg.mod:fn`` is the job's
    environment script; its file contents (plus the reference itself)
    are the fingerprint, so editing the module invalidates every job
    that builds its environment through it.
    """
    module_name = ref.split(":", 1)[0]
    digest = hashlib.sha256()
    digest.update(ref.encode("utf-8"))
    try:
        spec = importlib.util.find_spec(module_name)
    except (ImportError, ValueError) as exc:
        raise JobError(f"setup module {module_name!r} not found: {exc}")
    if spec is None or spec.origin is None:
        raise JobError(f"setup module {module_name!r} has no source file")
    with open(spec.origin, "rb") as handle:
        digest.update(handle.read())
    return digest.hexdigest()


def fingerprint_env(env: Environment) -> str:
    """Structural hash of an environment's contents, declaration order
    included — the content address for live (in-session) batches."""
    digest = hashlib.sha256()
    for name in env.declaration_order():
        if env.has_inductive(name):
            digest.update(pretty_inductive(env.inductive(name)).encode())
        elif env.has_constant(name):
            decl = env.constant(name)
            body = pretty(decl.body) if decl.body is not None else "<none>"
            line = (
                f"constant {name} : {pretty(decl.type)} := {body} "
                f"opaque={decl.opaque}"
            )
            digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()
