"""Environment snapshot/restore: warm-start state for service workers.

A *snapshot pack* is one binary file holding any number of named
environments — typically the stdlib plus every case-study setup — that
share a single string table and term node table (see
:mod:`repro.kernel.codec`), so the stdlib terms common to all six case
environments are written once, exactly as they are shared in the arena.
Each entry records:

* the entry **key** (the dotted setup reference the service schedules
  jobs under, e.g. ``repro.service.cases:replica_env``),
* the **fingerprint** of the setup module at snapshot time (the same
  :func:`repro.service.job.fingerprint_source` hash job keys embed), so
  a stale snapshot is *detected and bypassed*, never silently used,
* every declaration — constants **including the auto-derived
  ``<name>_rect`` recursors** (serialized as plain constants) and
  inductive families — in declaration order, and
* the serializable families of the environment's
  :class:`~repro.kernel.env.ReductionCache`.

Restoring builds a **fresh** :class:`~repro.kernel.env.Environment` per
call through :meth:`Environment.from_parts`: declarations are inserted
directly, with no ``infer``/``check``/positivity re-elaboration — the
KernelStats-pinned zero-rebuild test holds the kernel to that.

Cache serialization and the invalidation story
----------------------------------------------

The reduction cache's keys mix structural data with ``id()``-identities
that are meaningless across processes.  But every identity-keyed entry
*pins the referenced terms in its value* (that is what keeps the ids
stable in-process), so each entry can be written as decoded-term
references plus primitives and **re-keyed at load time using the
kernel's own key builders** (``_whnf_key``/``_nf_key``/the literal tag
tuples).  Hash consing makes the decoded terms pointer-identical to
anything the warm process builds later, so the restored entries hit.

Families carried: ``whnf``, ``nf``, ``conv``, ``infer``, ``check``.
Entries under any other tag are skipped and rebuilt on demand in the
warm process; their absence is a cold-cache cost, never a correctness
issue.  A snapshot never outlives an edit to its setup module: the
fingerprint mismatch routes the worker back to a scratch boot (and
non-additive environment mutations clear the restored cache exactly as
they clear a scratch-built one).

CLI::

    python -m repro.kernel.snapshot OUT.snap --six-cases
    python -m repro.kernel.snapshot OUT.snap --setup repro.stdlib:make_env
    python -m repro.kernel.snapshot --inspect OUT.snap
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .codec import (
    KIND_SNAPSHOT,
    Reader,
    SnapshotError,
    TermDecoder,
    TermEncoder,
    Writer,
    read_header,
    write_header,
)
from .env import ConstantDecl, Environment
from .inductive import ConstructorDecl, InductiveDecl, Telescope
from .reduce import _nf_key, _whnf_key
from .term import Sort, Term

__all__ = [
    "SnapshotEntry",
    "SnapshotPack",
    "SnapshotError",
    "encode_pack",
    "decode_pack",
    "save_snapshot",
    "load_snapshot",
    "load_snapshot_cached",
    "main",
]


# -- Declaration records ------------------------------------------------------

_DECL_CONSTANT = 0
_DECL_INDUCTIVE = 1

# Cache-entry family tags.
_FAM_WHNF = 0
_FAM_NF = 1
_FAM_CONV = 2
_FAM_INFER = 3
_FAM_CHECK = 4

#: Reduction-cache key tags that are serialized (see module docstring).
_SERIALIZED_FAMILIES = {
    "whnf": _FAM_WHNF,
    "nf": _FAM_NF,
    "conv": _FAM_CONV,
    "infer": _FAM_INFER,
    "check": _FAM_CHECK,
}

#: A restorable cache entry: (family, payload...) with decoded terms.
CacheEntry = Tuple[Any, ...]


def _encode_telescope(
    writer: Writer, encoder: TermEncoder, tele: Telescope
) -> None:
    writer.uvarint(len(tele))
    for name, ty in tele:
        writer.uvarint(encoder.string(name))
        writer.uvarint(encoder.add(ty))


def _decode_telescope(
    reader: Reader, decoder: TermDecoder, what: str
) -> Telescope:
    count = reader.count(f"{what} telescope size")
    entries: List[Tuple[str, Term]] = []
    for _ in range(count):
        name = decoder.string(reader, reader.uvarint(what), what)
        entries.append((name, decoder.term(reader, reader.uvarint(what), what)))
    return tuple(entries)


def _encode_decl(writer: Writer, encoder: TermEncoder, decl: object) -> None:
    if isinstance(decl, ConstantDecl):
        writer.u8(_DECL_CONSTANT)
        writer.uvarint(encoder.string(decl.name))
        flags = (1 if decl.body is not None else 0) | (
            2 if decl.opaque else 0
        )
        writer.u8(flags)
        writer.uvarint(encoder.add(decl.type))
        if decl.body is not None:
            writer.uvarint(encoder.add(decl.body))
        return
    if isinstance(decl, InductiveDecl):
        writer.u8(_DECL_INDUCTIVE)
        writer.uvarint(encoder.string(decl.name))
        _encode_telescope(writer, encoder, decl.params)
        _encode_telescope(writer, encoder, decl.indices)
        writer.uvarint(encoder.add(decl.sort))
        writer.uvarint(len(decl.constructors))
        for ctor in decl.constructors:
            writer.uvarint(encoder.string(ctor.name))
            _encode_telescope(writer, encoder, ctor.args)
            writer.uvarint(len(ctor.result_indices))
            for index_term in ctor.result_indices:
                writer.uvarint(encoder.add(index_term))
        return
    raise SnapshotError(
        f"cannot snapshot declaration of type {type(decl).__name__}"
    )


def _decode_decl(reader: Reader, decoder: TermDecoder) -> object:
    kind = reader.u8("declaration kind")
    if kind == _DECL_CONSTANT:
        what = "constant declaration"
        name = decoder.string(reader, reader.uvarint(what), what)
        flags = reader.u8(f"{what} flags")
        if flags & ~3:
            raise reader.fail(f"invalid {what} flags {flags:#x}")
        ty = decoder.term(reader, reader.uvarint(what), what)
        body: Optional[Term] = None
        if flags & 1:
            body = decoder.term(reader, reader.uvarint(what), what)
        return ConstantDecl(
            name=name, type=ty, body=body, opaque=bool(flags & 2)
        )
    if kind == _DECL_INDUCTIVE:
        what = "inductive declaration"
        name = decoder.string(reader, reader.uvarint(what), what)
        params = _decode_telescope(reader, decoder, f"{name} params")
        indices = _decode_telescope(reader, decoder, f"{name} indices")
        sort = decoder.term(reader, reader.uvarint(what), what)
        if not isinstance(sort, Sort):
            raise reader.fail(
                f"inductive {name!r} sort reference is not a Sort node"
            )
        ctor_count = reader.count(f"{name} constructor count")
        ctors: List[ConstructorDecl] = []
        for _ in range(ctor_count):
            cname = decoder.string(reader, reader.uvarint(what), what)
            args = _decode_telescope(reader, decoder, f"{name}.{cname} args")
            n_indices = reader.count(f"{name}.{cname} result indices")
            result = tuple(
                decoder.term(reader, reader.uvarint(what), what)
                for _ in range(n_indices)
            )
            ctors.append(
                ConstructorDecl(name=cname, args=args, result_indices=result)
            )
        return InductiveDecl(
            name=name,
            params=params,
            indices=indices,
            sort=sort,
            constructors=tuple(ctors),
        )
    raise reader.fail(f"unknown declaration kind {kind}")


# -- Reduction-cache records --------------------------------------------------


def _encode_frozen(
    writer: Writer, encoder: TermEncoder, frozen: FrozenSet[str]
) -> None:
    writer.uvarint(len(frozen))
    for name in sorted(frozen):
        writer.uvarint(encoder.string(name))


def _decode_frozen(
    reader: Reader, decoder: TermDecoder, what: str
) -> FrozenSet[str]:
    count = reader.count(f"{what} frozen-set size")
    return frozenset(
        decoder.string(reader, reader.uvarint(what), what)
        for _ in range(count)
    )


def _encode_entries(
    writer: Writer, encoder: TermEncoder, env: Environment
) -> int:
    """Serialize the restorable reduction-cache entries; return the
    number of entries skipped (non-serializable families)."""
    entries: List[bytes] = []
    skipped = 0
    for key, value in env.reduction_cache._store.items():
        tag = key[0] if isinstance(key, tuple) and key else None
        family = _SERIALIZED_FAMILIES.get(tag) if isinstance(tag, str) else None
        if family is None:
            skipped += 1
            continue
        entry = Writer()
        entry.u8(family)
        if family in (_FAM_WHNF, _FAM_NF):
            # Key: (tag, shape..., delta, frozen); value: (pin, result).
            # The pin rebuilds the key via the kernel's own key builder,
            # so only (pin, result, delta, frozen) need to travel.
            pin, result = value  # type: ignore[misc]
            delta, frozen = key[-2], key[-1]
            if not isinstance(delta, bool) or not isinstance(
                frozen, frozenset
            ):
                skipped += 1
                continue
            entry.uvarint(encoder.add(pin))
            entry.uvarint(encoder.add(result))
            entry.u8(1 if delta else 0)
            _encode_frozen(entry, encoder, frozen)
        elif family == _FAM_CONV:
            # Key: ("conv", t1, t2, cumulative); value: bool.
            _, t1, t2, cumulative = key
            entry.uvarint(encoder.add(t1))
            entry.uvarint(encoder.add(t2))
            entry.u8(1 if cumulative else 0)
            entry.u8(1 if value else 0)
        elif family == _FAM_INFER:
            # Key: ("infer", id(term), type_ids); value:
            # (term, ctx.entries, result) — term and entries pin the ids.
            term, ctx_entries, result = value  # type: ignore[misc]
            entry.uvarint(encoder.add(term))
            entry.uvarint(encoder.add(result))
            _encode_telescope(entry, encoder, tuple(ctx_entries))
        else:  # _FAM_CHECK
            # Key: ("check", id(term), id(expected), type_ids); value:
            # (term, expected, ctx.entries, True).
            term, expected, ctx_entries, _ok = value  # type: ignore[misc]
            entry.uvarint(encoder.add(term))
            entry.uvarint(encoder.add(expected))
            _encode_telescope(entry, encoder, tuple(ctx_entries))
        entries.append(entry.tobytes())
    writer.uvarint(len(entries))
    for data in entries:
        writer.raw(data)
    return skipped


def _decode_entries(
    reader: Reader, decoder: TermDecoder
) -> Tuple[CacheEntry, ...]:
    count = reader.count("cache entry count")
    entries: List[CacheEntry] = []
    for i in range(count):
        what = f"cache entry #{i}"
        family = reader.u8(f"{what} family")
        if family in (_FAM_WHNF, _FAM_NF):
            pin = decoder.term(reader, reader.uvarint(what), what)
            result = decoder.term(reader, reader.uvarint(what), what)
            delta = bool(reader.u8(f"{what} delta"))
            frozen = _decode_frozen(reader, decoder, what)
            entries.append((family, pin, result, delta, frozen))
        elif family == _FAM_CONV:
            t1 = decoder.term(reader, reader.uvarint(what), what)
            t2 = decoder.term(reader, reader.uvarint(what), what)
            cumulative = bool(reader.u8(f"{what} cumulative"))
            verdict = bool(reader.u8(f"{what} verdict"))
            entries.append((family, t1, t2, cumulative, verdict))
        elif family == _FAM_INFER:
            term = decoder.term(reader, reader.uvarint(what), what)
            result = decoder.term(reader, reader.uvarint(what), what)
            ctx_entries = _decode_telescope(reader, decoder, what)
            entries.append((family, term, result, ctx_entries))
        elif family == _FAM_CHECK:
            term = decoder.term(reader, reader.uvarint(what), what)
            expected = decoder.term(reader, reader.uvarint(what), what)
            ctx_entries = _decode_telescope(reader, decoder, what)
            entries.append((family, term, expected, ctx_entries))
        else:
            raise reader.fail(f"unknown cache entry family {family}")
    return tuple(entries)


def _restore_entries(
    env: Environment, entries: Sequence[CacheEntry]
) -> None:
    """Re-key the serialized entries into ``env``'s reduction cache."""
    store = env.reduction_cache._store
    for entry in entries:
        family = entry[0]
        if family in (_FAM_WHNF, _FAM_NF):
            _f, pin, result, delta, frozen = entry
            key = (
                _whnf_key(pin, delta, frozen)
                if family == _FAM_WHNF
                else _nf_key(pin, delta, frozen)
            )
            if key is not None:
                store[key] = (pin, result)
        elif family == _FAM_CONV:
            _f, t1, t2, cumulative, verdict = entry
            store[("conv", t1, t2, cumulative)] = verdict
        elif family == _FAM_INFER:
            _f, term, result, ctx_entries = entry
            type_ids = tuple(id(ty) for _name, ty in ctx_entries)
            store[("infer", id(term), type_ids)] = (
                term,
                ctx_entries,
                result,
            )
        else:  # _FAM_CHECK
            _f, term, expected, ctx_entries = entry
            type_ids = tuple(id(ty) for _name, ty in ctx_entries)
            store[("check", id(term), id(expected), type_ids)] = (
                term,
                expected,
                ctx_entries,
                True,
            )


# -- Pack assembly ------------------------------------------------------------


class SnapshotEntry:
    """One named environment inside a decoded pack.

    The entry's body (declarations + cache entries) is decoded
    *lazily* on first access: a worker booting one case environment
    pays for the shared node table plus its own entry only, not for
    every environment in the pack.  Body corruption therefore surfaces
    as :class:`SnapshotError` on first access rather than at pack-open
    time — same contract, deferred."""

    __slots__ = (
        "key",
        "fingerprint",
        "_body",
        "_decoder",
        "_decoded",
    )

    def __init__(
        self, key: str, fingerprint: str, body: bytes, decoder: TermDecoder
    ) -> None:
        self.key = key
        self.fingerprint = fingerprint
        self._body = body
        self._decoder = decoder
        self._decoded: Optional[
            Tuple[bool, Tuple[object, ...], Tuple[CacheEntry, ...]]
        ] = None

    def _parts(
        self,
    ) -> Tuple[bool, Tuple[object, ...], Tuple[CacheEntry, ...]]:
        decoded = self._decoded
        if decoded is None:
            reader = Reader(self._body)
            cache_enabled = bool(
                reader.u8(f"{self.key} entry cache flag")
            )
            decl_count = reader.count(f"{self.key} declaration count")
            decls = tuple(
                _decode_decl(reader, self._decoder)
                for _ in range(decl_count)
            )
            cache_entries = _decode_entries(reader, self._decoder)
            if reader.remaining:
                raise reader.fail(
                    f"trailing garbage in entry {self.key!r}: "
                    f"{reader.remaining} byte(s)"
                )
            decoded = self._decoded = (cache_enabled, decls, cache_entries)
        return decoded

    @property
    def cache_enabled(self) -> bool:
        return self._parts()[0]

    @property
    def decls(self) -> Tuple[object, ...]:
        return self._parts()[1]

    @property
    def cache_entries(self) -> Tuple[CacheEntry, ...]:
        return self._parts()[2]

    def build_env(self) -> Environment:
        """A fresh :class:`Environment` restored from this entry.

        Every call returns a new environment (jobs mutate theirs), but
        the declarations and terms are the shared decoded objects —
        only the dicts are per-call.  No elaboration runs here.
        """
        cache_enabled, decls, cache_entries = self._parts()
        env = Environment.from_parts(
            decls, reduction_cache=cache_enabled
        )
        if cache_enabled:
            _restore_entries(env, cache_entries)
        return env


@dataclass(frozen=True)
class SnapshotPack:
    """A decoded snapshot: named entries over one shared term table."""

    entries: Mapping[str, SnapshotEntry]
    node_count: int
    byte_size: int

    def get(self, key: str) -> Optional[SnapshotEntry]:
        return self.entries.get(key)

    def keys(self) -> Tuple[str, ...]:
        return tuple(self.entries)


def encode_pack(
    environments: Mapping[str, Tuple[Environment, str]],
) -> bytes:
    """Serialize ``{key: (env, fingerprint)}`` into one snapshot pack."""
    encoder = TermEncoder()
    sections: List[Tuple[int, int, bytes]] = []
    for key, (env, fingerprint) in environments.items():
        key_index = encoder.string(key)
        fingerprint_index = encoder.string(fingerprint)
        body = Writer()
        body.u8(1 if env.reduction_cache.enabled else 0)
        order = env.declaration_order()
        decls: List[object] = []
        for name in order:
            if env.has_inductive(name):
                decls.append(env.inductive(name))
            else:
                decls.append(env.constant(name))
        body.uvarint(len(decls))
        for decl in decls:
            _encode_decl(body, encoder, decl)
        _encode_entries(body, encoder, env)
        sections.append((key_index, fingerprint_index, body.tobytes()))
    out = Writer()
    write_header(out, KIND_SNAPSHOT)
    encoder.emit_tables(out)
    out.uvarint(len(sections))
    for key_index, fingerprint_index, body_bytes in sections:
        out.uvarint(key_index)
        out.uvarint(fingerprint_index)
        out.uvarint(len(body_bytes))
        out.raw(body_bytes)
    return out.tobytes()


def decode_pack(data: bytes) -> SnapshotPack:
    """Decode a snapshot pack's shared tables and entry directory.

    Any malformed header, table, or directory raises
    :class:`SnapshotError` immediately; per-entry bodies are validated
    lazily on first :class:`SnapshotEntry` access.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise SnapshotError(
            f"snapshot input must be bytes, not {type(data).__name__}"
        )
    reader = Reader(bytes(data))
    read_header(reader, KIND_SNAPSHOT)
    decoder = TermDecoder(reader)
    env_count = reader.count("environment count")
    entries: Dict[str, SnapshotEntry] = {}
    for _ in range(env_count):
        what = "environment entry"
        key = decoder.string(reader, reader.uvarint(what), what)
        fingerprint = decoder.string(reader, reader.uvarint(what), what)
        body_len = reader.count(f"{key} entry body length")
        body = reader.raw(body_len, f"{key} entry body")
        if key in entries:
            raise SnapshotError(f"duplicate environment entry {key!r}")
        entries[key] = SnapshotEntry(
            key=key, fingerprint=fingerprint, body=body, decoder=decoder
        )
    if reader.remaining:
        raise reader.fail(
            f"trailing garbage: {reader.remaining} byte(s) after the payload"
        )
    return SnapshotPack(
        entries=entries,
        node_count=len(decoder.terms),
        byte_size=len(data),
    )


# -- File I/O with tracing ----------------------------------------------------


def save_snapshot(
    path: str, environments: Mapping[str, Tuple[Environment, str]]
) -> int:
    """Encode and atomically write a snapshot pack; return its size."""
    from ..obs import span

    with span(
        "snapshot_save", category="snapshot", path=path
    ) as save_span:
        data = encode_pack(environments)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
        save_span.gauge("snapshot_bytes", float(len(data)))
        save_span.gauge("snapshot_envs", float(len(environments)))
    return len(data)


def load_snapshot(path: str) -> SnapshotPack:
    """Read and decode a snapshot pack from ``path``.

    Unreadable files surface as :class:`SnapshotError` like every other
    malformed input — callers get one exception type to gate on.
    """
    from ..obs import span

    with span(
        "snapshot_load", category="snapshot", path=path
    ) as load_span:
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise SnapshotError(
                f"cannot read snapshot {path!r}: {exc}"
            ) from exc
        pack = decode_pack(data)
        load_span.gauge("snapshot_bytes", float(pack.byte_size))
        load_span.gauge("snapshot_envs", float(len(pack.entries)))
        load_span.gauge("snapshot_nodes", float(pack.node_count))
    return pack


#: (abspath) -> ((mtime_ns, size), pack): one decode per file version
#: per process — the worker's boot path goes through here.
_PACK_CACHE: Dict[str, Tuple[Tuple[int, int], SnapshotPack]] = {}


def load_snapshot_cached(path: str) -> SnapshotPack:
    """Like :func:`load_snapshot`, memoized per (path, mtime, size)."""
    abspath = os.path.abspath(path)
    try:
        stat = os.stat(abspath)
    except OSError as exc:
        raise SnapshotError(
            f"cannot read snapshot {path!r}: {exc}"
        ) from exc
    stamp = (stat.st_mtime_ns, stat.st_size)
    cached = _PACK_CACHE.get(abspath)
    if cached is not None and cached[0] == stamp:
        return cached[1]
    pack = load_snapshot(abspath)
    _PACK_CACHE[abspath] = (stamp, pack)
    return pack


def clear_pack_cache() -> None:
    """Drop the per-process pack cache (tests)."""
    _PACK_CACHE.clear()


# -- CLI ----------------------------------------------------------------------

#: The six case-study setups plus the bare stdlib, the default pack the
#: service layer boots from.
SIX_CASE_SETUPS: Tuple[str, ...] = (
    "repro.service.cases:quickstart_env",
    "repro.service.cases:replica_env",
    "repro.service.cases:binary_env",
    "repro.service.cases:ornaments_env",
    "repro.service.cases:refactor_env",
    "repro.service.cases:galois_env",
)


def build_pack_from_refs(
    refs: Sequence[str],
) -> Dict[str, Tuple[Environment, str]]:
    """Build ``{ref: (env, fingerprint)}`` by running each setup once.

    Imports the service layer's ref resolution *lazily* — the kernel
    package has no module-level dependency on :mod:`repro.service`.
    """
    from ..service.job import JobError, fingerprint_source
    from ..service.worker import resolve_ref

    environments: Dict[str, Tuple[Environment, str]] = {}
    for ref in refs:
        if ref in environments:
            continue
        try:
            builder: Callable[[], Environment] = resolve_ref(ref)
            env = builder()
        except JobError as exc:
            raise SnapshotError(str(exc)) from exc
        if not isinstance(env, Environment):
            raise SnapshotError(
                f"setup {ref!r} returned {type(env).__name__}, "
                "not an Environment"
            )
        environments[ref] = (env, fingerprint_source(ref))
    return environments


def _inspect(path: str) -> str:
    pack = load_snapshot(path)
    lines = [
        f"snapshot {path}: {pack.byte_size} bytes, "
        f"{pack.node_count} term node(s), {len(pack.entries)} env(s)"
    ]
    for key in pack.keys():
        entry = pack.entries[key]
        lines.append(
            f"  {key}: {len(entry.decls)} decl(s), "
            f"{len(entry.cache_entries)} cache entrie(s), "
            f"fingerprint {entry.fingerprint[:12]}…"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.kernel.snapshot`` — build or inspect packs."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro.kernel.snapshot",
        description="Build or inspect environment snapshot packs.",
    )
    parser.add_argument(
        "output",
        nargs="?",
        help="path to write the snapshot pack to",
    )
    parser.add_argument(
        "--setup",
        action="append",
        default=[],
        metavar="REF",
        help="dotted pkg.mod:fn environment builder (repeatable)",
    )
    parser.add_argument(
        "--six-cases",
        action="store_true",
        help="include the six case-study setups the service schedules",
    )
    parser.add_argument(
        "--inspect",
        default=None,
        metavar="PATH",
        help="print a summary of an existing snapshot and exit",
    )
    args = parser.parse_args(argv)
    if args.inspect:
        try:
            print(_inspect(args.inspect))
        except SnapshotError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0
    refs: List[str] = list(args.setup)
    if args.six_cases:
        refs.extend(SIX_CASE_SETUPS)
    if not args.output:
        parser.error("give an output path (or --inspect PATH)")
    if not refs:
        parser.error("give at least one --setup REF or --six-cases")
    try:
        environments = build_pack_from_refs(refs)
        size = save_snapshot(args.output, environments)
    except SnapshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"wrote {args.output}: {size} bytes, "
        f"{len(environments)} environment(s)"
    )
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
