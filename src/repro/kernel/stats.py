"""Kernel-wide instrumentation counters (:class:`KernelStats`).

The paper reports that Pumpkin Pi needed aggressive caching — "even
caching intermediate subterms" (Section 4.4) — to stay inside the ~10 s
an industrial proof engineer will tolerate.  This module is the
observability half of that story: every cache layer in the kernel
(term interning, the de Bruijn memo tables, the environment-scoped
reduction cache) reports hits and misses here so the caching ablation
benchmarks can measure effectiveness the way the paper's ablation does.

All counters are process-global because the term arena itself is
process-global: every environment reports into :data:`KERNEL_STATS`.

Setting the environment variable ``REPRO_DISABLE_KERNEL_CACHES=1``
before import disables every cache layer at once (the ablation's "off"
configuration; :func:`repro.kernel.term.set_kernel_caches` flips the
same switch at run time); all layers are behaviour-transparent, so the
system produces identical terms either way.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Tuple


#: True when the ablation switch was flipped via the environment.
CACHES_DISABLED_BY_ENV: bool = os.environ.get(
    "REPRO_DISABLE_KERNEL_CACHES", ""
) not in ("", "0")


class EventCounter:
    """A monotone event count (no hit/miss structure).

    For quantities that are not cache lookups, registered with
    :meth:`KernelStats.event`.
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def reset(self) -> None:
        self.count = 0

    def __repr__(self) -> str:
        return f"EventCounter(count={self.count})"


class CacheCounter:
    """Hit/miss counters for one memo table."""

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:
        return (
            f"CacheCounter(hits={self.hits}, misses={self.misses}, "
            f"hit_rate={self.hit_rate:.1%})"
        )


class KernelStats:
    """Counters for every caching layer in the kernel.

    * ``constructions`` — term constructor invocations that consulted the
      intern table (the arena's total traffic);
    * ``intern_hits`` — constructions answered with an existing node
      (structural sharing won);
    * one :class:`CacheCounter` per memo table, created on demand:
      ``lift``, ``subst``, ``free_rels`` (de Bruijn ops), ``subst_many``
      (whole parallel substitutions, one per beta spine), ``whnf``,
      ``nf`` (reduction cache), ``conv`` (conversion), ``infer``
      (type inference), ``check`` (bidirectional verdict memo),
      ``transform_cache`` (the Figure-10 transformer's subterm cache),
      ``report_cache`` (a warm worker's decompiled scripts and scope
      reports),
      ``eta_expand`` (the transformer's fused binder eta pass),
      ``globals`` (memoized :func:`~repro.kernel.term.collect_globals`);
    * one :class:`EventCounter` per named event, created on demand by
      :meth:`event`.
    """

    __slots__ = ("constructions", "intern_hits", "tables", "events")

    def __init__(self) -> None:
        self.constructions = 0
        self.intern_hits = 0
        self.tables: Dict[str, CacheCounter] = {}
        self.events: Dict[str, EventCounter] = {}

    def counter(self, name: str) -> CacheCounter:
        """The counter for memo table ``name`` (created on first use)."""
        table = self.tables.get(name)
        if table is None:
            table = self.tables[name] = CacheCounter()
        return table

    def event(self, name: str) -> EventCounter:
        """The event counter ``name`` (created on first use)."""
        event = self.events.get(name)
        if event is None:
            event = self.events[name] = EventCounter()
        return event

    @property
    def intern_hit_rate(self) -> float:
        if not self.constructions:
            return 0.0
        return self.intern_hits / self.constructions

    def reset(self) -> None:
        """Zero every counter (the tables themselves are kept)."""
        self.constructions = 0
        self.intern_hits = 0
        for table in self.tables.values():
            table.reset()
        for event in self.events.values():
            event.reset()

    def snapshot(self) -> Dict[str, object]:
        """A JSON-serializable copy of all counters."""
        return {
            "constructions": self.constructions,
            "intern_hits": self.intern_hits,
            "intern_hit_rate": round(self.intern_hit_rate, 4),
            "tables": {
                name: {
                    "hits": c.hits,
                    "misses": c.misses,
                    "hit_rate": round(c.hit_rate, 4),
                }
                for name, c in sorted(self.tables.items())
            },
            "events": {
                name: e.count for name, e in sorted(self.events.items())
            },
        }

    def report(self) -> str:
        """A human-readable multi-line summary."""
        lines = [
            f"constructions : {self.constructions}",
            f"intern hits   : {self.intern_hits} "
            f"({self.intern_hit_rate:.1%})",
        ]
        for name, c in sorted(self.tables.items()):
            lines.append(
                f"{name:<13} : {c.hits} hits / {c.misses} misses "
                f"({c.hit_rate:.1%})"
            )
        for name, e in sorted(self.events.items()):
            lines.append(f"{name:<13} : {e.count}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"KernelStats(constructions={self.constructions}, "
            f"intern_hits={self.intern_hits}, "
            f"tables={list(self.tables)})"
        )


#: The process-wide stats singleton used by every kernel cache layer.
KERNEL_STATS = KernelStats()


#: A cheap copy of the raw counters (see :func:`stats_mark`).
StatsMark = Tuple[int, int, Dict[str, Tuple[int, int]]]


def stats_mark() -> StatsMark:
    """Constructions, intern hits and each table's hits and misses, now.

    Cheaper than :meth:`KernelStats.snapshot`, which rounds every hit
    rate and sorts every table; a warm job and every traced span take
    two of these.
    """
    stats = KERNEL_STATS
    return (
        stats.constructions,
        stats.intern_hits,
        {name: (c.hits, c.misses) for name, c in stats.tables.items()},
    )


def stats_delta(before: StatsMark, after: StatsMark) -> Dict[str, Any]:
    """The JSON-ready counter movement between two marks: the
    constructions and intern hits, and the hits, misses and hit rate of
    each table that moved."""
    tables: Dict[str, Dict[str, Any]] = {}
    for name, (hits, misses) in sorted(after[2].items()):
        base_hits, base_misses = before[2].get(name, (0, 0))
        hits -= base_hits
        misses -= base_misses
        if hits or misses:
            total = hits + misses
            tables[name] = {
                "hits": hits,
                "misses": misses,
                "hit_rate": round(hits / total, 4) if total else 0.0,
            }
    return {
        "constructions": after[0] - before[0],
        "intern_hits": after[1] - before[1],
        "tables": tables,
    }
