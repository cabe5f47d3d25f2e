"""Hierarchical tracing spans with kernel-counter attribution.

The pipeline of the paper is configure → transform → decompile
(Figures 6, 10, 13–15); knowing *where* repair time goes inside that
pipeline is the prerequisite for every scaling change.  This module
provides the span primitive the rest of the system is instrumented
with::

    from repro.obs import span

    with span("transform", constant="rev_app_distr"):
        ...

A span records wall time (``perf_counter_ns``), the delta of every
:data:`~repro.kernel.stats.KERNEL_STATS` counter over its extent
(interning, de Bruijn memo tables, the reduction cache), named gauges
(term size/depth, attached by the instrumentation sites), and its
children — spans its thread opened while it was that thread's
innermost open span.

Tracing is **off by default** and costs one module-global check plus a
shared no-op context manager per call site when disabled, so the
instrumented pipeline produces byte-identical results with identical
performance.  It is switched on either by the environment variable
``REPRO_TRACE`` (mirroring ``REPRO_DISABLE_KERNEL_CACHES``) or
programmatically with :func:`set_tracing`.

Export formats live in :mod:`repro.obs.export`: Chrome trace-event JSON
(load it in ``chrome://tracing`` / Perfetto); :func:`summarize_spans`
is the flat per-phase view of the same spans.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, Iterable, Iterator, List, Optional

from ..kernel.stats import StatsMark, stats_delta, stats_mark

#: Name of the environment variable that enables tracing at import time.
TRACE_ENV_VAR = "REPRO_TRACE"

#: True when tracing was switched on via the environment.
TRACE_ENABLED_BY_ENV: bool = os.environ.get(TRACE_ENV_VAR, "") not in ("", "0")

_enabled: bool = TRACE_ENABLED_BY_ENV


def tracing_enabled() -> bool:
    """True when spans are being recorded."""
    return _enabled


def set_tracing(enabled: bool) -> bool:
    """Enable/disable tracing; returns the previous setting."""
    global _enabled
    previous = _enabled
    _enabled = enabled
    return previous


class _NullSpan:
    """The shared no-op span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def gauge(self, name: str, value: float) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Span:
    """One timed region of the pipeline, with counters and children."""

    __slots__ = (
        "tracer",
        "name",
        "category",
        "args",
        "start_ns",
        "end_ns",
        "parent",
        "children",
        "gauges",
        "kernel",
        "_mark",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        category: str = "phase",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.category = category
        self.args: Dict[str, Any] = dict(args or {})
        self.start_ns = 0
        self.end_ns = 0
        self.parent: Optional[Span] = None
        self.children: List[Span] = []
        self.gauges: Dict[str, float] = {}
        self.kernel: Dict[str, Any] = {}
        self._mark: Optional[StatsMark] = None

    # -- Context manager protocol -----------------------------------------

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        self._mark = stats_mark()
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.end_ns = time.perf_counter_ns()
        if self._mark is not None:
            self.kernel = stats_delta(self._mark, stats_mark())
            self._mark = None
        self.tracer._pop(self)
        return False

    # -- Accessors ---------------------------------------------------------

    @property
    def duration_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    def gauge(self, name: str, value: float) -> None:
        """Attach a named measurement (term size, depth, ...) to the span."""
        self.gauges[name] = value

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth first in start order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable tree rooted at this span."""
        return {
            "name": self.name,
            "category": self.category,
            "args": dict(self.args),
            "wall_time_s": round(self.duration_s, 6),
            "gauges": dict(self.gauges),
            "kernel": self.kernel,
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration_s * 1e3:.2f}ms, "
            f"{len(self.children)} child(ren))"
        )


class Tracer:
    """Collects spans into a forest, in program order.

    ``roots`` holds completed top-level spans; ``spans`` holds every
    completed span in *start* order, which is what the Chrome exporter
    wants.  Both are shared by every thread, but each thread nests its
    spans on its own stack of open spans, so concurrent requests (the
    server's handler threads) build separate trees instead of grafting
    one request's spans into another's.  One process-wide instance
    (:func:`get_tracer`) backs the :func:`span` entry point;
    independent instances can be created for tests.
    """

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self.spans: List[Span] = []
        self._local = threading.local()
        self._origin_ns = time.perf_counter_ns()

    @property
    def _stack(self) -> List[Span]:
        """The calling thread's open spans, innermost last."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- Span lifecycle ----------------------------------------------------

    def span(
        self, name: str, category: str = "phase", **args: Any
    ) -> Span:
        """A new unstarted span; use as a context manager."""
        return Span(self, name, category, args)

    def _push(self, span: Span) -> None:
        stack = self._stack
        if stack:
            span.parent = stack[-1]
            span.parent.children.append(span)
        stack.append(span)

    def _pop(self, span: Span) -> None:
        # Tolerate exceptions unwinding several spans at once: pop up to
        # and including the span being closed.
        stack = self._stack
        while stack:
            top = stack.pop()
            if top is span:
                break
        self.spans.append(span)
        if span.parent is None:
            self.roots.append(span)

    @property
    def current(self) -> Optional[Span]:
        """The calling thread's innermost open span, if any."""
        stack = self._stack
        return stack[-1] if stack else None

    def reset(self) -> None:
        """Drop every recorded span and restart the clock origin."""
        self.roots = []
        self.spans = []
        self._local = threading.local()
        self._origin_ns = time.perf_counter_ns()

    # -- Aggregation -------------------------------------------------------

    def phase_summary(self) -> Dict[str, Dict[str, Any]]:
        """Aggregate every completed span by name (see :func:`summarize_spans`)."""
        return summarize_spans(self.spans)


def summarize_spans(spans: Iterable[Span]) -> Dict[str, Dict[str, Any]]:
    """Aggregate spans by name into flat per-phase entries.

    Per phase: invocation count, total wall time, summed kernel counter
    deltas with recomputed hit rates, and the max of every gauge.  It
    works on any span collection — the whole tracer
    (:meth:`Tracer.phase_summary`) or one subtree (:meth:`Span.walk`).
    """
    phases: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        entry = phases.get(span.name)
        if entry is None:
            entry = phases[span.name] = {
                "count": 0,
                "wall_time_s": 0.0,
                "constructions": 0,
                "intern_hits": 0,
                "_tables": {},
                "gauges": {},
            }
        entry["count"] += 1
        entry["wall_time_s"] += span.duration_s
        entry["constructions"] += span.kernel.get("constructions", 0)
        entry["intern_hits"] += span.kernel.get("intern_hits", 0)
        for table, delta in span.kernel.get("tables", {}).items():
            hits, misses = entry["_tables"].get(table, (0, 0))
            entry["_tables"][table] = (
                hits + delta["hits"],
                misses + delta["misses"],
            )
        for gauge, value in span.gauges.items():
            previous = entry["gauges"].get(gauge)
            if previous is None or value > previous:
                entry["gauges"][gauge] = value
    for entry in phases.values():
        tables = entry.pop("_tables")
        entry["wall_time_s"] = round(entry["wall_time_s"], 6)
        entry["cache_hit_rates"] = {
            table: round(hits / (hits + misses), 4)
            for table, (hits, misses) in sorted(tables.items())
            if hits + misses
        }
        entry["cache_lookups"] = {
            table: hits + misses
            for table, (hits, misses) in sorted(tables.items())
        }
    return phases


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer backing :func:`span`."""
    return _TRACER


def reset_tracer() -> None:
    """Drop all recorded spans on the process-wide tracer."""
    _TRACER.reset()


def span(name: str, category: str = "phase", **args: Any):
    """A span context manager, or a shared no-op when tracing is off.

    This is the only entry point instrumentation sites use; the
    disabled path is a single global check and allocates nothing.
    """
    if not _enabled:
        return _NULL_SPAN
    return _TRACER.span(name, category, **args)


def gauge(name: str, value: float) -> None:
    """Attach a measurement to the innermost open span, if tracing."""
    if not _enabled:
        return
    current = _TRACER.current
    if current is not None:
        current.gauge(name, value)
