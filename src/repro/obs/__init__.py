"""``repro.obs`` — pipeline-wide observability.

Structured tracing for the configure → transform → decompile pipeline:
hierarchical spans with wall time, kernel cache-counter deltas, and
term-shape gauges; exporters for Chrome trace-event JSON and a flat
per-phase summary.  Off by default; enable with ``REPRO_TRACE=1`` or
:func:`set_tracing`.  See DESIGN.md, "Observability architecture".
The names below are resolved on first use (:mod:`repro._lazy`), so an
instrumented module that only opens spans does not load the exporters.
"""

from typing import TYPE_CHECKING, Dict, Tuple

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .export import chrome_trace, span_forest, write_chrome_trace
    from .hist import DEFAULT_BUCKETS, Histogram
    from .metrics import binder_depth, term_depth, term_size
    from .tracer import (
        TRACE_ENABLED_BY_ENV,
        TRACE_ENV_VAR,
        Span,
        Tracer,
        gauge,
        get_tracer,
        reset_tracer,
        set_tracing,
        span,
        summarize_spans,
        tracing_enabled,
    )

_EXPORTS: Dict[str, Tuple[str, ...]] = {
    ".export": ("chrome_trace", "span_forest", "write_chrome_trace"),
    ".hist": ("DEFAULT_BUCKETS", "Histogram"),
    ".metrics": ("binder_depth", "term_depth", "term_size"),
    ".tracer": (
        "TRACE_ENABLED_BY_ENV",
        "TRACE_ENV_VAR",
        "Span",
        "Tracer",
        "gauge",
        "get_tracer",
        "reset_tracer",
        "set_tracing",
        "span",
        "summarize_spans",
        "tracing_enabled",
    ),
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "DEFAULT_BUCKETS",
    "Histogram",
    "TRACE_ENABLED_BY_ENV",
    "TRACE_ENV_VAR",
    "Span",
    "Tracer",
    "binder_depth",
    "chrome_trace",
    "gauge",
    "get_tracer",
    "reset_tracer",
    "set_tracing",
    "span",
    "span_forest",
    "summarize_spans",
    "term_depth",
    "term_size",
    "tracing_enabled",
    "write_chrome_trace",
]
