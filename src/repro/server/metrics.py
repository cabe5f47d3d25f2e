"""Server metrics: counters, latency histograms, and ``/metrics`` text.

Everything the server knows about itself, rendered in the
Prometheus/OpenMetrics text flavour (``name{label="v"} value``) that
every scraper and human alike can read:

* **request counters** — one per (route, status) pair, plus the
  rate-limiter's rejection count;
* **latency histograms** — one :class:`~repro.obs.hist.Histogram` per
  route, exposed as cumulative ``_bucket``/``_sum``/``_count`` series;
* **server gauges** — queue depth, active sessions, worker reuse rate,
  live pool width — registered as zero-argument callables so the
  exposition always reads the *current* value, never a stale copy;
* **kernel counters** — the process-global
  :data:`~repro.kernel.stats.KERNEL_STATS` tables (constructions,
  interning, every memo table's hits/misses), because
  the repair engine's cache behaviour is exactly what a server operator
  tunes against.

The registry is thread-safe: handler threads record while the metrics
endpoint renders.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Tuple

from ..kernel.stats import KERNEL_STATS
from ..obs.hist import Histogram

_PREFIX = "repro"


def _fmt(value: float) -> str:
    """A metric value: integers bare, floats with up to 6 places."""
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.6f}".rstrip("0").rstrip(".")


def _labels(pairs: Dict[str, str]) -> str:
    if not pairs:
        return ""
    inner = ",".join(
        f'{key}="{value}"' for key, value in sorted(pairs.items())
    )
    return "{" + inner + "}"


class ServerMetrics:
    """The server-wide metric registry behind ``/metrics``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._requests: Dict[Tuple[str, int], int] = {}
        self._latency: Dict[str, Histogram] = {}
        self._gauges: Dict[str, Callable[[], float]] = {}

    # -- Recording ---------------------------------------------------------

    def record_request(
        self, route: str, status: int, wall_s: float
    ) -> None:
        """Count one finished request and observe its latency."""
        with self._lock:
            key = (route, status)
            self._requests[key] = self._requests.get(key, 0) + 1
            hist = self._latency.get(route)
            if hist is None:
                hist = self._latency[route] = Histogram()
        hist.observe(wall_s)

    def register_gauge(
        self, name: str, read: Callable[[], float]
    ) -> None:
        """Expose ``read()`` as gauge ``repro_server_<name>``."""
        with self._lock:
            self._gauges[name] = read

    # -- Exposition --------------------------------------------------------

    def render(self) -> str:
        """The full ``/metrics`` payload (text/plain)."""
        with self._lock:
            requests = dict(self._requests)
            latency = dict(self._latency)
            gauges = dict(self._gauges)
        lines: List[str] = []

        lines.append(f"# TYPE {_PREFIX}_http_requests_total counter")
        for (route, status), count in sorted(requests.items()):
            labels = _labels({"route": route, "status": str(status)})
            lines.append(
                f"{_PREFIX}_http_requests_total{labels} {count}"
            )

        lines.append(
            f"# TYPE {_PREFIX}_http_request_duration_seconds histogram"
        )
        for route, hist in sorted(latency.items()):
            snap = hist.snapshot()
            for bucket in snap["buckets"]:  # type: ignore[union-attr]
                labels = _labels(
                    {"route": route, "le": str(bucket["le"])}
                )
                lines.append(
                    f"{_PREFIX}_http_request_duration_seconds_bucket"
                    f"{labels} {bucket['count']}"
                )
            labels = _labels({"route": route})
            lines.append(
                f"{_PREFIX}_http_request_duration_seconds_sum{labels} "
                f"{_fmt(float(snap['sum']))}"  # type: ignore[arg-type]
            )
            lines.append(
                f"{_PREFIX}_http_request_duration_seconds_count{labels} "
                f"{snap['count']}"
            )

        for name, read in sorted(gauges.items()):
            try:
                value = float(read())
            except Exception:  # noqa: BLE001 — a broken gauge must not
                continue  # take down the whole exposition
            lines.append(f"# TYPE {_PREFIX}_server_{name} gauge")
            lines.append(f"{_PREFIX}_server_{name} {_fmt(value)}")

        lines.extend(_kernel_lines())
        return "\n".join(lines) + "\n"


def _kernel_lines() -> List[str]:
    """The process-global kernel counters as metric lines."""
    snap: Dict[str, Any] = KERNEL_STATS.snapshot()
    lines = [
        f"# TYPE {_PREFIX}_kernel_constructions_total counter",
        f"{_PREFIX}_kernel_constructions_total {snap['constructions']}",
        f"# TYPE {_PREFIX}_kernel_intern_hits_total counter",
        f"{_PREFIX}_kernel_intern_hits_total {snap['intern_hits']}",
        f"# TYPE {_PREFIX}_kernel_cache_total counter",
    ]
    tables: Dict[str, Dict[str, Any]] = snap["tables"]
    for table, counts in sorted(tables.items()):
        for kind in ("hits", "misses"):
            labels = _labels({"table": table, "kind": kind})
            lines.append(
                f"{_PREFIX}_kernel_cache_total{labels} {counts[kind]}"
            )
    return lines


__all__ = ["ServerMetrics"]
