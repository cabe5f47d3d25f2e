"""Latency histograms: fixed-bucket and thread-safe.

The server front end (:mod:`repro.server`) needs request-latency
distributions, not averages — a tail blowup under load is invisible in
a mean.  :class:`Histogram` keeps cumulative fixed buckets for the
``/metrics`` text exposition (Prometheus-style, so any scraper draws
the heatmap).  Benchmarks that need exact quantiles keep their raw
samples instead.

Buckets are cumulative upper bounds (``le``): an observation lands in
every bucket whose bound it does not exceed, plus the implicit ``+Inf``
bucket.

Everything is lock-protected: HTTP handler threads observe
concurrently while the metrics endpoint renders.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, List, Sequence, Tuple

#: The default latency ladder, in seconds: half-decade steps from 1 ms
#: to 10 s, the range an HTTP repair request can plausibly land in.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class Histogram:
    """A cumulative fixed-bucket histogram of non-negative samples."""

    __slots__ = (
        "_bounds",
        "_counts",
        "_inf",
        "_sum",
        "_total",
        "_lock",
    )

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if any(b <= 0 for b in bounds):
            raise ValueError("bucket bounds must be positive")
        if len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be distinct")
        self._bounds = bounds
        self._counts = [0] * len(bounds)  # per-bucket (non-cumulative)
        self._inf = 0  # samples above the largest bound
        self._sum = 0.0
        self._total = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one sample (negative values clamp to zero)."""
        value = max(0.0, float(value))
        index = bisect.bisect_left(self._bounds, value)
        with self._lock:
            if index < len(self._counts):
                self._counts[index] += 1
            else:
                self._inf += 1
            self._sum += value
            self._total += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._total

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def snapshot(self) -> Dict[str, object]:
        """A JSON-ready copy: cumulative bucket counts, sum, count."""
        with self._lock:
            counts = list(self._counts)
            inf = self._inf
            total = self._total
            acc = self._sum
        cumulative: List[int] = []
        running = 0
        for count in counts:
            running += count
            cumulative.append(running)
        return {
            "buckets": [
                {"le": bound, "count": cum}
                for bound, cum in zip(self._bounds, cumulative)
            ]
            + [{"le": "+Inf", "count": running + inf}],
            "sum": round(acc, 6),
            "count": total,
        }


__all__ = ["DEFAULT_BUCKETS", "Histogram"]
