"""Latency histograms: fixed-bucket, thread-safe, quantile-readable.

The server front end (:mod:`repro.server`) needs request-latency
distributions, not averages — a tail blowup under load is invisible in
a mean.  :class:`Histogram` is the smallest primitive that serves both
consumers: cumulative fixed buckets for the ``/metrics`` text
exposition (Prometheus-style, so any scraper draws the heatmap) and
interpolated quantiles for the bench report's p50/p95/p99 gates.

Buckets are cumulative upper bounds (``le``): an observation lands in
every bucket whose bound it does not exceed, plus the implicit ``+Inf``
bucket.  Quantiles are estimated by linear interpolation inside the
bucket that crosses the requested rank — exact for the bench's
purposes as long as the default bucket ladder brackets the latencies
it measures (sub-millisecond to ten seconds).

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
        "_min",
        "_max",
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
        self._min = float("inf")  # smallest and largest sample seen
        self._max = 0.0
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
            self._min = min(self._min, value)
            self._max = max(self._max, value)
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

    def quantile(self, q: float) -> float:
        """The estimated ``q``-quantile (``0 <= q <= 1``) in sample units.

        Linear interpolation inside the crossing bucket; samples above
        the top bound report the top bound (the estimate saturates
        rather than inventing a tail).  The estimate is clamped to the
        smallest and largest sample observed, so it never leaves the
        observed range.  Zero when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q!r} outside [0, 1]")
        with self._lock:
            counts = list(self._counts)
            inf = self._inf
            total = self._total
            low = self._min
            high = self._max
        if total == 0:
            return 0.0
        rank = q * total
        running = 0.0
        previous_bound = 0.0
        for bound, count in zip(self._bounds, counts):
            if running + count >= rank and count > 0:
                within = (rank - running) / count
                estimate = previous_bound + (bound - previous_bound) * within
                break
            running += count
            previous_bound = bound
        else:
            # The rank falls in the +Inf bucket: saturate at the top bound.
            estimate = self._bounds[-1] if inf else previous_bound
        return min(max(estimate, low), high)

    def percentiles(
        self, points: Sequence[float] = (0.5, 0.95, 0.99)
    ) -> Dict[str, float]:
        """``{"p50": .., "p95": .., "p99": ..}`` for the bench report."""
        return {
            f"p{int(round(p * 100))}": round(self.quantile(p), 6)
            for p in points
        }


__all__ = ["DEFAULT_BUCKETS", "Histogram"]
