"""Per-client token-bucket rate limiting.

Auth-free does not mean unbounded: every client (keyed by the
``X-Repro-Client`` header when present, else the peer address) gets a
token bucket of ``burst`` capacity refilled at ``rate`` tokens per
second.  A request that finds the bucket empty is answered ``429`` with
a ``Retry-After`` naming when one token will exist again — clients that
honour it converge on the sustainable rate instead of thundering.

Buckets for clients idle long enough to have refilled completely are
pruned on the way through, so the table is bounded by the *active*
client set, not by everyone ever seen — a server meant to stay up for
weeks cannot leak a dict entry per curl invocation.

``rate <= 0`` disables limiting (CI and the benchmark run the server
that way); the health and metrics probes are exempted by the app layer, never
here — this module does not know what a route is.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional, Tuple

#: Default sustained request rate per client (tokens/second).
DEFAULT_RATE = 50.0

#: Default burst capacity per client (bucket size).
DEFAULT_BURST = 100.0


class TokenBucket:
    """One client's bucket: a float token count plus its last refill."""

    __slots__ = ("tokens", "stamp")

    def __init__(self, tokens: float, stamp: float) -> None:
        self.tokens = tokens
        self.stamp = stamp


class RateLimiter:
    """A table of per-client token buckets behind one lock."""

    def __init__(
        self,
        rate: float = DEFAULT_RATE,
        burst: float = DEFAULT_BURST,
        clock: Optional[object] = None,
    ) -> None:
        self.rate = float(rate)
        self.burst = max(1.0, float(burst))
        self._buckets: Dict[str, TokenBucket] = {}
        self._lock = threading.Lock()
        # Injectable clock for deterministic tests.
        self._clock = clock if callable(clock) else time.monotonic
        #: Requests refused since start (the metrics counter's source).
        self.rejected = 0

    @property
    def enabled(self) -> bool:
        return self.rate > 0

    def allow(self, client: str) -> Tuple[bool, float]:
        """Take one token for ``client``.

        Returns ``(allowed, retry_after_s)``; ``retry_after_s`` is 0.0
        when allowed, else the seconds until one token will exist.
        """
        if not self.enabled:
            return True, 0.0
        now = float(self._clock())  # type: ignore[operator]
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = self._buckets[client] = TokenBucket(
                    self.burst, now
                )
            else:
                elapsed = max(0.0, now - bucket.stamp)
                bucket.tokens = min(
                    self.burst, bucket.tokens + elapsed * self.rate
                )
                bucket.stamp = now
            if bucket.tokens >= 1.0:
                bucket.tokens -= 1.0
                self._prune(now)
                return True, 0.0
            self.rejected += 1
            retry_after = (1.0 - bucket.tokens) / self.rate
            return False, retry_after

    def _prune(self, now: float) -> None:
        """Drop buckets idle long enough to be full again (lock held).

        A full bucket is indistinguishable from a brand-new one, so
        forgetting it loses nothing; pruning only when the table has
        grown keeps the common case at zero extra work.
        """
        if len(self._buckets) <= 1024:
            return
        refill_s = self.burst / self.rate
        stale = [
            client
            for client, bucket in self._buckets.items()
            if now - bucket.stamp > refill_s
        ]
        for client in stale:
            del self._buckets[client]

    @property
    def clients(self) -> int:
        with self._lock:
            return len(self._buckets)


__all__ = ["DEFAULT_BURST", "DEFAULT_RATE", "RateLimiter", "TokenBucket"]
