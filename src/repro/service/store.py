"""The persistent content-addressed result store.

One JSON file per completed job, named by the job key (see
:mod:`repro.service.job`), under ``$REPRO_SERVICE_STORE``,
``--store DIR``, or ``~/.cache/repro/service`` (``$XDG_CACHE_HOME``
respected).  Writes are atomic (tempfile + rename in the store
directory) so a crashed or killed engine can never leave a partial
record; loads are corruption-tolerant — unreadable, non-JSON, or
wrong-shape records count as misses and are overwritten by the next
successful run, never propagated.

The store can be bounded: ``max_entries`` (``--store-max-entries``)
caps the record count, and every ``put``
past the cap evicts least-recently-*used* records — a ``get`` hit
freshens its record's mtime, so hot results survive while stale ones
age out.  Keys pinned through :meth:`ResultStore.pin` are never
evicted; the scheduler pins a batch's keys for the batch's duration so
a concurrent writer can never prune a record an in-flight batch is
about to read.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from .job import SCHEMA_VERSION

#: Environment variable overriding the default store directory.
STORE_ENV_VAR = "REPRO_SERVICE_STORE"

def default_store_dir() -> str:
    """``$REPRO_SERVICE_STORE``, else ``~/.cache/repro/service``."""
    override = os.environ.get(STORE_ENV_VAR)
    if override:
        return override
    cache_home = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(cache_home, "repro", "service")


class ResultStore:
    """Content-addressed persistence for job results, with hit counters."""

    def __init__(
        self,
        root: Optional[str] = None,
        max_entries: Optional[int] = None,
    ) -> None:
        self.root = root if root is not None else default_store_dir()
        #: Record-count bound; None or values below 1 mean unbounded.
        self.max_entries = (
            max_entries if max_entries and max_entries >= 1 else None
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._pin_lock = threading.Lock()
        self._pins: Dict[str, int] = {}

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- Records -----------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored record for ``key``, or ``None`` (counted).

        A record is only returned when it parses as JSON and carries the
        expected envelope (matching key and schema version, a ``result``
        object); anything else — truncated writes from older tools,
        hand-edited files, disk corruption — is a miss.
        """
        try:
            with open(self.path_for(key)) as handle:
                record = json.load(handle)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self.misses += 1
            return None
        if (
            not isinstance(record, dict)
            or record.get("schema_version") != SCHEMA_VERSION
            or record.get("key") != key
            or not isinstance(record.get("result"), dict)
        ):
            self.misses += 1
            return None
        self.hits += 1
        if self.max_entries is not None:
            # Freshen the record so LRU eviction sees it as recent.
            try:
                os.utime(self.path_for(key))
            except OSError:
                pass
        return record

    def put(self, key: str, record: Dict[str, Any]) -> str:
        """Atomically persist ``record`` under ``key``; returns the path."""
        path = self.path_for(key)
        os.makedirs(self.root, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(
            dir=self.root, prefix=".tmp_", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(record, handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
        self._prune()
        return path

    # -- Bounded retention -------------------------------------------------

    @contextmanager
    def pin(self, keys: Iterable[str]) -> Iterator[None]:
        """Hold ``keys`` exempt from eviction for the ``with`` body.

        Pins are reference-counted, so overlapping batches sharing a
        key stay protected until the *last* one finishes.
        """
        held = list(keys)
        with self._pin_lock:
            for key in held:
                self._pins[key] = self._pins.get(key, 0) + 1
        try:
            yield
        finally:
            with self._pin_lock:
                for key in held:
                    count = self._pins.get(key, 0) - 1
                    if count <= 0:
                        self._pins.pop(key, None)
                    else:
                        self._pins[key] = count

    def pinned(self) -> List[str]:
        with self._pin_lock:
            return sorted(self._pins)

    def _prune(self) -> None:
        """Evict least-recently-used records past ``max_entries``.

        Pinned keys are skipped no matter how old; disappearing files
        (a concurrent pruner) are ignored, not errors.
        """
        if self.max_entries is None:
            return
        try:
            entries = os.listdir(self.root)
        except OSError:
            return
        aged: List[Tuple[float, str]] = []
        for entry in entries:
            if not entry.endswith(".json") or entry.startswith("."):
                continue
            try:
                mtime = os.path.getmtime(os.path.join(self.root, entry))
            except OSError:
                continue
            aged.append((mtime, entry))
        excess = len(aged) - self.max_entries
        if excess <= 0:
            return
        with self._pin_lock:
            pinned = set(self._pins)
        aged.sort()
        for _mtime, entry in aged:
            if excess <= 0:
                break
            if entry[: -len(".json")] in pinned:
                continue
            try:
                os.unlink(os.path.join(self.root, entry))
            except OSError:
                continue
            self.evictions += 1
            excess -= 1

    # -- Maintenance -------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of records currently on disk."""
        try:
            return sum(
                1
                for entry in os.listdir(self.root)
                if entry.endswith(".json") and not entry.startswith(".")
            )
        except OSError:
            return 0

    def clear(self) -> int:
        """Delete every record; returns how many were removed."""
        removed = 0
        try:
            entries = os.listdir(self.root)
        except OSError:
            return 0
        for entry in entries:
            if entry.endswith(".json"):
                try:
                    os.unlink(os.path.join(self.root, entry))
                    removed += 1
                except OSError:
                    pass
        return removed
