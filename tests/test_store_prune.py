"""Bounded result-store retention: LRU pruning and pins.

The store may be capped (``max_entries`` / ``--store-max-entries``)
with least-recently-used eviction.  The load-bearing invariant: pruning
must never evict a record an in-flight batch holds a reference to — the
scheduler pins every batch key for the batch's duration.
"""

import os
import time

from repro.service import BatchOptions, run_batch
from repro.service.job import SCHEMA_VERSION, fingerprint_source
from repro.service.job import RepairJob
from repro.service.scheduler import inprocess_runner
from repro.service.store import ResultStore

QUICKSTART_SETUP = "repro.service.cases:quickstart_env"


def _record(key):
    return {
        "schema_version": SCHEMA_VERSION,
        "key": key,
        "result": {"status": "ok", "name": key},
    }


def _age(store, key, seconds_ago):
    """Backdate a record's mtime so LRU ordering is deterministic."""
    stamp = time.time() - seconds_ago
    os.utime(store.path_for(key), (stamp, stamp))


def _quickstart_job(**kwargs):
    spec = dict(
        name="quickstart/rev_app_distr",
        setup=QUICKSTART_SETUP,
        target="rev_app_distr",
        config={"kind": "auto", "a": "list", "b": "New.list"},
        old=("list",),
        rename={"kind": "prefix", "value": "New."},
        env_fingerprint=fingerprint_source(QUICKSTART_SETUP),
    )
    spec.update(kwargs)
    return RepairJob(**spec)


class TestMaxEntries:
    def test_unbounded_by_default(self, tmp_path):
        store = ResultStore(str(tmp_path))
        assert store.max_entries is None
        for i in range(20):
            store.put(f"key{i}", _record(f"key{i}"))
        assert store.size == 20
        assert store.evictions == 0

    def test_put_evicts_oldest_first(self, tmp_path):
        store = ResultStore(str(tmp_path), max_entries=2)
        store.put("old", _record("old"))
        _age(store, "old", 300)
        store.put("mid", _record("mid"))
        _age(store, "mid", 200)
        store.put("new", _record("new"))
        assert store.size == 2
        assert store.evictions == 1
        assert store.get("old") is None  # the LRU record went
        assert store.get("mid") is not None
        assert store.get("new") is not None

    def test_get_refreshes_recency(self, tmp_path):
        store = ResultStore(str(tmp_path), max_entries=2)
        store.put("a", _record("a"))
        _age(store, "a", 300)
        store.put("b", _record("b"))
        _age(store, "b", 200)
        # A hit on "a" freshens it; the next eviction takes "b".
        assert store.get("a") is not None
        store.put("c", _record("c"))
        assert store.get("a") is not None
        assert not os.path.exists(store.path_for("b"))

    def test_non_positive_bound_means_unbounded(self, tmp_path):
        for bound in (0, -5):
            store = ResultStore(str(tmp_path), max_entries=bound)
            assert store.max_entries is None

    def test_tempfiles_and_foreign_files_ignored(self, tmp_path):
        store = ResultStore(str(tmp_path), max_entries=2)
        (tmp_path / ".tmp_leftover.json").write_text("{}")
        (tmp_path / "README.txt").write_text("not a record")
        store.put("a", _record("a"))
        store.put("b", _record("b"))
        assert store.evictions == 0
        assert store.size == 2


class TestPins:
    def test_pinned_keys_survive_pruning(self, tmp_path):
        store = ResultStore(str(tmp_path), max_entries=1)
        store.put("keep", _record("keep"))
        _age(store, "keep", 600)
        with store.pin(["keep"]):
            store.put("fresh", _record("fresh"))
            # "keep" is the LRU record but pinned; "fresh" has to go
            # even though it was just written — the bound holds by
            # evicting the oldest *unpinned* record.
            assert store.get("keep") is not None
        assert store.pinned() == []

    def test_pins_are_refcounted(self, tmp_path):
        store = ResultStore(str(tmp_path), max_entries=1)
        with store.pin(["shared"]):
            with store.pin(["shared"]):
                assert store.pinned() == ["shared"]
            # The inner release must not drop the outer batch's pin.
            assert store.pinned() == ["shared"]
        assert store.pinned() == []

    def test_release_after_pin_allows_eviction(self, tmp_path):
        store = ResultStore(str(tmp_path), max_entries=1)
        store.put("old", _record("old"))
        _age(store, "old", 600)
        with store.pin(["old"]):
            pass
        store.put("new", _record("new"))
        assert store.get("old") is None
        assert store.get("new") is not None


class TestSchedulerIntegration:
    def test_batch_pins_its_keys_for_the_whole_run(self, tmp_path):
        """A cap of 1 cannot evict either record of a 2-job batch.

        ``run_batch`` pins every job key before the first worker runs,
        so the second job's ``put`` skips the first job's record even
        though it is the oldest unpinned-looking entry on disk.
        """
        store = ResultStore(str(tmp_path), max_entries=1)
        jobs = [
            _quickstart_job(),
            _quickstart_job(name="quickstart/rev", target="rev"),
        ]
        report = run_batch(
            jobs,
            BatchOptions(jobs=1, store=store),
            runner=inprocess_runner(),
        )
        assert report.counts.get("ok") == 2
        # Both records survived the batch despite max_entries=1 ...
        assert store.size == 2
        assert store.evictions == 0
        assert store.pinned() == []  # ... and the pins were released.
        # The next unrelated put enforces the bound again.
        store.put("later", _record("later"))
        assert store.size == 1
