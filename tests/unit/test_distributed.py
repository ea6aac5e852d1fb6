"""Unit tests for the replicated store — the §1 distributed-erasure hazard.

Parametrized over every storage backend (the way the profile/figure tests
are): the sharding and erasure invariants must hold whether retention lives
in MVCC dead tuples, LSM shadowed values, or unshredded key volumes.
Engine-specific forensics (psql WAL row images, LSM SSTable copy sites)
keep their own dedicated classes.
"""

import sys

import pytest

from repro.config import BackendConfig
from repro.distributed.store import (
    CopyLocation,
    ReplicatedStore,
)
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel
from repro.storage import index as index_module
from repro.storage.errors import TupleNotFoundError
from repro.storage.page import Page

BACKENDS = ("psql", "lsm", "crypto-shred")


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


def make_store(**kwargs):
    clock = SimClock()
    cost = CostModel(clock, CostBook())
    kwargs.setdefault("n_replicas", 2)
    kwargs.setdefault("replication_lag", 50_000)
    kwargs.setdefault("cache_ttl", 500_000)
    return ReplicatedStore(cost, **kwargs), clock


def advance(clock, micros):
    clock.charge(micros, "idle-work")


class TestReplication:
    def test_put_visible_on_primary_immediately(self, backend):
        store, _ = make_store(backend=backend)
        store.put("k", "v")
        assert store.read("k") == "v"

    def test_replica_read_before_lag_misses(self, backend):
        store, _ = make_store(backend=backend)
        store.put("k", "v")
        with pytest.raises(TupleNotFoundError):
            store.read("k", replica=0)

    def test_replica_read_after_lag_hits(self, backend):
        store, clock = make_store(backend=backend)
        store.put("k", "v")
        advance(clock, 60_000)
        assert store.read("k", replica=0) == "v"
        assert store.replication_backlog(0) == 0

    def test_backlog_counts_unapplied(self, backend):
        store, clock = make_store(backend=backend)
        for i in range(5):
            store.put(i, i)
        assert store.replication_backlog(0) == 5
        advance(clock, 60_000)
        store.read(0, replica=0)  # lazily applies
        assert store.replication_backlog(0) == 0

    def test_update_propagates(self, backend):
        store, clock = make_store(backend=backend)
        store.put("k", "v1")
        store.update("k", "v2")
        advance(clock, 60_000)
        assert store.read("k", replica=1) == "v2"

    def test_invalid_params(self):
        clock = SimClock()
        cost = CostModel(clock)
        with pytest.raises(ValueError):
            ReplicatedStore(cost, n_replicas=-1)
        with pytest.raises(ValueError):
            ReplicatedStore(cost, replication_lag=-1)


class TestCaching:
    def test_cache_serves_within_ttl(self, backend):
        store, clock = make_store(backend=backend)
        store.put("k", "v")
        advance(clock, 60_000)
        store.read("k", replica=0)  # populate cache
        before = clock.now
        store.read("k", replica=0)  # cache hit: cheap
        assert clock.now - before < CostBook().page_read

    def test_cache_expires_after_ttl(self, backend):
        store, clock = make_store(backend=backend, cache_ttl=10_000)
        store.put("k", "v")
        store.read("k")  # primary cache populated
        advance(clock, 20_000)
        assert ("cache", "primary") not in [
            (str(loc), name) for loc, name in store.copies_of("k")
        ] or store.read("k") == "v"  # expired entries purge on access
        store.read("k")
        assert store.read("k") == "v"

    def test_uncached_read(self, backend):
        store, _ = make_store(backend=backend)
        store.put("k", "v")
        assert store.read("k", use_cache=False) == "v"
        assert (CopyLocation.CACHE, "primary") not in store.copies_of("k")

    def test_read_after_grounded_erase_does_not_replant_cache(self, backend):
        """Regression: a negative read must never cache — a miss after a
        grounded erase would otherwise replant a CACHE entry that
        copies_of reports as a copy of the erased key."""
        store, clock = make_store(backend=backend)
        store.put("pii", "sensitive")
        advance(clock, 60_000)
        store.read("pii", replica=0)
        report = store.erase_all_copies("pii")
        assert report.verified_clean
        for kwargs in ({}, {"replica": 0}, {"consistency": "quorum"}):
            with pytest.raises(TupleNotFoundError):
                store.read("pii", **kwargs)
            assert store.copies_of("pii") == [], kwargs


class TestNaiveDeleteHazard:
    def _seed(self, backend):
        store, clock = make_store(backend=backend)
        store.put("pii", "sensitive")
        advance(clock, 60_000)
        store.read("pii", replica=0)  # replica applied + cached
        store.read("pii", replica=1)
        return store, clock

    def test_replicas_and_caches_linger_after_primary_delete(self, backend):
        store, _clock = self._seed(backend)
        store.naive_delete("pii")
        lingering = store.copies_of("pii")
        locations = {loc for loc, _name in lingering}
        # replica live copies + cache entries survive on every backend;
        # psql additionally retains the primary's dead tuple.
        assert CopyLocation.REPLICA in locations
        assert CopyLocation.CACHE in locations
        if backend == "psql":
            assert CopyLocation.PRIMARY in locations  # dead tuple retained

    def test_stale_replica_still_serves_after_primary_delete(self, backend):
        store, clock = self._seed(backend)
        store.naive_delete("pii")
        # before the lag elapses, replicas happily serve the value
        assert store.read("pii", replica=0) == "sensitive"

    def test_lag_and_vacuum_do_not_clear_caches(self, backend):
        store, clock = self._seed(backend)
        store.naive_delete("pii")
        advance(clock, 60_000)
        # replication applied on read path; cache invalidated by the delete
        # op — but only on replicas that applied it.
        with pytest.raises(TupleNotFoundError):
            store.read("pii", replica=0, use_cache=False)


class TestGroundedDistributedErase:
    def test_erase_all_copies_is_clean(self, backend):
        store, clock = make_store(backend=backend)
        store.put("pii", "sensitive")
        advance(clock, 60_000)
        store.read("pii", replica=0)
        store.read("pii", replica=1)
        report = store.erase_all_copies("pii")
        assert report.verified_clean
        assert store.copies_of("pii") == []
        assert report.caches_invalidated >= 2

    def test_erase_vacuums_dead_data(self):
        store, clock = make_store()  # psql: dead MVCC tuples are countable
        store.put("pii", "sensitive")
        advance(clock, 60_000)
        store.read("pii", replica=0)
        report = store.erase_all_copies("pii")
        assert report.dead_tuples_vacuumed >= 1

    def test_erase_after_naive_delete_cleans_leftovers(self, backend):
        store, clock = make_store(backend=backend)
        store.put("pii", "v")
        advance(clock, 60_000)
        store.read("pii", replica=0)
        store.naive_delete("pii")
        assert store.copies_of("pii")
        report = store.erase_all_copies("pii")
        assert report.verified_clean
        assert store.copies_of("pii") == []

    def test_erase_unknown_key_is_clean_noop(self, backend):
        store, _ = make_store(backend=backend)
        report = store.erase_all_copies("ghost")
        assert report.verified_clean
        assert report.nodes_deleted == 0


class TestReplicationLogRetention:
    """Regression: the replication log kept ``entry.value`` forever, so
    ``erase_all_copies`` reported ``verified_clean=True`` while the erased
    value still sat in the log — and ``copies_of`` never counted the log."""

    def test_log_is_a_copy_location(self, backend):
        store, _ = make_store(backend=backend)
        store.put("pii", "sensitive")
        locations = {loc for loc, _name in store.copies_of("pii")}
        assert CopyLocation.LOG in locations

    def test_naive_delete_leaves_value_in_log(self, backend):
        store, _ = make_store(backend=backend)
        store.put("pii", "sensitive")
        store.naive_delete("pii")
        locations = {loc for loc, _name in store.copies_of("pii")}
        assert CopyLocation.LOG in locations

    def test_erase_all_copies_scrubs_log(self, backend):
        store, clock = make_store(backend=backend)
        store.put("pii", "sensitive")
        store.update("pii", "still sensitive")
        advance(clock, 60_000)
        store.read("pii", replica=0)
        report = store.erase_all_copies("pii")
        # Exactly the put and the update — delete entries carry no value.
        assert report.log_values_scrubbed == 2
        assert report.verified_clean
        locations = {loc for loc, _name in store.copies_of("pii")}
        assert CopyLocation.LOG not in locations

    def test_verified_clean_would_be_false_without_scrub(self):
        """The log alone keeps verified_clean honest: a value that only
        survives in the log must still count as a lingering copy."""
        store, _ = make_store(n_replicas=0, cache_ttl=0)
        store.put("pii", "sensitive")
        store.primary.engine.delete("replicated_data", "pii")
        store.primary.engine.vacuum("replicated_data")
        # no node, cache, or dead tuple holds the value — only the log does
        assert store.copies_of("pii") == [(CopyLocation.LOG, "primary")]

    def test_scrubbed_entries_do_not_break_later_replication(self, backend):
        store, clock = make_store(backend=backend)
        store.put("pii", "sensitive")
        store.erase_all_copies("pii")
        store.put("other", "fine")
        advance(clock, 60_000)
        assert store.read("other", replica=0) == "fine"
        assert store.replication_backlog(0) == 0

    def test_other_keys_survive_targeted_erase(self, backend):
        store, clock = make_store(backend=backend)
        store.put("a", 1)
        store.put("b", 2)
        advance(clock, 60_000)
        store.read("a", replica=0)
        store.erase_all_copies("a")
        assert store.read("b") == 2
        advance(clock, 60_000)
        assert store.read("b", replica=0) == 2


class CountingKey(int):
    """An int key that counts the ``__eq__`` / ``__hash__`` calls made
    from the distributed layer's own code — deterministic where a timing
    would not be."""

    FILES = ("store.py", "replication_log.py")
    calls = 0

    def _count(self):
        if sys._getframe(2).f_code.co_filename.endswith(self.FILES):
            CountingKey.calls += 1

    def __eq__(self, other):
        self._count()
        return int(self) == int(other)

    def __hash__(self):
        self._count()
        return int.__hash__(self)


class TestEraseCostIgnoresShardHistory:
    """The replication log answers per key: an erase compares the victim
    with the victim's own entries, however many other writes the shard
    has seen.  On lsm — whose verify enumerates copy sites inside the
    engine — that makes the distributed layer's whole share of an erase
    independent of history; the list-scan log compared the victim with
    every entry ever appended, three times per erase."""

    @staticmethod
    def comparisons_during_erase(foreign_writes):
        store, _ = make_store(backend="lsm", n_replicas=1)
        victim = CountingKey(0)
        store.put(victim, "secret")
        for i in range(1, foreign_writes + 1):
            store.put(CountingKey(i), ("v", i))
        store.update(victim, "still secret")
        CountingKey.calls = 0
        report = store.erase_all_copies(victim)
        assert report.verified_clean and report.log_values_scrubbed == 2
        return CountingKey.calls

    def test_same_comparisons_after_8x_the_foreign_writes(self):
        few = self.comparisons_during_erase(40)
        assert few == self.comparisons_during_erase(320)
        assert few < 40  # hashes of the victim itself, no scan


class TestEraseRewritesOnlyTheVictimsRuns:
    """The lsm "delete" grounding is a victim compaction: an erase rewrites
    the tables that held the victim on each node — however many other runs
    the node has — and every other table keeps its ``table_id``."""

    @staticmethod
    def tables_rewritten_by_erase(foreign_writes):
        store, _ = make_store(
            backend=BackendConfig(
                backend="lsm", memtable_capacity=8, tier_threshold=1000
            ),
            n_replicas=1,
        )
        store.put(0, "secret")
        for i in range(1, foreign_writes + 1):
            store.put(i, ("v", i))
            if i == foreign_writes // 2:
                store.update(0, "still secret")
        engines = [n.backend.engine for n in (store.primary, *store.replicas)]
        report = store.erase_all_copies(0)  # the barrier replays the replica
        assert report.verified_clean
        rewritten = 0
        for engine in engines:
            events = [
                e for e in engine.compaction_events
                if e.reason.startswith("victim compaction (sst-")
            ]
            assert all(e.dropped_keys == (0,) for e in events)
            # Two versions in two runs; the tombstone never left the memtable.
            assert len(events) == 2 and engine.run_count > 2
            assert all(r.get_encoded(0) is None for r in engine.runs())
            rewritten += len(events)
        return rewritten, sum(e.run_count for e in engines)

    def test_same_rewrites_after_8x_the_foreign_writes(self):
        few, few_runs = self.tables_rewritten_by_erase(40)
        many, many_runs = self.tables_rewritten_by_erase(320)
        assert few == many == 4
        assert many_runs > 4 * few_runs

    def test_untouched_tables_keep_their_ids(self):
        store, _ = make_store(
            backend=BackendConfig(
                backend="lsm", memtable_capacity=4, tier_threshold=1000
            ),
            n_replicas=0,
        )
        for i in range(40):
            store.put(i, ("v", i))
        engine = store.primary.backend.engine
        before = {r.table_id: r.get_encoded(17) is not None for r in engine.runs()}
        assert sum(before.values()) == 1
        assert store.erase_all_copies(17).verified_clean
        after = {r.table_id for r in engine.runs()}
        assert {t for t, held in before.items() if not held} <= after
        assert not {t for t, held in before.items() if held} & after


class TestEraseVacuumsOnlyTheVictimsPages:
    """The psql twin: the "delete" grounding is DELETE + VACUUM, and the
    VACUUM under a grounded erase prunes the pages and edits the index
    leaves that held the victim on each node — however many foreign rows
    the shard holds.  Counts, no timing."""

    @staticmethod
    def work_done_by_erase(foreign_rows, monkeypatch):
        store, clock = make_store(backend="psql", n_replicas=1)
        store.put(0, "secret")
        for i in range(1, foreign_rows + 1):
            store.put(i, ("v", i))
            if i == foreign_rows // 2:
                store.update(0, "still secret")  # a second version, pages away
        advance(clock, 60_000)
        store.read(1, replica=0)  # the replica applies its backlog
        pruned, built = [], []
        prune, entry = Page.prune, index_module._Entry
        with monkeypatch.context() as patch:
            patch.setattr(Page, "prune", lambda page: pruned.append(page) or prune(page))
            patch.setattr(
                index_module, "_Entry", lambda *a: built.append(a) or entry(*a)
            )
            report = store.erase_all_copies(0)
        assert report.verified_clean and report.dead_tuples_vacuumed == 4
        assert built == []  # no index entry is rebuilt
        pages = sum(
            n.backend.engine.stats(n.backend.table).pages
            for n in (store.primary, *store.replicas)
        )
        return len(pruned), pages

    def test_same_pages_pruned_after_10x_the_foreign_rows(self, monkeypatch):
        few, few_pages = self.work_done_by_erase(500, monkeypatch)
        many, many_pages = self.work_done_by_erase(5_000, monkeypatch)
        # Two versions on two pages, on the primary and on the replica.
        assert few == many == 4
        assert many_pages > 8 * few_pages


class TestWalCopyLocation:
    """The node-level WAL is one storage layer below the replication log —
    the same retention hazard, tracked the same way (psql keeps a WAL)."""

    def test_wal_is_a_copy_location(self):
        store, _ = make_store()
        store.put("pii", "sensitive")
        locations = {loc for loc, _name in store.copies_of("pii")}
        assert CopyLocation.WAL in locations

    def test_naive_delete_leaves_wal_copy(self):
        store, _ = make_store()
        store.put("pii", "sensitive")
        store.naive_delete("pii")
        locations = {loc for loc, _name in store.copies_of("pii")}
        assert CopyLocation.WAL in locations

    def test_erase_all_copies_scrubs_node_wals(self):
        store, clock = make_store()
        store.put("pii", "sensitive")
        advance(clock, 60_000)
        store.read("pii", replica=0)  # the replica's WAL now holds it too
        report = store.erase_all_copies("pii")
        assert report.verified_clean
        locations = {loc for loc, _name in store.copies_of("pii")}
        assert CopyLocation.WAL not in locations


class TestSharding:
    def test_routing_is_deterministic_and_total(self, backend):
        store, _ = make_store(backend=backend, shards=4, n_replicas=1)
        owners = {f"k{i}": store.shard_of(f"k{i}") for i in range(64)}
        assert set(owners.values()) <= set(range(4))
        assert len(set(owners.values())) > 1  # keys actually spread out
        for key, owner in owners.items():
            assert store.shard_of(key) == owner  # stable

    def test_invalid_shard_count(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            ReplicatedStore(CostModel(clock), shards=0)

    def test_put_read_roundtrip_across_shards(self, backend):
        store, clock = make_store(backend=backend, shards=4, n_replicas=1)
        for i in range(32):
            store.put(f"k{i}", i)
        for i in range(32):
            assert store.read(f"k{i}") == i
        advance(clock, 60_000)
        for i in range(32):
            assert store.read(f"k{i}", replica=0) == i

    def test_erase_all_copies_routes_to_owner_shard(self, backend):
        store, clock = make_store(backend=backend, shards=4, n_replicas=1)
        for i in range(16):
            store.put(f"k{i}", i)
        advance(clock, 60_000)
        for i in range(16):
            store.read(f"k{i}", replica=0)
        report = store.erase_all_copies("k3")
        assert report.verified_clean
        assert report.shard == store.shard_of("k3")
        assert store.copies_of("k3") == []
        assert store.read("k5") == 5  # other shards untouched

    def test_node_names_carry_shard_prefix(self):
        store, _ = make_store(shards=2, n_replicas=1)
        names = {node.name for node in store.nodes()}
        assert names == {
            "shard-0/primary",
            "shard-0/replica-0",
            "shard-1/primary",
            "shard-1/replica-0",
        }

    def test_single_shard_keeps_legacy_names(self):
        store, _ = make_store(shards=1, n_replicas=1)
        assert {node.name for node in store.nodes()} == {"primary", "replica-0"}


class TestBatchErase:
    def _loaded(self, shards=4, n=32, backend="psql"):
        store, clock = make_store(
            shards=shards, n_replicas=1, backend=backend
        )
        for i in range(n):
            store.put(f"k{i}", i)
        advance(clock, 60_000)
        for i in range(n):
            store.read(f"k{i}", replica=0)
        return store, clock

    def test_erase_many_is_clean_across_shards(self, backend):
        store, _ = self._loaded(backend=backend)
        victims = [f"k{i}" for i in range(16)]
        report = store.erase_many(victims)
        assert report.verified_clean
        assert report.n_keys == 16
        for key in victims:
            assert store.copies_of(key) == []
        for i in range(16, 32):
            assert store.read(f"k{i}") == i

    def test_erase_many_amortizes_reclamation(self, backend):
        """One reclamation pass per node per batch — not per key."""
        store, _ = self._loaded(shards=4, n=32, backend=backend)
        victims = [f"k{i}" for i in range(16)]
        report = store.erase_many(victims)
        assert report.shards_touched <= 4
        assert report.reclamations == report.shards_touched * 2  # R+1 nodes
        assert report.reclamations < len(victims)

    def test_erase_many_scrubs_logs_and_wals(self, backend):
        store, _ = self._loaded(backend=backend)
        victims = [f"k{i}" for i in range(8)]
        report = store.erase_many(victims)
        assert report.log_values_scrubbed >= len(victims)
        for key in victims:
            assert not store.copies_of(key)


class TestEraseReportParity:
    """``erase_all_copies(k)`` is ``erase_many([k])``: one code path, one
    set of report semantics.  Before the merge the single-key path left
    replica deletes (log replay) out of ``nodes_deleted`` and the batch
    path counted caches after the barrier had already evicted some."""

    FIELDS = (
        "nodes_deleted",
        "caches_invalidated",
        "dead_tuples_vacuumed",
        "log_values_scrubbed",
        "verified_clean",
    )

    def _warm(self, backend, replicas):
        store, clock = make_store(backend=backend, n_replicas=replicas)
        store.put("pii", "v1")
        store.update("pii", "v2")
        store.put("other", "keep")
        advance(clock, 60_000)
        store.read("pii")
        for replica in range(replicas):
            store.read("pii", replica=replica)
        return store

    @pytest.mark.parametrize("replicas", [0, 2])
    @pytest.mark.parametrize("naive_first", [False, True])
    def test_single_and_batch_of_one_report_the_same(
        self, backend, replicas, naive_first
    ):
        single, batch = self._warm(backend, replicas), self._warm(backend, replicas)
        if naive_first:
            # The DELETE is logged but not yet applicable: replicas lag,
            # and every cache still holds the value.
            single.naive_delete("pii")
            batch.naive_delete("pii")
        one = single.erase_all_copies("pii")
        many = batch.erase_many(["pii"])
        for field in self.FIELDS:
            assert getattr(one, field) == getattr(many, field), field
        # Counted before the erase barrier's DELETE replay evicts them.
        assert one.caches_invalidated == 1 + replicas
        # After a naive delete the barrier's replay is what removes the
        # replicas' rows, so no node is left for the erase to delete.
        assert one.nodes_deleted == (0 if naive_first else 1 + replicas)
        assert one.log_values_scrubbed == 2
        assert one.verified_clean
        for store in (single, batch):
            assert store.copies_of("pii") == []
            assert store.read("other") == "keep"


class TestBackendParametrization:
    """The distributed erase story is engine-pluggable (§1: all copies,
    whatever the engine's retention mechanism)."""

    def test_naive_delete_lingers_then_grounded_erase_cleans(self, backend):
        store, clock = make_store(backend=backend, n_replicas=1)
        store.put("pii", "sensitive")
        advance(clock, 60_000)
        store.read("pii", replica=0)
        store.naive_delete("pii")
        assert store.copies_of("pii")  # every engine retains copies
        report = store.erase_all_copies("pii")
        assert report.verified_clean, backend
        assert store.copies_of("pii") == []


class TestLsmCopySites:
    """Per-SSTable copy tracking on LSM nodes — copies_of must reflect every
    pre-compaction physical copy until compaction rewrites it away."""

    def _lsm_store(self, compaction="leveled"):
        return make_store(
            n_replicas=1,
            backend=BackendConfig(
                backend="lsm", compaction=compaction, memtable_capacity=4
            ),
        )

    def test_shadowed_sstable_copies_each_get_an_entry(self):
        # A lazy tier threshold keeps both version-holding runs on disk —
        # exactly the pre-compaction state whose copies must stay visible.
        store, _ = make_store(
            n_replicas=1,
            backend=BackendConfig(
                backend="lsm",
                compaction="size",
                tier_threshold=10,
                memtable_capacity=4,
            ),
        )
        store.put("pii", "v1")
        for i in range(8):
            store.put(f"pad{i}", i)  # flush v1 into a run
        store.update("pii", "v2")
        for i in range(8, 16):
            store.put(f"pad{i}", i)  # flush v2 into a newer run
        primary_sites = [
            name
            for loc, name in store.copies_of("pii")
            if loc is CopyLocation.PRIMARY
        ]
        # Both physical versions are tracked, each with its own named site.
        assert len(primary_sites) >= 2
        assert all("[" in name for name in primary_sites)

    def test_erase_all_copies_clears_every_site(self):
        for compaction in ("size", "leveled"):
            store, clock = self._lsm_store(compaction)
            store.put("pii", "sensitive")
            for i in range(12):
                store.put(f"pad{i}", i)
            advance(clock, 60_000)
            store.read("pii", replica=0)  # replica applies + caches
            assert store.copies_of("pii")
            report = store.erase_all_copies("pii")
            assert report.verified_clean
            assert store.copies_of("pii") == []

    def test_psql_copies_keep_legacy_node_names(self):
        store, _ = make_store(n_replicas=0)
        store.put("k", "v")
        assert (CopyLocation.PRIMARY, "primary") in store.copies_of("k")


class TestDegradedQuorum:
    """Quorum reads over degraded topologies, on every backend.

    Quorum is counted over *membership* (a crashed replica still counts
    toward n), so one down replica of two leaves the majority
    assemblable; a partitioned shard fails fast instead of answering; and
    the PR-4 backlogged-DELETE acceptance case must hold even when the
    only replica left to consult is the one holding the unapplied DELETE.
    """

    @staticmethod
    def _injected(store):
        from repro.distributed.faults import FaultInjector

        return FaultInjector(store)

    @pytest.mark.parametrize("mode", ["replica-down", "partitioned"])
    def test_quorum_read_on_degraded_topology(self, backend, mode):
        store, _ = make_store(backend=backend, n_replicas=2)
        injector = self._injected(store)
        store.put("k", "v1")
        store.update("k", "v2")
        if mode == "replica-down":
            injector.kill_replica(0, 0)
            # n=3 over membership, needed=2: primary + the live replica.
            assert store.read("k", use_cache=False, consistency="quorum") == "v2"
        else:
            from repro.distributed.faults import ShardUnavailableError

            injector.partition_shard(0)
            with pytest.raises(ShardUnavailableError):
                store.read("k", use_cache=False, consistency="quorum")
            injector.heal(0)
            assert store.read("k", use_cache=False, consistency="quorum") == "v2"

    @pytest.mark.parametrize("mode", ["replica-down", "partitioned"])
    def test_backlogged_delete_applies_on_degraded_quorum(self, backend, mode):
        """The PR-4 acceptance case under faults: the primary naive-deleted
        the key, every replica backlog still holds the value and its
        DELETE.  Whatever the degradation, no consistency level may serve
        the corpse once it can answer at all."""
        from repro.distributed.faults import ShardUnavailableError

        store, clock = make_store(backend=backend, n_replicas=2)
        injector = self._injected(store)
        store.put("pii", "sensitive")
        advance(clock, 60_000)
        store.read("pii", replica=0, use_cache=False)
        store.naive_delete("pii")
        assert store.replication_backlog(1) > 0
        if mode == "replica-down":
            injector.kill_replica(0, 0)
            # The surviving replica must apply its backlogged DELETE en
            # route to the quorum answer.
            with pytest.raises(TupleNotFoundError):
                store.read("pii", use_cache=False, consistency="quorum")
            survivor = next(store.shards()).replicas[1]
            assert not survivor.backend.exists("pii")
        else:
            injector.partition_shard(0)
            with pytest.raises(ShardUnavailableError):
                store.read("pii", use_cache=False, consistency="quorum")
            injector.heal(0)
            with pytest.raises(TupleNotFoundError):
                store.read("pii", use_cache=False, consistency="quorum")

    def test_quorum_unassemblable_when_majority_is_down(self, backend):
        from repro.distributed.faults import QuorumUnavailableError

        store, _ = make_store(backend=backend, n_replicas=2)
        injector = self._injected(store)
        store.put("k", "v")
        injector.kill_replica(0, 0)
        injector.kill_replica(0, 1)
        # n=3 over membership, needed=2, but only the primary is live.
        with pytest.raises(QuorumUnavailableError):
            store.read("k", use_cache=False, consistency="quorum")
        injector.revive_replica(0, 0)
        assert store.read("k", use_cache=False, consistency="quorum") == "v"

    def test_pinned_read_to_down_replica_fails_fast(self, backend):
        from repro.distributed.faults import ReplicaDownError

        store, clock = make_store(backend=backend, n_replicas=1)
        injector = self._injected(store)
        store.put("k", "v")
        advance(clock, 60_000)
        injector.kill_replica(0, 0)
        with pytest.raises(ReplicaDownError):
            store.read("k", replica=0, use_cache=False)


class TestReplicaElasticity:
    """set_replicas: joiners catch up from the scrubbed log, leavers are
    grounded before they drop — on every backend."""

    def test_grow_joins_by_scrubbed_log_replay(self, backend):
        store, _ = make_store(backend=backend, n_replicas=1, shards=2)
        for i in range(20):
            store.put(f"u{i:06d}", (i, "payload"))
        assert store.erase_all_copies("u000003").verified_clean
        change = store.set_replicas(2)
        assert change.replicas_before == 1 and change.replicas_after == 2
        assert change.added == 2 and change.removed == 0  # one per shard
        assert change.catchup_entries > 0
        # The joiners replayed the *scrubbed* log: the erased value was
        # never resurrected anywhere, and live keys reached every node.
        assert store.copies_of("u000003") == []
        with pytest.raises(TupleNotFoundError):
            store.read("u000003", use_cache=False, consistency="all")
        assert store.read("u000001", use_cache=False, consistency="all") == (
            1,
            "payload",
        )
        for shard in store.shards():
            assert len(shard.replicas) == 2

    def test_shrink_grounds_leaving_replicas(self, backend):
        store, clock = make_store(backend=backend, n_replicas=2, shards=2)
        for i in range(20):
            store.put(f"u{i:06d}", (i, "payload"))
        advance(clock, 60_000)
        for i in range(20):  # replicas apply their backlog
            store.read(f"u{i:06d}", use_cache=False, consistency="all")
        change = store.set_replicas(1)
        assert change.removed == 2 and change.added == 0
        assert change.grounded_values > 0
        for shard in store.shards():
            assert len(shard.replicas) == 1
        # Nothing about the survivors broke: reads and grounded erases
        # still work, and copies_of never names a dropped node.
        assert store.read("u000002", use_cache=False) == (2, "payload")
        assert store.erase_all_copies("u000002").verified_clean
        assert store.copies_of("u000002") == []

    def test_set_replicas_to_zero_and_back(self, backend):
        store, _ = make_store(backend=backend, n_replicas=1)
        store.put("k", "v")
        store.set_replicas(0)
        assert store.read("k", use_cache=False, consistency="quorum") == "v"
        change = store.set_replicas(2)
        assert change.added == 2
        assert store.read("k", use_cache=False, consistency="all") == "v"

    def test_set_replicas_refuses_mid_rebalance(self):
        store, _ = make_store(shards=2)
        for i in range(30):
            store.put(f"u{i:06d}", (i, "payload"))
        store.begin_resize(3, batch_size=8).step()
        with pytest.raises(RuntimeError):
            store.set_replicas(3)

    def test_set_replicas_refuses_under_active_faults(self):
        from repro.distributed.faults import FaultInjector

        store, _ = make_store(n_replicas=2)
        injector = FaultInjector(store)
        store.put("k", "v")
        injector.kill_replica(0, 0)
        with pytest.raises(RuntimeError, match="active fault"):
            store.set_replicas(3)
        injector.heal_all()
        assert store.set_replicas(3).replicas_after == 3
