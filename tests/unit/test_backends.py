"""Unit tests for the storage-backend protocol implementations."""

import random

import pytest

from repro.config import BackendConfig
from repro.core.locations import CopyLocation
from repro.crypto.sectors import GROUP_CAPACITY
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel
from repro.storage.errors import StorageError, TupleNotFoundError
from repro.systems import make_profile
from repro.systems.backends import (
    BACKENDS,
    BackendGroup,
    CryptoShredBackend,
    LsmBackend,
    PsqlBackend,
    make_backend,
)
from repro.workloads.ycsb import ycsb_c_workload


def make_cost():
    return CostModel(SimClock(), CostBook())


@pytest.fixture(params=sorted(BACKENDS))
def backend(request):
    return make_backend(request.param, make_cost())


class TestFactory:
    def test_known_backends(self):
        assert set(BACKENDS) == {"psql", "lsm", "crypto-shred"}

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError, match="unknown backend"):
            make_backend("mongodb", make_cost())

    def test_names_match_registry_keys(self):
        for name in BACKENDS:
            assert make_backend(name, make_cost()).name == name


class TestCommonContract:
    """Behaviour every backend must share — the facade relies on it."""

    def test_insert_read_update_roundtrip(self, backend):
        backend.insert("k", {"v": 1})
        assert backend.read("k") == {"v": 1}
        backend.update("k", {"v": 2})
        assert backend.read("k") == {"v": 2}

    def test_read_missing_raises(self, backend):
        with pytest.raises(TupleNotFoundError):
            backend.read("ghost")

    def test_update_missing_raises(self, backend):
        with pytest.raises(TupleNotFoundError):
            backend.update("ghost", 1)

    def test_flag_roundtrip_preserves_value(self, backend):
        backend.insert("k", "secret")
        assert not backend.is_inaccessible("k")
        backend.make_inaccessible("k")
        assert backend.is_inaccessible("k")
        assert backend.read("k") == "secret"  # visibility is the facade's job
        assert backend.physically_present("k")
        backend.restore("k")
        assert not backend.is_inaccessible("k")
        assert backend.read("k") == "secret"

    def test_erase_removes_physical_presence(self, backend):
        backend.insert("k", "secret")
        backend.erase("k")
        assert not backend.exists("k")
        assert not backend.physically_present("k")
        with pytest.raises(TupleNotFoundError):
            backend.read("k")

    def test_reclaim_guarantees_physical_removal(self, backend):
        backend.insert("k", "secret")
        backend.delete("k")
        assert not backend.exists("k")
        backend.reclaim()
        assert not backend.physically_present("k")

    def test_insert_many_and_read_many(self, backend):
        assert backend.insert_many((f"k{i}", i) for i in range(10)) == 10
        assert backend.read_many([f"k{i}" for i in range(10)]) == list(range(10))

    def test_erase_many_batches_reclamation(self, backend):
        backend.insert_many((f"k{i}", i) for i in range(10))
        assert backend.erase_many([f"k{i}" for i in range(5)]) == 5
        for i in range(5):
            assert not backend.physically_present(f"k{i}")
        for i in range(5, 10):
            assert backend.read(f"k{i}") == i

    def test_forensic_scan_lists_live_entries(self, backend):
        backend.insert_many((f"k{i}", i) for i in range(4))
        scan = backend.forensic_scan()
        assert {key for key, live in scan if live} == {f"k{i}" for i in range(4)}

    def test_stats_track_live_and_dead(self, backend):
        backend.insert_many((f"k{i}", i) for i in range(8))
        backend.delete("k0")
        stats = backend.stats()
        assert stats.backend == backend.name
        assert stats.live_entries == 7
        assert stats.dead_entries >= 1
        assert stats.total_bytes > 0


class TestReclaimReportsItsOwnCount:
    """``reclaim()`` returns the dead entries it removed — the drop in
    ``stats().dead_entries`` across the pass, without the second
    decode-everything scan the distributed erase used to pay for it.
    ``dead_tuples_vacuumed`` and the batch totals are sums of it.  On psql
    and crypto-shred the pass removes every dead entry; the lsm victim
    compaction removes the deleted keys' entries and leaves other keys'
    update-shadowed versions to the compaction policy."""

    MAKERS = {
        "psql": lambda: PsqlBackend(make_cost()),
        "lsm-size": lambda: LsmBackend(
            make_cost(), memtable_capacity=8, tier_threshold=3
        ),
        "lsm-leveled": lambda: LsmBackend(
            make_cost(), memtable_capacity=8, compaction="leveled"
        ),
        "crypto-shred": lambda: CryptoShredBackend(make_cost()),
    }

    @pytest.mark.parametrize("engine", sorted(MAKERS))
    def test_return_equals_dead_entries_read_just_before(self, engine):
        b = self.MAKERS[engine]()
        rng = random.Random(14)
        live = set()
        reclaims = 0  # passes that had dead entries to remove
        for step in range(1500):
            roll = rng.random()
            key = rng.randrange(60)
            if roll < 0.02:
                dead = b.stats().dead_entries
                removed = b.reclaim()
                assert removed == dead - b.stats().dead_entries
                if b.name != "lsm":
                    assert removed == dead
                reclaims += removed > 0
            elif key not in live:
                b.insert(key, ("v", key, step))
                live.add(key)
            elif roll < 0.6:
                b.update(key, ("v", key, step))
            else:
                b.delete(key)
                live.discard(key)
        assert reclaims > 10  # the parity was exercised, not vacuous
        b.reclaim()
        assert b.reclaim() == 0  # nothing left to remove


class TestPsqlSpecific:
    def test_reclaim_full_counts_vacuum_full(self):
        b = PsqlBackend(make_cost())
        b.insert("k", 1)
        b.delete("k")
        b.reclaim_full()
        assert b.engine.vacuum_full_count == 1

    def test_table_created_with_flag_column(self):
        b = PsqlBackend(make_cost())
        assert b.engine.has_table("data_units")
        b.insert("k", 1)
        b.make_inaccessible("k")  # would raise without the retrofit column

    def test_delete_without_reclaim_retains_dead_tuple(self):
        """MVCC: DELETE only marks the tuple dead — the §1 retention hazard."""
        b = PsqlBackend(make_cost())
        b.insert("k", "secret")
        b.delete("k")
        assert b.physically_present("k")
        assert ("k", False) in b.forensic_scan()
        b.reclaim()
        assert not b.physically_present("k")

    def test_repeated_updates_never_lose_a_key(self):
        """Every update leaves a dead index entry beside the live one; a
        leaf split between the two used to hide the live entry, and the
        key read as absent until the next VACUUM."""
        b = PsqlBackend(make_cost())
        for i in range(200):
            b.insert(i, ("v", i, 0))
        rng = random.Random(14)
        for n in range(1, 1001):
            key = rng.randrange(200)
            b.update(key, ("v", key, n))
            assert b.read(key) == ("v", key, n)

    def test_wal_row_image_is_a_typed_copy_site(self):
        """The engine's WAL row image reports as a first-class
        ``CopyLocation.WAL`` site — no untyped side channel — and a
        grounded erase scrubs it along with the heap tuple."""
        b = PsqlBackend(make_cost())
        b.insert("k", "secret")
        sites = b.copy_locations("k")
        assert any(loc is CopyLocation.WAL for loc, _name in sites)
        b.erase("k")
        assert b.copy_locations("k") == []
        assert not b.physically_present("k")


class TestCopySiteProtocol:
    """Every holder of a unit's value answers exactly one of the two keyed
    questions — ``copy_sites`` (primary storage) or ``copy_locations``
    (typed secondary sites) — exactly once."""

    SECONDARY = {
        "psql": [CopyLocation.MIGRATION, CopyLocation.WAL],
        "lsm": [CopyLocation.CACHE, CopyLocation.MIGRATION],
        "crypto-shred": [CopyLocation.MIGRATION],
    }

    @staticmethod
    def _loaded(name):
        # lsm: a small memtable, so the values sit in SSTables.
        opts = {"memtable_capacity": 4} if name == "lsm" else {}
        b = make_backend(name, make_cost(), **opts)
        b.insert_many((f"k{i}", ("payload", i)) for i in range(8))
        return b

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_each_holder_reports_once_and_one_erase_clears_all(self, name):
        b = self._loaded(name)
        b.read("k3")  # lsm: the SSTable read plants a block-cache entry
        with b.open_export(lambda k: k == "k3", name="out") as batch:
            assert len(b.copy_sites("k3")) == 1
            secondary = b.copy_locations("k3")
            assert [loc for loc, _site in secondary] == self.SECONDARY[name]
            assert (CopyLocation.MIGRATION, "out") in secondary
            assert b.physically_present("k3")
            b.erase("k3")
            assert b.copy_sites("k3") == []
            assert b.copy_locations("k3") == []
            assert not b.physically_present("k3")
            assert not batch.holds("k3")
        assert len(b.copy_sites("k0")) == 1  # the neighbours are untouched

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_physical_presence_is_primary_storage_or_wal(self, name):
        """A dead-but-unreclaimed copy is present; a copy riding only a
        cache or an export batch is the tracker's business, not the
        disk's."""
        b = self._loaded(name)
        with b.open_export(lambda k: k == "k3", name="out"):
            b.delete("k3")
            assert b.copy_sites("k3") and b.physically_present("k3")
            b.reclaim()  # no scrub_exports: the batch keeps its blob
            assert b.copy_sites("k3") == []
            assert b.copy_locations("k3") == [(CopyLocation.MIGRATION, "out")]
            assert not b.physically_present("k3")


class TestLsmSpecific:
    def test_restore_unflagged_raises(self):
        b = LsmBackend(make_cost())
        b.insert("k", 1)
        with pytest.raises(StorageError, match="not flagged"):
            b.restore("k")

    def test_flag_missing_key_raises(self):
        b = LsmBackend(make_cost())
        with pytest.raises(TupleNotFoundError):
            b.make_inaccessible("ghost")
        with pytest.raises(TupleNotFoundError):
            b.is_inaccessible("ghost")

    def test_erase_runs_full_compaction(self):
        b = LsmBackend(make_cost(), memtable_capacity=4)
        b.insert_many((f"k{i}", i) for i in range(16))
        before = b.engine.compaction_count
        b.erase("k3")
        assert b.engine.compaction_count > before
        assert b.engine.tombstone_count == 0  # full compaction drops them

    def test_tombstone_without_compaction_retains_shadowed_value(self):
        """A tombstone shadows — but does not remove — the value sitting in
        an older run: the §1 retention hazard, until full compaction."""
        b = LsmBackend(make_cost(), memtable_capacity=2, tier_threshold=10)
        b.insert("k", "secret")
        b.insert("pad", 1)  # flush: the run now holds the value
        b.delete("k")
        assert b.physically_present("k")
        assert ("k", False) in b.forensic_scan()
        b.reclaim()
        assert not b.physically_present("k")

    @staticmethod
    def two_versions_of_k():
        b = LsmBackend(make_cost(), memtable_capacity=2, tier_threshold=10)
        b.insert("k", "v1")
        b.insert("pad1", 1)  # flush: run holds v1
        b.update("k", "v2")
        b.insert("pad2", 2)  # flush: run holds v2
        entries = [key for key, _live in b.forensic_scan() if key == "k"]
        assert len(entries) == 2  # both physical versions visible
        return b

    def test_shadowed_versions_visible_to_forensics_until_full_compaction(self):
        b = self.two_versions_of_k()
        b.reclaim_full()
        entries = [key for key, _live in b.forensic_scan() if key == "k"]
        assert len(entries) == 1

    def test_reclaim_drops_the_victims_versions_and_nothing_else(self):
        """The "delete" grounding is a victim compaction: every version and
        the tombstone of the erased key leave every site; another key's
        shadowed version, and every table that never held the victim,
        stay exactly as they were."""
        b = self.two_versions_of_k()
        b.insert("o", "o1")
        b.insert("pad3", 3)  # flush: run holds o1 (and never held k)
        b.update("o", "o2")
        b.insert("pad4", 4)  # flush: run holds o2
        b.delete("k")
        b.insert("pad5", 5)  # flush: run holds k's tombstone
        holders = {
            run.table_id
            for run in b.engine.runs()
            if run.get_encoded("k") is not None
        }
        assert len(holders) == 3  # v1, v2, tombstone
        others = {r.table_id for r in b.engine.runs()} - holders
        assert b.reclaim() == 3
        assert b.copy_sites("k") == []
        assert all(r.get_encoded("k") is None for r in b.engine.runs())
        assert "k" not in dict(b.engine.memtable_entries())
        tables = {r.table_id for r in b.engine.runs()}
        assert others <= tables and not holders & tables
        scan = b.forensic_scan()
        assert sorted(live for key, live in scan if key == "o") == [False, True]
        assert b.read("o") == "o2" and b.read("pad1") == 1

    def test_block_cache_serves_repeat_reads_cheaply(self):
        cost = make_cost()
        b = LsmBackend(cost, memtable_capacity=2, tier_threshold=10)
        b.insert_many((f"k{i}", i) for i in range(8))  # several runs
        b.read("k1")  # cold: run probe
        before = cost.clock.now
        b.read("k1")  # hot: served from the block cache
        assert cost.clock.now - before < CostBook().sstable_probe
        assert b.engine.cache_hits == 1

    def test_block_cache_invalidated_by_writes(self):
        b = LsmBackend(make_cost(), memtable_capacity=2, tier_threshold=10)
        b.insert_many((f"k{i}", i) for i in range(8))
        assert b.read("k1") == 1
        b.update("k1", "fresh")
        assert b.read("k1") == "fresh"
        b.delete("k1")
        assert not b.exists("k1")

    def test_flush_runs_planned_merges_and_counts_them(self):
        b = LsmBackend(make_cost(), memtable_capacity=4, compaction="leveled")
        b.insert_many((f"k{i:03d}", i) for i in range(32))  # 8 flushed runs
        detail = dict(b.stats().detail)
        assert detail["merges_run"] == b.engine.merges_run > 0
        assert detail["bytes_compacted"] > 0
        assert b.engine.compaction_policy.plan(b.engine.level_view()) is None


def _slot_sectors(entry):
    """The sectors a crypto-shred entry's slot holds (0 once released)."""
    if entry.group is None:
        return 0
    return len(entry.group.slot_sector_numbers(entry.slot))


class TestCryptoShredSpecific:
    """The "permanently delete" retrofit: per-unit key volumes."""

    def test_sanitize_capability_flag(self):
        assert CryptoShredBackend(make_cost()).supports_sanitize
        assert not PsqlBackend(make_cost()).supports_sanitize
        assert not LsmBackend(make_cost()).supports_sanitize

    def test_units_pack_group_capacity_to_a_group(self):
        b = CryptoShredBackend(make_cost())
        for i in range(GROUP_CAPACITY):
            b.insert(i, "v")
        assert len({b._entries[i].group for i in range(GROUP_CAPACITY)}) == 1
        b.insert(GROUP_CAPACITY, "v")
        assert b._entries[GROUP_CAPACITY].group is not b._entries[0].group
        assert b._entries[0].group.capacity == GROUP_CAPACITY

    def test_values_rest_encrypted(self):
        """A forensic look at the sectors must see ciphertext, never the
        plaintext value."""
        b = CryptoShredBackend(make_cost())
        b.insert("k", "top-secret-payload")
        entry = b._entries["k"]
        group = entry.group
        raw = b"".join(
            group.raw_sector(group.sector_number(entry.slot, s))
            for s in range(entry.sectors)
        )
        assert b"top-secret-payload" not in raw
        assert b.read("k") == "top-secret-payload"

    def test_delete_keeps_value_recoverable_until_shred(self):
        """Logical delete leaves key + ciphertext — the §1 dead-entry
        analogue — until the reclamation pass shreds the key."""
        b = CryptoShredBackend(make_cost())
        b.insert("k", "secret")
        b.delete("k")
        assert b.physically_present("k")
        assert ("k", False) in b.forensic_scan()
        assert b.stats().dead_entries == 1
        b.reclaim()
        assert not b.physically_present("k")
        assert b.stats().dead_entries == 0

    def test_shred_leaves_ciphertext_but_unrecoverable(self):
        """After the key shred the sectors still exist on disk, but no
        forensic scan can recover the value — crypto-erasure."""
        b = CryptoShredBackend(make_cost())
        b.insert("k", "secret")
        b.delete("k")
        b.reclaim()
        entry = b._entries["k"]
        assert entry.sectors > 0  # ciphertext still occupies disk
        assert b._vault.is_shredded(entry.key_id)
        assert not b.physically_present("k")
        with pytest.raises(PermissionError):
            b._vault.master(entry.key_id)

    def test_sanitize_wipes_sectors_and_charges(self):
        cost = make_cost()
        b = CryptoShredBackend(cost)
        b.insert("k", "secret")
        b.delete("k")
        b.sanitize("k")
        assert cost.clock.spent("sanitize") >= CostBook().sanitize_per_page
        assert b._entries["k"].sectors == 0
        assert not b.physically_present("k")
        assert b.stats().detail[2] == ("sanitized", 1)

    def test_sanitize_unknown_key_raises(self):
        b = CryptoShredBackend(make_cost())
        with pytest.raises(TupleNotFoundError):
            b.sanitize("ghost")

    def test_sanitize_unsupported_on_native_engines(self):
        for name in ("psql", "lsm"):
            b = make_backend(name, make_cost())
            b.insert("k", 1)
            with pytest.raises(StorageError, match="sanitization"):
                b.sanitize("k")

    def test_duplicate_live_insert_rejected(self):
        b = CryptoShredBackend(make_cost())
        b.insert("k", 1)
        with pytest.raises(StorageError, match="already holds"):
            b.insert("k", 2)

    def test_reinsert_after_erase_gets_fresh_volume(self):
        b = CryptoShredBackend(make_cost())
        b.insert("k", "old")
        old_entry = b._entries["k"]
        b.erase("k")
        b.insert("k", "new")
        assert b.read("k") == "new"
        assert b._entries["k"] is not old_entry

    def test_shrinking_update_discards_stale_tail_sectors(self):
        """Regression: a shorter rewrite must not leave the old value's
        tail ciphertext recoverable under the still-live key."""
        b = CryptoShredBackend(make_cost())
        b.insert("k", "x" * 2000)  # several sectors
        entry = b._entries["k"]
        assert _slot_sectors(entry) > 1
        b.update("k", "y")  # one sector
        assert _slot_sectors(entry) == entry.sectors == 1
        assert b.read("k") == "y"

    def test_sanitize_leaves_no_sectors_at_all(self):
        b = CryptoShredBackend(make_cost())
        b.insert("k", "x" * 2000)
        b.delete("k")
        b.sanitize("k")
        assert _slot_sectors(b._entries["k"]) == 0

    def test_sanitize_without_prior_delete_kills_the_entry(self):
        """Regression: sanitize used to leave live=True, so exists() lied
        and read() crashed on the empty volume."""
        b = CryptoShredBackend(make_cost())
        b.insert("k", "secret")
        b.sanitize("k")
        assert not b.exists("k")
        with pytest.raises(TupleNotFoundError):
            b.read("k")

    def test_displaced_dead_volume_stays_in_retention_accounting(self):
        """Regression: re-inserting over a dead-but-unshredded entry used
        to drop the old volume from the accounting entirely — its intact
        key was then never shredded by any reclamation pass."""
        b = CryptoShredBackend(make_cost())
        b.insert("k", "secret")
        b.delete("k")
        b.insert("k", "new")
        # The old copy is still recoverable and must stay visible.
        assert b.stats().dead_entries == 1
        assert ("k", False) in b.forensic_scan()
        shreds_before = b.shred_count
        b.reclaim()
        assert b.shred_count == shreds_before + 1  # the graveyard volume
        assert b.stats().dead_entries == 0
        assert b.read("k") == "new"  # the live value is untouched

    def test_sanitize_covers_displaced_volumes_of_the_unit(self):
        b = CryptoShredBackend(make_cost())
        b.insert("k", "old-secret")
        b.delete("k")
        b.insert("k", "new")
        b.delete("k")
        b.sanitize("k")
        assert not b.physically_present("k")
        assert b._graveyard == []

    def test_reclaim_visits_only_entries_deleted_since_the_last_pass(
        self, monkeypatch
    ):
        """An erase's shred sweep costs its victims, not every erase before
        it: after 20 erase + reclaim rounds the next pass asks the vault to
        shred one key (a sweep over every dead entry asks 21 times)."""
        b = CryptoShredBackend(make_cost())
        for i in range(21):
            b.insert(i, f"value-{i}")
        for i in range(20):
            b.erase(i)
        vault = b._vault
        calls = []
        shred = vault.shred
        monkeypatch.setattr(
            vault, "shred", lambda key_id: calls.append(key_id) or shred(key_id)
        )
        b.delete(20)
        assert b.reclaim() == 1
        assert calls == [b._entries[20].key_id]
        assert b.shred_count == 21
        assert b.stats().dead_entries == 0

    def test_reclaim_counts_a_reinserted_units_old_entry_once(self):
        """A deleted-then-re-inserted unit's old entry is both a fresh
        deletion and a graveyard placement; the pass counts it once."""
        b = CryptoShredBackend(make_cost())
        b.insert("k", "old")
        b.insert("j", "other")
        b.delete("k")
        b.insert("k", "new")
        b.delete("j")
        assert b.stats().dead_entries == 2
        assert b.reclaim() == 2
        assert b.shred_count == 2
        assert b.reclaim() == 0
        assert b.read("k") == "new"


class TestBulkMigrationHooks:
    """export_range / import_encoded_batch — the shard-migration transport."""

    def _loaded(self, backend, n=20):
        for i in range(n):
            backend.insert(f"u{i:03d}", {"i": i})
        return [f"u{i:03d}" for i in range(n)]

    def test_export_selects_by_predicate(self, backend):
        keys = self._loaded(backend)
        wanted = set(keys[::3])
        items = backend.export_range(lambda k: k in wanted)
        assert [k for k, _v in items] == sorted(wanted)
        assert all(v == {"i": int(k[1:])} for k, v in items)

    def test_export_skips_dead_entries(self, backend):
        keys = self._loaded(backend)
        backend.delete(keys[0])
        items = backend.export_range(lambda k: True)
        exported = {k for k, _v in items}
        assert keys[0] not in exported
        assert exported == set(keys[1:])

    def test_export_reflects_latest_update(self, backend):
        keys = self._loaded(backend)
        backend.update(keys[1], {"i": -1})
        items = dict(backend.export_range(lambda k: k == keys[1]))
        assert items == {keys[1]: {"i": -1}}

    def test_import_encoded_batch_roundtrips(self, backend):
        source = make_backend(backend.name, make_cost())
        keys = self._loaded(source)
        items = source.export_encoded_range(lambda k: True)
        assert backend.import_encoded_batch(items) == len(keys)
        for key in keys:
            assert backend.read(key) == {"i": int(key[1:])}

    def test_flag_state_survives_migration(self, backend, pickle_calls):
        """Regression: a reversibly-inaccessible unit must arrive at its
        new shard still inaccessible — whatever mechanism the engine uses
        for the flag (column, flag write, out-of-band bit), a migration
        silently restoring access would undo a compliance-mandated erase."""
        source = make_backend(backend.name, make_cost())
        source.insert("a", "secret")
        source.insert("b", "plain")
        source.make_inaccessible("a")
        backend.import_encoded_batch(source.export_encoded_range(lambda k: True))
        assert backend.is_inaccessible("a") is True
        assert backend.is_inaccessible("b") is False
        backend.restore("a")  # the transformation stays invertible
        assert backend.read("a") == "secret"
        assert backend.read("b") == "plain"
        assert pickle_calls == []

    def test_exported_values_survive_source_erase(self, backend):
        """The migration contract: the destination copy is independent of
        the source's physical footprint."""
        source = make_backend(backend.name, make_cost())
        keys = self._loaded(source, n=6)
        backend.import_encoded_batch(source.export_encoded_range(lambda k: True))
        source.erase_many(keys)
        for key in keys:
            assert not source.physically_present(key)
            assert backend.read(key) == {"i": int(key[1:])}


class TestWalCopyTracking:
    """Regression: erased units' payloads lingered in the WAL forever.

    Before the fix, INSERT/UPDATE records carried no payload at all (the
    leak was unmodelled) and nothing tracked the log as a copy location;
    now the WAL row images are tracked and the grounded erase's reclamation
    pass scrubs them.
    """

    WAL_SITE = (CopyLocation.WAL, "wal/data_units")

    def test_insert_payload_lands_in_wal(self):
        b = PsqlBackend(make_cost())
        b.insert("k", "secret")
        assert self.WAL_SITE in b.copy_locations("k")
        assert b.physically_present("k")

    def test_delete_alone_leaves_wal_copy(self):
        """The failing-before shape: after DELETE (no reclaim) the heap
        tuple is dead but the WAL still carries the row image."""
        b = PsqlBackend(make_cost())
        b.insert("k", "secret")
        b.delete("k")
        assert self.WAL_SITE in b.copy_locations("k")
        assert b.physically_present("k")

    def test_grounded_erase_scrubs_wal(self):
        b = PsqlBackend(make_cost())
        b.insert("k", "secret")
        b.erase("k")  # delete + reclaim
        assert self.WAL_SITE not in b.copy_locations("k")
        assert not b.physically_present("k")

    def test_wal_only_copy_counts_as_physical_presence(self):
        """A value whose only surviving copy is a WAL row image is still
        physically present — exactly the pre-fix leak, where VACUUM cleared
        the heap but nothing scrubbed the log."""
        b = PsqlBackend(make_cost())
        b.insert("k", "secret")
        b.delete("k")
        # Reproduce the old behaviour: drop the scrub the fix added, so the
        # vacuum reclaims the heap but leaves the log copy behind.
        b.engine._wal_scrub_pending.clear()
        b.engine.vacuum(b.table)
        assert not any(key == "k" for key, _l in b.forensic_scan())
        assert self.WAL_SITE in b.copy_locations("k")
        assert b.physically_present("k")  # the tracker refuses to lie
        b.engine.wal.checkpoint()  # segment recycling drops the image
        assert not b.physically_present("k")

    def test_reclaim_full_also_scrubs(self):
        b = PsqlBackend(make_cost())
        b.insert("k", "secret")
        b.delete("k")
        b.reclaim_full()
        assert self.WAL_SITE not in b.copy_locations("k")

    def test_update_images_scrubbed_with_delete(self):
        b = PsqlBackend(make_cost())
        b.insert("k", "v1")
        b.update("k", "v2")
        b.delete("k")
        b.reclaim()
        assert self.WAL_SITE not in b.copy_locations("k")

    def test_reinsert_cancels_pending_scrub(self):
        """Regression: delete + re-insert + vacuum must NOT redact the
        live row's WAL image — the key is live again, so its log copy is
        a replayable superseded version, not erased data."""
        b = PsqlBackend(make_cost())
        b.insert("k", "v1")
        b.delete("k")
        b.insert("k", "v2")
        b.reclaim()
        assert b.read("k") == "v2"
        assert self.WAL_SITE in b.copy_locations("k")  # the live row's image survives
        assert b.physically_present("k")


class TestBackendGroup:
    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_namespaces_are_isolated(self, name):
        group = BackendGroup(name, make_cost())
        data = group.create("data", 70)
        meta = group.create("meta", 72)
        data.insert("k", "value")
        meta.insert("k", "metadata")
        assert data.read("k") == "value"
        assert meta.read("k") == "metadata"
        data.erase("k")
        assert not data.exists("k")
        assert meta.read("k") == "metadata"

    def test_psql_namespaces_share_one_engine(self):
        group = BackendGroup("psql", make_cost())
        data = group.create("data", 70)
        meta = group.create("meta", 72)
        assert data.engine is meta.engine is group.engine

    def test_single_keyspace_backends_get_engine_per_namespace(self):
        group = BackendGroup("lsm", make_cost())
        data = group.create("data", 70)
        meta = group.create("meta", 72)
        assert data.engine is not meta.engine
        assert group.engine is None

    def test_duplicate_namespace_rejected(self):
        group = BackendGroup("psql", make_cost())
        group.create("data", 70)
        with pytest.raises(ValueError, match="already exists"):
            group.create("data", 70)

    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError, match="unknown backend"):
            BackendGroup("mongodb", make_cost())

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_reclaim_counters_aggregate(self, name):
        group = BackendGroup(name, make_cost())
        data = group.create("data", 70)
        data.insert("k", 1)
        data.erase("k")
        assert group.reclaim_count == 1
        assert group.reclaim_full_count == 0

    def test_zero_block_cache_capacity_turns_the_pooled_cache_off(self):
        # Same meaning as on a bare LsmBackend: an explicit 0 is "no
        # cache", not "unset, use the 1024-entry default".
        config = BackendConfig(
            backend="lsm", block_cache_capacity=0, memtable_capacity=16
        )
        profile = make_profile("P_Base", backend="lsm", engine_opts=config)
        profile.run(ycsb_c_workload(200, 400, seed=3), personal=False)
        cache = profile.storage.block_cache
        assert cache.capacity == 0
        assert cache.misses > 0  # the read phase searched the runs
        assert cache.hits == 0

    @pytest.mark.parametrize(
        "block_cache_capacity,expected", [(None, 1024), (64, 64), (0, 0)]
    )
    def test_pooled_cache_capacity_is_block_cache_capacity(
        self, block_cache_capacity, expected
    ):
        config = BackendConfig(
            backend="lsm", block_cache_capacity=block_cache_capacity
        )
        group = BackendGroup("lsm", make_cost(), engine_opts=config)
        assert group.block_cache.capacity == expected

    def test_crypto_shred_namespaces_share_the_group_vault(self):
        group = BackendGroup("crypto-shred", make_cost())
        data = group.create("data", 70)
        meta = group.create("meta", 72)
        assert data._vault is meta._vault is group.vault
        assert group.block_cache is None
