"""Unit tests for the relational engine — PSQL-like mechanics."""

import pytest

from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel
from repro.storage import index as index_module
from repro.storage.engine import RelationalEngine
from repro.storage.errors import (
    DuplicateKeyError,
    StorageError,
    TableExistsError,
    TableNotFoundError,
    TupleNotFoundError,
)
from repro.storage.page import Page


def make_engine(**kwargs):
    clock = SimClock()
    cost = CostModel(clock, CostBook())
    return RelationalEngine(cost, **kwargs), clock


class TestDDL:
    def test_create_and_drop(self):
        eng, _ = make_engine()
        eng.create_table("t", row_bytes=70)
        assert eng.has_table("t")
        assert eng.tables() == ["t"]
        eng.drop_table("t")
        assert not eng.has_table("t")

    def test_duplicate_table_rejected(self):
        eng, _ = make_engine()
        eng.create_table("t", row_bytes=70)
        with pytest.raises(TableExistsError):
            eng.create_table("t", row_bytes=70)

    def test_missing_table_rejected(self):
        eng, _ = make_engine()
        with pytest.raises(TableNotFoundError):
            eng.read("ghost", 1)

    def test_invalid_schema(self):
        eng, _ = make_engine()
        with pytest.raises(ValueError):
            eng.create_table("t", row_bytes=0)


class TestCRUD:
    def setup_method(self):
        self.eng, self.clock = make_engine()
        self.eng.create_table("t", row_bytes=70)

    def test_insert_read_roundtrip(self):
        self.eng.insert("t", 1, {"name": "alice"})
        assert self.eng.read("t", 1) == {"name": "alice"}

    def test_duplicate_key_rejected(self):
        self.eng.insert("t", 1, "a")
        with pytest.raises(DuplicateKeyError):
            self.eng.insert("t", 1, "b")

    def test_read_missing_raises(self):
        with pytest.raises(TupleNotFoundError):
            self.eng.read("t", 404)

    def test_update_creates_dead_version(self):
        """MVCC: update = new version + dead old version."""
        self.eng.insert("t", 1, "v1")
        self.eng.update("t", 1, "v2")
        assert self.eng.read("t", 1) == "v2"
        stats = self.eng.stats("t")
        assert stats.live_tuples == 1
        assert stats.dead_tuples == 1

    def test_update_missing_raises(self):
        with pytest.raises(TupleNotFoundError):
            self.eng.update("t", 404, "v")

    def test_delete_marks_dead_only(self):
        self.eng.insert("t", 1, "v")
        self.eng.delete("t", 1)
        with pytest.raises(TupleNotFoundError):
            self.eng.read("t", 1)
        stats = self.eng.stats("t")
        assert stats.dead_tuples == 1
        assert stats.live_tuples == 0
        # physically retained until vacuum:
        assert ("1" and (1, False)) is not None
        assert (1, False) in self.eng.forensic_scan("t")

    def test_delete_missing_raises(self):
        with pytest.raises(TupleNotFoundError):
            self.eng.delete("t", 404)

    def test_exists(self):
        self.eng.insert("t", 1, "v")
        assert self.eng.exists("t", 1)
        self.eng.delete("t", 1)
        assert not self.eng.exists("t", 1)

    def test_wal_records_mutations(self):
        self.eng.insert("t", 1, "v")
        self.eng.update("t", 1, "v2")
        self.eng.delete("t", 1)
        types = [str(r.type) for r in self.eng.wal.records()]
        assert types == ["insert", "update", "delete"]


class TestVacuumMechanics:
    def setup_method(self):
        self.eng, self.clock = make_engine()
        self.eng.create_table("t", row_bytes=70)
        for i in range(200):
            self.eng.insert("t", i, f"v{i}")

    def _delete_range(self, n):
        for i in range(n):
            self.eng.delete("t", i)

    def test_vacuum_prunes_heap_and_index(self):
        self._delete_range(50)
        reclaimed = self.eng.vacuum("t")
        assert reclaimed == 50
        stats = self.eng.stats("t")
        assert stats.dead_tuples == 0
        assert stats.index_dead_entries == 0
        assert self.eng.vacuum_count == 1

    def test_vacuum_does_not_shrink_file(self):
        pages_before = self.eng.stats("t").pages
        self._delete_range(100)
        self.eng.vacuum("t")
        assert self.eng.stats("t").pages == pages_before

    def test_vacuum_full_shrinks_file(self):
        self._delete_range(150)
        pages_before = self.eng.stats("t").pages
        removed = self.eng.vacuum_full("t")
        assert removed == 150
        stats = self.eng.stats("t")
        assert stats.pages < pages_before
        assert stats.live_tuples == 50
        assert self.eng.vacuum_full_count == 1

    def test_vacuum_full_preserves_reads(self):
        self._delete_range(100)
        self.eng.vacuum_full("t")
        assert self.eng.read("t", 150) == "v150"
        with pytest.raises(TupleNotFoundError):
            self.eng.read("t", 50)

    def test_reads_cost_more_on_bloated_table(self):
        """The Figure-4(a) mechanism: dead tuples degrade read cost."""
        eng_clean, clock_clean = make_engine()
        eng_clean.create_table("t", row_bytes=70)
        for i in range(200):
            eng_clean.insert("t", i, "v")
        watch = clock_clean.stopwatch()
        for i in range(100, 200):
            eng_clean.read("t", i)
        clean_cost = watch.stop()

        self._delete_range(100)  # bloat: 100 dead of 200
        watch = self.clock.stopwatch()
        for i in range(100, 200):
            self.eng.read("t", i)
        bloated_cost = watch.stop()
        assert bloated_cost > clean_cost

    def test_vacuum_restores_read_cost(self):
        self._delete_range(100)
        self.eng.vacuum("t")
        watch = self.clock.stopwatch()
        self.eng.read("t", 150)
        vacuumed = watch.stop()

        eng2, clock2 = make_engine()
        eng2.create_table("t", row_bytes=70)
        for i in range(200):
            eng2.insert("t", i, "v")
        watch2 = clock2.stopwatch()
        eng2.read("t", 150)
        clean = watch2.stop()
        assert vacuumed == clean

    def test_deletes_and_updates_never_vacuum_on_their_own(self):
        # Reclamation is a grounded action: only an explicit vacuum runs it.
        for i in range(150):
            self.eng.update("t", i, "w")
        self._delete_range(150)
        assert self.eng.vacuum_count == 0
        assert self.eng.vacuum_full_count == 0
        assert self.eng.stats("t").dead_tuples == 300
        assert self.eng.vacuum("t") == 300
        assert self.eng.vacuum_count == 1


class TestVacuumVisitsOnlyDirtyPages:
    """VACUUM pays for its dead tuples, not for the table: counts of pages
    pruned, leaves edited and index entries built — no timing."""

    ROWS = 5_000

    @pytest.fixture
    def table(self, monkeypatch):
        eng, clock = make_engine()
        eng.create_table("t", row_bytes=70)
        for i in range(self.ROWS):
            eng.insert("t", i, f"v{i}")
        self.eng, self.clock = eng, clock
        self.pruned, self.entries_built = [], []
        prune, entry = Page.prune, index_module._Entry
        monkeypatch.setattr(
            Page, "prune", lambda page: self.pruned.append(page.page_no) or prune(page)
        )
        monkeypatch.setattr(
            index_module, "_Entry",
            lambda *args: self.entries_built.append(args) or entry(*args),
        )
        return eng._catalog.get("t")

    @staticmethod
    def leaf_keys(table):
        node = table.index._root
        while isinstance(node, index_module._Internal):
            node = node.children[0]
        leaves = {}
        while node is not None:
            leaves[id(node)] = list(node.keys)
            node = node.next
        return leaves

    def tids(self, table):
        return {slot.key: tid for tid, slot in table.heap.scan_all()}

    def vacuum_after_deleting(self, table, victims):
        """Leaves edited by one VACUUM after deleting ``victims``."""
        for key in victims:
            self.eng.delete("t", key)
        tids, leaves, depth = self.tids(table), self.leaf_keys(table), table.index.depth
        assert self.eng.vacuum("t") == len(victims)
        after = self.leaf_keys(table)
        assert table.index.depth == depth  # VACUUM is not a REINDEX
        assert self.entries_built == []
        assert set(after) == set(leaves)
        for key in victims:
            del tids[key]
        assert self.tids(table) == tids  # every other row where it was
        return [leaf for leaf in leaves if leaves[leaf] != after[leaf]]

    def test_one_dead_tuple_one_page_one_leaf(self, table):
        victim = 2_345
        page_no, _slot = table.index.get(victim)
        edited = self.vacuum_after_deleting(table, [victim])
        assert self.pruned == [page_no]
        assert len(edited) == 1
        assert table.heap.dead_tuples == table.index.dead_entries == 0
        with pytest.raises(TupleNotFoundError):
            self.eng.read("t", victim)
        assert self.eng.read("t", victim + 1) == f"v{victim + 1}"

    def test_k_dead_tuples_on_k_pages(self, table):
        victims = [100, 1_300, 2_500, 3_700, 4_900]
        pages = [table.index.get(key)[0] for key in victims]
        assert len(set(pages)) == len(victims)
        edited = self.vacuum_after_deleting(table, victims[::-1])
        assert self.pruned == pages  # each dirty page once, in page order
        assert len(edited) == len(victims)

    def test_nothing_dead_nothing_visited(self, table):
        assert self.vacuum_after_deleting(table, []) == []
        assert self.pruned == []

    def test_charges_follow_the_dead_count_not_the_table(self, table):
        """Same simulated cost as the same VACUUM on a table 25x smaller."""
        small, small_clock = make_engine()
        small.create_table("t", row_bytes=70)
        for i in range(200):
            small.insert("t", i, f"v{i}")
        costs = []
        for eng, clock in ((self.eng, self.clock), (small, small_clock)):
            for key in (7, 150):
                eng.delete("t", key)
            watch = clock.stopwatch()
            assert eng.vacuum("t") == 2
            costs.append(watch.stop())
        assert costs[0] == costs[1]

    def test_pruned_pages_rejoin_the_free_map_in_page_order(self, table):
        """The free-space map is a stack, so the order pages rejoin it
        decides where the next rows land — page order, whatever order the
        deletes came in (a set of small ints does not iterate sorted:
        ``{8, 1}`` yields 8 first)."""
        on_page = {
            page: next(k for k in range(self.ROWS) if table.index.get(k)[0] == page)
            for page in (1, 8)
        }
        for page in (8, 1):
            self.eng.delete("t", on_page[page])
        self.eng.vacuum("t")
        for key in (self.ROWS, self.ROWS + 1):
            self.eng.insert("t", key, "new")
        assert table.index.get(self.ROWS)[0] == 8
        assert table.index.get(self.ROWS + 1)[0] == 1


class TestScans:
    def setup_method(self):
        self.eng, self.clock = make_engine()
        self.eng.create_table("t", row_bytes=70)
        for i in range(20):
            self.eng.insert("t", i, i * 10)

    def test_seq_scan_all(self):
        rows = self.eng.seq_scan("t")
        assert len(rows) == 20

    def test_seq_scan_predicate(self):
        rows = self.eng.seq_scan("t", lambda k, v: v >= 150)
        assert [k for k, _ in rows] == [15, 16, 17, 18, 19]

    def test_seq_scan_charges_by_pages(self):
        before = self.clock.spent("storage")
        self.eng.seq_scan("t")
        assert self.clock.spent("storage") > before


class TestFlagColumn:
    def test_set_flag_requires_retrofit(self):
        eng, _ = make_engine()
        eng.create_table("plain", row_bytes=70)
        eng.insert("plain", 1, "v")
        with pytest.raises(StorageError, match="retrofit"):
            eng.set_flag("plain", 1, True)

    def test_flag_roundtrip_is_reversible(self):
        """Reversible inaccessibility: data still present, flag flips."""
        eng, _ = make_engine()
        eng.create_table("t", row_bytes=70, flag_column=True)
        eng.insert("t", 1, "secret")
        eng.set_flag("t", 1, True)
        assert eng.is_flagged("t", 1)
        # The value is still physically there (invertible transformation).
        eng.set_flag("t", 1, False)
        assert not eng.is_flagged("t", 1)

    def test_flag_missing_key(self):
        eng, _ = make_engine()
        eng.create_table("t", row_bytes=70, flag_column=True)
        with pytest.raises(TupleNotFoundError):
            eng.set_flag("t", 404, True)


class TestSpaceAccounting:
    def test_total_bytes_counts_heap_index_wal(self):
        eng, _ = make_engine()
        eng.create_table("t", row_bytes=70)
        for i in range(100):
            eng.insert("t", i, "v")
        stats = eng.stats("t")
        assert eng.total_bytes() == stats.heap_bytes + stats.index_bytes + eng.wal.size_bytes
