"""Unit tests for the B+-tree index."""

import random

import pytest

from repro.storage.index import ORDER, BTreeIndex


def tid(i):
    return (i // 100, i % 100)


class TestInsertAndProbe:
    def test_small_tree(self):
        idx = BTreeIndex()
        idx.insert("b", tid(2))
        idx.insert("a", tid(1))
        idx.insert("c", tid(3))
        assert idx.get("a") == tid(1)
        assert idx.get("b") == tid(2)
        assert idx.get("missing") is None
        assert "a" in idx and "zz" not in idx

    def test_duplicate_live_key_rejected(self):
        idx = BTreeIndex()
        idx.insert("a", tid(1))
        with pytest.raises(KeyError, match="duplicate"):
            idx.insert("a", tid(2))

    def test_grows_in_depth(self):
        idx = BTreeIndex()
        assert idx.depth == 1
        for i in range(ORDER + 1):
            idx.insert(i, tid(i))
        assert idx.depth == 2

    def test_many_random_inserts(self):
        idx = BTreeIndex()
        keys = list(range(5_000))
        random.Random(7).shuffle(keys)
        for k in keys:
            idx.insert(k, tid(k))
        assert len(idx) == 5_000
        assert idx.depth >= 3
        for k in random.Random(8).sample(range(5_000), 200):
            assert idx.get(k) == tid(k)

    def test_probe_reports_depth(self):
        idx = BTreeIndex()
        idx.insert(1, tid(1))
        result = idx.probe(1)
        assert result.found and result.depth == idx.depth


class TestLazyDeletion:
    def test_mark_dead_hides_from_reads(self):
        idx = BTreeIndex()
        idx.insert("a", tid(1))
        assert idx.mark_dead("a")
        assert idx.get("a") is None
        assert idx.live_entries == 0
        assert idx.dead_entries == 1

    def test_mark_dead_missing_returns_false(self):
        assert not BTreeIndex().mark_dead("ghost")

    def test_dead_entry_occupies_space_until_cleanup(self):
        """Index bloat: dead entries still occupy bytes (Table 2 indices)."""
        idx = BTreeIndex()
        for i in range(100):
            idx.insert(i, tid(i))
        size_full = idx.size_bytes
        for i in range(50):
            idx.mark_dead(i)
        assert idx.size_bytes == size_full  # lazily deleted
        idx.cleanup()
        assert idx.size_bytes < size_full

    def test_probe_counts_dead_steps(self):
        idx = BTreeIndex()
        idx.insert("a", tid(1))
        idx.mark_dead("a")
        idx.insert("a", tid(2))  # re-insert same key while dead entry lingers
        result = idx.probe("a")
        assert result.found and result.tid == tid(2)

    def test_reinsert_after_dead_then_cleanup(self):
        idx = BTreeIndex()
        idx.insert("a", tid(1))
        idx.mark_dead("a")
        idx.insert("a", tid(2))
        assert idx.cleanup() == 1
        assert idx.get("a") == tid(2)

    def test_cleanup_counts_removed(self):
        idx = BTreeIndex()
        for i in range(10):
            idx.insert(i, tid(i))
        for i in range(4):
            idx.mark_dead(i)
        assert idx.cleanup() == 4
        assert idx.live_entries == 6
        assert idx.dead_entries == 0


class TestRangeScan:
    def test_range_inclusive(self):
        idx = BTreeIndex()
        for i in range(100):
            idx.insert(i, tid(i))
        got = [k for k, _ in idx.range(10, 20)]
        assert got == list(range(10, 21))

    def test_range_skips_dead(self):
        idx = BTreeIndex()
        for i in range(10):
            idx.insert(i, tid(i))
        idx.mark_dead(5)
        got = [k for k, _ in idx.range(0, 9)]
        assert 5 not in got and len(got) == 9

    def test_full_range_is_sorted(self):
        idx = BTreeIndex()
        keys = list(range(1_000))
        random.Random(3).shuffle(keys)
        for k in keys:
            idx.insert(k, tid(k))
        assert list(idx.keys()) == sorted(range(1_000))

    def test_open_ended_range(self):
        idx = BTreeIndex()
        for i in range(10):
            idx.insert(i, tid(i))
        assert [k for k, _ in idx.range(lo=7)] == [7, 8, 9]
        assert [k for k, _ in idx.range(hi=2)] == [0, 1, 2]


class TestRebuild:
    def test_rebuild_from_sorted_items(self):
        idx = BTreeIndex()
        items = [(i, tid(i)) for i in range(2_000)]
        idx.rebuild(items)
        assert len(idx) == 2_000
        assert idx.get(1_234) == tid(1_234)
        assert list(idx.keys()) == [k for k, _ in items]

    def test_rebuild_empty(self):
        idx = BTreeIndex()
        idx.insert(1, tid(1))
        idx.rebuild([])
        assert len(idx) == 0
        assert idx.get(1) is None
        assert idx.depth == 1

    def test_rebuild_then_insert_more(self):
        idx = BTreeIndex()
        idx.rebuild([(i, tid(i)) for i in range(500)])
        for i in range(500, 600):
            idx.insert(i, tid(i))
        assert len(idx) == 600
        assert idx.get(555) == tid(555)
        assert list(idx.keys()) == list(range(600))
