"""Unit tests for the LSM substrate — tombstones and retention."""

import gc
import sys

import pytest

from repro import codec
from repro.lsm.bloom import BloomFilter, BloomHashCache, hash_pair
from repro.lsm.engine import LSMEngine
from repro.lsm.memtable import TOMBSTONE, Memtable
from repro.lsm.sstable import SSTable
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel


def make_engine(**kwargs):
    clock = SimClock()
    cost = CostModel(clock, CostBook())
    kwargs.setdefault("memtable_capacity", 8)
    kwargs.setdefault("tier_threshold", 3)
    return LSMEngine(cost, **kwargs), clock


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(1_000)
        for i in range(1_000):
            bloom.add(f"key-{i}")
        assert all(f"key-{i}" in bloom for i in range(1_000))

    def test_low_false_positive_rate(self):
        bloom = BloomFilter(1_000, fp_rate=0.01)
        for i in range(1_000):
            bloom.add(f"key-{i}")
        fps = sum(1 for i in range(10_000) if f"absent-{i}" in bloom)
        assert fps < 300  # ~1% expected; generous bound

    def test_invalid_fp_rate(self):
        with pytest.raises(ValueError):
            BloomFilter(10, fp_rate=1.5)

    def test_sizing(self):
        small = BloomFilter(10)
        big = BloomFilter(100_000)
        assert big.bit_size > small.bit_size
        assert big.size_bytes > small.size_bytes
        assert small.hash_count >= 1

    def test_hashing_ignores_incidental_aliasing(self):
        # Regression: marshal >= 3 ref-flags objects by refcount, so the
        # same key hashed differently when held in a list vs alone — a
        # rebuilt filter then false-negatived on live keys.
        held = [("unit", i) for i in range(64)]
        assert [hash_pair(k) for k in held] == [
            hash_pair(("unit", i)) for i in range(64)
        ]
        bloom = BloomFilter.from_keys(held)
        assert all(("unit", i) in bloom for i in range(64))

    def test_rebuild_with_warm_cache_matches_cold_build(self):
        cache = BloomHashCache()
        keys = [f"key-{i}" for i in range(256)]
        cold = BloomFilter.from_keys(keys)
        warm = BloomFilter.from_keys(list(keys), cache=cache)
        assert cache.misses == len(keys)
        probes = keys + [f"absent-{i}" for i in range(64)]
        assert cold.probe_many(probes) == warm.probe_many(probes, cache=cache)
        assert cache.hits == len(keys)  # the probe re-used every build pair

    def test_saturated_filter_resizes(self):
        # A default-sized filter fed far too many keys must grow instead
        # of saturating into an always-True oracle.
        bloom = BloomFilter(1)
        for i in range(500):
            bloom.add(f"key-{i}")
        assert bloom.bit_size >= 500
        assert all(f"key-{i}" in bloom for i in range(500))
        fps = sum(1 for i in range(1_000) if f"absent-{i}" in bloom)
        assert fps < 200  # bounded; an unguarded saturated filter hits 1000


class TestMemtable:
    def test_put_get(self):
        mt = Memtable(4)
        mt.put("a", 1, seqno=1)
        assert mt.get("a") == (1, 1)
        assert mt.get("missing") is None

    def test_overwrite_keeps_latest(self):
        mt = Memtable(4)
        mt.put("a", 1, seqno=1)
        mt.put("a", 2, seqno=5)
        assert mt.get("a") == (5, 2)
        assert len(mt) == 1

    def test_is_full(self):
        mt = Memtable(2)
        mt.put("a", 1, 1)
        assert not mt.is_full
        mt.put("b", 2, 2)
        assert mt.is_full

    def test_sorted_entries(self):
        mt = Memtable(8)
        mt.put("c", 3, 3)
        mt.put("a", 1, 1)
        mt.put("b", 2, 2)
        assert [k for k, _s, _v in mt.sorted_entries()] == ["a", "b", "c"]

    def test_tombstone_count(self):
        mt = Memtable(8)
        mt.put("a", TOMBSTONE, 1)
        mt.put("b", 2, 2)
        assert mt.tombstone_count() == 1

    def test_drop_forgets_the_entry_and_its_bytes(self):
        mt = Memtable(8)
        mt.put("a", "value", 1)
        mt.put("b", TOMBSTONE, 2)
        kept = Memtable(8)
        kept.put("b", TOMBSTONE, 2)
        assert mt.drop("a") == codec.encode("value")
        assert mt.drop("a") is None
        assert "a" not in mt and len(mt) == 1
        assert mt.encoded_bytes == kept.encoded_bytes

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Memtable(0)


class TestSSTable:
    def _run(self, entries=None):
        entries = entries or [("a", 1, "va"), ("b", 2, TOMBSTONE), ("c", 3, "vc")]
        return SSTable(entries, payload_bytes=70, created_at=0)

    def test_get(self):
        run = self._run()
        assert run.get("a") == (1, "va")
        assert run.get("b") == (2, TOMBSTONE)
        assert run.get("zz") is None

    def test_bloom_negative(self):
        run = self._run()
        assert run.might_contain("a")

    def test_counts(self):
        run = self._run()
        assert len(run) == 3
        assert run.tombstone_count == 1
        assert run.value_count == 2

    def test_size_bytes_tombstones_cheaper(self):
        values = SSTable([("a", 1, "v"), ("b", 2, "v")], 70, 0)
        tombs = SSTable([("a", 1, TOMBSTONE), ("b", 2, TOMBSTONE)], 70, 0)
        assert tombs.size_bytes < values.size_bytes

    def test_range(self):
        run = self._run()
        assert [k for k, _s, _v in run.range("a", "b")] == ["a", "b"]

    def test_min_max_key(self):
        run = self._run()
        assert run.min_key == "a" and run.max_key == "c"

    def test_physically_contains_value(self):
        run = self._run()
        assert run.physically_contains_value("a")
        assert not run.physically_contains_value("b")  # tombstone, not value

    @pytest.mark.parametrize("drop", [
        ["a"], ["e"], ["c"], ["a", "b"], ["b", "d"], ["a", "c", "e"],
        ["e", "a", "zz"], ["a", "b", "c", "d", "e"],
    ])
    def test_without_keys_splices_like_a_rebuild(self, drop):
        entries = [
            ("a", 1, "va"), ("b", 2, TOMBSTONE), ("c", 3, ("long", "value", 3)),
            ("d", 4, ""), ("e", 5, "ve"),
        ]
        run = self._run(entries)
        out, dropped, tombstones = run.without_keys(drop)
        kept = [e for e in entries if e[0] not in drop]
        rebuilt = self._run(kept) if kept else SSTable([], 70, 0)
        assert dropped == sorted(set(drop) & set("abcde"))
        assert tombstones == ("b" in drop)
        assert list(out.entries()) == kept
        assert out.packed_block == rebuilt.packed_block
        assert list(out.entries_encoded()) == list(rebuilt.entries_encoded())
        assert out.table_id != run.table_id and out.created_at == run.created_at
        for key, seqno, value in kept:
            assert out.might_contain(key)  # carried filter: no false negatives
            assert out.get(key) == (seqno, value)
        assert all(out.get(key) is None for key in drop)
        assert list(run.entries()) == entries  # the source run is immutable

    def test_without_keys_returns_self_when_it_holds_none(self):
        run = self._run()
        assert run.without_keys(["zz", "0"]) == (run, [], 0)

    def test_without_keys_repeated_key_spares_its_neighbour(self):
        # Regression: a key named twice put its index in the drop list
        # twice, and the second ``del`` took the live neighbour with it.
        out, dropped, tombstones = self._run().without_keys(["b", "b"])
        assert (dropped, tombstones) == (["b"], 1)
        assert list(out.entries()) == [("a", 1, "va"), ("c", 3, "vc")]

    def test_without_keys_builds_no_per_entry_objects(self):
        # The splice is the sequential rewrite the cost model charges:
        # slices and typed arrays, nothing allocated per surviving entry.
        # Dropping the *first* key shifts every boundary (the worst case);
        # a tuple-per-entry index retains ~3 blocks per survivor here.
        n = 4096
        run = SSTable([(i, i, ("value", i)) for i in range(n)])
        gc.collect()
        gc.disable()
        try:
            before = sys.getallocatedblocks()
            out = run.without_keys([0])[0]
            retained = sys.getallocatedblocks() - before
        finally:
            gc.enable()
        assert len(out) == n - 1 and out.get(n - 1) == (n - 1, ("value", n - 1))
        assert retained < n // 8

    @pytest.mark.parametrize("drop", [
        [0], [2048], [4095], list(range(1000, 1040)),
        [7, 300, 301, 2222, 4000, 4095],
    ], ids=["first", "middle", "last", "adjacent-run", "scattered"])
    def test_without_keys_index_matches_a_rebuild_on_a_big_run(self, drop):
        # A block past 64 KiB puts boundaries above 2**16, so the shifted
        # lanes form big ints many digits long on every gap.
        n = 4096
        run = SSTable([(i, n - i, ("value", i, "x" * 20)) for i in range(n)])
        assert run.block_bytes > 64 * 1024
        out = run.without_keys(drop)[0]
        survivors = [e for e in run.entries_encoded() if e[0] not in drop]
        ref = SSTable.from_encoded(survivors, created_at=0)
        assert out._starts.tobytes() == ref._starts.tobytes()
        assert out._seqnos == ref._seqnos
        assert out.packed_block == ref.packed_block


class TestLSMEngineBasics:
    def test_put_get_roundtrip(self):
        eng, _ = make_engine()
        eng.put("k", "v")
        assert eng.get("k") == "v"
        assert eng.get("missing") is None

    def test_delete_hides_value(self):
        eng, _ = make_engine()
        eng.put("k", "v")
        eng.delete("k")
        assert eng.get("k") is None

    def test_flush_on_capacity(self):
        eng, _ = make_engine(memtable_capacity=4)
        for i in range(4):
            eng.put(f"k{i}", i)
        assert eng.flush_count == 1
        assert eng.run_count == 1
        assert eng.get("k2") == 2

    def test_delete_only_workload_flushes_on_capacity(self):
        """Regression: tombstone writes must honour the memtable capacity
        bound exactly like puts — a delete-heavy workload used to overrun
        the buffer because only the put path checked ``is_full``."""
        eng, _ = make_engine(memtable_capacity=4, tier_threshold=10)
        for i in range(64):
            eng.delete(f"k{i}")
            assert len(eng._memtable) < 4 or eng.flush_count > 0
            assert len(eng._memtable) <= 4
        assert eng.flush_count == 16

    def test_mixed_put_delete_workload_bounds_memtable(self):
        eng, _ = make_engine(memtable_capacity=4, tier_threshold=10)
        for i in range(32):
            eng.put(f"p{i}", i)
            eng.delete(f"p{i}")
            assert len(eng._memtable) <= 4

    def test_put_many_and_delete_many_batch_paths(self):
        eng, _ = make_engine(memtable_capacity=4, tier_threshold=10)
        assert eng.put_many((f"k{i}", i) for i in range(10)) == 10
        assert eng.get("k7") == 7
        assert eng.delete_many(f"k{i}" for i in range(10)) == 10
        assert eng.get("k7") is None
        assert len(eng._memtable) <= 4

    def test_get_across_runs_prefers_newest(self):
        eng, _ = make_engine(memtable_capacity=2, tier_threshold=10)
        eng.put("k", "old")
        eng.put("x1", 1)  # flush 1
        eng.put("k", "new")
        eng.put("x2", 2)  # flush 2
        assert eng.get("k") == "new"

    def test_range_merges_and_skips_tombstones(self):
        eng, _ = make_engine(memtable_capacity=4, tier_threshold=10)
        for i in range(8):
            eng.put(f"k{i}", i)
        eng.delete("k3")
        got = eng.range("k0", "k9")
        assert ("k3", 3) not in got
        assert ("k5", 5) in got
        assert got == sorted(got)

    def test_flush_empty_memtable_is_noop(self):
        eng, _ = make_engine()
        assert eng.flush() is None

    def test_invalid_tier_threshold(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            LSMEngine(CostModel(clock), tier_threshold=1)


class TestCompaction:
    def test_tiered_compaction_bounds_run_count(self):
        eng, _ = make_engine(memtable_capacity=4, tier_threshold=3)
        for i in range(100):
            eng.put(f"k{i:03d}", i)
        assert eng.run_count < 6
        assert eng.compaction_count >= 1
        for i in range(0, 100, 17):
            assert eng.get(f"k{i:03d}") == i

    def test_compaction_drops_overwritten_versions(self):
        eng, _ = make_engine(memtable_capacity=2, tier_threshold=2)
        for round_ in range(6):
            eng.put("hot", round_)
            eng.put(f"filler{round_}", round_)
        assert eng.get("hot") == 5

    def test_tombstone_survives_intermediate_compaction(self):
        """A tombstone must not be dropped while older runs hold the value."""
        eng, _ = make_engine(memtable_capacity=2, tier_threshold=10)
        eng.put("k", "v")
        eng.put("a1", 1)  # run with the value (oldest)
        eng.delete("k")
        eng.put("a2", 2)  # run with tombstone
        # compact only the two newest runs: output is NOT the oldest run
        eng._compact(list(eng.runs())[:1])
        assert eng.get("k") is None  # still deleted

    def test_full_compaction_purges_tombstones(self):
        eng, _ = make_engine(memtable_capacity=2, tier_threshold=10)
        eng.put("k", "v")
        eng.put("a1", 1)
        eng.delete("k")
        eng.put("a2", 2)
        assert eng.tombstone_count >= 1
        eng.full_compaction()
        assert eng.tombstone_count == 0
        assert eng.run_count == 1
        assert eng.get("k") is None


class TestRetention:
    def test_deleted_value_physically_retained_until_compaction(self):
        """The §1 hazard: tombstoned data recoverable from older runs."""
        eng, _ = make_engine(memtable_capacity=2, tier_threshold=10)
        eng.put("pii", "sensitive")
        eng.put("f1", 1)  # flush the value into a run
        eng.delete("pii")
        eng.put("f2", 2)  # flush the tombstone
        assert eng.get("pii") is None          # logically gone
        assert eng.physically_present("pii")   # physically retained!
        assert len(eng.unpurged_deletions()) == 1
        eng.full_compaction()
        assert not eng.physically_present("pii")
        assert eng.unpurged_deletions() == []

    def test_retention_window_measured(self):
        eng, clock = make_engine(memtable_capacity=2, tier_threshold=10)
        eng.put("pii", "x")
        eng.put("f1", 1)
        eng.delete("pii")
        eng.put("f2", 2)
        clock.charge(10_000)  # time passes with the value still on disk
        eng.full_compaction()
        record = eng.retention_records()[0]
        assert record.purged_at is not None
        assert record.window >= 10_000

    def test_reinsert_cancels_retention_question(self):
        eng, _ = make_engine(memtable_capacity=100)
        eng.put("k", "v1")
        eng.delete("k")
        eng.put("k", "v2")
        assert eng.retention_records() == []
        assert eng.get("k") == "v2"

    def test_delete_never_flushed_purges_at_flush(self):
        eng, _ = make_engine(memtable_capacity=100)
        eng.put("k", "v")
        eng.delete("k")   # both still in memtable
        eng.flush()       # value never hits a run without its tombstone...
        # the tombstone shadows within the same run: value was overwritten
        assert not eng.physically_present("k")


class TestVictimCompaction:
    """The "delete" grounding: drop the deleted keys' entries from the
    memtable and from exactly the runs holding one."""

    @staticmethod
    def three_sites():
        eng, clock = make_engine(memtable_capacity=2, tier_threshold=10)
        eng.put("pii", "v1")
        eng.put("f1", 1)   # run A: pii=v1, f1
        eng.put("pii", "v2")
        eng.put("f2", 2)   # run B: pii=v2, f2
        eng.put("f3", 3)
        eng.put("f4", 4)   # run C: never holds pii
        eng.delete("pii")  # tombstone stays in the memtable
        return eng, clock

    def test_drops_every_version_and_the_tombstone(self):
        eng, clock = self.three_sites()
        untouched = [r.table_id for r in eng.runs() if r.get_encoded("pii") is None]
        before = clock.now
        assert eng.victim_compaction() == 3
        spent = clock.now - before
        assert eng.copy_sites("pii") == [] and eng.tombstone_count == 0
        assert all(r.get_encoded("pii") is None for r in eng.runs())
        assert [r.table_id for r in eng.runs() if r.table_id in untouched] == untouched
        assert eng.run_count == 3 and eng.get("f1") == 1 and eng.get("f2") == 2
        # Simulated cost: the two rewritten 2-entry runs + one memtable op.
        book = CostBook()
        assert spent == 4 * book.compaction_per_entry + book.memtable_op
        assert eng.victim_compaction() == 0  # nothing left to reclaim

    def test_one_event_per_site_names_the_victim(self):
        eng, _ = self.three_sites()
        seen = []
        eng.add_compaction_listener(seen.append)
        eng.victim_compaction()
        assert [e.reason.split("(")[1][:3] for e in seen] == ["mem", "sst", "sst"]
        assert all(e.dropped_keys == ("pii",) for e in seen)
        assert [e.tombstones_dropped for e in seen] == [1, 0, 0]
        assert [e.input_entries - e.output_entries for e in seen] == [1, 1, 1]

    def test_retention_record_purged_and_out_of_the_loop(self):
        eng, clock = self.three_sites()
        clock.charge(5_000)
        eng.victim_compaction()
        (record,) = eng.retention_records()
        assert record.window >= 5_000 and eng.unpurged_deletions() == []
        assert not eng._unreclaimed  # later flushes and merges skip it

    def test_emptied_table_leaves_its_level(self):
        eng, _ = make_engine(memtable_capacity=2, tier_threshold=10)
        eng.put("a", 1)
        eng.put("b", 2)  # run 1 holds exactly the two victims
        eng.put("c", 3)
        eng.delete("a")  # run 2: c and a's tombstone
        eng.delete("b")  # b's tombstone stays buffered
        assert eng.run_count == 2
        assert eng.victim_compaction() == 4
        assert eng.run_count == 1 and [len(run) for run in eng.runs()] == [1]
        assert eng.get("c") == 3 and eng.get("a") is None and eng.get("b") is None

    def test_leaves_other_keys_garbage_and_the_backlog_alone(self):
        eng, _ = make_engine(
            memtable_capacity=2, compaction="leveled", compaction_mode="deferred"
        )
        for i in range(12):
            eng.put(f"k{i % 4}", i)  # six queued runs of update-shadowed versions
        eng.delete("k0")
        queued = eng.scheduler.queue_depth
        entries = sum(len(r) for r in eng.runs())
        k0_entries = sum(r.get_encoded("k0") is not None for r in eng.runs())
        assert eng.scheduler.pending and queued > 0 and k0_entries == 3
        eng.victim_compaction()
        assert eng.scheduler.pending and eng.scheduler.queue_depth == queued
        assert sum(len(r) for r in eng.runs()) == entries - k0_entries
        eng.run_pending_compactions()
        assert eng.get("k0") is None and eng.copy_sites("k0") == []
        assert [eng.get(f"k{i}") for i in (1, 2, 3)] == [9, 10, 11]


class TestCosts:
    def test_reads_cost_grows_with_runs(self):
        """Read amplification: more runs -> more probes for missing keys."""
        few, clock_few = make_engine(memtable_capacity=4, tier_threshold=100)
        many, clock_many = make_engine(memtable_capacity=4, tier_threshold=100)
        for i in range(8):
            few.put(f"k{i}", i)
        for i in range(64):
            many.put(f"k{i}", i)
        w1 = clock_few.stopwatch()
        for i in range(8):
            few.get(f"k{i}")
        cost_few = w1.stop()
        w2 = clock_many.stopwatch()
        for i in range(8):
            many.get(f"k{i}")
        cost_many = w2.stop()
        assert cost_many > cost_few

    def test_delete_is_cheap(self):
        eng, clock = make_engine(memtable_capacity=1_000)
        eng.put("k", "v")
        before = clock.now
        eng.delete("k")
        assert clock.now - before == CostBook().memtable_op
