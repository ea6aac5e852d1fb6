"""Compaction subsystem tests — policies, erasure-aware GC.

Covers the edge cases the leveled refactor makes reachable:

* erase issued between merges (a grounded erase lands after some of the
  merges that flushes run and before others);
* tombstone resurrection across levels (a tombstone must never be GC'd
  while a deeper level still holds a shadowed value);
* bloom-filter / block-cache behaviour across SSTable rewrites (rewritten
  tables get fresh filters; cached read outcomes stay correct).
"""

import pytest

from repro.config import BackendConfig
from repro.core.actions import ActionType
from repro.core.entities import controller, data_subject
from repro.core.policy import Policy, Purpose
from repro.lsm.cache import SharedBlockCache
from repro.lsm.compaction import (
    CompactionTask,
    LeveledPolicy,
    SizeTieredPolicy,
    level0_tombstone_gc_safe,
    make_compaction_policy,
)
from repro.lsm.engine import LSMEngine
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel
from repro.systems.backends import LsmBackend
from repro.systems.database import CompliantDatabase


def make_engine(**kwargs):
    clock = SimClock()
    cost = CostModel(clock, CostBook())
    kwargs.setdefault("memtable_capacity", 8)
    return LSMEngine(cost, **kwargs), clock


def make_cost():
    return CostModel(SimClock(), CostBook())


class TestPolicyConstruction:
    def test_make_policy_by_name(self):
        assert make_compaction_policy("size").name == "size"
        assert make_compaction_policy("leveled").name == "leveled"

    def test_make_policy_passthrough(self):
        policy = LeveledPolicy(fanout=4)
        assert make_compaction_policy(policy) is policy

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_compaction_policy("btree")

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SizeTieredPolicy(tier_threshold=1)
        with pytest.raises(ValueError):
            LeveledPolicy(l0_trigger=1)
        with pytest.raises(ValueError):
            LeveledPolicy(fanout=1)

    def test_engine_accepts_policy_instance(self):
        eng, _ = make_engine(compaction=LeveledPolicy(l0_trigger=2))
        assert eng.compaction_policy.name == "leveled"


class TestLeveledStructure:
    def test_levels_form_and_reads_stay_correct(self):
        eng, _ = make_engine(memtable_capacity=4, compaction="leveled")
        for i in range(200):
            eng.put(f"k{i:04d}", i)
        assert eng.level_count >= 2
        # L1+ tables must be non-overlapping within each level.
        levels = eng.level_view()
        for level in levels[1:]:
            ordered = sorted(level, key=lambda t: t.min_key)
            for left, right in zip(ordered, ordered[1:]):
                assert left.max_key < right.min_key
        for i in range(0, 200, 13):
            assert eng.get(f"k{i:04d}") == i
        assert eng.get("missing") is None

    def test_newest_version_wins_across_levels(self):
        eng, _ = make_engine(memtable_capacity=4, compaction="leveled")
        for i in range(100):
            eng.put(f"k{i:04d}", i)
        for i in range(0, 100, 3):
            eng.put(f"k{i:04d}", -i)
        eng.flush()
        for i in range(100):
            expected = -i if i % 3 == 0 else i
            assert eng.get(f"k{i:04d}") == expected

    def test_leveled_cuts_write_amplification(self):
        def ingest(policy):
            eng, _ = make_engine(memtable_capacity=64, compaction=policy)
            for i in range(4_000):
                eng.put(f"k{i:05d}", i)
            return eng.write_amplification

        assert ingest("leveled") < ingest("size")

    def test_leveled_write_amplification_bound_at_fig4c_shape(self):
        """24 000 rows through 1 024-entry memtables, a quarter rewritten,
        then a tenth erased: leveled write amplification stays <= 4.5 and
        <= 0.75x size-tiered's (measured 3.449 and 0.603), and the erase
        leaves nothing recoverable under either policy."""
        write_amp = {}
        for policy in ("size", "leveled"):
            backend = LsmBackend(make_cost(), memtable_capacity=1_024, compaction=policy)
            backend.insert_many((f"u{i:07d}", (i, "payload")) for i in range(24_000))
            for i in range(0, 24_000, 4):
                backend.update(f"u{i:07d}", (i, "rewritten"))
            write_amp[policy] = backend.engine.write_amplification
            victims = [f"u{i:07d}" for i in range(2_400)]
            backend.erase_many(victims)
            assert not any(backend.physically_present(v) for v in victims)
            assert not backend.engine.unpurged_deletions()
        assert 1.0 <= write_amp["leveled"] <= 4.5
        assert write_amp["leveled"] / write_amp["size"] <= 0.75

    def test_range_spans_levels(self):
        eng, _ = make_engine(memtable_capacity=4, compaction="leveled")
        for i in range(64):
            eng.put(f"k{i:03d}", i)
        eng.delete("k010")
        got = eng.range("k005", "k015")
        keys = [k for k, _v in got]
        assert "k010" not in keys
        assert keys == sorted(keys)
        assert ("k007", 7) in got


class TestEraseMidCompaction:
    """Erase between the merges that flushes run: a grounded erase lands
    after some merges and before others, and no later merge may bring the
    erased unit back."""

    def _leveled_engine(self):
        eng, _ = make_engine(memtable_capacity=2, compaction="leveled")
        for i in range(16):
            eng.put(f"k{i:02d}", i)
        return eng

    def test_flush_runs_planned_merges_before_returning(self):
        eng = self._leveled_engine()
        assert eng.compaction_count > 0
        assert eng.merges_run > 0
        assert eng.compaction_policy.plan(eng.level_view()) is None

    def test_later_merges_do_not_resurrect_a_full_compaction_erase(self):
        eng = self._leveled_engine()
        eng.delete("k03")
        eng.full_compaction()  # grounded erase: always synchronous
        assert not eng.physically_present("k03")
        assert eng.tombstone_count == 0
        merges = eng.merges_run
        for i in range(16, 32):
            eng.put(f"k{i:02d}", i)
        assert eng.merges_run > merges  # merges ran after the erase
        assert eng.get("k03") is None
        assert not eng.physically_present("k03")
        for i in range(32):
            if i != 3:
                assert eng.get(f"k{i:02d}") == i

    def test_merge_after_delete_keeps_the_key_deleted(self):
        """A tombstone flushed before a merge cascade stays authoritative:
        the key reads as deleted, and while a run still holds the value
        the deletion stays on the unpurged list."""
        eng = self._leveled_engine()
        eng.delete("k05")
        eng.flush()
        merges = eng.merges_run
        for i in range(16, 32):
            eng.put(f"k{i:02d}", i)
        assert eng.merges_run > merges
        assert eng.get("k05") is None
        if eng.physically_present("k05"):
            assert "k05" in {r.key for r in eng.unpurged_deletions()}


class TestTombstoneResurrection:
    def test_tombstone_not_dropped_above_shadowed_value(self):
        """A tombstone pushed L0→L1 while the value sits in L2 must survive
        the merge — dropping it would resurrect the deleted value."""
        eng, _ = make_engine(
            memtable_capacity=2,
            compaction=LeveledPolicy(l0_trigger=2, level1_tables=1, table_capacity=2),
        )
        # Drive enough churn that data reaches L2.
        for i in range(64):
            eng.put(f"k{i:03d}", i)
        levels = eng.level_view()
        assert eng.level_count >= 2
        # Pick a key whose only value copy sits below L1.
        victim = None
        for level_idx in range(2, len(levels)):
            for table in levels[level_idx]:
                for key, _seq, _val in table.entries():
                    if eng.physically_present(key):
                        victim = key
                        break
                if victim:
                    break
            if victim:
                break
        assert victim is not None, "churn never reached L2 — retune the test"
        eng.delete(victim)
        # Force the tombstone through L0→L1 merges without full compaction.
        for i in range(100, 108):
            eng.put(f"pad{i}", i)
        eng.flush()
        # Deleted stays deleted, even though the merge cascade ran.
        assert eng.get(victim) is None
        # The tombstone may only disappear once the shadowed copy is gone:
        # while any run still physically holds the value, some (newer) run
        # must still carry the tombstone entry for the key.
        from repro.lsm.memtable import TOMBSTONE

        if eng.physically_present(victim):
            tombstone_alive = any(
                key == victim and value is TOMBSTONE
                for run in eng.runs()
                for key, _seq, value in run.entries()
            )
            assert tombstone_alive, "tombstone GC'd above a shadowed value"

    def test_bottom_level_merge_gc_ends_retention(self):
        eng, _ = make_engine(memtable_capacity=2, compaction="leveled")
        eng.put("k", "v")
        eng.put("x1", 1)  # flush value
        eng.delete("k")
        eng.put("x2", 2)  # flush tombstone
        assert eng.physically_present("k")
        eng.full_compaction()
        assert not eng.physically_present("k")
        assert eng.tombstone_count == 0
        assert eng.retention_records()[0].purged_at is not None

    def test_size_tiered_intermediate_merge_keeps_tombstone(self):
        """The original safety property, now phrased through the policy."""
        eng, _ = make_engine(
            memtable_capacity=2, tier_threshold=10, compaction="size"
        )
        eng.put("k", "v")
        eng.put("a1", 1)  # oldest run holds the value
        eng.delete("k")
        eng.put("a2", 2)  # newest run holds the tombstone
        victims = tuple(eng.runs())[:1]  # a merge that is not the oldest
        eng.execute_compaction(CompactionTask(
            sources=((0, victims),), target_level=0,
            drop_tombstones=level0_tombstone_gc_safe(victims, eng.level_view()),
            reason="manual merge",
        ))
        assert eng.get("k") is None
        assert eng.physically_present("k")  # shadowed value still below


class TestCompactionEvents:
    def test_events_emitted_with_dropped_keys(self):
        eng, _ = make_engine(memtable_capacity=2, compaction="leveled")
        eng.put("k", "v")
        eng.put("x1", 1)
        eng.delete("k")
        eng.full_compaction()
        assert eng.compaction_events
        dropped = [k for e in eng.compaction_events for k in e.dropped_keys]
        assert "k" in dropped
        last = eng.compaction_events[-1]
        assert last.policy == "leveled"
        assert last.tombstones_dropped >= 1

    def test_listener_invoked(self):
        eng, _ = make_engine(memtable_capacity=2)
        seen = []
        eng.add_compaction_listener(seen.append)
        for i in range(16):
            eng.put(f"k{i}", i)
        eng.full_compaction()
        assert seen == eng.compaction_events

    def test_facade_records_compact_actions(self):
        """The audit timeline carries the grounded compaction record: each
        GC'd tombstone becomes a COMPACT action on its unit."""
        metaspace = controller("MetaSpace")
        user = data_subject("user-1")
        db = CompliantDatabase(
            metaspace,
            backend=BackendConfig(
                backend="lsm", compaction="leveled", memtable_capacity=16
            ),
        )
        window = (0, 10**12)
        for i in range(8):
            db.collect(
                f"u{i}",
                user,
                "app",
                {"i": i},
                [Policy(Purpose.SERVICE, metaspace, *window)],
                erase_deadline=10**12,
            )
        db.erase("u3")
        compact = db.history.last_of_type("u3", ActionType.COMPACT)
        assert compact is not None
        assert "tombstone GC" in compact.action.detail
        erase = db.history.last_of_type("u3", ActionType.ERASE)
        assert compact.timestamp >= erase.timestamp
        # The COMPACT record must not read as processing-after-erase (G17).
        report = db.check_compliance()
        assert not any(
            v.unit_id == "u3" and "post-dates" in v.message
            for verdict in report.verdicts
            for v in verdict.violations
        )

    def test_write_amplification_counters(self):
        eng, _ = make_engine(memtable_capacity=4)
        assert eng.write_amplification == 1.0  # nothing flushed yet
        for i in range(64):
            eng.put(f"k{i:02d}", i)
        assert eng.bytes_flushed > 0
        assert eng.write_amplification >= 1.0
        assert eng.entries_flushed == 64


class TestBloomAndCacheAfterRewrite:
    def test_rewritten_tables_rebuild_blooms(self):
        """Post-compaction tables answer might_contain correctly for keys
        merged in from several inputs — the filters are rebuilt, not
        carried over."""
        eng, _ = make_engine(memtable_capacity=4, compaction="leveled")
        for i in range(64):
            eng.put(f"k{i:03d}", i)
        assert eng.compaction_count > 0
        for run in eng.runs():
            for key, _s, _v in run.entries():
                assert run.might_contain(key)  # no false negatives

    def test_cached_outcomes_stay_correct_across_rewrite(self):
        eng, _ = make_engine(memtable_capacity=4, compaction="leveled")
        for i in range(32):
            eng.put(f"k{i:03d}", i)
        eng.flush()
        assert eng.get("k005") == 5  # populates the block cache
        hits_before = eng.cache_hits
        # Force a rewrite of everything underneath the cache.
        eng.full_compaction()
        assert eng.get("k005") == 5  # cache hit, still correct
        assert eng.cache_hits > hits_before

    def test_cache_invalidation_on_write_after_rewrite(self):
        eng, _ = make_engine(memtable_capacity=4, compaction="leveled")
        for i in range(32):
            eng.put(f"k{i:03d}", i)
        eng.flush()
        assert eng.get("k007") == 7
        eng.full_compaction()
        eng.put("k007", "fresh")  # must invalidate the cached outcome
        assert eng.get("k007") == "fresh"
        eng.delete("k007")
        assert eng.get("k007") is None

    def test_tombstone_gc_with_cached_tombstone_outcome(self):
        """A cached TOMBSTONE outcome must keep reading as 'absent' after
        the tombstone itself is GC'd by the bottom-level merge."""
        eng, _ = make_engine(memtable_capacity=2, compaction="leveled")
        eng.put("k", "v")
        eng.put("x1", 1)
        eng.delete("k")
        eng.put("x2", 2)  # tombstone flushed
        assert eng.get("k") is None  # caches the tombstone outcome
        eng.full_compaction()  # GC's the tombstone
        assert eng.get("k") is None  # still absent, cache or not

    def test_bloom_negative_rate_improves_after_leveling(self):
        """After merging into non-overlapping levels a point miss probes at
        most one table per level — the bloom/structure interplay the
        leveled read path relies on."""
        eng, _ = make_engine(memtable_capacity=4, compaction="leveled")
        for i in range(128):
            eng.put(f"k{i:04d}", i)
        eng._block_cache = SharedBlockCache(eng.block_cache.capacity)
        before = eng.cache_misses
        assert eng.get("absent-key") is None
        assert eng.cache_misses == before + 1
