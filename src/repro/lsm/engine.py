"""The LSM engine — tombstone deletes and pluggable compaction.

Write path: memtable put (O(1)); a full memtable flushes into an immutable
SSTable.  Delete writes a tombstone — O(1), no physical removal.  Read path:
memtable, then runs newest→oldest, Bloom-filtered; each run actually probed
charges an I/O.

Compaction is delegated to a pluggable :class:`CompactionPolicy`
(:mod:`repro.lsm.compaction`):

* ``"size"`` — the size-tiered scheme: when ``tier_threshold`` runs of
  similar size accumulate, they merge into one.  Tombstones are only
  dropped when the merge output is the *oldest* run (nothing below could
  still hold shadowed values); otherwise dropping a tombstone would
  resurrect older versions.
* ``"leveled"`` — L0 collects flushed runs; L1+ hold non-overlapping
  tables with level-targeted fan-out.  Merges touch a bounded slice of the
  tree, cutting write amplification on bulk ingest; tombstones are GC'd
  only when the merge output lands in the bottom level.

The engine tracks write amplification (``bytes_flushed`` vs
``bytes_compacted``) so the bench harness can compare policies, and emits a
:class:`CompactionEvent` per merge — including the keys whose tombstones
were garbage-collected — which the system layer records as grounded
system-actions in the audit timeline.

Block cache: repeated point reads of the same key pay the run-probe I/O
only once — the search outcome is cached in a :class:`SharedBlockCache`
(private by default, injectable so several engines pool one capacity
budget) and served at tuple-CPU cost until a write to the key invalidates
it.  Cached real values are registered ``CopyLocation.CACHE`` sites
(:meth:`LSMEngine.cache_copy_sites`), so grounded erases see them.
Compaction preserves logical content (and tombstone GC only happens where
nothing older survives), so rewrites never invalidate cached outcomes.
Together with the Bloom short-circuit (runs whose filter rejects the key
are never probed, and a read whose key no filter accepts does zero run
I/O) this is what makes the read-heavy Figure-4 mixes viable on the LSM
backend; ``cache_hits`` / ``cache_misses`` / ``bloom_negatives`` expose
the effect to the bench harness.

Values move through the engine *encoded* (:mod:`repro.codec`): one encode
at ``put``, packed blocks at flush, blob-level compaction merges, and
encoded export/import for migration — pickle-per-value is gone from the
write path and the byte accounting is real buffer sizes.

Retention accounting (the §1 motivation): for every deleted key the engine
records when the tombstone was written and when the last physical copy of
the value disappeared from every run — the difference is the *physical
retention window*, the quantity [62] showed can violate "undue delay".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.core.locations import CopyLocation
from repro.lsm.bloom import BloomHashCache
from repro.lsm.cache import SharedBlockCache
from repro.lsm.compaction import (
    CompactionEvent,
    CompactionPolicy,
    CompactionScheduler,
    CompactionTask,
    level0_tombstone_gc_safe,
    make_compaction_policy,
)
from repro.lsm.memtable import TOMBSTONE, TOMBSTONE_BLOB, Memtable
from repro.lsm.sstable import SSTable
from repro.sim.costs import CostModel


@dataclass
class RetentionRecord:
    """Physical-retention bookkeeping for one deleted key."""

    key: Any
    deleted_at: int
    purged_at: Optional[int] = None

    @property
    def window(self) -> Optional[int]:
        """Microseconds the value remained on disk past its deletion."""
        if self.purged_at is None:
            return None
        return self.purged_at - self.deleted_at


class LSMEngine:
    """A single-level-namespace LSM tree with retention tracking."""

    def __init__(
        self,
        cost: CostModel,
        payload_bytes: int = 70,
        memtable_capacity: int = 4096,
        tier_threshold: int = 4,
        block_cache_capacity: int = 1024,
        compaction: Union[str, CompactionPolicy] = "size",
        compaction_mode: str = "sync",
        block_cache: Optional[SharedBlockCache] = None,
        namespace: str = "",
    ) -> None:
        if tier_threshold < 2:
            raise ValueError("tier_threshold must be >= 2")
        if block_cache_capacity < 0:
            raise ValueError("block_cache_capacity must be non-negative")
        self._cost = cost
        self._payload_bytes = payload_bytes
        self._memtable = Memtable(memtable_capacity)
        self.compaction_policy = make_compaction_policy(
            compaction,
            tier_threshold=tier_threshold,
            table_capacity=memtable_capacity,
        )
        self.scheduler = CompactionScheduler(compaction_mode)
        # levels[0]: newest-first, overlap-tolerant; levels[i >= 1]: sorted
        # by key range, non-overlapping (leveled policy only).
        self._levels: List[List[SSTable]] = [[]]
        self._seqno = 0
        self._retention: Dict[Any, RetentionRecord] = {}
        # Deleted keys no reclamation has reached yet: the records still to
        # watch for purging, and :meth:`victim_compaction`'s victim set.
        self._unreclaimed: Set[Any] = set()
        self.flush_count = 0
        self.compaction_count = 0
        # Write-amplification accounting: logical bytes/entries frozen out
        # of the memtable vs bytes/entries rewritten by compaction merges.
        self.entries_flushed = 0
        self.entries_compacted = 0
        self.bytes_flushed = 0
        self.bytes_compacted = 0
        #: Auditable record of every merge; listeners receive each event.
        self.compaction_events: List[CompactionEvent] = []
        self._compaction_listeners: List[Callable[[CompactionEvent], None]] = []
        # Block cache over run-search outcomes (key -> latest run value,
        # TOMBSTONE included; absent keys cache a None).  Writes to a key
        # invalidate its entry, so staleness is impossible: a key can only
        # reach the runs through the memtable, and the memtable is always
        # consulted first.  A shared cache may be injected so several
        # engines pool one capacity budget; otherwise the engine owns a
        # private one.  Cached real values are CopyLocation.CACHE sites
        # (see cache_copy_sites).
        self._block_cache = (
            block_cache
            if block_cache is not None
            else SharedBlockCache(block_cache_capacity)
        )
        self._cache_token = self._block_cache.register(namespace or "lsm")
        self._cache_capacity = self._block_cache.capacity
        self.cache_hits = 0
        self.cache_misses = 0
        self.bloom_negatives = 0
        # Base-hash memo shared by every flush, compaction rewrite, and
        # read probe this engine performs: a key is digested once, however
        # many times compaction rewrites the run holding it.
        self.hash_cache = BloomHashCache()
        #: Single-input merges satisfied by moving the table (and its
        #: Bloom filter) instead of rewriting it.
        self.trivial_moves = 0

    # ---------------------------------------------------------------- writes
    def put(self, key: Any, value: Any) -> None:
        self._seqno += 1
        self._cost.charge_memtable_op()
        self._memtable.put(key, value, self._seqno)
        self._block_cache.invalidate(self._cache_token, key)
        # A re-insert after deletion ends that key's retention question.
        self._retention.pop(key, None)
        self._unreclaimed.discard(key)
        if self._memtable.is_full:
            self.flush()

    def put_encoded(self, key: Any, blob: bytes) -> None:
        """Store an already-encoded value — the migration-import path:
        the blob from the source engine's export lands unchanged."""
        self._seqno += 1
        self._cost.charge_memtable_op()
        self._memtable.put_encoded(key, blob, self._seqno)
        self._block_cache.invalidate(self._cache_token, key)
        self._retention.pop(key, None)
        self._unreclaimed.discard(key)
        if self._memtable.is_full:
            self.flush()

    def delete(self, key: Any) -> None:
        """Logical delete: write a tombstone.  O(1), nothing is removed.

        Tombstones occupy memtable slots just like values, so the delete
        path honours the same capacity bound as :meth:`put` — a delete-only
        workload flushes instead of overrunning the buffer.
        """
        self._seqno += 1
        self._cost.charge_memtable_op()
        self._memtable.put_encoded(key, TOMBSTONE_BLOB, self._seqno)
        self._block_cache.invalidate(self._cache_token, key)
        self._retention[key] = RetentionRecord(key, self._now())
        self._unreclaimed.add(key)
        if self._memtable.is_full:
            self.flush()

    def put_many(self, items: Iterable[Tuple[Any, Any]]) -> int:
        """Bulk upsert; flush-on-full applies exactly as in :meth:`put`."""
        count = 0
        for key, value in items:
            self.put(key, value)
            count += 1
        return count

    def delete_many(self, keys: Iterable[Any]) -> int:
        """Bulk tombstone writes; flush-on-full applies as in :meth:`delete`."""
        count = 0
        for key in keys:
            self.delete(key)
            count += 1
        return count

    def flush(self) -> Optional[SSTable]:
        """Freeze the memtable into a new newest run."""
        if len(self._memtable) == 0:
            return None
        entries = self._memtable.sorted_entries_encoded()
        self._cost.charge_compaction(len(entries))
        run = SSTable.from_encoded(entries, self._now(), hash_cache=self.hash_cache)
        self._levels[0].insert(0, run)
        self._memtable.clear()
        self.flush_count += 1
        self.entries_flushed += len(entries)
        self.bytes_flushed += run.size_bytes
        self.scheduler.request(self)
        self._update_retention()
        return run

    # ----------------------------------------------------------------- reads
    def get(self, key: Any) -> Optional[Any]:
        """Latest value, or None if absent/deleted.

        Charges one memtable op plus — on a block-cache miss — one run
        probe per Bloom-passing run actually searched; read amplification
        grows with run count, which is the cost signature of the tombstone
        approach in Figure 4(a).  A cache hit serves the prior run-search
        outcome at tuple-CPU cost; Bloom filters short-circuit runs that
        cannot hold the key.
        """
        self._cost.charge_memtable_op()
        found = self._memtable.get(key)
        if found is not None:
            value = found[1]
            return None if value is TOMBSTONE else value
        return self._search_runs(key)

    def _candidate_runs(self, key: Any) -> Iterator[SSTable]:
        """Runs that could hold ``key``, in recency order: every L0 run
        newest-first, then at most one table per deeper level (levels 1+
        hold non-overlapping key ranges)."""
        yield from self._levels[0]
        for level in self._levels[1:]:
            for table in level:
                if table.min_key is None:
                    continue
                if table.min_key <= key <= table.max_key:
                    yield table
                    break

    def _search_runs(self, key: Any) -> Optional[Any]:
        """Recency-ordered run search behind the shared block cache."""
        hit, value = self._block_cache.get(self._cache_token, key)
        if hit:
            self._cost.charge_tuple_cpu()
            self.cache_hits += 1
            return None if value is TOMBSTONE else value
        self.cache_misses += 1
        outcome: Optional[Any] = None
        probed = False
        # One digest per read, however many runs get probed.
        pair = self.hash_cache.pair(key)
        for run in self._candidate_runs(key):
            if not run.might_contain_pair(pair):
                self.bloom_negatives += 1
                continue
            probed = True
            self._cost.charge_sstable_probe()
            got = run.get(key)
            if got is not None:
                outcome = got[1]
                break
        if self._cache_capacity and (probed or self.run_count):
            self._block_cache.put(self._cache_token, key, outcome)
        return None if outcome is TOMBSTONE else outcome

    def range(self, lo: Any, hi: Any) -> List[Tuple[Any, Any]]:
        """Merged live entries with ``lo ≤ key ≤ hi``."""
        self._cost.charge_memtable_op()
        best: Dict[Any, Tuple[int, Any]] = {}
        for key, (seqno, value) in self._memtable.items():
            if lo <= key <= hi:
                best[key] = (seqno, value)
        for run in self._levels[0]:
            self._cost.charge_sstable_probe()
            for key, seqno, value in run.range(lo, hi):
                if key not in best or seqno > best[key][0]:
                    best[key] = (seqno, value)
        for level in self._levels[1:]:
            for table in level:
                if table.min_key is None or table.max_key < lo or table.min_key > hi:
                    continue
                self._cost.charge_sstable_probe()
                for key, seqno, value in table.range(lo, hi):
                    if key not in best or seqno > best[key][0]:
                        best[key] = (seqno, value)
        return sorted(
            (k, v) for k, (_s, v) in best.items() if v is not TOMBSTONE
        )

    # ------------------------------------------------------------- compaction
    def level_view(self) -> List[List[SSTable]]:
        """The level structure, as the policies inspect it."""
        return self._levels

    @property
    def level_count(self) -> int:
        """Levels currently holding at least one table."""
        return sum(1 for level in self._levels if level)

    @property
    def compaction_pending(self) -> bool:
        """Whether the policy would do work if the scheduler drained now."""
        return self.compaction_policy.plan(self._levels) is not None

    def run_pending_compactions(self, max_bytes: Optional[int] = None) -> int:
        """Drain the scheduler's queue (a no-op when nothing is planned) —
        the between-operations entry point of the deferred mode.  With
        ``max_bytes`` the drain stops after the merge that exhausts the
        input-byte budget (always running at least one merge when work is
        planned), leaving the rest for the next maintenance slice."""
        return self.scheduler.drain(self, max_bytes=max_bytes)

    @property
    def write_stalled(self) -> bool:
        """Whether L0 has piled past the scheduler's stall threshold —
        the backpressure signal a deferred-mode engine raises when flushes
        outrun maintenance slices."""
        return len(self._levels[0]) >= self.scheduler.l0_stall_threshold

    def add_compaction_listener(
        self, listener: Callable[[CompactionEvent], None]
    ) -> None:
        """Subscribe to merge events (the system layer's audit hook)."""
        self._compaction_listeners.append(listener)

    def execute_compaction(self, task: CompactionTask) -> List[SSTable]:
        """Run one planned merge: read the source tables, keep the newest
        version per key, GC tombstones if the task says it is safe, write
        the output table(s) to the target level, and emit the event.

        A single-input task with no tombstone-drop obligation is a
        *trivial move*: the table object — Bloom filter included — relocates
        to the target level without a rewrite.  No bytes are re-written, so
        neither ``entries_compacted`` nor ``bytes_compacted`` grows; the
        move still emits its :class:`CompactionEvent` so the audit timeline
        sees every structural change."""
        victims = list(task.tables)
        if len(victims) == 1 and not task.drop_tombstones:
            table = victims[0]
            self._place_output(task, victims, victims)
            self.compaction_count += 1
            self.trivial_moves += 1
            self._emit_compaction(
                f"{task.reason} [trivial move]", task.target_level,
                1, len(table), len(table), table.size_bytes,
            )
            return victims
        # The merge moves raw encoded blobs between runs — values are
        # never decoded or re-encoded; tombstones are one-byte blobs
        # recognized by equality.
        best: Dict[Any, Tuple[int, bytes]] = {}
        total = 0
        for run in victims:
            for key, seqno, blob in run.entries_encoded():
                total += 1
                if key not in best or seqno > best[key][0]:
                    best[key] = (seqno, blob)
        self._cost.charge_compaction(total)
        dropped_keys: List[Any] = []
        merged: List[Tuple[Any, int, bytes]] = []
        for key, (seqno, blob) in sorted(best.items()):
            if task.drop_tombstones and blob == TOMBSTONE_BLOB:
                dropped_keys.append(key)
                continue
            merged.append((key, seqno, blob))
        cap = task.max_output_entries
        if cap:
            chunks = [merged[i:i + cap] for i in range(0, len(merged), cap)]
        else:
            chunks = [merged]
        outs = [
            SSTable.from_encoded(chunk, self._now(), hash_cache=self.hash_cache)
            for chunk in chunks
            if chunk
        ]
        self._place_output(task, victims, outs)
        self.compaction_count += 1
        self.entries_compacted += len(merged)
        self.bytes_compacted += sum(t.size_bytes for t in outs)
        self._update_retention()
        self._emit_compaction(
            task.reason, task.target_level, len(victims), total, len(merged),
            sum(t.size_bytes for t in outs), dropped_keys=dropped_keys,
            tombstones_dropped=len(dropped_keys),
        )
        return outs

    def _emit_compaction(
        self, reason: str, target_level: int, input_tables: int,
        input_entries: int, output_entries: int, output_bytes: int,
        dropped_keys: Iterable[Any] = (), tombstones_dropped: int = 0,
    ) -> None:
        """Record one rewrite and fan it out to the audit subscribers."""
        event = CompactionEvent(
            policy=self.compaction_policy.name,
            reason=reason,
            target_level=target_level,
            input_tables=input_tables,
            input_entries=input_entries,
            output_entries=output_entries,
            output_bytes=output_bytes,
            tombstones_dropped=tombstones_dropped,
            dropped_keys=tuple(dropped_keys),
            timestamp=self._now(),
        )
        self.compaction_events.append(event)
        for listener in self._compaction_listeners:
            listener(event)

    def _place_output(
        self,
        task: CompactionTask,
        victims: List[SSTable],
        outs: List[SSTable],
    ) -> None:
        """Remove the victims and insert the outputs at the target level."""
        if task.target_level == 0:
            # Size-tiered shape: the output takes the victims' position in
            # the recency-ordered run list.
            level0 = self._levels[0]
            first_pos = level0.index(victims[0])
            keep = [r for r in level0 if r not in victims]
            keep[first_pos:first_pos] = outs
            self._levels[0] = keep
            return
        while len(self._levels) <= task.target_level:
            self._levels.append([])
        victim_set = set(id(v) for v in victims)
        for i, level in enumerate(self._levels):
            self._levels[i] = [t for t in level if id(t) not in victim_set]
        target = self._levels[task.target_level]
        target.extend(outs)
        target.sort(key=lambda t: t.min_key)

    def _compact(self, victims: List[SSTable]) -> SSTable:
        """Merge a contiguous slice of the level-0 run list in place —
        retained for compatibility with the size-tiered unit tests."""
        drop = level0_tombstone_gc_safe(victims, self._levels)
        outs = self.execute_compaction(
            CompactionTask(
                sources=((0, tuple(victims)),),
                target_level=0,
                drop_tombstones=drop,
                reason=f"manual merge ({len(victims)} runs)",
            )
        )
        return outs[0] if outs else SSTable([], self._payload_bytes, self._now())

    def full_compaction(self) -> int:
        """Merge every run and drop all tombstones — the LSM grounding of
        "strong delete" (paired with a flush so the memtable empties).

        Always synchronous, whatever the scheduler mode: the grounded erase
        verb *is* the reclamation, and deferring it would leave the §1
        retention hazard open after the erase reported success.

        Returns the entries dropped — every shadowed value and tombstone
        the store held, whether the final merge removed it or a tier merge
        the flush triggered on the way.
        """
        held = len(self._memtable) + sum(len(run) for run in self.runs())
        self.flush()
        tables = [(i, tuple(level)) for i, level in enumerate(self._levels) if level]
        if not tables:
            return 0
        target = self.compaction_policy.full_compaction_target(self._levels)
        self.execute_compaction(
            CompactionTask(
                sources=tuple(tables),
                target_level=target,
                drop_tombstones=True,
                reason="full compaction (grounded erase)",
                max_output_entries=self.compaction_policy.max_output_entries,
            )
        )
        # The everything-merge leaves the tree in shape by construction;
        # clear any stale deferred request so no queued plan re-runs later.
        self.scheduler.pending = False
        self.scheduler.deferred_requests = 0
        self._unreclaimed.clear()
        return held - sum(len(run) for run in self.runs())

    def victim_compaction(self) -> int:
        """The LSM grounding of "delete": drop every entry — value *or*
        tombstone — of every deleted key no reclamation has reached yet, out
        of the memtable and out of exactly the tables holding one, rewritten
        in place (:meth:`SSTable.without_keys`).  Other tables keep their
        ``table_id``; other keys' shadowed versions wait for the policy.  A
        victim's tombstone may go because every older version goes with it.
        Synchronous; one event per site that held a victim; returns entries removed."""
        victims = sorted(self._unreclaimed)
        buffered = {
            key: blob
            for key in victims
            if (blob := self._memtable.drop(key)) is not None
        }
        if buffered:
            for _key in buffered:
                self._cost.charge_memtable_op()
            left = len(self._memtable)
            tombstones = sum(blob == TOMBSTONE_BLOB for blob in buffered.values())
            self._emit_compaction(
                "victim compaction (memtable)", 0, 0, left + len(buffered), left, 0,
                dropped_keys=buffered, tombstones_dropped=tombstones,
            )
        removed = len(buffered)
        for level_no, level in enumerate(self._levels):
            for pos, table in enumerate(level):
                out, keys, tombstones = table.without_keys(victims)
                if not keys:
                    continue
                self._cost.charge_compaction(len(table))
                level[pos] = out
                removed += len(keys)
                written = out.size_bytes if len(out) else 0
                self.compaction_count += 1
                self.entries_compacted += len(out)
                self.bytes_compacted += written
                self._emit_compaction(
                    f"victim compaction (sst-{table.table_id})", level_no, 1,
                    len(table), len(out), written,
                    dropped_keys=keys, tombstones_dropped=tombstones,
                )
            level[:] = [table for table in level if len(table)]
        self._update_retention()
        self._unreclaimed.clear()
        return removed

    # -------------------------------------------------------------- forensics
    def physically_present(self, key: Any) -> bool:
        """Whether any run still holds a real value for ``key`` — what a disk
        inspection would recover despite the tombstone."""
        found = self._memtable.get_encoded(key)
        if found is not None and found[1] != TOMBSTONE_BLOB:
            return True
        return any(run.physically_contains_value(key) for run in self.runs())

    def copy_sites(self, key: Any) -> List[str]:
        """Every physical site still holding a real value for ``key``: the
        memtable and each table, named by level.  The per-site companion of
        :meth:`physically_present` — pre-compaction copies keep their own
        entries until a rewrite removes their table."""
        sites: List[str] = []
        found = self._memtable.get_encoded(key)
        if found is not None and found[1] != TOMBSTONE_BLOB:
            sites.append("memtable")
        for level, table in self.tables_by_level():
            if table.physically_contains_value(key):
                sites.append(f"L{level}/sst-{table.table_id}")
        return sites

    def cache_copy_sites(self, key: Any) -> List[Tuple[CopyLocation, str]]:
        """The key's block-cache copy sites — ``[]`` or one
        ``CopyLocation.CACHE`` entry.  Separate from :meth:`copy_sites`
        (heap sites) because cache copies vanish on invalidation, not on
        rewrite."""
        return self._block_cache.copy_sites(self._cache_token, key)

    @property
    def block_cache(self) -> SharedBlockCache:
        """The (possibly shared) block cache this engine reads through."""
        return self._block_cache

    def _update_retention(self) -> None:
        now = self._now()
        for key in self._unreclaimed:
            record = self._retention[key]
            if record.purged_at is None and not self.physically_present(key):
                record.purged_at = now

    def retention_records(self) -> List[RetentionRecord]:
        return list(self._retention.values())

    def unpurged_deletions(self) -> List[RetentionRecord]:
        """Deleted keys whose values are still physically on disk."""
        return [
            r
            for r in self._retention.values()
            if r.purged_at is None and self.physically_present(r.key)
        ]

    # ------------------------------------------------------------- statistics
    @property
    def run_count(self) -> int:
        return sum(len(level) for level in self._levels)

    @property
    def tombstone_count(self) -> int:
        return self._memtable.tombstone_count() + sum(
            r.tombstone_count for r in self.runs()
        )

    @property
    def write_amplification(self) -> float:
        """Total bytes written to disk per logical byte flushed — the cost
        the compaction policy choice moves (Figure 4(c) scale)."""
        if not self.bytes_flushed:
            return 1.0
        return (self.bytes_flushed + self.bytes_compacted) / self.bytes_flushed

    def total_bytes(self) -> int:
        return sum(r.size_bytes for r in self.runs())

    def memtable_bytes(self) -> int:
        """Real encoded bytes buffered in the memtable."""
        return self._memtable.encoded_bytes

    def runs(self) -> Iterator[SSTable]:
        """Every table, recency order: L0 newest-first, then L1, L2, …"""
        for level in self._levels:
            yield from level

    def tables_by_level(self) -> Iterator[Tuple[int, SSTable]]:
        """``(level, table)`` pairs — the copy-location inventory."""
        for i, level in enumerate(self._levels):
            for table in level:
                yield i, table

    def memtable_entries(self) -> Iterator[Tuple[Any, Tuple[int, Any]]]:
        """``(key, (seqno, value))`` pairs currently buffered in memory."""
        return iter(self._memtable.items())

    def live_items(
        self, predicate: Optional[Callable[[Any], bool]] = None
    ) -> List[Tuple[Any, Any]]:
        """Newest live ``(key, value)`` pairs, memtable and every run
        merged (the bulk-export primitive behind shard migration).

        A full merge pays one probe per run — the predicate filters the
        *result*, not the scan: selecting a hash range still reads every
        physical site, exactly like a real LSM export.
        """
        self._cost.charge_memtable_op()
        best: Dict[Any, Tuple[int, Any]] = {}
        for key, (seqno, value) in self._memtable.items():
            if key not in best or seqno > best[key][0]:
                best[key] = (seqno, value)
        for run in self.runs():
            self._cost.charge_sstable_probe()
            for key, seqno, value in run.entries():
                if key not in best or seqno > best[key][0]:
                    best[key] = (seqno, value)
        return sorted(
            (
                (k, v)
                for k, (_s, v) in best.items()
                if v is not TOMBSTONE and (predicate is None or predicate(k))
            ),
            key=lambda kv: repr(kv[0]),
        )

    def live_items_encoded(
        self, predicate: Optional[Callable[[Any], bool]] = None
    ) -> List[Tuple[Any, bytes]]:
        """Newest live ``(key, blob)`` pairs without decoding — the
        encoded-export primitive: blobs stream to the destination engine
        and land via :meth:`put_encoded`, no decode/re-encode round-trip.
        Same scan shape and cost charging as :meth:`live_items`.
        """
        self._cost.charge_memtable_op()
        best: Dict[Any, Tuple[int, bytes]] = {}
        for key, (seqno, blob) in self._memtable.items_encoded():
            if key not in best or seqno > best[key][0]:
                best[key] = (seqno, blob)
        for run in self.runs():
            self._cost.charge_sstable_probe()
            for key, seqno, blob in run.entries_encoded():
                if key not in best or seqno > best[key][0]:
                    best[key] = (seqno, blob)
        return sorted(
            (
                (k, blob)
                for k, (_s, blob) in best.items()
                if blob != TOMBSTONE_BLOB
                and (predicate is None or predicate(k))
            ),
            key=lambda kv: repr(kv[0]),
        )

    def _now(self) -> int:
        return self._cost.clock.now
