"""Compaction policies and scheduling — the LSM engine's reclamation seam.

The paper grounds "delete" on an LSM store as *tombstone + compaction*: the
tombstone is the O(1) logical half, and compaction is the system-action that
makes shadowed values physically unrecoverable.  How compaction is organized
is therefore not an engine-internal detail — it decides *when* the physical
half of the grounding actually happens and how much write bandwidth it
costs.  This module makes that organization pluggable:

* :class:`SizeTieredPolicy` — the original behaviour: whenever
  ``tier_threshold`` runs accumulate, the oldest ``tier_threshold`` of them
  merge into one.  Cheap to trigger, but every merge re-reads the large
  accumulated run, so write amplification grows with data volume — the cost
  signature Figure 4(c) exposes at the 500k-record scale.
* :class:`LeveledPolicy` — RocksDB/LevelDB-style leveling: L0 collects
  flushed runs (overlap tolerated); when ``l0_trigger`` runs accumulate they
  merge with the overlapping L1 tables into L1; each level ``i ≥ 1`` holds
  non-overlapping tables and may hold ``level1_tables * fanout**(i-1)`` of
  them before one victim (the oldest) is pushed into level ``i+1``, merging
  only the tables it overlaps.  Merges touch a bounded slice of the tree, so
  bulk ingest rewrites far fewer bytes.

**Erasure-aware tombstone GC.**  A tombstone may only be garbage-collected
when nothing *older* could still hold a shadowed value for its key —
otherwise the deleted value would resurrect, an erasure-consistency bug, not
a performance one.  Both policies encode the engine-specific safety rule:

* size-tiered: drop tombstones only when the merge output becomes the
  oldest run (and no deeper level exists);
* leveled: drop tombstones only when the merge output lands in the bottom
  level (every deeper level is empty).  Non-overlapping levels guarantee no
  sibling table at the target level can hold the key, and the level
  invariant (versions only get older as you descend) guarantees nothing
  above needs the tombstone.

Every executed merge emits a :class:`CompactionEvent` carrying the keys
whose tombstones were dropped — the moment their "delete" grounding
physically completed.  The system layer subscribes to these events and
records them as grounded system-actions in the audit timeline (cf.
SPECIAL-K's auditable processing logs), so compaction is demonstrable, not
implicit.

:class:`CompactionScheduler` decides *when* planned work runs: ``"sync"``
drains the policy's plan immediately after every flush (the default, and
the original behaviour); ``"deferred"`` only queues it — the backend (or a
test) invokes :meth:`CompactionScheduler.drain` between operations.  The
deferred mode is what makes "erase issued mid-compaction" an observable,
testable state instead of an impossible interleaving.

**Throttling.**  ``drain(engine, max_bytes=…)`` bounds one maintenance
slice by merge *input* bytes: the drain always makes progress (at least
one merge when work is planned) but stops once the budget is spent,
leaving ``pending`` set so the next slice resumes.  Because the engine
re-plans after every merge, a slice boundary is always a structurally
consistent tree — tombstone-GC safety and per-SSTable copy sites hold at
every boundary, which is what lets the service maintenance thread
interleave bounded slices with live grounded erases.  The scheduler also
models *concurrent merges*: consecutive planned merges whose source and
target levels are disjoint form one "wave" (they could run in parallel on
real hardware); a level conflict starts the next wave.
``inflight_high_water`` records the widest wave observed.  When level 0
piles past ``l0_stall_threshold`` runs, a deferred-mode flush request
raises the *write-stall* signal (``stall_events``) and pays one bounded
inline slice — ingest backpressure, bounded by construction.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple, Union

from repro.lsm.sstable import SSTable

#: Level lists as the engine stores them: ``levels[0]`` newest-first and
#: overlap-tolerant; ``levels[i]`` for ``i >= 1`` sorted by key range,
#: non-overlapping (leveled policy only — size-tiered keeps everything flat
#: in level 0).
Levels = Sequence[Sequence[SSTable]]


@dataclass(frozen=True)
class CompactionTask:
    """One planned merge: which tables, where the output goes, and whether
    tombstones may be garbage-collected.

    ``sources`` pairs each participating level with the tables taken from
    it; ``max_output_entries`` caps the size of each output table (None =
    single unsplit output, the size-tiered shape).
    """

    sources: Tuple[Tuple[int, Tuple[SSTable, ...]], ...]
    target_level: int
    drop_tombstones: bool
    reason: str
    max_output_entries: Optional[int] = None

    @property
    def tables(self) -> Tuple[SSTable, ...]:
        return tuple(t for _level, ts in self.sources for t in ts)


@dataclass(frozen=True)
class CompactionEvent:
    """What one executed merge did — the auditable record.

    ``dropped_keys`` are the keys whose tombstones were garbage-collected (a
    victim compaction: whose entries this site gave up) — the instant their
    "delete" grounding completed here; each becomes an audit-timeline action.
    """

    policy: str
    reason: str
    target_level: int
    input_tables: int
    input_entries: int
    output_entries: int
    output_bytes: int
    tombstones_dropped: int
    dropped_keys: Tuple[Any, ...]
    timestamp: int


class CompactionPolicy(ABC):
    """The planning seam: inspect the level structure, propose one merge."""

    name = "abstract"

    #: Cap on entries per output table (None = one unsplit output run).
    max_output_entries: Optional[int] = None

    @abstractmethod
    def plan(self, levels: Levels) -> Optional[CompactionTask]:
        """The next merge to run, or None when the tree is in shape.  The
        engine re-plans after every executed task, so returning one task at
        a time is enough to express multi-step cascades."""

    def full_compaction_target(self, levels: Levels) -> int:
        """Where the everything-merge of a grounded erase should land."""
        return 0


def level0_tombstone_gc_safe(
    victims: Sequence[SSTable], levels: Levels
) -> bool:
    """Whether a level-0 merge of ``victims`` may GC tombstones: the merge
    output must become the oldest run and no deeper level may hold data —
    otherwise a dropped tombstone would resurrect a shadowed value.  The
    single safety predicate for every level-0-shaped merge (the size-tiered
    plan and the engine's legacy manual merge)."""
    level0 = levels[0] if levels else ()
    if not level0 or not victims:
        return False
    deeper = any(levels[i] for i in range(1, len(levels)))
    return victims[-1] is level0[-1] and not deeper


class SizeTieredPolicy(CompactionPolicy):
    """The original size-tiered scheme, verbatim: when ``tier_threshold``
    runs accumulate in level 0, the oldest ``tier_threshold`` merge into one
    run placed where they sat (recency order preserved)."""

    name = "size"

    def __init__(self, tier_threshold: int = 4) -> None:
        if tier_threshold < 2:
            raise ValueError("tier_threshold must be >= 2")
        self.tier_threshold = tier_threshold

    def plan(self, levels: Levels) -> Optional[CompactionTask]:
        level0 = levels[0] if levels else ()
        if len(level0) < self.tier_threshold:
            return None
        victims = tuple(level0[-self.tier_threshold:])
        return CompactionTask(
            sources=((0, victims),),
            target_level=0,
            drop_tombstones=level0_tombstone_gc_safe(victims, levels),
            reason=f"tier merge ({len(victims)} runs)",
        )


class LeveledPolicy(CompactionPolicy):
    """Leveled compaction: L0 overlap-tolerant, L1+ non-overlapping key
    ranges, level-targeted fan-out.

    ``l0_trigger`` flushed runs merge (with every overlapping L1 table)
    into L1; level ``i >= 1`` may hold ``level1_tables * fanout**(i-1)``
    tables of at most ``table_capacity`` entries each before its oldest
    table is pushed one level down, merging only the tables it overlaps.
    """

    name = "leveled"

    def __init__(
        self,
        l0_trigger: int = 4,
        fanout: int = 8,
        level1_tables: int = 4,
        table_capacity: int = 4096,
    ) -> None:
        if l0_trigger < 2:
            raise ValueError("l0_trigger must be >= 2")
        if fanout < 2:
            raise ValueError("fanout must be >= 2")
        if level1_tables < 1:
            raise ValueError("level1_tables must be >= 1")
        if table_capacity < 1:
            raise ValueError("table_capacity must be >= 1")
        self.l0_trigger = l0_trigger
        self.fanout = fanout
        self.level1_tables = level1_tables
        self.table_capacity = table_capacity
        self.max_output_entries = table_capacity

    def max_tables(self, level: int) -> int:
        """Table budget for level ``i >= 1``."""
        return self.level1_tables * self.fanout ** (level - 1)

    @staticmethod
    def _overlapping(
        tables: Sequence[SSTable], lo: Any, hi: Any
    ) -> Tuple[SSTable, ...]:
        return tuple(
            t
            for t in tables
            if not (t.max_key < lo or t.min_key > hi)
        )

    def plan(self, levels: Levels) -> Optional[CompactionTask]:
        level0 = levels[0] if levels else ()
        if len(level0) >= self.l0_trigger:
            lo = min(t.min_key for t in level0)
            hi = max(t.max_key for t in level0)
            level1 = levels[1] if len(levels) > 1 else ()
            overlap = self._overlapping(level1, lo, hi)
            sources: Tuple[Tuple[int, Tuple[SSTable, ...]], ...] = (
                (0, tuple(level0)),
            )
            if overlap:
                sources += ((1, overlap),)
            # Safe to GC tombstones iff the output lands in the bottom
            # level: every level below L1 must be empty.  Non-overlapping
            # siblings at L1 cannot hold the merged keys.
            drop = not any(levels[i] for i in range(2, len(levels)))
            return CompactionTask(
                sources=sources,
                target_level=1,
                drop_tombstones=drop,
                reason=f"L0→L1 ({len(level0)} runs, {len(overlap)} overlaps)",
                max_output_entries=self.table_capacity,
            )
        for i in range(1, len(levels)):
            if len(levels[i]) <= self.max_tables(i):
                continue
            victim = min(levels[i], key=lambda t: t.created_at)
            below = levels[i + 1] if i + 1 < len(levels) else ()
            overlap = self._overlapping(below, victim.min_key, victim.max_key)
            sources = ((i, (victim,)),)
            if overlap:
                sources += ((i + 1, overlap),)
            drop = not any(levels[j] for j in range(i + 2, len(levels)))
            return CompactionTask(
                sources=sources,
                target_level=i + 1,
                drop_tombstones=drop,
                reason=f"L{i}→L{i + 1} (1 victim, {len(overlap)} overlaps)",
                max_output_entries=self.table_capacity,
            )
        return None

    def full_compaction_target(self, levels: Levels) -> int:
        deepest = 0
        for i in range(1, len(levels)):
            if levels[i]:
                deepest = i
        return max(1, deepest)


@dataclass(frozen=True)
class CompactionStats:
    """One scheduler's merge/throttle counters, as a frozen snapshot."""

    merges_run: int
    bytes_compacted: int
    stall_events: int
    queue_depth: int
    inflight_high_water: int

    def __add__(self, other: "CompactionStats") -> "CompactionStats":
        return CompactionStats(
            merges_run=self.merges_run + other.merges_run,
            bytes_compacted=self.bytes_compacted + other.bytes_compacted,
            stall_events=self.stall_events + other.stall_events,
            queue_depth=self.queue_depth + other.queue_depth,
            inflight_high_water=max(
                self.inflight_high_water, other.inflight_high_water
            ),
        )


#: Identity element for summing :class:`CompactionStats` across engines.
EMPTY_COMPACTION_STATS = CompactionStats(0, 0, 0, 0, 0)


class CompactionScheduler:
    """Decides when the policy's planned merges actually run.

    ``"sync"`` drains the plan inside every flush (original behaviour);
    ``"deferred"`` only marks work pending — the owner invokes
    :meth:`drain` between operations, optionally with a ``max_bytes``
    budget (see the module docstring's throttling model).  Grounded erases
    (victim / full compaction) always run synchronously regardless of mode: the
    erase verb *is* the reclamation."""

    MODES = ("sync", "deferred")

    def __init__(
        self,
        mode: str = "sync",
        l0_stall_threshold: int = 12,
        stall_slice_bytes: int = 1 << 20,
    ) -> None:
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}")
        if l0_stall_threshold < 2:
            raise ValueError("l0_stall_threshold must be >= 2")
        if stall_slice_bytes < 1:
            raise ValueError("stall_slice_bytes must be positive")
        self.mode = mode
        self.l0_stall_threshold = l0_stall_threshold
        self.stall_slice_bytes = stall_slice_bytes
        self.pending = False
        self.tasks_run = 0
        # Throttle/concurrency accounting (see module docstring).
        self.merges_run = 0
        self.bytes_compacted = 0
        self.stall_events = 0
        self.deferred_requests = 0
        self.inflight_high_water = 0

    @property
    def queue_depth(self) -> int:
        """Flush-triggered requests queued since the last complete drain."""
        return self.deferred_requests

    def stats(self) -> CompactionStats:
        return CompactionStats(
            merges_run=self.merges_run,
            bytes_compacted=self.bytes_compacted,
            stall_events=self.stall_events,
            queue_depth=self.deferred_requests,
            inflight_high_water=self.inflight_high_water,
        )

    def request(self, engine: "LSMEngineProtocol") -> None:
        """A flush happened: run (sync) or queue (deferred) the plan.

        A deferred request finding level 0 past ``l0_stall_threshold``
        runs is a *write stall*: the writer pays one bounded inline slice
        (``stall_slice_bytes`` of merge input) so ingest cannot outrun
        maintenance without bound."""
        if self.mode == "sync":
            self.drain(engine)
            return
        self.pending = True
        self.deferred_requests += 1
        if len(engine.level_view()[0]) >= self.l0_stall_threshold:
            self.stall_events += 1
            self.drain(engine, max_bytes=self.stall_slice_bytes)

    def drain(
        self,
        engine: "LSMEngineProtocol",
        max_bytes: Optional[int] = None,
    ) -> int:
        """Execute planned merges until the policy is satisfied or the
        ``max_bytes`` input budget is spent; returns the number of tasks
        run.  A budgeted drain always runs at least one merge when work is
        planned, and leaves ``pending`` set when it stops early."""
        ran = 0
        spent = 0
        wave: set = set()
        while True:
            task = engine.compaction_policy.plan(engine.level_view())
            if task is None:
                self.pending = False
                self.deferred_requests = 0
                break
            levels_touched = {level for level, _tables in task.sources}
            levels_touched.add(task.target_level)
            if wave & levels_touched:
                # Level conflict: this merge must wait for the current
                # wave — start the next one.
                wave = set()
            wave |= levels_touched
            if len(wave) > self.inflight_high_water:
                self.inflight_high_water = len(wave)
            # Trivial moves (single input, no tombstone drop) rewrite
            # nothing — they are free against the slice budget, exactly as
            # they are free in the engine's write-amplification accounting.
            if len(task.tables) > 1 or task.drop_tombstones:
                spent += sum(t.size_bytes for t in task.tables)
            engine.execute_compaction(task)
            ran += 1
            if max_bytes is not None and spent >= max_bytes:
                # Budget exhausted mid-queue: pending stays set iff more
                # work remains, so the next slice resumes where we stopped.
                self.pending = (
                    engine.compaction_policy.plan(engine.level_view())
                    is not None
                )
                if not self.pending:
                    self.deferred_requests = 0
                break
        self.tasks_run += ran
        self.merges_run += ran
        self.bytes_compacted += spent
        return ran


class LSMEngineProtocol:  # pragma: no cover - typing aid only
    """The slice of :class:`~repro.lsm.engine.LSMEngine` the scheduler uses."""

    compaction_policy: CompactionPolicy

    def level_view(self) -> Levels: ...

    def execute_compaction(self, task: CompactionTask) -> None: ...


#: Policy spec → constructor name, the selection table the CLI exposes.
COMPACTION_POLICIES = ("size", "leveled")


def make_compaction_policy(
    spec: Union[str, CompactionPolicy],
    tier_threshold: int = 4,
    table_capacity: int = 4096,
) -> CompactionPolicy:
    """Build a policy from a CLI-style spec ("size" | "leveled") or pass an
    instance through.  ``tier_threshold`` parameterizes the size-tiered
    policy (and the leveled L0 trigger); ``table_capacity`` sizes leveled
    output tables (the memtable capacity is the natural choice)."""
    if isinstance(spec, CompactionPolicy):
        return spec
    if spec == "size":
        return SizeTieredPolicy(tier_threshold=tier_threshold)
    if spec == "leveled":
        return LeveledPolicy(
            l0_trigger=tier_threshold, table_capacity=table_capacity
        )
    raise ValueError(
        f"unknown compaction policy {spec!r}; choose from {COMPACTION_POLICIES}"
    )
