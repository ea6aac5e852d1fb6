"""Compaction policies — the LSM engine's reclamation seam.

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

Planned merges run inside the flush that makes them due: the engine
re-plans after every merge and executes until the policy returns None, so a
flush leaves the tree in shape.  Grounded erases (victim / full compaction)
are synchronous too — the erase verb *is* the reclamation.
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
    single safety predicate for every level-0-shaped merge."""
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
