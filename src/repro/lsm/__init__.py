"""An LSM-tree storage substrate (Cassandra-style tombstone deletes).

The paper's §1 motivation: logical deletes via tombstones are fast, but the
deleted value is *physically retained* until compaction merges it away —
prior work (Lethe, [62]) showed this can illegally retain data for a long
time.  This package implements a memtable + SSTable engine with pluggable
compaction (size-tiered or leveled, :mod:`repro.lsm.compaction`) that
measures exactly that retention window, and supplies the "Tombstones
(Indexing)" series of Figure 4(a).
"""

from repro.lsm.bloom import BloomFilter, BloomHashCache
from repro.lsm.compaction import (
    COMPACTION_POLICIES,
    CompactionEvent,
    CompactionPolicy,
    CompactionTask,
    LeveledPolicy,
    SizeTieredPolicy,
    make_compaction_policy,
)
from repro.lsm.engine import LSMEngine, RetentionRecord
from repro.lsm.memtable import TOMBSTONE, Memtable
from repro.lsm.sstable import SSTable

__all__ = [
    "BloomFilter",
    "BloomHashCache",
    "COMPACTION_POLICIES",
    "CompactionEvent",
    "CompactionPolicy",
    "CompactionTask",
    "LeveledPolicy",
    "SizeTieredPolicy",
    "make_compaction_policy",
    "Memtable",
    "TOMBSTONE",
    "SSTable",
    "LSMEngine",
    "RetentionRecord",
]
