"""Anti-entropy — hash-range digests that heal replica divergence
*proactively*, instead of waiting for a quorum read to trip over it.

Read repair (PR 5) is reactive: divergence is only found when a
``consistency="quorum"|"all"`` read happens to observe it, which means a
key nobody reads consistently can stay diverged forever — and a replica
that silently lost or gained state (a fault, a bug, a partial apply)
diverges in a way ``applied_seqno`` comparison alone cannot see, because
seqno says what the replica *claims* to have applied, not what its heap
actually holds.

The sweep closes both gaps with a Merkle-style summary, one level deep:

1. cut the 64-bit keyspace ring into ``n_ranges`` equal arcs
   (:func:`repro.distributed.ring.hash_range_of` — the same
   ``stable_hash`` the router uses, so an arc is contiguous keyspace);
2. per node, fold every live ``(key, value)`` pair into its arc's digest
   — an XOR of ``blake2b(encode_stable(key) + encode_stable(value))``
   words, order-independent so no sort pass is needed and equal content
   always produces equal digests (:func:`repro.codec.encode_stable` is
   the canonical value encoding the Bloom path already relies on);
3. compare each live replica's digest vector against the primary's and
   queue one :class:`RangeRepair` marker per divergent arc **through the
   existing read-repair queue** — the sweep never mutates anything
   itself.  :meth:`ReplicatedStore.flush_repairs` drains the markers like
   any other repair: the replica first force-applies its (scrubbed)
   backlog, then the arc is re-synced directly from the primary's live
   state, and a :class:`~repro.distributed.store.RepairEvent` is emitted
   (key ``antientropy:range-i/n``) so the facade records a ``REPAIR``
   audit action.

Erasure safety is inherited, not re-argued: backlog replay applies
scrubbed PUT/UPDATE entries as no-ops, and the direct re-sync copies only
values *live on the primary right now* — a grounded-erased value is live
nowhere, so neither step can resurrect it.

Down replicas are skipped (a killed node has no heap to digest; its
revival bootstrap is the catch-up path), and partitioned shards are
skipped entirely (anti-entropy is network traffic too).  The sweep is
driven from two places: ``ReplicatedStore.anti_entropy_sweep()`` and
``RebalanceDriver(..., antientropy=...)`` steps.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, List

from repro import codec
from repro.distributed.ring import hash_range_of

#: Default number of keyspace arcs a sweep digests per node.
DEFAULT_RANGES = 16


def pair_digest(key: Any, value: Any) -> int:
    """One 64-bit word per live pair, over the canonical encodings of both
    key and value — value-stable across processes and backends."""
    blob = codec.encode_stable(key) + codec.encode_stable(value)
    return int.from_bytes(
        hashlib.blake2b(blob, digest_size=8).digest(), "big"
    )


def range_digests(backend: Any, n_ranges: int) -> List[int]:
    """Digest vector for one node: arc index → XOR-fold of its live pairs
    (0 = empty arc).  Uses the backend's bulk ``export_range`` scan, the
    same live-pairs surface migration exports stream through."""
    digests = [0] * n_ranges
    for key, value in backend.export_range(lambda _k: True):
        digests[hash_range_of(key, n_ranges)] ^= pair_digest(key, value)
    return digests


@dataclass(frozen=True)
class RangeRepair:
    """A divergent arc queued for re-sync — the *key* slot of the shared
    read-repair queue, so arc repairs dedup per (shard, arc) exactly like
    key repairs dedup per (shard, key)."""

    range_index: int
    n_ranges: int

    def __repr__(self) -> str:  # stable queue ordering (sorted by repr)
        return f"antientropy:range-{self.range_index}/{self.n_ranges}"


@dataclass(frozen=True)
class AntiEntropyReport:
    """What one sweep saw (queueing only — repairs run at the next flush)."""

    shards_scanned: int
    shards_skipped: int  # partitioned at sweep time
    replicas_compared: int
    replicas_skipped: int  # down at sweep time
    divergent_ranges: int
    repairs_queued: int
    n_ranges: int


class AntiEntropySweeper:
    """Periodic digest comparison over one store.

    Stateless between sweeps (digests are recomputed, never cached — a
    cache would be one more copy site to ground); hold one per driver or
    service and call :meth:`sweep` on whatever cadence the maintenance
    loop runs.
    """

    def __init__(self, store: Any, n_ranges: int = DEFAULT_RANGES) -> None:
        if n_ranges < 1:
            raise ValueError("n_ranges must be >= 1")
        self._store = store
        self.n_ranges = n_ranges
        self.sweeps = 0
        self.divergent_ranges = 0
        self.repairs_queued = 0

    def sweep(self) -> AntiEntropyReport:
        """Compare every live replica against its primary, arc by arc, and
        queue a :class:`RangeRepair` per divergent arc."""
        store = self._store
        injector = getattr(store, "_fault_injector", None)
        scanned = skipped_shards = 0
        compared = skipped_replicas = 0
        divergent = queued = 0
        for shard in store.shards():
            if injector is not None and injector.is_partitioned(shard.index):
                skipped_shards += 1
                continue
            scanned += 1
            replicas = list(shard.replicas)
            live = [r for r in replicas if not r.down]
            skipped_replicas += len(replicas) - len(live)
            if not live:
                continue
            # Let each replica apply whatever backlog is already *ready*
            # (the same lazy catch-up a pinned read performs) so ordinary
            # in-lag shipping does not read as divergence.
            for node in live:
                shard._apply_backlog(node)
            primary = range_digests(shard.primary.backend, self.n_ranges)
            target = shard._seqno
            diverged_arcs: set = set()
            for node in live:
                compared += 1
                theirs = range_digests(node.backend, self.n_ranges)
                for arc, (mine, got) in enumerate(zip(primary, theirs)):
                    if mine != got:
                        diverged_arcs.add(arc)
            for arc in sorted(diverged_arcs):
                divergent += 1
                # Through the shared read-repair queue: dedup per
                # (shard, arc), drained by the next flush_repairs().
                store._queue_repair(
                    shard.index, RangeRepair(arc, self.n_ranges), target
                )
                queued += 1
        self.sweeps += 1
        self.divergent_ranges += divergent
        self.repairs_queued += queued
        return AntiEntropyReport(
            shards_scanned=scanned,
            shards_skipped=skipped_shards,
            replicas_compared=compared,
            replicas_skipped=skipped_replicas,
            divergent_ranges=divergent,
            repairs_queued=queued,
            n_ranges=self.n_ranges,
        )


__all__ = [
    "AntiEntropyReport",
    "AntiEntropySweeper",
    "DEFAULT_RANGES",
    "RangeRepair",
    "pair_digest",
    "range_digests",
]
