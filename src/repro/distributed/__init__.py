"""Distributed substrate — replicas, caches, sharding, and erasure
propagation.

Paper §1: "If erasure means removing the data not just from the primary
location, but removing it completely (from all locations in disk and
memory), a technique will have to be built to track the copies and delete
all of them."  This package is that technique, plus the hazard it guards
against:

* :class:`~repro.distributed.store.ReplicatedStore` — consistent-hash
  shard groups (each a primary with N asynchronous replicas over a
  pluggable storage backend) with per-node read caches and
  ``consistency="one"|"quorum"|"all"`` reads;
* a copy tracker recording every location that ever held a data unit —
  including keys in flight between shards during an online rebalance
  (``CopyLocation.MIGRATION``);
* :meth:`~repro.distributed.store.ReplicatedStore.naive_delete` — deletes
  at the primary only, demonstrating lingering replica/cache copies;
* :meth:`~repro.distributed.store.ReplicatedStore.erase_all_copies` — the
  grounded distributed erase: delete + vacuum every node, invalidate every
  cache, scrub the logs, verify via the tracker — even mid-rebalance;
* :meth:`~repro.distributed.store.ReplicatedStore.begin_resize` — the one
  entry point for online topology and capacity changes (shard count and
  per-shard ring weights) whose every key move is grounded at the source
  and announced as a :class:`~repro.distributed.store.MoveEvent`;
* :class:`~repro.distributed.store.RebalanceDriver` — drives the same
  migration in bounded ``step(budget_keys=…)`` increments so live traffic
  interleaves with key movement;
* **read repair** — quorum/all reads that observe replica divergence queue
  an asynchronous re-sync (:meth:`~repro.distributed.store.ReplicatedStore.flush_repairs`),
  announced as :class:`~repro.distributed.store.RepairEvent` objects, never
  able to resurrect an erased value;
* **replica elasticity** —
  :meth:`~repro.distributed.store.ReplicatedStore.set_replicas` joins fresh
  replicas by scrubbed-log replay and grounds leaving replicas' copies
  before dropping them;
* **anti-entropy** (:mod:`repro.distributed.antientropy`) — periodic
  hash-range digest sweeps that heal replica divergence proactively,
  through the same repair queue, without waiting for a quorum read to
  trip over it;
* **fault injection** (:mod:`repro.distributed.faults`) — seeded
  kill/revive/partition/heal schedules the store's dispatch honors, so
  every guarantee above can be asserted on a degraded-but-serving
  topology.
"""

from repro.distributed.antientropy import (
    AntiEntropyReport,
    AntiEntropySweeper,
    RangeRepair,
)
from repro.distributed.faults import (
    FaultAction,
    FaultError,
    FaultInjector,
    FaultPlan,
    FaultReport,
    QuorumUnavailableError,
    ReplicaDownError,
    ShardUnavailableError,
)
from repro.distributed.ring import HashRing, hash_range_of, stable_hash
from repro.distributed.store import (
    CacheEntry,
    CopyLocation,
    DistributedEraseReport,
    MoveEvent,
    Rebalance,
    RebalanceDriver,
    RebalanceReport,
    RepairEvent,
    ReplicaChangeReport,
    ReplicatedStore,
)

__all__ = [
    "ReplicatedStore",
    "CopyLocation",
    "CacheEntry",
    "DistributedEraseReport",
    "HashRing",
    "MoveEvent",
    "Rebalance",
    "RebalanceDriver",
    "RebalanceReport",
    "RepairEvent",
    "ReplicaChangeReport",
    "stable_hash",
    "hash_range_of",
    "AntiEntropyReport",
    "AntiEntropySweeper",
    "RangeRepair",
    "FaultAction",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FaultReport",
    "QuorumUnavailableError",
    "ReplicaDownError",
    "ShardUnavailableError",
]
