"""Seeded fault injection — kill/revive replicas, partition/heal shards.

The paper's core claim is a property of a *running* system: "erase all
copies" has to hold while replicas crash, shards drop off the network, and
a rebalance is mid-flight.  This module is the harness that makes the
degraded topologies reproducible:

* a :class:`FaultPlan` is a deterministic, seeded schedule of fault
  transitions (``kill_replica`` / ``revive_replica`` / ``partition_shard``
  / ``heal``) keyed by operation index, replayed by
  :func:`repro.workloads.driver.run_interleaved` between workload ops;
* a :class:`FaultInjector` applies the transitions to a live
  :class:`~repro.distributed.store.ReplicatedStore`, whose ``_Shard``
  dispatch honors the resulting state — pinned reads to a down replica
  raise :class:`ReplicaDownError`, quorum reads that cannot assemble a
  majority of reachable nodes raise :class:`QuorumUnavailableError`, and
  every serving-path operation routed to a partitioned shard raises
  :class:`ShardUnavailableError`.

**The fault model.**  A *killed* replica is a crash-stop with storage
loss: the machine is gone, and its disk with it — ``copies_of`` stops
reporting the node because nothing physical remains.  *Revival*
provisions a fresh, empty replica under the same name which catches up by
replaying the shard's **scrubbed** replication log (the same bootstrap a
joining replica uses), so recovery can never resurrect an erased value:
the victim's PUT/UPDATE entries were redacted by the erase and replay as
no-ops, while its DELETEs still apply.  A *partitioned* shard keeps its
state but is unreachable from the router: serving-path operations fail
fast and nothing mutates until :meth:`FaultInjector.heal`.  Forensic
surfaces (``copies_of``, the invariant registry's independent scans)
deliberately bypass partitions — they model the compliance auditor's
global view, not a client's.

This is the *infrastructure* fault layer.  The compliance-misbehaviour
injection suite (``tests/integration/test_failure_injection.py``) is a
different animal: it corrupts the Figure-1 policy/consent/audit state and
asserts the right invariant *names* the violation.  Here nothing may trip
at all — the invariants must hold through every degraded topology.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Sequence, Set, Tuple

#: Fault transition kinds a plan may schedule.
FAULT_KINDS = ("kill_replica", "revive_replica", "partition_shard", "heal")


class FaultError(RuntimeError):
    """Base class for unavailability raised by injected faults."""


class ReplicaDownError(FaultError):
    """A read was pinned to a replica that is currently killed."""


class ShardUnavailableError(FaultError):
    """A serving-path operation routed to a partitioned shard."""


class QuorumUnavailableError(FaultError):
    """Too few reachable nodes to assemble the requested quorum."""


@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault transition.

    ``at_op`` is the workload-operation index the transition fires
    *before* (the driver applies every due action, in order, between
    ops).  ``replica`` is meaningful for the replica kinds only.
    """

    at_op: int
    kind: str
    shard: int
    replica: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if self.at_op < 0:
            raise ValueError("at_op must be non-negative")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of fault transitions, sorted by ``at_op``.

    Plans built by :meth:`seeded` are guaranteed *self-healing*: every
    kill has a matching revive and every partition a matching heal, both
    scheduled within the plan's horizon — so a run that applies the whole
    plan ends on a fully-reachable topology (the drain in
    ``run_interleaved`` additionally heals any leftovers defensively).
    """

    actions: Tuple[FaultAction, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.actions, key=lambda a: a.at_op))
        object.__setattr__(self, "actions", ordered)

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self) -> Iterator[FaultAction]:
        return iter(self.actions)

    def due(self, op_index: int, applied: int) -> List[FaultAction]:
        """Actions scheduled at or before ``op_index`` that have not been
        applied yet (``applied`` = how many the caller already took)."""
        out: List[FaultAction] = []
        for action in self.actions[applied:]:
            if action.at_op > op_index:
                break
            out.append(action)
        return out

    @property
    def kills(self) -> int:
        return sum(1 for a in self.actions if a.kind == "kill_replica")

    @property
    def partitions(self) -> int:
        return sum(1 for a in self.actions if a.kind == "partition_shard")

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        shards: int,
        replicas: int,
        n_ops: int,
        events: int = 4,
    ) -> "FaultPlan":
        """A reproducible kill/partition schedule for a run of ``n_ops``.

        Draws ``events`` fault windows from ``random.Random(seed)``: each
        window opens with a kill or a partition and closes with the
        matching revive/heal strictly before ``n_ops``.  Windows never
        stack on the same target (a replica is not killed twice before
        its revive), at most one shard is partitioned at a time (so a
        majority of the keyspace keeps serving), and at most one replica
        per shard is down at a time (so ``quorum`` stays assemblable on
        ``replicas >= 2`` topologies).
        """
        if shards < 1 or n_ops < 4:
            raise ValueError("need shards >= 1 and n_ops >= 4")
        if events < 0:
            raise ValueError("events must be non-negative")
        rng = random.Random(seed)
        actions: List[FaultAction] = []
        #: (shard, replica) → op index the kill window closes at.
        open_kills: Dict[Tuple[int, int], int] = {}
        open_partition: Tuple[int, int] = (-1, -1)  # (shard, heal op)
        drawn = 0
        attempts = 0
        while drawn < events and attempts < events * 8:
            attempts += 1
            start = rng.randrange(1, max(2, n_ops - 2))
            length = rng.randrange(max(2, n_ops // 8), max(3, n_ops // 3))
            end = min(start + length, n_ops - 1)
            if end <= start:
                continue
            kind = (
                "kill_replica"
                if replicas and rng.random() < 0.6
                else "partition_shard"
            )
            shard = rng.randrange(shards)
            if kind == "kill_replica":
                replica = rng.randrange(replicas)
                busy = any(
                    s == shard and start < closes
                    for (s, _r), closes in open_kills.items()
                )
                if busy:
                    continue
                open_kills[(shard, replica)] = end
                actions.append(
                    FaultAction(start, "kill_replica", shard, replica)
                )
                actions.append(
                    FaultAction(end, "revive_replica", shard, replica)
                )
            else:
                p_shard, p_heal = open_partition
                if p_shard >= 0 and start < p_heal:
                    continue  # one partition at a time
                open_partition = (shard, end)
                actions.append(FaultAction(start, "partition_shard", shard))
                actions.append(FaultAction(end, "heal", shard))
            drawn += 1
        return cls(actions=tuple(actions))


@dataclass(frozen=True)
class FaultReport:
    """What applying (part of) a plan to a live store did."""

    applied: int
    skipped: int
    kills: int
    revives: int
    partitions: int
    heals: int
    catchup_entries: int  # log entries revived replicas replayed


class FaultInjector:
    """Applies fault transitions to a live ``ReplicatedStore``.

    One injector per store (the store exposes it as
    ``store.fault_injector`` so the ``_Shard`` dispatch and the invariant
    registry can consult the active-fault state).  All mutations go
    through shard-level seams (``_Shard.kill_replica`` /
    ``_revive_replica``); the injector itself only tracks which faults
    are active.
    """

    def __init__(self, store: Any) -> None:
        existing = getattr(store, "_fault_injector", None)
        if existing is not None:
            raise RuntimeError("store already has a fault injector attached")
        self._store = store
        store._fault_injector = self
        self._partitioned: Set[int] = set()
        self._down: Set[Tuple[int, int]] = set()
        self.kills = 0
        self.revives = 0
        self.partitions = 0
        self.heals = 0
        self.catchup_entries = 0

    # ------------------------------------------------------------ inspection
    @property
    def active_faults(self) -> Tuple[str, ...]:
        """Human-readable active faults (empty = fully healed)."""
        out = [
            f"replica-down:shard-{s}/replica-{r}"
            for s, r in sorted(self._down)
        ]
        out.extend(f"partitioned:shard-{s}" for s in sorted(self._partitioned))
        return tuple(out)

    @property
    def active_count(self) -> int:
        return len(self._down) + len(self._partitioned)

    def is_partitioned(self, shard: int) -> bool:
        return shard in self._partitioned

    def is_down(self, shard: int, replica: int) -> bool:
        return (shard, replica) in self._down

    # ------------------------------------------------------------ transitions
    def kill_replica(self, shard: int, replica: int) -> None:
        """Crash-stop one replica: unreachable, storage lost."""
        self._store._shards[shard].kill_replica(replica)
        self._down.add((shard, replica))
        self.kills += 1

    def revive_replica(self, shard: int, replica: int) -> int:
        """Provision a fresh replica under the dead one's name and catch it
        up from the scrubbed replication log; returns entries replayed."""
        entries = self._store._shards[shard].revive_replica(replica)
        self._down.discard((shard, replica))
        self.revives += 1
        self.catchup_entries += entries
        return entries

    def partition_shard(self, shard: int) -> None:
        """Make the shard unreachable from the router (state retained)."""
        if shard not in self._store._shards:
            raise KeyError(f"no shard {shard!r}")
        self._partitioned.add(shard)
        self.partitions += 1

    def heal(self, shard: int) -> None:
        """Heal the shard's partition."""
        if shard in self._partitioned:
            self._partitioned.discard(shard)
            self.heals += 1

    def heal_all(self) -> FaultReport:
        """Heal every active fault: revive every down replica, lift every
        partition.  Returns what it did (the drain-time safety net)."""
        applied = 0
        catchup_before = self.catchup_entries
        kills = revives = partitions = heals = 0
        for shard, replica in sorted(self._down):
            if shard in self._store._shards:
                self.revive_replica(shard, replica)
                revives += 1
            else:
                self._down.discard((shard, replica))
            applied += 1
        for shard in sorted(self._partitioned):
            self.heal(shard)
            heals += 1
            applied += 1
        return FaultReport(
            applied=applied,
            skipped=0,
            kills=kills,
            revives=revives,
            partitions=partitions,
            heals=heals,
            catchup_entries=self.catchup_entries - catchup_before,
        )

    # ------------------------------------------------------------------ plans
    def apply(self, actions: Sequence[FaultAction]) -> FaultReport:
        """Apply scheduled transitions, tolerantly: an action naming a
        shard that was decommissioned since the plan was drawn (or a
        revive for a replica that is not down) is skipped, not fatal —
        plans are drawn against the initial topology and a live rebalance
        may have changed it."""
        applied = skipped = 0
        kills = revives = partitions = heals = 0
        catchup_before = self.catchup_entries
        for action in actions:
            try:
                if action.kind == "kill_replica":
                    if self.is_down(action.shard, action.replica):
                        raise KeyError("already down")
                    self.kill_replica(action.shard, action.replica)
                    kills += 1
                elif action.kind == "revive_replica":
                    if not self.is_down(action.shard, action.replica):
                        raise KeyError("not down")
                    self.revive_replica(action.shard, action.replica)
                    revives += 1
                elif action.kind == "partition_shard":
                    self.partition_shard(action.shard)
                    partitions += 1
                else:
                    self.heal(action.shard)
                    heals += 1
                applied += 1
            except (KeyError, IndexError):
                skipped += 1
        return FaultReport(
            applied=applied,
            skipped=skipped,
            kills=kills,
            revives=revives,
            partitions=partitions,
            heals=heals,
            catchup_entries=self.catchup_entries - catchup_before,
        )


__all__ = [
    "FAULT_KINDS",
    "FaultAction",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FaultReport",
    "QuorumUnavailableError",
    "ReplicaDownError",
    "ShardUnavailableError",
]
