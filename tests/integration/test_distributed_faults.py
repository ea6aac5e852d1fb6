"""Infrastructure fault injection: the erasure guarantees hold on a
degraded-but-serving topology.

Seeded kill/revive/partition/heal schedules (``repro.distributed.faults``)
replay against a live background rebalance under the erasure-study mix,
with the runtime invariant registry as the oracle.  The contract is the
inverse of ``test_failure_injection.py`` (the Figure-1 *compliance*
misbehaviour suite, where exactly the right invariant must trip): here
nothing may trip at all — a crashed replica or a partitioned shard is
unavailability, never a grounding leak.  Targeted scenarios cover the two
acceptance stresses (kill a replica mid-migration; partition a shard
mid-erase and verify the erase still grounds clean after the heal) plus
anti-entropy healing divergence no quorum read ever observed.
"""

import pytest

from repro.analysis.invariants import store_invariants
from repro.config import BackendConfig, StoreConfig
from repro.distributed.antientropy import AntiEntropySweeper, range_digests
from repro.distributed.faults import (
    FaultInjector,
    FaultPlan,
    ShardUnavailableError,
)
from repro.distributed.store import RebalanceDriver, ReplicatedStore
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel
from repro.workloads.driver import load_store, run_interleaved
from repro.workloads.gdprbench import erasure_study_workload

SEEDS = (11, 12, 13, 14, 15)


def make_store(shards=4, n_replicas=2, backend="psql"):
    cost = CostModel(SimClock(), CostBook())
    store = ReplicatedStore(
        cost,
        StoreConfig(
            backend=BackendConfig(backend=backend),
            shards=shards,
            n_replicas=n_replicas,
            cache_ttl=10**12,
        ),
    )
    return store, cost


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_fault_schedule_under_live_rebalance(seed):
    """Five seeds of kill/partition chaos against a live 4→5 resize: every
    mid-fault grounded erase verifies clean and zero invariants trip."""
    store, _cost = make_store()
    workload = erasure_study_workload(200, 300, seed=seed)
    load_store(store, workload)
    plan = FaultPlan.seeded(seed, shards=4, replicas=2, n_ops=300)
    assert len(plan) > 0 and plan.kills + plan.partitions > 0
    driver = RebalanceDriver(
        store.begin_resize(5, batch_size=16),
        antientropy=AntiEntropySweeper(store),
        sweep_every=2,
    )
    result = run_interleaved(
        store,
        workload,
        driver,
        ops_per_step=16,
        budget_keys=16,
        consistency="quorum",
        invariants=store_invariants(),
        faults=plan,
    )
    assert result.fault_events_applied > 0
    assert result.erases > 0 and result.erases_verified_clean
    assert result.invariants_checked > 0
    assert result.invariant_violations == ()
    assert result.rebalance_completed
    # The drain healed everything: the topology ends fully reachable.
    assert store.fault_injector.active_count == 0


def test_kill_replica_mid_migration_then_revive():
    """A replica crash-stopped while its shard's keys are in flight loses
    its storage; revival bootstraps a fresh node from the scrubbed log and
    the migration still completes verified clean."""
    store, _cost = make_store(shards=3)
    keys = [f"u{i:06d}" for i in range(150)]
    for i, key in enumerate(keys):
        store.put(key, (i, "payload"))
    injector = FaultInjector(store)
    rebalance = store.begin_resize(4, batch_size=16)
    rebalance.step()  # first batch in flight
    victim_shard = next(store.shards()).index
    injector.kill_replica(victim_shard, 0)
    # Mid-migration, mid-kill: a grounded erase of an in-flight key still
    # verifies clean — the dead node holds nothing physical anymore.
    in_flight = [k for k in keys if rebalance.in_flight_route(k)]
    assert in_flight, "first batch should be in flight"
    report = store.erase_all_copies(in_flight[0])
    assert report.verified_clean and not store.copies_of(in_flight[0])
    rebalance.run()
    entries = injector.revive_replica(victim_shard, 0)
    assert entries >= 0
    shard = store._shards[victim_shard]
    assert all(not node.down for node in shard.replicas)
    # The revived replica caught up through the scrubbed log: the erased
    # key cannot have been resurrected anywhere.
    assert not store.copies_of(in_flight[0])
    assert injector.active_count == 0


def test_partition_mid_erase_fails_fast_then_grounds_clean_after_heal():
    """An erase routed at a partitioned shard must fail fast (no partial
    erase), and after the heal the same key grounds clean."""
    store, _cost = make_store(shards=3)
    for i in range(90):
        store.put(f"u{i:06d}", (i, "payload"))
    injector = FaultInjector(store)
    victim = "u000007"
    sid = store.shard_of(victim)
    injector.partition_shard(sid)
    with pytest.raises(ShardUnavailableError):
        store.erase_all_copies(victim)
    # Nothing half-happened: the value is intact behind the partition
    # (forensic surfaces bypass partitions — the auditor's global view).
    assert store.copies_of(victim)
    injector.heal(sid)
    report = store.erase_all_copies(victim)
    assert report.verified_clean
    assert not store.copies_of(victim)


def test_erase_many_checks_every_involved_shard_before_mutating():
    """A batch erase spanning a partitioned shard fails fast before any
    key on any shard is touched."""
    store, _cost = make_store(shards=3)
    keys = [f"u{i:06d}" for i in range(60)]
    for i, key in enumerate(keys):
        store.put(key, (i, "payload"))
    injector = FaultInjector(store)
    by_shard = {}
    for key in keys:
        by_shard.setdefault(store.shard_of(key), key)
    assert len(by_shard) > 1, "need victims on more than one shard"
    victims = list(by_shard.values())
    injector.partition_shard(store.shard_of(victims[0]))
    with pytest.raises(ShardUnavailableError):
        store.erase_many(victims)
    for key in victims:  # atomic fail-fast: nobody was erased
        assert store.copies_of(key)
    injector.heal_all()
    assert store.erase_many(victims).verified_clean


@pytest.mark.parametrize("backend", ["psql", "lsm", "crypto-shred"])
def test_writes_routed_at_a_partitioned_shard_fail_before_mutating(backend):
    """put, update and naive_delete of a key the partitioned shard owns
    raise, and leave its primary, its replication log and every copy of
    the key as they were."""
    store, _cost = make_store(shards=3, n_replicas=1, backend=backend)
    for i in range(30):
        store.put(f"u{i:06d}", (i, "payload"))
    held = "u000007"
    sid = store.shard_of(held)
    fresh = next(
        key for key in (f"n{i:06d}" for i in range(1000))
        if store.shard_of(key) == sid
    )
    shard = store._shards[sid]

    def state():
        primary = dict(shard.primary.backend.export_range(lambda _k: True))
        log = list(shard._log.replay(0))
        return primary, log, store.copies_of(held), store.copies_of(fresh)

    before = state()
    assert held in before[0] and fresh not in before[0]
    FaultInjector(store).partition_shard(sid)
    writes = (
        lambda: store.put(fresh, (1, "new")),
        lambda: store.update(held, (2, "changed")),
        lambda: store.naive_delete(held),
    )
    for write in writes:
        with pytest.raises(ShardUnavailableError):
            write()
        assert state() == before


def test_antientropy_heals_divergence_without_quorum_reads():
    """Divergence injected directly on a replica backend is invisible to
    the read path (no quorum read ever issued) yet the digest sweep finds
    it, queues range repairs, and the flush restores digest equality —
    on every backend."""
    for backend in ("psql", "lsm", "crypto-shred"):
        store, _cost = make_store(shards=2, n_replicas=1, backend=backend)
        for i in range(80):
            store.put(f"u{i:06d}", (i, "payload"))
        for shard in store.shards():
            for node in shard.replicas:
                shard._apply_backlog(node, force=True)
        shard = next(store.shards())
        node = shard.replicas[0]
        held = sorted(k for k, _v in node.backend.export_range(lambda _k: True))
        assert held, "replica should hold keys"
        for key in held[:4]:
            node.backend.update(key, ("diverged", key))
        report, events = store.anti_entropy_sweep(n_ranges=8)
        assert report.divergent_ranges > 0, backend
        assert report.repairs_queued == report.divergent_ranges
        assert events and all(e.key.startswith("antientropy:") for e in events)
        for s in store.shards():
            primary = range_digests(s.primary.backend, 8)
            for replica in s.replicas:
                assert range_digests(replica.backend, 8) == primary, backend


def test_sweeper_skips_partitioned_shards_and_flush_requeues():
    """A partitioned shard is skipped by the sweep and its queued repairs
    are re-queued (not dropped) by the flush until the heal."""
    store, _cost = make_store(shards=2, n_replicas=1)
    for i in range(80):
        store.put(f"u{i:06d}", (i, "payload"))
    for shard in store.shards():
        for node in shard.replicas:
            shard._apply_backlog(node, force=True)
    injector = FaultInjector(store)
    shard = next(store.shards())
    node = shard.replicas[0]
    held = sorted(k for k, _v in node.backend.export_range(lambda _k: True))
    for key in held[:3]:
        node.backend.update(key, ("diverged", key))
    sweeper = AntiEntropySweeper(store, n_ranges=8)
    first = sweeper.sweep()
    assert first.repairs_queued > 0
    injector.partition_shard(shard.index)
    assert store.flush_repairs() == []  # re-queued behind the partition
    skipped = sweeper.sweep()
    assert skipped.shards_skipped >= 1
    injector.heal(shard.index)
    events = store.flush_repairs()
    assert events and all(e.key.startswith("antientropy:") for e in events)
    primary = range_digests(shard.primary.backend, 8)
    assert range_digests(node.backend, 8) == primary
