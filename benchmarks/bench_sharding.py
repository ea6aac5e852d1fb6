"""Sharded distributed erasure — batch erase, elastic resize, background
rebalance under live load, quorum reads.

The grounded distributed erase must remove *every* copy — primaries,
replicas, caches, replication logs, node WALs (§1) — and that guarantee
must survive topology change and replica staleness.  Four sections:

**Batch erase** (per backend × shard count): the naive per-key loop
(``erase_all_copies`` per victim) vs the batch ``erase_many`` path, which
deletes every victim first and reclaims **once per node**; sharding splits
the batch into independent groups whose slowest member is the critical
path.

**Resize under load**: load K keys over N consistent-hash shards, then
``resize(N±1)`` online.  Reported per backend: keys moved vs the ~whole
keyspace a modulo router would reshuffle, MIGRATION copy sites tracked
while batches were in flight, and whether an ``erase_all_copies`` +
``erase_many`` issued *mid-rebalance* verified clean (they must — an
untracked in-flight copy is a silent Art. 17 leak).

**Rebalance under load**: the background half of the story.  A
``RebalanceDriver`` advances a 4→5 weighted resize in bounded
``step(budget_keys=…)`` increments while the GDPRBench erasure-study mix
(20% grounded deletes, 80% quorum reads) runs live between steps
(``repro.workloads.driver``).  Reported per backend: how many bounded
steps the migration took, the grounded erases the workload issued
mid-rebalance (every one must verify clean), completed read repairs
(quorum reads observing migration-induced replica divergence queue an
asynchronous re-sync), and the moved-key fraction — still gated against
the committed movement baseline.

**Faults under load**: the seeded chaos section.  Each run replays a
``FaultPlan.seeded`` kill/partition schedule (``repro.distributed.faults``)
against a live 4→5 rebalance under the erasure mix, with an anti-entropy
sweeper attached to the driver and the runtime invariant registry as the
oracle.  Gated in CI: ≥ 5 seeds, zero invariant violations across all of
them, every mid-fault grounded erase verified clean, and the targeted
partition-mid-erase (fail fast, heal, erase clean) recovered on every run.

**Anti-entropy**: divergence injected *directly* on a replica backend —
no quorum read ever observes it — must be found by the hash-range digest
sweep, queued through the ordinary repair path (RepairEvent keys
``antientropy:…``), and healed to digest equality.

**Quorum reads**: mean simulated read latency at ``consistency =
one | quorum | all``, plus the stale-replica hazard: after the primary
deletes a key, a pinned-replica read happily serves the old value while a
quorum read force-applies the replica's backlog (which holds the victim's
DELETE) and correctly refuses.

Invariants gated in CI (``--smoke``): every erase configuration verifies
clean, the batch path beats the per-key loop, batch reclamations equal
``shards × (replicas + 1)``, critical-path throughput scales with shard
count, the resize moves only the ring-affected fraction (gated against the
committed baseline ``benchmarks/baselines/sharding.json``, alongside the
modulo comparison), mid-rebalance erases leave zero lingering copies, and
quorum reads never serve a primary-erased value.  The smoke run drives all
three backends — psql, lsm, and crypto-shred — through the rebalance.

``--json PATH`` writes the per-section results as machine-readable JSON
(the ``BENCH_sharding.json`` artifact CI uploads).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_sharding.py [--smoke] [--json OUT]

or under pytest-benchmark like the other benches::

    PYTHONPATH=src python -m pytest benchmarks/bench_sharding.py
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.invariants import store_invariants
from repro.distributed.antientropy import AntiEntropySweeper, range_digests
from repro.distributed.faults import FaultPlan, ShardUnavailableError
from repro.distributed.ring import stable_hash
from repro.distributed.store import (
    CopyLocation,
    RebalanceDriver,
    ReplicatedStore,
)
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel
from repro.storage.errors import TupleNotFoundError
from repro.workloads import erasure_study_workload, run_interleaved

N_REPLICAS = 1
REPLICATION_LAG = 50_000

#: Committed rebalance baseline the CI smoke run gates against.
BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "baselines", "sharding.json"
)


@dataclass(frozen=True)
class ShardingRunResult:
    """One (backend, shards) cell of the batch-erase comparison."""

    backend: str
    shards: int
    shards_touched: int
    n_keys: int
    n_erased: int
    per_key_seconds: float       # naive loop: erase_all_copies per victim
    batch_seconds: float         # erase_many, total simulated work
    critical_path_seconds: float  # slowest shard (parallel completion time)
    batch_reclamations: int
    per_key_reclamations: int
    throughput_keys_per_s: float  # on the critical path
    verified_clean: bool


@dataclass(frozen=True)
class RebalanceRunResult:
    """One backend's resize-under-load measurement.

    ``moved_fraction`` counts every ring-affected key (moved + the few the
    mid-rebalance erase claimed first) over the keys examined;
    ``modulo_fraction`` is what ``hash % shards`` routing would have moved
    for the same topology change — the number the consistent-hash ring
    exists to beat.
    """

    backend: str
    shards_from: int
    shards_to: int
    n_keys: int
    keys_moved: int
    moved_fraction: float
    modulo_fraction: float
    batches: int
    seconds: float
    verified_clean: bool
    migration_sites_seen: int
    mid_erase_clean: bool
    data_intact: bool


@dataclass(frozen=True)
class UnderLoadRunResult:
    """One backend's background-rebalance-under-live-load measurement.

    The migration advances only through bounded ``step(budget_keys)``
    calls interleaved with the erasure-study mix; ``erases`` counts the
    grounded ``erase_all_copies`` the workload issued while the topology
    change was live (``erases_clean`` says all of them verified zero
    lingering copies) and ``repairs`` the completed read repairs quorum
    reads triggered.  ``moved_fraction`` gates against the same committed
    baseline as the stop-the-world section.
    """

    backend: str
    workload: str
    shards_from: int
    shards_to: int
    n_keys: int
    ops_applied: int
    driver_steps: int
    budget_keys: int
    keys_moved: int
    moved_fraction: float
    modulo_fraction: float
    erases: int
    erases_clean: bool
    mid_erase_clean: bool
    repairs: int
    migration_sites_seen: int
    verified_clean: bool
    data_intact: bool
    invariants_checked: int
    invariant_violations: int
    seconds: float


@dataclass(frozen=True)
class FaultsRunResult:
    """One seeded fault-injection run: a live rebalance under the erasure
    mix while replicas crash and a shard partitions, invariant-checked.

    ``erases_clean`` covers every grounded erase the workload issued
    mid-fault; ``post_heal_erase_clean`` is the targeted stress — a shard
    is partitioned, an erase routed to it fails fast
    (``ShardUnavailableError``), and after the heal the same key's
    ``erase_all_copies`` still verifies zero lingering copies.
    """

    backend: str
    seed: int
    n_keys: int
    ops_applied: int
    plan_events: int
    kills: int
    partitions: int
    fault_events_applied: int
    fault_events_skipped: int
    fault_errors: int
    erases: int
    erases_clean: bool
    post_heal_erase_clean: bool
    repairs: int
    sweeps: int
    driver_steps: int
    rebalance_completed: bool
    invariants_checked: int
    invariant_violations: int
    seconds: float


@dataclass(frozen=True)
class AntiEntropyRunResult:
    """One backend's anti-entropy healing measurement: divergence injected
    directly on a replica backend (no quorum read ever observes it) is
    found by the digest sweep and healed through the repair queue."""

    backend: str
    n_keys: int
    corrupted: int
    divergent_ranges: int
    repairs_queued: int
    repair_events: int
    event_keys_antientropy: bool
    quorum_reads_issued: int
    digests_match_after: bool


@dataclass(frozen=True)
class QuorumRunResult:
    """Read latency at one consistency level, plus the stale-read outcome."""

    backend: str
    consistency: str
    mean_read_us: float
    stale_read_blocked: bool  # erased-on-primary value refused (one: served)


def _loaded_store(
    backend: str,
    shards: int,
    n_keys: int,
    cost: CostModel,
    n_replicas: int = N_REPLICAS,
) -> ReplicatedStore:
    """A store with n_keys spread over the shards, replicas caught up and
    caches warmed — every copy location populated before the erase."""
    store = ReplicatedStore(
        cost,
        n_replicas=n_replicas,
        replication_lag=REPLICATION_LAG,
        cache_ttl=10**12,
        shards=shards,
        backend=backend,
    )
    for i in range(n_keys):
        store.put(f"u{i:06d}", (i, "payload"))
    cost.clock.charge(REPLICATION_LAG + 10_000, "idle")  # lag elapses
    for i in range(n_keys):
        store.read(f"u{i:06d}", replica=0)  # replicas apply + cache
    return store


def run_sharded_erase(
    backend: str, shards: int, n_keys: int = 400, erase_fraction: float = 0.5
) -> ShardingRunResult:
    """Measure the per-key baseline and the batch path on fresh stores."""
    victims = [f"u{i:06d}" for i in range(int(n_keys * erase_fraction))]

    # Baseline: one grounded erase per key (reclaims every node per key).
    cost = CostModel(SimClock(), CostBook())
    store = _loaded_store(backend, shards, n_keys, cost)
    t0 = cost.clock.now
    for key in victims:
        store.erase_all_copies(key)
    per_key_seconds = (cost.clock.now - t0) / 1e6
    per_key_reclaims = len(victims) * (N_REPLICAS + 1)

    # Batch: the public erase_many fans out per shard with one reclamation
    # pass per node; its per-shard timings give the critical path a
    # parallel deployment waits for.
    cost = CostModel(SimClock(), CostBook())
    store = _loaded_store(backend, shards, n_keys, cost)
    report = store.erase_many(victims)
    batch_seconds = sum(report.shard_seconds)
    critical = max(report.shard_seconds) if report.shard_seconds else 0.0
    return ShardingRunResult(
        backend=backend,
        shards=shards,
        shards_touched=report.shards_touched,
        n_keys=n_keys,
        n_erased=len(victims),
        per_key_seconds=per_key_seconds,
        batch_seconds=batch_seconds,
        critical_path_seconds=critical,
        batch_reclamations=report.reclamations,
        per_key_reclamations=per_key_reclaims,
        throughput_keys_per_s=len(victims) / critical if critical else 0.0,
        verified_clean=report.verified_clean,
    )


def run_rebalance(
    backend: str,
    shards_from: int = 4,
    shards_to: int = 5,
    n_keys: int = 400,
    batch_size: int = 32,
) -> RebalanceRunResult:
    """Resize under load, with a grounded erase issued mid-rebalance."""
    cost = CostModel(SimClock(), CostBook())
    store = _loaded_store(backend, shards_from, n_keys, cost)
    keys = [f"u{i:06d}" for i in range(n_keys)]
    expected = {key: (i, "payload") for i, key in enumerate(keys)}
    modulo_moved = sum(
        1
        for key in keys
        if stable_hash(key) % shards_from != stable_hash(key) % shards_to
    )

    t0 = cost.clock.now
    rebalance = store.begin_resize(shards_to, batch_size=batch_size)
    rebalance.step()  # copy step: the first batch goes in flight
    in_flight = [key for key in keys if rebalance.in_flight_route(key)]
    migration_sites = sum(
        1
        for key in in_flight
        for loc, _name in store.copies_of(key)
        if loc is CopyLocation.MIGRATION
    )
    # The Art. 17 stress: erase one in-flight key and one still-pending key
    # while both rings are live.  Nothing may linger on either owner.
    victims: List[str] = in_flight[:1]
    victims += [key for key in keys if rebalance.is_pending(key)][:2]
    mid_clean = True
    if victims:
        single = store.erase_all_copies(victims[0])
        batch = store.erase_many(victims[1:]) if victims[1:] else None
        mid_clean = single.verified_clean and (
            batch is None or batch.verified_clean
        )
        mid_clean = mid_clean and all(
            not store.copies_of(key) for key in victims
        )
    report = rebalance.run()
    seconds = (cost.clock.now - t0) / 1e6
    mid_clean = mid_clean and all(not store.copies_of(key) for key in victims)

    survivors = [key for key in keys if key not in set(victims)]
    data_intact = all(store.read(key) == expected[key] for key in survivors)
    examined = report.keys_examined
    affected = report.keys_moved + report.keys_skipped
    return RebalanceRunResult(
        backend=backend,
        shards_from=shards_from,
        shards_to=shards_to,
        n_keys=n_keys,
        keys_moved=report.keys_moved,
        moved_fraction=(affected / examined) if examined else 0.0,
        modulo_fraction=modulo_moved / n_keys,
        batches=report.batches,
        seconds=seconds,
        verified_clean=report.verified_clean,
        migration_sites_seen=migration_sites,
        mid_erase_clean=mid_clean,
        data_intact=data_intact,
    )


def run_rebalance_under_load(
    backend: str,
    shards_from: int = 4,
    shards_to: int = 5,
    n_keys: int = 300,
    n_ops: int = 400,
    budget_keys: int = 12,
    ops_per_step: int = 20,
) -> UnderLoadRunResult:
    """Background resize driven in bounded steps under the erasure mix.

    Quorum reads, grounded erases, and writes all interleave with the key
    movement; the first in-flight key is additionally erased explicitly
    (the classic mid-rebalance Art. 17 stress) before traffic starts.
    """
    cost = CostModel(SimClock(), CostBook())
    store = _loaded_store(backend, shards_from, n_keys, cost, n_replicas=2)
    keys = [f"u{i:06d}" for i in range(n_keys)]
    expected = {key: (i, "payload") for i, key in enumerate(keys)}
    modulo_moved = sum(
        1
        for key in keys
        if stable_hash(key) % shards_from != stable_hash(key) % shards_to
    )
    workload = erasure_study_workload(n_keys, n_ops)

    t0 = cost.clock.now
    driver = RebalanceDriver(
        store.begin_resize(shards_to, batch_size=budget_keys)
    )
    rebalance = driver.rebalance
    rebalance.step()  # copy half-step: the first batch goes in flight
    in_flight = [key for key in keys if rebalance.in_flight_route(key)]
    migration_sites = sum(
        1
        for key in in_flight
        for loc, _name in store.copies_of(key)
        if loc is CopyLocation.MIGRATION
    )
    mid_clean = True
    victims: List[str] = []
    if in_flight:
        victims = in_flight[:1]
        mid_clean = store.erase_all_copies(victims[0]).verified_clean
        mid_clean = mid_clean and not store.copies_of(victims[0])
    run = run_interleaved(
        store,
        workload,
        driver,
        ops_per_step=ops_per_step,
        budget_keys=budget_keys,
        consistency="quorum",
        invariants=store_invariants(),
    )
    seconds = (cost.clock.now - t0) / 1e6
    report = driver.report

    erased = set(victims)
    erased.update(
        f"u{op.key:06d}" for op in workload if op.kind.value == "delete"
    )
    survivors = [key for key in keys if key not in erased]
    data_intact = all(
        store.read(key) == expected[key] for key in survivors
    ) and all(not store.copies_of(key) for key in erased)
    examined = report.keys_examined
    affected = report.keys_moved + report.keys_skipped
    return UnderLoadRunResult(
        backend=backend,
        workload=workload.name,
        shards_from=shards_from,
        shards_to=shards_to,
        n_keys=n_keys,
        ops_applied=run.ops_applied,
        driver_steps=driver.steps,
        budget_keys=budget_keys,
        keys_moved=report.keys_moved,
        moved_fraction=(affected / examined) if examined else 0.0,
        modulo_fraction=modulo_moved / n_keys,
        erases=run.erases + len(victims),
        erases_clean=run.erases_verified_clean,
        mid_erase_clean=mid_clean,
        repairs=run.repairs,
        migration_sites_seen=migration_sites,
        verified_clean=report.verified_clean,
        data_intact=data_intact,
        invariants_checked=run.invariants_checked,
        invariant_violations=len(run.invariant_violations),
        seconds=seconds,
    )


def compare_rebalance_under_load(
    n_keys: int = 300,
    n_ops: int = 400,
    backends: Sequence[str] = ("psql", "lsm", "crypto-shred"),
) -> List[UnderLoadRunResult]:
    return [
        run_rebalance_under_load(backend, n_keys=n_keys, n_ops=n_ops)
        for backend in backends
    ]


def run_faults_under_load(
    backend: str,
    seed: int,
    shards_from: int = 4,
    shards_to: int = 5,
    n_keys: int = 200,
    n_ops: int = 300,
    n_replicas: int = 2,
    budget_keys: int = 16,
) -> FaultsRunResult:
    """One seeded chaos pass: ``FaultPlan.seeded`` replayed against a
    background resize under the erasure mix, with an anti-entropy sweeper
    on the driver and the invariant registry as the oracle."""
    cost = CostModel(SimClock(), CostBook())
    store = _loaded_store(backend, shards_from, n_keys, cost, n_replicas)
    plan = FaultPlan.seeded(
        seed, shards=shards_from, replicas=n_replicas, n_ops=n_ops
    )
    workload = erasure_study_workload(n_keys, n_ops, seed=seed)
    t0 = cost.clock.now
    driver = RebalanceDriver(
        store.begin_resize(shards_to, batch_size=budget_keys),
        antientropy=AntiEntropySweeper(store),
        sweep_every=2,
    )
    run = run_interleaved(
        store,
        workload,
        driver,
        ops_per_step=16,
        budget_keys=budget_keys,
        consistency="quorum",
        invariants=store_invariants(),
        faults=plan,
    )
    seconds = (cost.clock.now - t0) / 1e6

    # The targeted stress: partition a shard, route an erase at it (must
    # fail fast, not half-erase), heal, erase again — verified clean.
    injector = store.fault_injector
    post_heal_clean = False
    for key in (f"u{i:06d}" for i in range(n_keys)):
        if store.copies_of(key):
            victim = key
            break
    else:  # pragma: no cover - erasure mix never erases everything
        victim = None
    if victim is not None and injector is not None:
        sid = store.shard_of(victim)
        injector.partition_shard(sid)
        try:
            store.erase_all_copies(victim)
            failed_fast = False
        except ShardUnavailableError:
            failed_fast = True
        injector.heal(sid)
        report = store.erase_all_copies(victim)
        post_heal_clean = (
            failed_fast
            and report.verified_clean
            and not store.copies_of(victim)
        )
    return FaultsRunResult(
        backend=backend,
        seed=seed,
        n_keys=n_keys,
        ops_applied=run.ops_applied,
        plan_events=len(plan),
        kills=plan.kills,
        partitions=plan.partitions,
        fault_events_applied=run.fault_events_applied,
        fault_events_skipped=run.fault_events_skipped,
        fault_errors=run.fault_errors,
        erases=run.erases,
        erases_clean=run.erases_verified_clean,
        post_heal_erase_clean=post_heal_clean,
        repairs=run.repairs,
        sweeps=len(driver.sweeps),
        driver_steps=driver.steps,
        rebalance_completed=run.rebalance_completed,
        invariants_checked=run.invariants_checked,
        invariant_violations=len(run.invariant_violations),
        seconds=seconds,
    )


def compare_faults_under_load(
    seeds: Sequence[int] = (11, 12, 13, 14, 15),
    n_keys: int = 200,
    n_ops: int = 300,
    backends: Sequence[str] = ("psql", "lsm", "crypto-shred"),
) -> List[FaultsRunResult]:
    """The full seed sweep on the first backend, one seed on the rest —
    fault coverage comes from the seeds, backend coverage from one pass
    each."""
    results = [
        run_faults_under_load(backends[0], seed, n_keys=n_keys, n_ops=n_ops)
        for seed in seeds
    ]
    results.extend(
        run_faults_under_load(backend, seeds[0], n_keys=n_keys, n_ops=n_ops)
        for backend in backends[1:]
    )
    return results


def run_antientropy(
    backend: str, n_keys: int = 120, n_ranges: int = 16, corrupt: int = 5
) -> AntiEntropyRunResult:
    """Inject divergence directly on a replica backend — no quorum read
    ever observes it — and let the digest sweep find and heal it."""
    cost = CostModel(SimClock(), CostBook())
    store = _loaded_store(backend, 2, n_keys, cost, n_replicas=2)
    for shard in store.shards():
        for node in shard.replicas:
            shard._apply_backlog(node, force=True)  # fully caught up
    shard = next(store.shards())
    node = shard.replicas[0]
    held = sorted(key for key, _v in node.backend.export_range(lambda _k: True))
    for key in held[:corrupt]:
        node.backend.update(key, ("silently-diverged", key))
    report, events = store.anti_entropy_sweep(n_ranges)
    match = all(
        range_digests(replica.backend, n_ranges)
        == range_digests(s.primary.backend, n_ranges)
        for s in store.shards()
        for replica in s.replicas
    )
    return AntiEntropyRunResult(
        backend=backend,
        n_keys=n_keys,
        corrupted=min(corrupt, len(held)),
        divergent_ranges=report.divergent_ranges,
        repairs_queued=report.repairs_queued,
        repair_events=len(events),
        event_keys_antientropy=all(
            e.key.startswith("antientropy:") for e in events
        ),
        quorum_reads_issued=0,  # by construction — nothing read at quorum
        digests_match_after=match,
    )


def run_quorum_reads(
    backend: str, n_keys: int = 200, n_replicas: int = 2
) -> List[QuorumRunResult]:
    """Mean read latency per consistency level + the stale-replica case."""
    cost = CostModel(SimClock(), CostBook())
    store = _loaded_store(backend, 1, n_keys, cost, n_replicas=n_replicas)
    keys = [f"u{i:06d}" for i in range(n_keys)]
    for key in keys:  # warm every replica so levels compare fairly
        for r in range(n_replicas):
            store.read(key, replica=r, use_cache=False)

    latencies: Dict[str, float] = {}
    for level in ("one", "quorum", "all"):
        t0 = cost.clock.now
        for key in keys:
            store.read(key, use_cache=False, consistency=level)
        latencies[level] = (cost.clock.now - t0) / n_keys

    # Stale-replica hazard: the primary deletes, the replicas' backlogs
    # still hold the victim's value *and* its unapplied DELETE.
    victim = keys[0]
    store.naive_delete(victim)
    served_stale = store.read(victim, replica=0, use_cache=False) is not None
    blocked: Dict[str, bool] = {"one": not served_stale}
    for level in ("quorum", "all"):
        try:
            store.read(victim, use_cache=False, consistency=level)
            blocked[level] = False
        except TupleNotFoundError:
            blocked[level] = True
    return [
        QuorumRunResult(
            backend=backend,
            consistency=level,
            mean_read_us=latencies[level],
            stale_read_blocked=blocked[level],
        )
        for level in ("one", "quorum", "all")
    ]


def compare_sharding(
    n_keys: int = 400,
    shard_counts: Sequence[int] = (1, 2, 4),
    backends: Sequence[str] = ("psql", "lsm"),
) -> List[ShardingRunResult]:
    return [
        run_sharded_erase(backend, shards, n_keys)
        for backend in backends
        for shards in shard_counts
    ]


def compare_rebalance(
    n_keys: int = 400,
    backends: Sequence[str] = ("psql", "lsm", "crypto-shred"),
    shards_from: int = 4,
    shards_to: int = 5,
) -> List[RebalanceRunResult]:
    return [
        run_rebalance(backend, shards_from, shards_to, n_keys)
        for backend in backends
    ]


def render_sharding(results: Sequence[ShardingRunResult]) -> str:
    header = (
        f"{'backend':<13} {'shards':>6} {'erased':>7} {'per-key s':>10} "
        f"{'batch s':>8} {'crit s':>7} {'reclaims':>9} {'keys/s':>8}"
    )
    lines = [
        "Sharded batch erase_many vs per-key erase_all_copies "
        f"(N={results[0].n_keys}, {N_REPLICAS} replica(s)/shard)",
        header,
        "-" * len(header),
    ]
    for r in results:
        lines.append(
            f"{r.backend:<13} {r.shards:>6} {r.n_erased:>7} "
            f"{r.per_key_seconds:>10.3f} {r.batch_seconds:>8.3f} "
            f"{r.critical_path_seconds:>7.3f} "
            f"{r.batch_reclamations:>4}/{r.per_key_reclamations:<4} "
            f"{r.throughput_keys_per_s:>8.0f}"
        )
    return "\n".join(lines)


def render_rebalance(results: Sequence[RebalanceRunResult]) -> str:
    header = (
        f"{'backend':<13} {'resize':>7} {'moved':>12} {'ring %':>7} "
        f"{'mod %':>6} {'batches':>8} {'mid-erase':>10} {'clean':>6}"
    )
    r0 = results[0]
    lines = [
        f"Online resize under load (N={r0.n_keys}, consistent-hash ring "
        "vs modulo reshuffle)",
        header,
        "-" * len(header),
    ]
    for r in results:
        lines.append(
            f"{r.backend:<13} {r.shards_from:>3}→{r.shards_to:<3} "
            f"{r.keys_moved:>5}/{r.n_keys:<6} {r.moved_fraction:>6.0%} "
            f"{r.modulo_fraction:>6.0%} {r.batches:>8} "
            f"{'clean' if r.mid_erase_clean else 'LEAK':>10} "
            f"{str(r.verified_clean):>6}"
        )
    return "\n".join(lines)


def render_under_load(results: Sequence[UnderLoadRunResult]) -> str:
    header = (
        f"{'backend':<13} {'resize':>7} {'steps':>6} {'moved':>11} "
        f"{'ring %':>7} {'erases':>7} {'repairs':>8} {'mid-erase':>10} "
        f"{'clean':>6}"
    )
    r0 = results[0]
    lines = [
        f"Background rebalance under live load ({r0.workload}: "
        f"{r0.ops_applied} ops, step(budget_keys={r0.budget_keys}) "
        "interleaved)",
        header,
        "-" * len(header),
    ]
    for r in results:
        lines.append(
            f"{r.backend:<13} {r.shards_from:>3}→{r.shards_to:<3} "
            f"{r.driver_steps:>6} {r.keys_moved:>4}/{r.n_keys:<6} "
            f"{r.moved_fraction:>6.0%} {r.erases:>7} {r.repairs:>8} "
            f"{'clean' if r.mid_erase_clean and r.erases_clean else 'LEAK':>10} "
            f"{str(r.verified_clean):>6}"
        )
    return "\n".join(lines)


def render_faults(results: Sequence[FaultsRunResult]) -> str:
    header = (
        f"{'backend':<13} {'seed':>5} {'faults':>7} {'applied':>8} "
        f"{'failfast':>9} {'erases':>7} {'sweeps':>7} {'violations':>11} "
        f"{'post-heal':>10}"
    )
    r0 = results[0]
    lines = [
        f"Seeded fault injection under live rebalance ({r0.ops_applied} "
        f"erasure-mix ops/seed, kill/partition schedules, invariant-"
        "checked)",
        header,
        "-" * len(header),
    ]
    for r in results:
        lines.append(
            f"{r.backend:<13} {r.seed:>5} "
            f"{r.kills:>3}k/{r.partitions:<1}p "
            f"{r.fault_events_applied:>8} {r.fault_errors:>9} "
            f"{r.erases:>4}{'✓' if r.erases_clean else '✗':<3} "
            f"{r.sweeps:>7} {r.invariant_violations:>11} "
            f"{'clean' if r.post_heal_erase_clean else 'LEAK':>10}"
        )
    return "\n".join(lines)


def render_antientropy(results: Sequence[AntiEntropyRunResult]) -> str:
    header = (
        f"{'backend':<13} {'corrupted':>10} {'divergent':>10} "
        f"{'queued':>7} {'events':>7} {'healed':>7}"
    )
    lines = [
        "Anti-entropy sweep (divergence injected on a replica backend, "
        "zero quorum reads)",
        header,
        "-" * len(header),
    ]
    for r in results:
        lines.append(
            f"{r.backend:<13} {r.corrupted:>10} {r.divergent_ranges:>10} "
            f"{r.repairs_queued:>7} {r.repair_events:>7} "
            f"{str(r.digests_match_after):>7}"
        )
    return "\n".join(lines)


def render_quorum(results: Sequence[QuorumRunResult]) -> str:
    header = (
        f"{'backend':<13} {'consistency':>11} {'mean µs':>9} "
        f"{'stale read':>11}"
    )
    lines = [
        "Read consistency levels (stale replica holds the victim's "
        "unapplied DELETE)",
        header,
        "-" * len(header),
    ]
    for r in results:
        outcome = "blocked" if r.stale_read_blocked else "SERVED"
        lines.append(
            f"{r.backend:<13} {r.consistency:>11} {r.mean_read_us:>9.0f} "
            f"{outcome:>11}"
        )
    return "\n".join(lines)


def load_sharding_baseline(mode: str) -> Optional[Dict[str, float]]:
    """The committed gate values for a run mode ("smoke" | "full")."""
    if not os.path.exists(BASELINE_PATH):
        return None
    with open(BASELINE_PATH) as fh:
        return json.load(fh).get(mode)


def check_invariants(results: Sequence[ShardingRunResult]) -> None:
    for r in results:
        assert r.verified_clean, r
        # Batch reclamation is amortized: one pass per node on every shard
        # that received victims, not one per key.
        assert r.batch_reclamations == r.shards_touched * (N_REPLICAS + 1), r
        assert r.batch_reclamations <= r.per_key_reclamations, r
        if r.batch_reclamations < r.per_key_reclamations:
            # Fewer passes never mean more work, and strictly less wherever
            # a pass has a fixed cost (VACUUM's trigger overhead, the shred
            # sweep's key-table write).  An lsm victim compaction pays per
            # victim entry only: with every victim still in the memtable
            # the batch and the per-key loop tie.
            if r.backend == "lsm":
                assert r.batch_seconds <= r.per_key_seconds, r
            else:
                assert r.batch_seconds < r.per_key_seconds, r
    by_backend: dict = {}
    for r in results:
        by_backend.setdefault(r.backend, []).append(r)
    for backend, rows in by_backend.items():
        rows.sort(key=lambda r: r.shards)
        if len(rows) > 1:
            # Critical-path throughput must scale with the shard count.
            first, last = rows[0], rows[-1]
            assert (
                last.throughput_keys_per_s > first.throughput_keys_per_s
            ), (backend, first, last)


def check_rebalance_invariants(
    results: Sequence[RebalanceRunResult],
    baseline: Optional[Dict[str, float]] = None,
) -> None:
    """The elastic-sharding claims, per backend — and, when a committed
    baseline applies, that the movement numbers have not regressed."""
    for r in results:
        assert r.verified_clean, r
        assert r.mid_erase_clean, r
        assert r.data_intact, r
        assert r.keys_moved > 0, r
        assert r.migration_sites_seen > 0, r
        # The ring's whole point: a one-shard change moves ~K/N keys, not
        # the ~4/5 of the keyspace modulo routing reshuffles.
        assert r.moved_fraction < r.modulo_fraction, r
        if baseline is not None:
            assert r.moved_fraction <= baseline["ring_moved_fraction_max"], (
                f"{r.backend}: ring moved {r.moved_fraction:.0%}, past the "
                f"committed baseline {baseline['ring_moved_fraction_max']:.0%}"
            )
            assert r.modulo_fraction >= baseline["modulo_moved_fraction_min"], r
            ratio = r.moved_fraction / r.modulo_fraction
            assert ratio <= baseline["ring_vs_modulo_ratio_max"], (
                f"{r.backend}: ring/modulo movement ratio {ratio:.2f} past "
                f"the baseline {baseline['ring_vs_modulo_ratio_max']}"
            )


def check_under_load_invariants(
    results: Sequence[UnderLoadRunResult],
    baseline: Optional[Dict[str, float]] = None,
) -> None:
    """The background-rebalance claims: the migration completed through
    bounded steps genuinely interleaved with traffic, every grounded erase
    issued mid-rebalance verified clean, quorum reads triggered (and the
    driver completed) read repairs, and the moved-key fraction stayed
    inside the committed movement baseline."""
    for r in results:
        assert r.verified_clean, r
        assert r.data_intact, r
        assert r.erases_clean and r.mid_erase_clean, r
        assert r.erases > 0, r
        assert r.keys_moved > 0, r
        assert r.migration_sites_seen > 0, r
        # Bounded increments, not one stop-the-world pass: the budget is a
        # fraction of the plan, so finishing must take several steps.
        assert r.driver_steps >= 3, r
        # Migration imports create replica backlog at the destinations; the
        # quorum reads in the mix must observe it and repair it.
        assert r.repairs > 0, r
        # The runtime invariant registry ran at every step boundary and
        # found nothing: copies_of matched reality, no erased read, every
        # destructive action audited, replicas converged.
        assert r.invariants_checked > 0, r
        assert r.invariant_violations == 0, r
        assert r.moved_fraction < r.modulo_fraction, r
        if baseline is not None:
            assert r.moved_fraction <= baseline["ring_moved_fraction_max"], (
                f"{r.backend}: under-load rebalance moved "
                f"{r.moved_fraction:.0%}, past the committed baseline "
                f"{baseline['ring_moved_fraction_max']:.0%}"
            )
            ratio = r.moved_fraction / r.modulo_fraction
            assert ratio <= baseline["ring_vs_modulo_ratio_max"], r


def check_faults_invariants(
    results: Sequence[FaultsRunResult],
    baseline: Optional[Dict[str, float]] = None,
) -> None:
    """The fault-tolerance claims: every seed's schedule actually ran,
    zero invariant violations mid-fault and post-heal, every mid-fault
    grounded erase verified clean, the targeted partition-mid-erase
    recovered clean after the heal, and the rebalance always completed
    despite the stalls."""
    for r in results:
        assert r.plan_events > 0 and r.fault_events_applied > 0, r
        assert r.erases > 0 and r.erases_clean, r
        assert r.post_heal_erase_clean, r
        assert r.rebalance_completed, r
        assert r.invariants_checked > 0, r
        assert r.sweeps > 0, r
    violations = sum(r.invariant_violations for r in results)
    if baseline is not None:
        assert len(results) >= baseline["faults_min_seeds"], (
            f"{len(results)} fault run(s), baseline requires "
            f"{baseline['faults_min_seeds']}"
        )
        assert violations <= baseline["faults_max_invariant_violations"], (
            f"{violations} invariant violation(s) under injected faults, "
            f"baseline allows {baseline['faults_max_invariant_violations']}"
        )
    else:
        assert violations == 0, results


def check_antientropy_invariants(
    results: Sequence[AntiEntropyRunResult],
) -> None:
    """The proactive-healing claim: the sweep found the injected
    divergence (no quorum read ever did), queued range repairs through the
    ordinary repair path, and the flush restored digest equality."""
    for r in results:
        assert r.corrupted > 0, r
        assert r.divergent_ranges > 0, r
        assert r.repairs_queued > 0 and r.repair_events > 0, r
        assert r.event_keys_antientropy, r
        assert r.quorum_reads_issued == 0, r
        assert r.digests_match_after, r


def check_quorum_invariants(results: Sequence[QuorumRunResult]) -> None:
    by_backend: Dict[str, Dict[str, QuorumRunResult]] = {}
    for r in results:
        by_backend.setdefault(r.backend, {})[r.consistency] = r
    for backend, rows in by_backend.items():
        one, quorum, all_ = rows["one"], rows["quorum"], rows["all"]
        # More nodes consulted → more simulated work (quorum == all when
        # one replica makes the majority the whole shard).
        assert one.mean_read_us < quorum.mean_read_us, (backend, one, quorum)
        assert quorum.mean_read_us <= all_.mean_read_us, (backend, quorum, all_)
        # The consistency claim: a pinned stale replica serves the erased
        # value; quorum and all never do.
        assert not one.stale_read_blocked, one
        assert quorum.stale_read_blocked, quorum
        assert all_.stale_read_blocked, all_


def test_bench_sharding(once):
    from conftest import emit, scaled

    results = once(compare_sharding, scaled(400, minimum=200))
    check_invariants(results)
    rebalance = compare_rebalance(scaled(400, minimum=200))
    check_rebalance_invariants(rebalance, load_sharding_baseline("full"))
    under_load = compare_rebalance_under_load(
        scaled(300, minimum=200), scaled(400, minimum=300)
    )
    check_under_load_invariants(under_load, load_sharding_baseline("full"))
    faults = compare_faults_under_load(
        n_keys=scaled(200, minimum=150), n_ops=scaled(300, minimum=200)
    )
    check_faults_invariants(faults, load_sharding_baseline("full"))
    antientropy = [run_antientropy(b) for b in ("psql", "lsm", "crypto-shred")]
    check_antientropy_invariants(antientropy)
    quorum = run_quorum_reads("psql", scaled(200, minimum=100))
    check_quorum_invariants(quorum)
    emit(
        "bench_sharding",
        "\n\n".join(
            [
                render_sharding(results),
                render_rebalance(rebalance),
                render_under_load(under_load),
                render_faults(faults),
                render_antientropy(antientropy),
                render_quorum(quorum),
            ]
        ),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="sharded erase_many, online rebalancing, quorum reads"
    )
    parser.add_argument("--keys", type=int, default=400)
    parser.add_argument("--shards", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument(
        "--backends", nargs="+", default=["psql", "lsm"],
        choices=["psql", "lsm", "crypto-shred"],
    )
    parser.add_argument(
        "--replicas", type=int, default=2,
        help="replicas per shard in the quorum-read section",
    )
    parser.add_argument(
        "--consistency", nargs="+", default=["one", "quorum", "all"],
        choices=["one", "quorum", "all"],
        help="consistency levels to report in the quorum section",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny run asserting the sharding invariants (CI gate): batch "
             "erase, resize-under-load on all three backends gated against "
             "benchmarks/baselines/sharding.json, and quorum reads",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write machine-readable results (BENCH_sharding.json artifact)",
    )
    args = parser.parse_args(argv)
    if args.keys < 1:
        parser.error("--keys must be >= 1")
    if args.replicas < 1:
        parser.error("--replicas must be >= 1 for a quorum to exist")
    mode = "smoke" if args.smoke else "full"
    n_keys = 120 if args.smoke else args.keys
    shard_counts = [1, 2, 4] if args.smoke else sorted(set(args.shards))
    backends = ["psql", "lsm"] if args.smoke else args.backends
    results = compare_sharding(n_keys, shard_counts, backends)
    check_invariants(results)
    print(render_sharding(results))
    if args.smoke:
        # Crypto-shred in the sharded topology: one batch, verified clean.
        shred = run_sharded_erase("crypto-shred", 2, n_keys=60)
        check_invariants([shred])
        print()
        print(render_sharding([shred]))
        results = list(results) + [shred]

    # Resize under load: gated against the committed movement baseline.
    # The smoke run always covers all three backends; full runs honor the
    # user's --backends selection.
    rebalance_keys = 150 if args.smoke else n_keys
    rebalance_backends = (
        ("psql", "lsm", "crypto-shred") if args.smoke else tuple(backends)
    )
    rebalance = compare_rebalance(rebalance_keys, rebalance_backends)
    check_rebalance_invariants(rebalance, load_sharding_baseline(mode))
    print()
    print(render_rebalance(rebalance))

    # Background rebalance under live load: bounded step() increments
    # interleaved with the erasure-study mix, gated against the same
    # committed movement baseline.
    under_load_keys = 200 if args.smoke else max(300, n_keys)
    under_load_ops = 300 if args.smoke else max(400, n_keys)
    under_load = compare_rebalance_under_load(
        under_load_keys, under_load_ops, rebalance_backends
    )
    check_under_load_invariants(under_load, load_sharding_baseline(mode))
    print()
    print(render_under_load(under_load))

    # Seeded fault injection: kill/partition schedules against a live
    # rebalance, gated on zero invariant violations across >= 5 seeds.
    faults_keys = 150 if args.smoke else max(200, n_keys // 2)
    faults_ops = 250 if args.smoke else 300
    faults = compare_faults_under_load(
        n_keys=faults_keys, n_ops=faults_ops, backends=rebalance_backends
    )
    check_faults_invariants(faults, load_sharding_baseline(mode))
    print()
    print(render_faults(faults))

    # Anti-entropy: injected divergence healed with zero quorum reads.
    antientropy = [run_antientropy(b) for b in rebalance_backends]
    check_antientropy_invariants(antientropy)
    print()
    print(render_antientropy(antientropy))

    quorum_keys = 80 if args.smoke else max(100, n_keys // 2)
    quorum_backends = ("psql", "lsm") if args.smoke else tuple(backends)
    quorum: List[QuorumRunResult] = []
    for backend in quorum_backends:
        quorum.extend(
            run_quorum_reads(backend, quorum_keys, n_replicas=args.replicas)
        )
    check_quorum_invariants(quorum)
    reported = [r for r in quorum if r.consistency in set(args.consistency)]
    print()
    print(render_quorum(reported))

    if args.json:
        payload = {
            "bench": "bench_sharding",
            "mode": mode,
            "sharding": [asdict(r) for r in results],
            "rebalance": [asdict(r) for r in rebalance],
            "rebalance_under_load": [asdict(r) for r in under_load],
            "faults_under_load": [asdict(r) for r in faults],
            "antientropy": [asdict(r) for r in antientropy],
            "quorum": [asdict(r) for r in quorum],
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"\nresults written to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
