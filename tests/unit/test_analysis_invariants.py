"""The runtime invariant registry, as an oracle that actually bites.

A healthy interleaved run (live erasure-mix traffic over a background
rebalance) must evaluate every registered invariant at each step boundary
and report zero violations; a tampered world — claimed-erased keys the
store still holds, audit records removed, a replica pushed ahead of its
primary — must trip the matching invariant by name.
"""

from types import SimpleNamespace

import pytest

from repro.analysis.invariants import (
    World,
    check_invariants,
    store_invariants,
)
from repro.config import StoreConfig
from repro.distributed.faults import FaultInjector
from repro.distributed.store import RebalanceDriver, ReplicatedStore
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel
from repro.workloads.driver import load_store, run_interleaved
from repro.workloads.gdprbench import erasure_study_workload


def make_store(shards=2, n_replicas=1):
    cost = CostModel(SimClock(), CostBook())
    return ReplicatedStore(cost, StoreConfig(shards=shards, n_replicas=n_replicas))


def violated(world):
    """Names of the invariants that failed."""
    return {v.invariant for v in check_invariants(world, store_invariants())}


class TestRegistry:
    def test_registry_names_and_descriptions(self):
        invariants = store_invariants()
        names = [inv.name for inv in invariants]
        assert names == [
            "copies-match-reality",
            "no-erased-read",
            "destructive-actions-audited",
            "replicas-converge",
            "replicas-converge-after-heal",
        ]
        assert all(inv.description for inv in invariants)

    def test_healthy_world_has_no_violations(self):
        store = make_store()
        world = World.observe(store)
        store.put("k1", (1, "payload"))
        world.record_write("k1")
        report = store.erase_all_copies("k2-no-such-key-yet")
        world.record_erase("k2-no-such-key-yet", report)
        assert violated(world) == set()


class TestEachInvariantBites:
    def test_erased_key_still_present_trips_reality_and_read(self):
        store = make_store()
        world = World.observe(store)
        store.put("victim", (7, "payload"))
        # Tamper: claim the erase happened (with a forged clean report)
        # while the store still physically holds the value everywhere.
        world.record_erase(
            "victim", SimpleNamespace(verified_clean=True)
        )
        names = violated(world)
        assert "copies-match-reality" in names
        assert "no-erased-read" in names

    def test_live_key_with_no_copies_trips_reality(self):
        store = make_store()
        world = World.observe(store)
        # Tamper: the harness believes a key is live that was never
        # written — copies_of finds nothing anywhere.
        world.record_write("phantom")
        assert "copies-match-reality" in violated(world)

    def test_erase_without_report_trips_audit(self):
        store = make_store()
        world = World.observe(store)
        report = store.erase_all_copies("gone")
        world.record_erase("gone", report)
        # Tamper: drop the audit record but keep the erased claim.
        del world.erase_reports["gone"]
        assert violated(world) == {"destructive-actions-audited"}

    def test_unverified_erase_report_trips_audit(self):
        store = make_store()
        world = World.observe(store)
        world.record_erase("gone", SimpleNamespace(verified_clean=False))
        assert "destructive-actions-audited" in violated(world)

    def test_missing_move_events_trip_audit(self):
        store = make_store(shards=4)
        for i in range(64):
            store.put(f"u{i:06d}", (i, "payload"))
        driver = RebalanceDriver(store.begin_resize(5, batch_size=8))
        world = World.observe(store, driver=driver)
        driver.run(budget_keys=8)
        assert len(world.moves) == driver.rebalance.keys_moved
        assert violated(world) == set()
        # Tamper: lose the audit trail of the migration.
        world.moves.clear()
        assert violated(world) == {"destructive-actions-audited"}

    def test_replica_ahead_of_primary_trips_convergence(self):
        store = make_store()
        store.put("k1", (1, "payload"))
        world = World.observe(store)
        shard = next(store.shards())
        shard.replicas[0].applied_seqno = shard._seqno + 5
        assert violated(world) == {"replicas-converge"}

    def test_healed_divergence_trips_after_heal_invariant(self):
        store = make_store()
        injector = FaultInjector(store)
        store.put("k1", (1, "payload"))
        shard = store._shards[store.shard_of("k1")]
        shard._apply_backlog(shard.replicas[0], force=True)  # fully caught up
        world = World.observe(store)
        assert violated(world) == set()
        # Tamper: corrupt a caught-up replica's physical content directly
        # (no seqno change, so lag-based checks cannot see it), with the
        # injector attached and fully healed.
        shard.replicas[0].backend.update("k1", (1, "corrupted"))
        assert injector.active_count == 0
        assert "replicas-converge-after-heal" in violated(world)

    def test_unrevived_replica_trips_after_heal_invariant(self):
        store = make_store()
        injector = FaultInjector(store)
        store.put("k1", (1, "payload"))
        world = World.observe(store)
        injector.kill_replica(0, 0)
        # Mid-fault the invariant stays silent — a down replica IS the
        # injected state.
        assert "replicas-converge-after-heal" not in violated(world)
        # Tamper: clear the injector's books without reviving the node.
        injector._down.clear()
        assert "replicas-converge-after-heal" in violated(world)


class TestDriverHook:
    @pytest.fixture()
    def scenario(self):
        store = make_store(shards=4, n_replicas=1)
        workload = erasure_study_workload(300, 400, seed=4)
        load_store(store, workload)
        driver = RebalanceDriver(store.begin_resize(5, batch_size=12))
        return store, workload, driver

    def test_interleaved_run_evaluates_registry(self, scenario):
        store, workload, driver = scenario
        invariants = store_invariants()
        result = run_interleaved(
            store,
            workload,
            driver,
            ops_per_step=20,
            budget_keys=12,
            consistency="quorum",
            invariants=invariants,
        )
        # One sweep per step boundary plus the post-drain sweep, each
        # evaluating the full registry.
        boundaries = workload.transaction_count // 20 + 1
        assert result.invariants_checked == boundaries * len(invariants)
        assert result.invariant_violations == ()
        assert result.erases_verified_clean
        assert result.rebalance_completed

    def test_without_registry_nothing_is_checked(self, scenario):
        store, workload, driver = scenario
        result = run_interleaved(
            store,
            workload,
            driver,
            ops_per_step=20,
            budget_keys=12,
            consistency="quorum",
        )
        assert result.invariants_checked == 0
        assert result.invariant_violations == ()
