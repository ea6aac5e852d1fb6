"""Online rebalancing and quorum reads — the topology-change erasure story.

The §1 guarantee ("erase all copies" means every physical site) must
survive two things a production deployment does constantly: moving keys
between shards when the shard count changes, and serving reads from
replicas that trail the primary.  These tests pin the hazards:

* a migration copies a key before the source is erased — the in-flight
  window must be a tracked ``MIGRATION`` copy site, and an erase landing
  inside it must still verify clean on *both* owners;
* a shrinking ``begin_resize`` drains every key to the survivors and must
  leave the decommissioned shard holding nothing at all;
* a stale replica whose backlog contains the victim's DELETE happily
  serves the erased value to a pinned read — a quorum read must apply the
  backlog first and refuse.
"""

import pytest

from repro.config import BackendConfig, StoreConfig
from repro.core.actions import ActionType
from repro.core.entities import controller, data_subject
from repro.core.policy import Policy, Purpose
from repro.distributed.store import (
    CopyLocation,
    RebalanceDriver,
    ReplicatedStore,
)
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel
from repro.storage.errors import TupleNotFoundError
from repro.systems.database import CompliantDatabase

BACKENDS = ("psql", "lsm", "crypto-shred")


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


def make_store(backend="psql", **kwargs):
    """A store over the named backend; every other keyword is a
    :class:`StoreConfig` field (one replica, caches that never expire)."""
    kwargs.setdefault("n_replicas", 1)
    kwargs.setdefault("cache_ttl", 10**12)
    config = StoreConfig(backend=BackendConfig(backend=backend), **kwargs)
    clock = SimClock()
    return ReplicatedStore(CostModel(clock, CostBook()), config), clock


def load_keys(store, clock, n, warm=True):
    keys = [f"u{i:04d}" for i in range(n)]
    for i, key in enumerate(keys):
        store.put(key, i)
    clock.charge(60_000, "lag elapses")
    if warm and store.replica_count:
        for key in keys:
            store.read(key, replica=0)
    return keys


def first_in_flight(store, rebalance, keys):
    """Step the copy phase until some key is in flight; return one."""
    while not rebalance.done:
        rebalance.step()
        in_flight = [k for k in keys if rebalance.in_flight_route(k)]
        if in_flight:
            return in_flight[0]
    raise AssertionError("no batch ever went in flight")


class TestResize:
    def test_resize_moves_only_ring_affected_keys(self, backend):
        store, clock = make_store(backend=backend, shards=4)
        keys = load_keys(store, clock, 120)
        report = store.begin_resize(5).run()
        assert report.verified_clean
        assert 0 < report.keys_moved < len(keys) // 2  # ~K/5, never ~all
        assert report.shards_to == (0, 1, 2, 3, 4)
        for i, key in enumerate(keys):
            assert store.read(key) == i

    def test_grow_by_one_feeds_the_newcomer(self, backend):
        store, clock = make_store(backend=backend, shards=2)
        keys = load_keys(store, clock, 60, warm=False)
        report = store.begin_resize(3).run()
        assert report.verified_clean
        assert store.shard_count == 3
        assert {store.shard_of(k) for k in keys} >= {2}  # newcomer got keys
        for i, key in enumerate(keys):
            assert store.read(key) == i

    def test_moved_keys_are_grounded_at_the_source(self, backend):
        """After the resize no source-side copy of any moved key survives —
        asserted against the *former owner's shard object directly*, since
        post-rebalance routing no longer looks there (exactly where a
        silent leak would hide)."""
        store, clock = make_store(backend=backend, shards=3)
        keys = load_keys(store, clock, 90)
        pre_shards = dict(zip(store.shard_ids, store.shards()))
        moves = []
        store.add_move_listener(moves.append)
        report = store.begin_resize(4).run()
        assert report.keys_moved == len(moves) > 0
        for event in moves:
            assert store.shard_of(event.key) == event.dest
            copies = store.copies_of(event.key)
            assert copies  # the key still exists — at its new home
            assert CopyLocation.MIGRATION not in {loc for loc, _ in copies}
            # The source shard itself holds nothing — heap, caches, logs.
            assert pre_shards[event.source].copies_of(event.key) == []

    def test_naive_deleted_residues_are_grounded_on_resize(self, backend):
        """Regression: a key naive-deleted before the resize has no live
        value to migrate, but its residues (lagging replica copy, cache
        entry, log value, dead heap data) still sit on the old owner.  The
        rebalance must ground them — once the ring stops routing there,
        no later erase could ever find them."""
        store, clock = make_store(backend=backend, shards=2)
        keys = load_keys(store, clock, 40)  # replicas + caches warm
        victims = keys[:8]
        owner_before = {key: store.shard_of(key) for key in victims}
        for key in victims:
            store.naive_delete(key)
            assert store.copies_of(key)  # the §1 hazard is armed
        report = store.begin_resize(3).run()
        assert report.verified_clean
        assert report.keys_grounded_residue > 0
        relocated = [
            k for k in victims if store.shard_of(k) != owner_before[k]
        ]
        assert relocated, "expected some victims to change owner"
        for key in relocated:
            # Clean through the router AND on every shard object directly
            # (the former owner included) — nothing was orphaned.
            assert store.copies_of(key) == []
            for shard in store.shards():
                assert shard.copies_of(key) == [], (backend, key)
        for key in set(victims) - set(relocated):
            # Owner unchanged: the residues stay where routing still finds
            # them — the ordinary naive-delete hazard, erasable later.
            assert store.copies_of(key)
            assert store.erase_all_copies(key).verified_clean

    def test_key_dying_between_plan_and_batch_is_grounded(self, backend):
        """Regression: a key naive-deleted after planning but before its
        copy batch is skipped by the export — its source residues must be
        grounded with the batch rather than orphaned by the ring swap."""
        store, clock = make_store(backend=backend, shards=2)
        keys = load_keys(store, clock, 60)
        rebalance = store.begin_resize(3, batch_size=8)
        pending = [k for k in keys if rebalance.is_pending(k)]
        assert pending
        victim = pending[-1]  # in the last batch, far from the first step
        store.naive_delete(victim)
        while rebalance.step():
            pass
        assert rebalance.report.keys_skipped >= 1
        assert store.copies_of(victim) == []
        for shard in store.shards():
            assert shard.copies_of(victim) == [], (backend, victim)

    def test_replicas_catch_up_on_migrated_keys(self, backend):
        store, clock = make_store(backend=backend, shards=2)
        keys = load_keys(store, clock, 40)
        moves = []
        store.add_move_listener(moves.append)
        store.begin_resize(3).run()
        clock.charge(60_000, "post-rebalance lag elapses")
        for event in moves:
            idx = int(str(event.key)[1:])
            assert store.read(event.key, replica=0) == idx

    def test_resize_rejects_concurrent_rebalance(self):
        store, clock = make_store(shards=2)
        load_keys(store, clock, 20, warm=False)
        store.begin_resize(3)
        with pytest.raises(RuntimeError):
            store.begin_resize(4)

    def test_step_only_driving_finalizes(self, backend):
        """Regression: `while r.step(): pass` must commit the topology just
        like run() — ring swapped, drained shards decommissioned and
        dropped, rebalance state cleared, report available."""
        store, clock = make_store(backend=backend, shards=3)
        keys = load_keys(store, clock, 60, warm=False)
        rebalance = store.begin_resize(2, batch_size=8)
        while rebalance.step():
            pass
        assert store.shard_ids == (0, 1)
        assert not store.rebalance_in_progress
        assert rebalance.report is not None
        assert rebalance.report.verified_clean
        assert rebalance.run() is rebalance.report  # idempotent
        store.begin_resize(3).run()  # free for the next topology change
        for i, key in enumerate(keys):
            assert store.read(key) == i

    def test_rejected_begin_leaves_topology_untouched(self):
        """Regression: a begin_resize that fails validation — its own, the
        weights', or the target ring's — must not leak freshly spawned
        (unrouted) shards into the store."""
        store, clock = make_store(shards=2)
        load_keys(store, clock, 10, warm=False)
        for call in (
            lambda: store.begin_resize(4, batch_size=0),
            lambda: store.begin_resize(3, batch_size=-1),
            lambda: store.begin_resize(4, weights=[1.0, 1.0]),  # 2 for 4
            lambda: store.begin_resize(3, weights=[1.0, 1.0, -2.0]),
        ):
            with pytest.raises(ValueError):
                call()
            assert store.shard_ids == (0, 1)
            assert not store.rebalance_in_progress
        # No shard id was burnt either: the next grow spawns shard 2.
        assert store.begin_resize(3).run().shards_to == (0, 1, 2)

    def test_writes_during_rebalance_land_once(self, backend):
        store, clock = make_store(backend=backend, shards=2)
        keys = load_keys(store, clock, 60, warm=False)
        rebalance = store.begin_resize(3, batch_size=8)
        rebalance.step()  # copy step
        store.put("fresh", "new-value")  # routed by the new ring
        pending = [k for k in keys if rebalance.is_pending(k)]
        if pending:
            store.update(pending[0], "rewritten")  # still at its source
        rebalance.run()
        assert store.read("fresh") == "new-value"
        if pending:
            assert store.read(pending[0]) == "rewritten"


class TestMigrationCopyTracking:
    def test_in_flight_key_is_a_migration_site(self, backend):
        store, clock = make_store(backend=backend, shards=3)
        keys = load_keys(store, clock, 90)
        rebalance = store.begin_resize(4, batch_size=8)
        victim = first_in_flight(store, rebalance, keys)
        locations = {loc for loc, _name in store.copies_of(victim)}
        assert CopyLocation.MIGRATION in locations
        # Both physical owners are visible while the move is in flight.
        assert CopyLocation.PRIMARY in locations
        rebalance.run()
        # Grounded: the MIGRATION site is gone the moment the source erase
        # completes, and only the new owner's copies remain.
        locations = {loc for loc, _name in store.copies_of(victim)}
        assert CopyLocation.MIGRATION not in locations

    def test_migration_site_names_the_route(self, backend):
        store, clock = make_store(backend=backend, shards=2)
        keys = load_keys(store, clock, 40, warm=False)
        rebalance = store.begin_resize(3, batch_size=4)
        victim = first_in_flight(store, rebalance, keys)
        src, dst = rebalance.in_flight_route(victim)
        sites = dict(
            (loc, name) for loc, name in store.copies_of(victim)
        )
        assert sites[CopyLocation.MIGRATION] == f"shard-{src}→shard-{dst}"

    def test_holds_any_sees_backend_secondary_sites(self, backend):
        """Regression: the per-batch "grounded clean" check kept its own
        site enumeration and never asked ``copy_locations``, so a value
        surviving only in an open export batch passed it while
        ``copies_of`` still reported the copy."""
        store, _clock = make_store(backend=backend, n_replicas=0)
        store.put("pii", "sensitive")
        shard = store._shards[0]
        with shard.open_export_encoded(lambda k: True, name="out"):
            # Ground the heap, WAL and replication-log copies by hand and
            # skip scrub_exports: only the batch still carries the value.
            shard.primary.backend.delete("pii")
            shard.primary.backend.reclaim()
            shard._log.scrub("pii")
            assert store.copies_of("pii") == [
                (CopyLocation.MIGRATION, "primary[out]")
            ]
            assert shard.holds_any(["pii", "ghost"]) == ["pii"]
        assert shard.holds_any(["pii"]) == []


class TestEraseMidRebalance:
    def test_erase_in_flight_key_verifies_clean(self, backend):
        store, clock = make_store(backend=backend, shards=3)
        keys = load_keys(store, clock, 90)
        rebalance = store.begin_resize(4, batch_size=8)
        victim = first_in_flight(store, rebalance, keys)
        report = store.erase_all_copies(victim)
        assert report.verified_clean
        assert store.copies_of(victim) == []
        rebalance.run()
        # The cancelled move must not resurrect the key anywhere.
        assert store.copies_of(victim) == []
        with pytest.raises(TupleNotFoundError):
            store.read(victim)

    def test_erase_pending_key_verifies_clean(self, backend):
        store, clock = make_store(backend=backend, shards=3)
        keys = load_keys(store, clock, 90)
        rebalance = store.begin_resize(4, batch_size=8)
        rebalance.step()
        pending = [k for k in keys if rebalance.is_pending(k)]
        assert pending, "expected keys still awaiting their copy step"
        report = store.erase_all_copies(pending[0])
        assert report.verified_clean
        rebalance.run()
        assert store.copies_of(pending[0]) == []

    def test_erase_many_mid_rebalance_covers_both_owners(self, backend):
        store, clock = make_store(backend=backend, shards=3)
        keys = load_keys(store, clock, 90)
        rebalance = store.begin_resize(4, batch_size=8)
        in_flight = first_in_flight(store, rebalance, keys)
        pending = [k for k in keys if rebalance.is_pending(k)][:2]
        unmoved = [k for k in keys if not rebalance.is_pending(k)][:2]
        victims = [in_flight] + pending + unmoved
        report = store.erase_many(victims)
        assert report.verified_clean
        for key in victims:
            assert store.copies_of(key) == []
        rebalance.run()
        for key in victims:
            assert store.copies_of(key) == []

    def test_mid_rebalance_reads_dual_route(self, backend):
        """Ring-new first, fall back to ring-old: every key stays readable
        through the whole migration, whichever side currently holds it."""
        store, clock = make_store(backend=backend, shards=3)
        keys = load_keys(store, clock, 60)
        rebalance = store.begin_resize(4, batch_size=8)
        while not rebalance.done:
            rebalance.step()
            for i, key in enumerate(keys):
                assert store.read(key) == i
        rebalance.run()


class TestRemoveShard:
    def test_remove_drains_to_survivors(self, backend):
        store, clock = make_store(backend=backend, shards=3)
        keys = load_keys(store, clock, 60)
        drained = [k for k in keys if store.shard_of(k) == 2]
        assert drained, "expected shard 2 to own some keys"
        report = store.begin_resize(2).run()
        assert report.verified_clean
        assert store.shard_ids == (0, 1)
        for i, key in enumerate(keys):
            assert store.read(key) == i
            assert store.shard_of(key) != 2

    def test_removed_shard_holds_nothing(self, backend):
        store, clock = make_store(backend=backend, shards=3)
        keys = load_keys(store, clock, 60)
        doomed = store._shards[2]
        store.begin_resize(2).run()
        assert doomed.holds_nothing()
        for node in doomed.nodes():
            stats = node.backend.stats()
            assert stats.live_entries == 0 and stats.dead_entries == 0
            assert not node.cache
        for key in keys:  # nothing leaked during the drain either
            assert store.copies_of(key)  # still exists — on a survivor

    def test_cannot_remove_last_shard(self):
        store, _ = make_store(shards=1)
        with pytest.raises(ValueError):
            store.begin_resize(0)
        assert store.shard_ids == (0,)


class TestQuorumReads:
    def test_consistency_levels_validate(self):
        store, _ = make_store()
        store.put("k", "v")
        with pytest.raises(ValueError):
            store.read("k", consistency="most")
        with pytest.raises(ValueError):
            store.read("k", replica=0, consistency="quorum")

    def test_quorum_read_returns_fresh_value(self, backend):
        store, _ = make_store(backend=backend, n_replicas=2)
        store.put("k", "v1")
        store.update("k", "v2")
        assert store.read("k", consistency="quorum") == "v2"
        assert store.read("k", consistency="all") == "v2"

    def test_quorum_forces_only_the_replicas_it_needs(self, backend):
        store, _ = make_store(
            backend=backend, n_replicas=2, replication_lag=10**9
        )
        store.put("k", "v")
        store.read("k", consistency="quorum")
        replicas = next(store.shards()).replicas
        seqnos = sorted(n.applied_seqno for n in replicas)
        # Majority of 3 nodes = primary + 1 replica: exactly one replica
        # was force-applied, the other still lags.
        assert seqnos == [0, 1]

    def test_stale_replica_never_serves_erased_value_at_quorum(self, backend):
        """Regression (the acceptance case): the primary deleted the key,
        the replica's unapplied backlog still holds the value *and* the
        DELETE.  A pinned read serves the corpse; a quorum read must not."""
        store, clock = make_store(backend=backend, n_replicas=2)
        store.put("pii", "sensitive")
        clock.charge(60_000, "lag elapses")
        store.read("pii", replica=0, use_cache=False)
        store.naive_delete("pii")
        # The hazard: the DELETE sits unapplied in both replicas' backlogs.
        assert store.replication_backlog(0) > 0
        assert store.read("pii", replica=0, use_cache=False) == "sensitive"
        for level in ("quorum", "all"):
            with pytest.raises(TupleNotFoundError):
                store.read("pii", use_cache=False, consistency=level)

    def test_quorum_read_applies_backlogged_delete_before_answering(
        self, backend
    ):
        store, _ = make_store(
            backend=backend, n_replicas=1, replication_lag=10**9
        )
        store.put("pii", "sensitive")
        store.naive_delete("pii")
        with pytest.raises(TupleNotFoundError):
            store.read("pii", consistency="quorum")
        # The participating replica applied the victim's DELETE en route.
        replica = next(store.shards()).replicas[0]
        assert replica.applied_seqno == 2
        assert not replica.backend.exists("pii")

    def test_quorum_reads_work_mid_rebalance(self, backend):
        store, clock = make_store(backend=backend, shards=2, n_replicas=1)
        keys = load_keys(store, clock, 40)
        rebalance = store.begin_resize(3, batch_size=8)
        rebalance.step()
        for i, key in enumerate(keys[:10]):
            assert store.read(key, consistency="quorum") == i
        rebalance.run()


class TestWeightedShards:
    def test_heavier_shard_owns_proportional_keyspace(self):
        store, clock = make_store(shards=3, shard_weights={2: 2.0})
        keys = load_keys(store, clock, 400, warm=False)
        counts = {sid: 0 for sid in store.shard_ids}
        for key in keys:
            counts[store.shard_of(key)] += 1
        # Shard 2 (weight 2 of total 4) should own roughly half the keys.
        assert counts[2] > counts[0] and counts[2] > counts[1]
        assert 0.35 <= counts[2] / len(keys) <= 0.65, counts
        assert store.shard_weights == {0: 1.0, 1: 1.0, 2: 2.0}

    def test_resize_with_weights_feeds_the_heavy_newcomer(self, backend):
        store, clock = make_store(backend=backend, shards=2)
        keys = load_keys(store, clock, 200, warm=False)
        report = store.begin_resize(3, weights=[1.0, 1.0, 2.0]).run()
        assert report.verified_clean
        assert store.shard_weights[2] == 2.0
        counts = {sid: 0 for sid in store.shard_ids}
        for key in keys:
            counts[store.shard_of(key)] += 1
        # Weight 2 of total 4 → roughly half, far above the 1/3 an
        # unweighted grow would hand the newcomer.
        assert counts[2] / len(keys) >= 0.38, counts
        for i, key in enumerate(keys):
            assert store.read(key) == i

    def test_reweight_is_a_grounded_migration(self, backend):
        store, clock = make_store(backend=backend, shards=2)
        keys = load_keys(store, clock, 80)
        pre_shards = dict(zip(store.shard_ids, store.shards()))
        moves = []
        store.add_move_listener(moves.append)
        report = store.begin_resize(2, weights={0: 3.0}).run()
        assert report.verified_clean
        assert report.keys_moved == len(moves) > 0
        assert store.shard_weights == {0: 3.0, 1: 1.0}
        for event in moves:
            # Reweighting only pulls keys toward the upweighted shard, and
            # every move grounded its source copies.
            assert event.dest == 0
            assert pre_shards[event.source].copies_of(event.key) == []
        for i, key in enumerate(keys):
            assert store.read(key) == i

    def test_grow_with_light_newcomer(self):
        store, clock = make_store(shards=2)
        load_keys(store, clock, 60, warm=False)
        report = store.begin_resize(3, weights={2: 0.5}).run()
        assert report.verified_clean
        assert store.shard_weights[2] == 0.5

    def test_constructor_rejects_unknown_weight_ids(self):
        """Regression: shard_weights naming a nonexistent shard must not
        silently fall back to a uniform ring."""
        with pytest.raises(ValueError):
            make_store(shards=2, shard_weights={2: 4.0})

    def test_weight_validation(self):
        store, clock = make_store(shards=2)
        load_keys(store, clock, 10, warm=False)
        with pytest.raises(ValueError):
            store.begin_resize(3, weights=[1.0, 1.0])  # one per target shard
        with pytest.raises(ValueError):
            store.begin_resize(3, weights={9: 1.0})  # unknown shard id
        with pytest.raises(ValueError):
            store.begin_resize(2, weights={0: -1.0})  # must be positive
        with pytest.raises(ValueError):
            store.begin_resize(2, weights={})
        # Rejected begins left no rebalance state behind.
        assert not store.rebalance_in_progress
        store.begin_resize(3).run()  # the store still works


class TestRebalanceDriver:
    def test_bounded_steps_complete_and_finalize(self, backend):
        store, clock = make_store(backend=backend, shards=3)
        keys = load_keys(store, clock, 120)
        driver = RebalanceDriver(store.begin_resize(4, batch_size=8))
        steps = 0
        while not driver.done:
            processed = driver.step(budget_keys=8)
            steps += 1
            assert processed <= 8 + 7  # overshoot < one half-batch
            # Live traffic keeps working at every step boundary.
            for i, key in enumerate(keys[:5]):
                assert store.read(key) == i
        assert steps >= 3  # genuinely incremental, not one-shot
        assert driver.steps == steps
        assert driver.report is not None and driver.report.verified_clean
        assert not store.rebalance_in_progress
        assert store.shard_ids == (0, 1, 2, 3)

    def test_budget_validates(self):
        store, clock = make_store(shards=2)
        load_keys(store, clock, 20, warm=False)
        driver = RebalanceDriver(store.begin_resize(3))
        with pytest.raises(ValueError):
            driver.step(budget_keys=0)
        driver.run()

    @pytest.mark.parametrize(
        "phase", ["planned", "in-flight", "moved", "finalized"]
    )
    def test_erase_at_every_phase_boundary(self, backend, phase):
        """A grounded erase landing at any migration phase boundary —
        before the key's copy step, while it is in flight, after its move
        grounded (rebalance still running), or after finalize — must leave
        zero copies anywhere, old owner included."""
        store, clock = make_store(backend=backend, shards=3)
        keys = load_keys(store, clock, 90)
        moves = []
        store.add_move_listener(moves.append)
        driver = RebalanceDriver(store.begin_resize(4, batch_size=8))
        rebalance = driver.rebalance
        victim = None
        if phase == "planned":
            pending = [k for k in keys if rebalance.is_pending(k)]
            assert pending
            victim = pending[-1]
        elif phase == "in-flight":
            victim = first_in_flight(store, rebalance, keys)
        elif phase == "moved":
            while not moves and not driver.done:
                driver.step(budget_keys=8)
            assert moves, "expected a grounded move before completion"
            victim = moves[0].key
        else:  # finalized
            driver.run(budget_keys=8)
            victim = keys[0]
        report = store.erase_all_copies(victim)
        assert report.verified_clean
        assert store.copies_of(victim) == []
        driver.run(budget_keys=8)
        assert store.copies_of(victim) == []
        for shard in store.shards():
            assert shard.copies_of(victim) == [], (backend, phase, victim)
        with pytest.raises(TupleNotFoundError):
            store.read(victim)


class TestReadRepair:
    def test_diverged_quorum_read_queues_repair(self, backend):
        store, _ = make_store(backend=backend, n_replicas=2)
        store.put("k", "v1")
        store.update("k", "v2")  # both replicas now lag by two entries
        assert store.pending_repairs == 0
        assert store.read("k", use_cache=False, consistency="quorum") == "v2"
        # The quorum force-applied one replica; the other still lags.
        assert store.pending_repairs == 1

    def test_flush_converges_replicas_and_reports(self, backend):
        store, _ = make_store(backend=backend, n_replicas=2)
        store.put("k", "v1")
        store.update("k", "v2")
        store.read("k", use_cache=False, consistency="quorum")
        events = store.flush_repairs()
        assert len(events) == 1
        event = events[0]
        assert event.key == "k"
        assert event.replicas_repaired == 1
        assert event.entries_applied == 2
        assert store.pending_repairs == 0
        # Every replica of the shard now serves the fresh value.
        for r in range(store.replica_count):
            assert store.read("k", replica=r, use_cache=False) == "v2"
        # Converged: a fresh quorum read queues nothing new.
        store.read("k", use_cache=False, consistency="quorum")
        assert store.pending_repairs == 0

    def test_one_reads_never_queue(self):
        store, _ = make_store(n_replicas=2)
        store.put("k", "v")
        store.read("k", use_cache=False)
        assert store.pending_repairs == 0

    def test_all_read_converges_inline(self, backend):
        """consistency='all' force-applies every replica as part of the
        read — no laggards remain, so no asynchronous repair is queued."""
        store, _ = make_store(backend=backend, n_replicas=2)
        store.put("k", "v")
        store.read("k", use_cache=False, consistency="all")
        assert store.pending_repairs == 0

    def test_repeated_diverged_reads_dedupe(self):
        store, _ = make_store(n_replicas=2)
        store.put("k", "v1")
        store.read("k", use_cache=False, consistency="quorum")
        store.update("k", "v2")
        store.read("k", use_cache=False, consistency="quorum")
        assert store.pending_repairs == 1  # one slot, target raised

    def test_repair_never_resurrects_erased_value(self, backend):
        """The race the issue pins: a repair queued while the key lived
        must not re-create it on a lagging replica after a grounded erase
        scrubbed the log."""
        store, _ = make_store(backend=backend, n_replicas=2)
        store.put("pii", "sensitive")
        assert store.read(
            "pii", use_cache=False, consistency="quorum"
        ) == "sensitive"
        assert store.pending_repairs == 1
        report = store.erase_all_copies("pii")
        assert report.verified_clean
        events = store.flush_repairs()
        # The erase barrier already converged every replica past the
        # victim's entries, so the stale repair finds nothing to do and
        # records nothing.
        assert events == []
        assert store.copies_of("pii") == []
        for node in store.nodes():
            assert not node.backend.exists("pii")
        with pytest.raises(TupleNotFoundError):
            store.read("pii", use_cache=False, consistency="quorum")

    def test_erase_after_flush_stays_clean(self, backend):
        """Repair first, grounded erase second: the repaired replica's
        copy is a tracked location the erase still grounds."""
        store, _ = make_store(backend=backend, n_replicas=2)
        store.put("pii", "sensitive")
        store.read("pii", use_cache=False, consistency="quorum")
        assert store.flush_repairs()
        report = store.erase_all_copies("pii")
        assert report.verified_clean
        assert store.copies_of("pii") == []

    def test_flush_skips_decommissioned_shard(self):
        store, clock = make_store(shards=3, n_replicas=2)
        keys = load_keys(store, clock, 60, warm=False)
        on_two = [k for k in keys if store.shard_of(k) == 2]
        assert on_two
        store.read(on_two[0], use_cache=False, consistency="quorum")
        assert store.pending_repairs >= 1
        store.begin_resize(2).run()
        events = store.flush_repairs()
        assert all(e.shard != 2 for e in events)

    def test_driver_step_flushes_pending_repairs(self, backend):
        store, clock = make_store(backend=backend, shards=2, n_replicas=2)
        keys = load_keys(store, clock, 60, warm=False)
        driver = RebalanceDriver(store.begin_resize(3, batch_size=8))
        driver.rebalance.step()  # migration imports create replica backlog
        moved = [k for k in keys if driver.rebalance.in_flight_route(k)]
        assert moved
        store.read(moved[0], use_cache=False, consistency="quorum")
        assert store.pending_repairs >= 1
        driver.step(budget_keys=8)
        assert store.pending_repairs == 0
        driver.run(budget_keys=8)
        assert driver.repairs  # the driver recorded the flushed repairs


class TestFacadeRepairAudit:
    def _db_with_diverged_store(self):
        metaspace = controller("MetaSpace")
        user = data_subject("user-1")
        db = CompliantDatabase(metaspace)
        clock = SimClock()
        cost = CostModel(clock, CostBook())
        store = ReplicatedStore(cost, StoreConfig(n_replicas=2, shards=1))
        db.attach_replicated_store(store)
        window = (0, 10**12)
        for i in range(6):
            unit_id = f"u{i:04d}"
            db.collect(
                unit_id,
                user,
                "app",
                {"i": i},
                [Policy(Purpose.SERVICE, metaspace, *window)],
                erase_deadline=10**12,
            )
            store.put(unit_id, {"i": i})
        return db, store

    def test_repairs_are_recorded_as_audit_actions(self):
        db, store = self._db_with_diverged_store()
        store.read("u0001", use_cache=False, consistency="quorum")
        events = store.flush_repairs()
        assert events
        repairs = [
            e
            for e in db.history.of("u0001")
            if e.action.type is ActionType.REPAIR
        ]
        assert len(repairs) == 1
        detail = repairs[0].action.detail or ""
        assert "read repair" in detail and "re-synced" in detail

    def test_unmodelled_keys_are_skipped(self):
        db, store = self._db_with_diverged_store()
        store.put("engine-internal", "not a data unit")
        store.read("engine-internal", use_cache=False, consistency="quorum")
        store.flush_repairs()
        assert "engine-internal" not in db.history

    def test_repair_does_not_trip_compliance_checks(self):
        db, store = self._db_with_diverged_store()
        store.read("u0002", use_cache=False, consistency="quorum")
        store.flush_repairs()
        report = db.check_compliance()
        assert report.compliant, report.violations


class TestFacadeMoveAudit:
    def _db_with_store(self, n=40):
        metaspace = controller("MetaSpace")
        user = data_subject("user-1")
        db = CompliantDatabase(metaspace)
        clock = SimClock()
        cost = CostModel(clock, CostBook())
        store = ReplicatedStore(cost, StoreConfig(n_replicas=1, shards=2))
        db.attach_replicated_store(store)
        window = (0, 10**12)
        for i in range(n):
            unit_id = f"u{i:04d}"
            db.collect(
                unit_id,
                user,
                "app",
                {"i": i},
                [Policy(Purpose.SERVICE, metaspace, *window)],
                erase_deadline=10**12,
            )
            store.put(unit_id, {"i": i})
        return db, store, clock

    def test_moves_are_recorded_as_audit_actions(self):
        db, store, clock = self._db_with_store()
        moves = []
        store.add_move_listener(moves.append)
        report = store.begin_resize(3).run()
        assert report.keys_moved == len(moves) > 0
        for event in moves:
            history = db.history.of(event.key)
            move_actions = [
                e for e in history if e.action.type is ActionType.MOVE
            ]
            assert len(move_actions) == 1
            assert f"shard-{event.source}→shard-{event.dest}" in (
                move_actions[0].action.detail or ""
            )

    def test_unmodelled_keys_are_skipped(self):
        db, store, clock = self._db_with_store(n=4)
        store.put("engine-internal", "not a data unit")
        before = len(db.history)
        store.begin_resize(3).run()
        assert "engine-internal" not in db.history
        # Modelled units may have gained MOVE records; nothing else did.
        assert all(
            e.action.type is not ActionType.MOVE
            or e.unit_id.startswith("u")
            for e in db.history.all_tuples()
        )
        assert len(db.history) >= before

    def test_move_does_not_trip_compliance_checks(self):
        db, store, _clock = self._db_with_store(n=10)
        store.begin_resize(3).run()
        report = db.check_compliance()
        assert report.compliant, report.violations
