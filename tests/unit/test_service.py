"""ComplianceService — concurrency, admission control, erase batching.

The deterministic parts (staged queues via ``autostart=False``) pin exact
behavior; the seeded multi-client smoke exercises true thread races with
the invariant registry as oracle.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.analysis.invariants import store_invariants
from repro.config import BackendConfig, ServiceConfig, StoreConfig
from repro.distributed.store import ReplicatedStore
from repro.service import (
    CollectRequest,
    ComplianceService,
    EraseRequest,
    ReadRequest,
    SarRequest,
    Status,
    UpdateRequest,
    run_loadgen,
)
from repro.service.http import serve_in_background
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel
from repro.storage.errors import TupleNotFoundError
from repro.workloads.driver import load_store
from repro.workloads.gdprbench import erasure_study_workload


def make_service(shards=2, invariants=False, initial_live=(), **cfg):
    cost = CostModel(SimClock(), CostBook())
    store = ReplicatedStore.from_config(
        cost, StoreConfig(shards=shards, n_replicas=1)
    )
    service = ComplianceService(
        store,
        config=ServiceConfig(**cfg) if cfg else None,
        invariants=store_invariants() if invariants else None,
        initial_live=initial_live,
        autostart=False,
    )
    return service, store


class TestRequestPath:
    def test_full_lifecycle(self):
        service, _ = make_service()
        service.start()
        assert service.call(CollectRequest("k1", "v1", subject="alice")).status \
            is Status.CREATED
        assert service.call(ReadRequest("k1")).value == "v1"
        assert service.call(UpdateRequest("k1", "v2")).status is Status.OK
        assert service.call(ReadRequest("k1")).value == "v2"
        erased = service.call(EraseRequest("k1"))
        assert erased.ok and erased.verified_clean
        assert service.call(ReadRequest("k1")).status is Status.NOT_FOUND
        sar = service.call(SarRequest("alice"))
        assert sar.ok
        (unit,) = sar.value
        assert unit.key == "k1" and unit.erased and unit.value is None
        service.close()

    def test_closed_service_rejects_with_503(self):
        service, _ = make_service()
        service.start()
        service.close()
        response = service.call(ReadRequest("k"))
        assert response.status is Status.SHUTTING_DOWN

    def test_close_is_idempotent(self):
        service, _ = make_service()
        service.close()
        service.close()


class TestAdmissionControl:
    def test_full_queue_rejects_without_side_effects(self):
        # autostart=False: no workers are draining, so the queue state is
        # fully deterministic.
        service, store = make_service(
            shards=1, invariants=True, queue_depth=2
        )
        store.put("victim", "v")
        service.world.live.add("victim")
        world_live = set(service.world.live)
        world_erased = set(service.world.erased)

        futures = [
            service.submit(ReadRequest("victim")),
            service.submit(ReadRequest("victim")),
        ]
        rejected = service.submit(EraseRequest("victim"))
        # The rejection resolves immediately — no worker involved.
        response = rejected.result(timeout=0)
        assert response.status is Status.REJECTED
        assert response.rejected
        assert "admission queue full" in response.error

        # No side effects: nothing erased, no world bookkeeping, no
        # completion counted — the store never saw the request.
        assert store.read("victim") == "v"
        assert service.world.live == world_live
        assert service.world.erased == world_erased
        stats = service.stats()
        assert stats.rejected == 1
        assert stats.completed == 0
        assert stats.erased_keys == 0

        service.close()  # drains the two staged reads through workers
        assert all(f.result(timeout=5).ok for f in futures)

    def test_rejection_counts_only_rejected(self):
        service, _ = make_service(shards=1, queue_depth=1)
        service.submit(ReadRequest("a"))
        service.submit(ReadRequest("b"))
        assert service.stats().rejected == 1
        assert service.stats().accepted == 1
        service.close()


class TestCompactionCounters:
    def test_stats_surface_store_compaction_state(self):
        """Service stats aggregate the deferred schedulers' throttle
        counters at snapshot time, so operators watch backlog and stalls
        through ``GET /stats`` instead of poking shard nodes."""
        cost = CostModel(SimClock(), CostBook())
        store = ReplicatedStore.from_config(
            cost,
            StoreConfig(
                backend=BackendConfig(
                    backend="lsm",
                    memtable_capacity=4,
                    compaction="leveled",
                    compaction_mode="deferred",
                ),
                shards=1,
                n_replicas=0,
            ),
        )
        service = ComplianceService(store, autostart=False)
        service.start()
        # 32 collects = 8 flushed runs on the single node: a visible merge
        # backlog, below the L0 stall threshold that would self-drain.
        for i in range(32):
            assert service.call(
                CollectRequest(f"k{i:03d}", i, subject="s")
            ).status is Status.CREATED
        backlog = service.stats()
        assert backlog.compaction_queue_depth > 0
        for _ in range(256):
            if service.stats().compaction_queue_depth == 0:
                break
            store.maintain(max_bytes=2048)
        drained = service.stats()
        assert drained.compaction_queue_depth == 0
        assert drained.merges_run > 0
        assert drained.bytes_compacted > 0
        service.close()


class TestEraseBatching:
    def test_shutdown_drains_staged_erases_in_batches(self):
        service, store = make_service(shards=1, queue_depth=32, erase_batch=8)
        keys = [f"k{i}" for i in range(12)]
        for key in keys:
            store.put(key, key)
        futures = [service.submit(EraseRequest(key)) for key in keys]
        # close() on a never-started service starts the workers first, so
        # the staged queue drains through the normal (batching) path.
        service.close()
        for future in futures:
            response = future.result(timeout=5)
            assert response.ok and response.verified_clean
        for key in keys:
            with pytest.raises(TupleNotFoundError):
                store.read(key, use_cache=False)
        stats = service.stats()
        assert stats.erased_keys == 12
        # 12 consecutive erases with erase_batch=8 → far fewer erase_many
        # calls than keys (2 at best; timing may split one batch).
        assert stats.erase_batches < 12
        assert stats.erase_batches >= 2

    def test_non_erase_item_mid_drain_still_executes(self):
        service, store = make_service(shards=1, queue_depth=32, erase_batch=8)
        store.put("e1", 1)
        store.put("e2", 2)
        store.put("r", "read-me")
        f1 = service.submit(EraseRequest("e1"))
        f2 = service.submit(EraseRequest("e2"))
        f3 = service.submit(ReadRequest("r"))
        service.close()
        assert f1.result(5).ok and f2.result(5).ok
        assert f3.result(5).value == "read-me"


class TestConcurrentSmoke:
    def test_eight_clients_erase_while_read_zero_violations(self):
        # Deterministic workload (seeded); the interleaving itself is
        # real thread racing, checked by the invariant oracle.
        cost = CostModel(SimClock(), CostBook())
        store = ReplicatedStore.from_config(
            cost,
            StoreConfig(
                backend=BackendConfig(backend="lsm", memtable_capacity=16),
                shards=3,
                n_replicas=1,
            ),
        )
        workload = erasure_study_workload(200, 240, seed=7)
        keys = load_store(store, workload)
        service = ComplianceService(
            store,
            config=ServiceConfig(
                workers_per_shard=2,
                queue_depth=16,
                erase_batch=8,
                invariant_check_every=2,
            ),
            invariants=store_invariants(),
            initial_live=keys,
        )
        service.begin_rebalance(4)
        report = run_loadgen(service, workload, clients=8)
        # close() drains requests, not the rebalance: a fast load can
        # finish before the maintenance thread's last step.
        service.drain_rebalance()
        service.close()

        assert report.clients == 8
        assert report.erases > 0 and report.reads > 0
        assert report.errors == 0
        assert report.erases_verified_clean
        assert service.rebalance_done
        assert service.violations == []
        stats = service.stats()
        assert stats.invariant_checks > 0
        assert stats.invariant_violations == 0

    def test_rebalance_already_running_raises(self):
        service, store = make_service(shards=2)
        for i in range(50):
            store.put(f"k{i}", i)
        service.start()
        service.begin_rebalance(3)
        with pytest.raises(RuntimeError, match="already in progress"):
            service.begin_rebalance(4)
        service.drain_rebalance()
        assert service.rebalance_done
        service.close()


class TestHttpTransport:
    def test_roundtrip(self):
        service, _ = make_service()
        service.start()
        server = serve_in_background(service)
        host, port = server.address
        base = f"http://{host}:{port}"

        def post(path, body):
            req = urllib.request.Request(
                base + path,
                data=json.dumps(body).encode(),
                headers={"Content-Type": "application/json"},
            )
            try:
                with urllib.request.urlopen(req) as r:
                    return r.status, json.loads(r.read())
            except urllib.error.HTTPError as e:
                return e.code, json.loads(e.read())

        code, _ = post("/collect", {"key": "k", "value": [1, "x"], "subject": "s"})
        assert code == 201
        code, body = post("/read", {"key": "k"})
        assert code == 200 and body["value"] == [1, "x"]
        code, body = post("/erase", {"key": "k"})
        assert code == 200 and body["verified_clean"] is True
        code, body = post("/read", {"key": "k"})
        assert code == 404
        code, body = post("/sar", {"subject": "s"})
        assert code == 200 and body["units"][0]["erased"] is True

        with urllib.request.urlopen(base + "/healthz") as r:
            assert r.status == 200
        with urllib.request.urlopen(base + "/stats") as r:
            stats = json.loads(r.read())
        assert stats["completed"] >= 4

        code, body = post("/nope", {"key": "k"})
        assert code == 404
        code, body = post("/read", {"wrong_field": 1})
        assert code == 400

        server.shutdown()
        server.server_close()
        service.close()
