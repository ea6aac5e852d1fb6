"""Compliance-as-a-service — a concurrent front door over a sharded store.

Eight client threads replay a GDPRBench-style erasure mix (20% DELETE /
80% READ) against a :class:`ComplianceService` while a background
rebalance migrates the keyspace underneath them.  The service batches
queued erases into single ``erase_many()`` reclamations, bounds each
shard's admission queue (full = HTTP-style 429, retried by the
closed-loop clients), and runs the runtime invariant registry as an
online oracle between requests.

Run:  python examples/compliance_service.py
"""

import threading
import time

from repro import (
    ComplianceService,
    CostBook,
    CostModel,
    ReplicatedStore,
    ServiceConfig,
    SimClock,
    StoreConfig,
    erasure_study_workload,
)
from repro.analysis.invariants import store_invariants
from repro.service import EraseRequest, ReadRequest
from repro.workloads.base import OpKind
from repro.workloads.driver import load_store, unit_key

CLIENTS = 8


def client(service, ops, erases):
    """One closed-loop client: send, wait, retry a 429 after 1 ms."""
    for op in ops:
        key = unit_key(op.key)
        request = EraseRequest(key) if op.kind is OpKind.DELETE else ReadRequest(key)
        response = service.call(request)
        while response.rejected:
            time.sleep(0.001)
            response = service.call(request)
        if op.kind is OpKind.DELETE:
            erases.append(response.ok and response.verified_clean)


def main() -> None:
    cost = CostModel(SimClock(), CostBook())
    store = ReplicatedStore.from_config(
        cost, StoreConfig(shards=3, n_replicas=1)
    )
    workload = erasure_study_workload(300, 300, seed=11)
    keys = load_store(store, workload)
    print(f"loaded {len(keys)} records over {len(store.shard_ids)} shards")

    service = ComplianceService(
        store,
        config=ServiceConfig(
            workers_per_shard=2,
            queue_depth=32,
            erase_batch=8,
            invariant_check_every=4,
        ),
        invariants=store_invariants(),
        initial_live=keys,
    )
    service.begin_rebalance(4)
    print("background rebalance to 4 shards attached; traffic flowing")

    erases = []
    clients = [
        threading.Thread(target=client, args=(service, workload.operations[i::CLIENTS], erases))
        for i in range(CLIENTS)
    ]
    started = time.perf_counter()
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    wall = time.perf_counter() - started
    service.close()

    stats = service.stats()
    print(f"{stats.completed} requests from {CLIENTS} clients in {wall:.2f}s")
    print(
        f"erases: {len(erases)} over {stats.erase_batches} erase_many() "
        f"batches; all verified clean: {all(erases)}"
    )
    print(f"admission: {stats.rejected} rejected (429) and retried")
    print(f"rebalance completed: {service.rebalance_done}")
    print(f"invariant violations: {len(service.violations)}")
    assert all(erases)
    assert not service.violations


if __name__ == "__main__":
    main()
