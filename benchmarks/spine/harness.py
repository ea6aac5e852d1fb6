"""Set a deployment up, drive one workload through its front door, keep
what happened.

One pass is: set-up (timed, repeated, median reported) → warm-up → the
**main phase** (the workload's mix from ``CLIENTS`` threads; closed loop,
or open loop at a fixed rate over HTTP) → space and memory, as that traffic
left them → the **erase tail** (one client erasing its own keys, closed
loop, through the same front door — what a grounded erase costs after this
traffic) → close (the service's invariant sweep) → the oracle's final
sweep.  The measured window
is split between main (``Workload.main_share``; its first 5 % is warm-up,
run but not counted) and tail.
"""

from __future__ import annotations

import gc
import itertools
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import codec
from repro.analysis.invariants import store_invariants
from repro.config import ServiceConfig, StoreConfig
from repro.distributed.store import ReplicatedStore
from repro.service.http import ServiceHTTPServer, serve_in_background
from repro.service.server import ComplianceService
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel

from spine import trace
from spine.check import ClientModel, final_sweep, key_name, make_value
from spine.loadgen import (
    Client,
    Slice,
    Tally,
    http_sender,
    inproc_sender,
    run_phase,
    speed_factor,
    speed_probe,
)
from spine.workloads import (
    CLIENTS,
    ZIPF_THETA,
    Workload,
    arrivals,
    digest,
    erase_stream,
    op_stream,
    scaled_records,
)

#: The one deployment every workload runs on (same service knobs as
#: ``bench_service.py``; the invariant registry runs once, at close).
SHARDS = 3
REPLICAS = 1
SERVICE_CONFIG = ServiceConfig(
    workers_per_shard=2, queue_depth=16, erase_batch=8, invariant_check_every=0
)

WARMUP_SHARE = 0.05
#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: The tail erases at most this many keys, and paces itself to spend its
#: whole window on them, so that the fast backends' erases too sample
#: several seconds of machine.
TAIL_MAX_ERASES = 400
#: Twin-store pass: victims per side, in alternating blocks.
TWIN_VICTIMS = 200
TWIN_BLOCK = 50


# ------------------------------------------------------------------ set-up
@dataclass
class Deployment:
    store: ReplicatedStore
    service: ComplianceService
    server: Optional[ServiceHTTPServer]

    def close(self) -> List[str]:
        """Stop the front door; returns the close-time invariant
        violations."""
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
        self.service.close()
        return list(self.service.violations)


def build_store(workload: Workload, records: int) -> ReplicatedStore:
    store = ReplicatedStore.from_config(
        CostModel(SimClock(), CostBook()),
        StoreConfig(backend=workload.backend, shards=SHARDS, n_replicas=REPLICAS),
    )
    for index in range(records):
        store.put(key_name(index), make_value(index, 0))
    return store


def deploy(workload: Workload, records: int) -> Deployment:
    store = build_store(workload, records)
    service = ComplianceService(
        store,
        config=SERVICE_CONFIG,
        invariants=store_invariants(),
        initial_live=[key_name(i) for i in range(records)],
    )
    server = serve_in_background(service) if workload.http else None
    return Deployment(store, service, server)


def timed_deploys(
    workload: Workload, records: int, repeats: int
) -> Tuple[Deployment, float]:
    """Set up ``repeats`` times; keep the last, report the median
    (speed-normalised) time."""
    times = []
    deployment = None
    for _ in range(repeats):
        if deployment is not None:
            deployment.close()
            deployment = None
        # Freeing the previous deployment is not this one's cost (left to
        # the collector's own timing it made set-ups 1.6× dearer and their
        # spread 0.4 instead of 0.03).
        gc.collect()
        before = speed_probe()
        start = time.perf_counter()
        deployment = deploy(workload, records)
        elapsed = time.perf_counter() - start
        times.append(elapsed * speed_factor(before, speed_probe()))
    assert deployment is not None
    return deployment, statistics.median(times)


def space_and_engine_counters(
    store: ReplicatedStore, models: Sequence[ClientModel]
) -> Dict[str, float]:
    """Bytes at rest over every node against the encoded bytes of the live
    user values, plus the engines' own counters summed over nodes."""
    data = index = log = dead = nodes = 0
    detail: Dict[str, float] = {}
    for node in store.nodes():
        nodes += 1
        backend = node.backend
        data += backend.data_bytes()
        index += backend.index_bytes()
        log += backend.log_bytes()
        stats = backend.stats()
        dead += stats.dead_entries
        for name, value in stats.detail:
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                detail[name] = detail.get(name, 0) + value
    live_values = 0
    user_bytes = 0
    for model in models:
        for i in model.live:
            live_values += 1
            user_bytes += len(codec.encode(model.value(i)))
    lookups = detail.get("cache_hits", 0) + detail.get("cache_misses", 0)
    return {
        "space_amp": (data + index + log) / user_bytes,
        "systems.backends.data_bytes": data,
        "systems.backends.index_bytes": index,
        "systems.backends.log_bytes": log,
        "systems.backends.dead_entries_end": dead,
        "codec.bytes_per_value": user_bytes / live_values,
        "lsm.cache_hit_rate": detail.get("cache_hits", 0) / lookups if lookups else 0.0,
        "lsm.write_amp": detail.get("write_amplification", 0) / nodes,
        "lsm.flushes": detail.get("flushes", 0),
        "lsm.merges_run": detail.get("merges_run", 0),
        "lsm.bytes_compacted": detail.get("bytes_compacted", 0),
        "lsm.stall_events": detail.get("stall_events", 0),
        "storage.dead_fraction_end": detail.get("dead_fraction", 0) / nodes,
        "storage.pages": detail.get("pages", 0),
        "crypto.shredded": detail.get("shredded", 0),
        "crypto.residue_bytes": detail.get("residue_bytes", 0),
    }


# --------------------------------------------------------------------- run
@dataclass
class Run:
    """Everything one pass over a workload produced."""

    workload: Workload
    setup_s: float
    clients: List[Tally]
    tail: Tally
    #: Main-phase requests that started before this are warm-up.
    counted_from: float
    main_slices: List[Slice]
    #: Requests sent, warm-up and 429 retries included.
    sent: int
    attempted: int
    failures: List[str]
    service_stats: Any
    state: Dict[str, float]
    peak_rss_mb: float
    #: The traced pass's ``Tracer.attribute`` result.
    trace: Optional[Dict[str, Any]] = None

    @property
    def main_ops(self) -> int:
        return sum(
            1 for t in self.clients for start in t.start if start >= self.counted_from
        )


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    scale: float,
    setup_repeats: int,
    tracer: Optional[trace.Tracer] = None,
) -> Run:
    records = scaled_records(workload, scale)
    deployment, setup_s = timed_deploys(workload, records, setup_repeats)
    models = [ClientModel(c, CLIENTS, records) for c in range(CLIENTS)]
    main_s = seconds * workload.main_share
    if deployment.server is not None:
        senders = [http_sender(deployment.server.address) for _ in range(CLIENTS)]
        if tracer is not None:
            senders = [tracer.wrap(s, trace.HTTP, "roundtrip") for s in senders]
    else:
        senders = [inproc_sender(deployment.service)] * CLIENTS
    ops_each = (
        max(1, int(workload.main_op_cap * scale) // CLIENTS) if workload.main_op_cap else None
    )
    clients = [
        Client(
            senders[c],
            itertools.islice(op_stream(workload, models[c], seed, c), ops_each),
            Tally((c + 1) * 100_000_000),
            tracer,
            arrivals(workload.rate / CLIENTS, seed, c) if workload.rate else None,
        )
        for c in range(CLIENTS)
    ]
    eraser = Client(
        senders[0],
        itertools.islice(erase_stream(models[0], seed, 0), TAIL_MAX_ERASES),
        Tally(0),
        tracer,
        pace=(seconds - main_s) / TAIL_MAX_ERASES,
    )
    gc.collect()
    gc.freeze()
    if tracer is not None:
        tracer.install()
    try:
        counted_from = time.perf_counter() + main_s * WARMUP_SHARE
        main_slices = run_phase(clients, main_s)
        # What the main phase's traffic left behind, before the tail's
        # erases compact it away.  No request is in flight; the topology
        # write lock keeps the maintenance thread out as well.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        with deployment.service._topology.write():
            state = space_and_engine_counters(deployment.store, models)
        run_phase([eraser], seconds - main_s)
    finally:
        if tracer is not None:
            tracer.uninstall()
        gc.unfreeze()
    service_stats = deployment.service.stats()
    violations = deployment.close()
    swept, sweep_failures = final_sweep(deployment.store, models, seed)
    tallies = [client.tally for client in clients]
    everything = [*tallies, eraser.tally]
    sent = sum(len(t.done) + t.retries for t in everything)
    failures = [f for t in everything for f in t.failures]
    failures += sweep_failures
    failures += [f"invariant at close: {v}" for v in violations]
    run = Run(
        workload=workload,
        setup_s=setup_s,
        clients=tallies,
        tail=eraser.tally,
        counted_from=counted_from,
        main_slices=main_slices,
        sent=sent,
        attempted=sent + swept,
        failures=failures,
        service_stats=service_stats,
        state=state,
        peak_rss_mb=peak_rss_mb,
    )
    if tracer is not None:
        requests = eraser.tally.requests("tail:{}")
        for tally in tallies:
            requests += tally.requests("main:{}", counted_from)
        run.trace = tracer.attribute(requests)
    return run


def grounding_tax(workload: Workload, seed: int, scale: float) -> Tuple[float, float]:
    """Twin-store pass at ``ReplicatedStore`` depth: two identically loaded
    stores, alternating blocks of victims, ``erase_all_copies`` on one and
    ``naive_delete`` on the other.  Returns the median seconds of each:
    ``(grounded, naive)``."""
    records = scaled_records(workload, scale)
    grounded_store = build_store(workload, records)
    naive_store = build_store(workload, records)
    model = ClientModel(0, 1, records)
    victims = [key_name(i) for _k, i, _v in itertools.islice(
        erase_stream(model, seed, 0), min(TWIN_VICTIMS, records // 2))]
    grounded: List[float] = []
    naive: List[float] = []
    perf = time.perf_counter
    for at in range(0, len(victims), TWIN_BLOCK):
        block = victims[at:at + TWIN_BLOCK]
        for samples, erase in (
            (grounded, grounded_store.erase_all_copies),
            (naive, naive_store.naive_delete),
        ):
            for key in block:
                start = perf()
                erase(key)
                samples.append(perf() - start)
    return statistics.median(grounded), statistics.median(naive)


def inputs(workload: Workload, seed: int, scale: float) -> Dict[str, Any]:
    """What this run was fed — recorded beside its numbers."""
    return {
        "workload": workload.name,
        "seed": seed,
        "records": scaled_records(workload, scale),
        "backend": workload.backend.backend,
        "block_cache_capacity": workload.backend.block_cache_capacity,
        "mix": dict(workload.mix),
        "zipf_theta": ZIPF_THETA if workload.zipf else None,
        "transport": "http" if workload.http else "in-process",
        "loop": f"open, {workload.rate:g} req/s" if workload.rate else "closed",
        "main_op_cap": workload.main_op_cap,
        "clients": CLIENTS,
        "shards": SHARDS,
        "n_replicas": REPLICAS,
        "service": {
            "workers_per_shard": SERVICE_CONFIG.workers_per_shard,
            "queue_depth": SERVICE_CONFIG.queue_depth,
            "erase_batch": SERVICE_CONFIG.erase_batch,
            "invariant_check_every": SERVICE_CONFIG.invariant_check_every,
        },
        "op_digest": digest(workload, seed, scale),
    }
