"""Compliance service under concurrent load — the tentpole's latency gate.

Eight closed-loop client threads replay seeded workload mixes (the
GDPRBench erasure study and YCSB-C) against a live
:class:`~repro.service.ComplianceService` while the maintenance thread
advances a background rebalance and flushes read repairs underneath them.
The PR 6 runtime invariant registry runs *inside* the service as an
online oracle (every few maintenance ticks, and once more at close).

Unlike the simulation benches, the measured latencies here are
**wall-clock** — the service's claim is about its real request path
(admission queueing, shard locking, erase batching), not simulated engine
work.  The committed gates in ``benchmarks/baselines/service.json``
therefore carry ~10× headroom over observed values: they catch collapses
(a lost wakeup, an accidental global lock, an unbounded queue), not
machine noise.

Invariants gated in CI (``--smoke``): zero invariant violations while
erases race reads and rebalance steps, every erase verified clean, the
background rebalance attached mid-run drives to completion, zero
request errors, erase batching actually amortizes (fewer ``erase_many``
calls than erased keys), and the throughput/latency envelope holds.

``--json PATH`` writes machine-readable results (the
``BENCH_service.json`` artifact CI uploads).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_service.py [--smoke] [--json OUT]

or under pytest-benchmark like the other benches::

    PYTHONPATH=src python -m pytest benchmarks/bench_service.py
"""

from __future__ import annotations

import argparse
import json
import os
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.invariants import store_invariants
from repro.config import BackendConfig, ServiceConfig, StoreConfig
from repro.distributed.store import ReplicatedStore
from repro.service import ComplianceService, run_loadgen
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel
from repro.workloads import erasure_study_workload, ycsb_c_workload
from repro.workloads.driver import load_store

#: Committed latency/throughput baseline the CI smoke run gates against.
BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "baselines", "service.json"
)

#: How long after the last client op the maintenance thread may still take
#: to finish the rebalance before the "drives to completion" gate fails.
REBALANCE_DEADLINE_S = 10.0


@dataclass(frozen=True)
class ServiceBenchResult:
    """One workload's run against a live service."""

    workload: str
    backend: str
    clients: int
    shards_from: int
    shards_to: int
    ops: int
    reads: int
    writes: int
    erases: int
    read_misses: int
    rejected: int
    retries: int
    errors: int
    erases_verified_clean: bool
    erase_batches: int
    erased_keys: int
    maintenance_ticks: int
    repairs: int
    invariant_checks: int
    invariant_violations: int
    rebalance_completed: bool
    wall_seconds: float
    p50_ms: float
    p99_ms: float
    mean_ms: float
    ops_per_s: float


def run_service_bench(
    workload_name: str,
    n_records: int,
    n_ops: int,
    clients: int = 8,
    backend: str = "lsm",
    shards: int = 3,
    to_shards: int = 4,
) -> ServiceBenchResult:
    """Load a store, attach a background rebalance, and drive the seeded
    workload from ``clients`` threads with the invariant oracle on."""
    cost = CostModel(SimClock(), CostBook())
    backend_config = (
        BackendConfig(backend="lsm", memtable_capacity=32)
        if backend == "lsm"
        else BackendConfig(backend=backend)
    )
    store = ReplicatedStore.from_config(
        cost,
        StoreConfig(backend=backend_config, shards=shards, n_replicas=1),
    )
    if workload_name == "erasure_study":
        workload = erasure_study_workload(n_records, n_ops, seed=13)
    elif workload_name == "ycsb_c":
        workload = ycsb_c_workload(n_records, n_ops, seed=13)
    else:
        raise ValueError(f"unknown workload {workload_name!r}")
    keys = load_store(store, workload)

    service = ComplianceService(
        store,
        config=ServiceConfig(
            workers_per_shard=2,
            queue_depth=16,
            erase_batch=8,
            invariant_check_every=4,
        ),
        invariants=store_invariants(),
        initial_live=keys,
    )
    service.begin_rebalance(to_shards)
    report = run_loadgen(service, workload, clients=clients)
    # The gate is "the background rebalance completes", not "before the
    # last client op": a short read-only run ends within a few ticks.
    deadline = time.monotonic() + REBALANCE_DEADLINE_S
    while not service.rebalance_done and time.monotonic() < deadline:
        time.sleep(service.config.maintenance_interval)
    rebalance_completed = service.rebalance_done
    service.close()
    stats = service.stats()

    return ServiceBenchResult(
        workload=workload_name,
        backend=backend,
        clients=clients,
        shards_from=shards,
        shards_to=to_shards,
        ops=report.ops,
        reads=report.reads,
        writes=report.writes,
        erases=report.erases,
        read_misses=report.read_misses,
        rejected=report.rejected,
        retries=report.retries,
        errors=report.errors,
        erases_verified_clean=report.erases_verified_clean,
        erase_batches=stats.erase_batches,
        erased_keys=stats.erased_keys,
        maintenance_ticks=stats.maintenance_ticks,
        repairs=stats.repairs,
        invariant_checks=stats.invariant_checks,
        invariant_violations=stats.invariant_violations
        + len(service.violations),
        rebalance_completed=rebalance_completed,
        wall_seconds=report.wall_seconds,
        p50_ms=report.p50_ms,
        p99_ms=report.p99_ms,
        mean_ms=report.mean_ms,
        ops_per_s=report.ops_per_s,
    )


def load_service_baseline(mode: str) -> Optional[Dict[str, float]]:
    if not os.path.exists(BASELINE_PATH):
        return None
    with open(BASELINE_PATH) as fh:
        return json.load(fh)[mode]


def check_service_invariants(
    results: Sequence[ServiceBenchResult],
    baseline: Optional[Dict[str, float]] = None,
) -> None:
    """The correctness gates (always) plus the committed latency envelope
    (when a baseline applies)."""
    for r in results:
        # Correctness under true concurrency — the whole point.
        assert r.invariant_violations == 0, r
        assert r.invariant_checks > 0, r
        assert r.errors == 0, r
        assert r.rebalance_completed, r
        if r.erases:
            assert r.erases_verified_clean, r
            # Batching amortizes: strictly fewer erase_many calls than
            # erased keys would mean nothing at batch size 1.
            assert r.erase_batches <= r.erased_keys, r
        # Closed-loop accounting: every non-metadata op resolved.
        assert r.ops == r.reads + r.writes + r.erases + r.rejected, r
        if baseline is not None:
            assert r.ops_per_s >= baseline["min_ops_per_s"], (
                f"{r.workload}: {r.ops_per_s:.0f} ops/s below the committed "
                f"floor {baseline['min_ops_per_s']}"
            )
            assert r.p99_ms <= baseline["max_p99_ms"], (
                f"{r.workload}: p99 {r.p99_ms:.1f} ms past the committed "
                f"ceiling {baseline['max_p99_ms']} ms"
            )


def render_service(results: Sequence[ServiceBenchResult]) -> str:
    header = (
        f"{'workload':<15} {'backend':<8} {'ops':>6} {'erases':>7} "
        f"{'batches':>8} {'repairs':>8} {'ops/s':>8} {'p50 ms':>7} "
        f"{'p99 ms':>7} {'viol':>5}"
    )
    lines = [
        "service under concurrent load "
        "(8 clients, background rebalance, invariant oracle)",
        header,
        "-" * len(header),
    ]
    for r in results:
        lines.append(
            f"{r.workload:<15} {r.backend:<8} {r.ops:>6} {r.erases:>7} "
            f"{r.erase_batches:>8} {r.repairs:>8} {r.ops_per_s:>8.0f} "
            f"{r.p50_ms:>7.2f} {r.p99_ms:>7.2f} {r.invariant_violations:>5}"
        )
    return "\n".join(lines)


def compare_service(
    n_records: int, n_ops: int, backends: Sequence[str] = ("lsm",)
) -> List[ServiceBenchResult]:
    results = []
    for backend in backends:
        results.append(
            run_service_bench("erasure_study", n_records, n_ops, backend=backend)
        )
    results.append(run_service_bench("ycsb_c", n_records, n_ops))
    return results


def test_bench_service(once):
    from conftest import emit, scaled

    results = once(
        compare_service,
        scaled(400, minimum=200),
        scaled(600, minimum=300),
        ("lsm", "psql"),
    )
    check_service_invariants(results, load_service_baseline("full"))
    emit("bench_service", render_service(results))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="compliance service under concurrent load"
    )
    parser.add_argument("--records", type=int, default=400)
    parser.add_argument("--ops", type=int, default=600)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument(
        "--backends", nargs="+", default=["lsm", "psql"],
        choices=["psql", "lsm", "crypto-shred"],
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny run asserting the service gates (CI): zero invariant "
             "violations with 8 clients racing a live rebalance, all "
             "erases verified clean, latency envelope from "
             "benchmarks/baselines/service.json",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write machine-readable results (BENCH_service.json artifact)",
    )
    args = parser.parse_args(argv)
    if args.records < 1 or args.ops < 1:
        parser.error("--records and --ops must be >= 1")
    if args.clients < 1:
        parser.error("--clients must be >= 1")
    mode = "smoke" if args.smoke else "full"
    n_records = 200 if args.smoke else args.records
    n_ops = 300 if args.smoke else args.ops
    backends = ("lsm", "psql") if args.smoke else tuple(args.backends)

    results = []
    for backend in backends:
        results.append(
            run_service_bench(
                "erasure_study",
                n_records,
                n_ops,
                clients=args.clients,
                backend=backend,
            )
        )
    results.append(
        run_service_bench("ycsb_c", n_records, n_ops, clients=args.clients)
    )
    check_service_invariants(results, load_service_baseline(mode))
    print(render_service(results))

    if args.json:
        payload = {
            "bench": "bench_service",
            "mode": mode,
            "service": [asdict(r) for r in results],
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"\nresults written to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
